//! # switches — the paper's two multidestination-capable switch
//! architectures
//!
//! Implements the architectural alternatives of Stunkel, Sivaram & Panda
//! (ISCA '97) as [`netsim::engine::Component`]s:
//!
//! * [`central::CentralBufferSwitch`] — the SP2-style shared **central
//!   queue** organized in reference-counted chunks, with an unbuffered
//!   bypass crossbar for unicast and full-packet reservation for
//!   multidestination worms (paper §4);
//! * [`input_buffered::InputBufferedSwitch`] — per-input packet-deep FIFOs
//!   with asynchronous replication through per-branch read cursors (paper
//!   §5).
//!
//! Both decode unicast, bit-string and multiport headers through the shared
//! logic in `decode` (internal) and are parameterized by
//! [`config::SwitchConfig`]. Per-switch counters land in
//! [`stats::SwitchStats`]. The chunk-allocate / replicate / credit-return
//! logic of both architectures is factored into plain state types with
//! one mutating method per transition in [`semantics`]; the switches call
//! those methods on their live state, and the `mdw-analysis` bounded model
//! checker calls the same methods on cloned states to explore them
//! exhaustively.
//!
//! Deadlock freedom rests on the paper's condition — *a packet accepted for
//! transmission can eventually be completely buffered* — enforced here by
//! construction: the central-buffer switch reserves a worm's full chunk
//! demand before absorbing it, and the input-buffer switch sizes each FIFO
//! to one maximum packet ([`config::SwitchConfig::validate`]).
#![deny(unreachable_pub, missing_debug_implementations)]

pub mod central;
pub mod config;
pub mod ctl;
mod decode;
pub mod input_buffered;
pub mod semantics;
pub mod stats;
mod testutil;

pub use central::CentralBufferSwitch;
pub use config::{ConfigError, ReplicationMode, SwitchConfig, UpSelect};
pub use ctl::SwitchCtl;
pub use decode::verify_bitstring_roundtrip;
pub use input_buffered::InputBufferedSwitch;
pub use semantics::{CqState, IbHeadState, ReplState};
pub use stats::{BlockedWormSnap, SwitchSnapshot, SwitchStats};
