//! # netsim — deterministic flit-level network simulation substrate
//!
//! This crate provides the building blocks on which the multidestination-worm
//! switch architectures of Stunkel, Sivaram & Panda (ISCA '97) are modeled:
//!
//! * [`Flit`]s, [`Packet`]s and [`Message`]s ([`flit`], [`packet`], [`message`]),
//! * routing-header encodings, including the paper's *bit-string* encoding and
//!   the *multiport* encoding of the companion work ([`header`]),
//! * destination-set bitsets ([`destset`]),
//! * unidirectional, credit flow-controlled, fixed-delay links ([`link`]),
//! * a deterministic single-threaded cycle engine ([`engine`]),
//! * latency/throughput statistics and delivery tracking ([`stats`]),
//! * a seeded random-number helper for workload generation ([`rng`]),
//! * deterministic link-fault injection — worm drops, flit corruption,
//!   outages, credit leaks ([`fault`]).
//!
//! Everything is single-threaded and deterministic: components tick in a fixed
//! order, links impose at least one cycle of delay so that no component
//! observes another component's same-cycle output, and all randomness flows
//! from explicit seeds. Two runs with the same configuration produce
//! bit-identical results.
//!
//! ## Example
//!
//! ```
//! use netsim::engine::{Component, Engine, PortIo};
//! use netsim::flit::Flit;
//! use netsim::ids::NodeId;
//! use netsim::packet::{Packet, PacketBuilder};
//! use netsim::Cycle;
//! use std::rc::Rc;
//!
//! /// Sends one packet, flit by flit.
//! struct Producer { pkt: Rc<Packet>, next: u16 }
//! /// Counts flits it receives.
//! struct Consumer { seen: Rc<std::cell::Cell<u16>> }
//!
//! impl Component for Producer {
//!     fn tick(&mut self, _now: Cycle, io: &mut PortIo<'_>) {
//!         if self.next < self.pkt.total_flits() && io.can_send(0) {
//!             let f = Flit::new(self.pkt.clone(), self.next);
//!             io.send(0, f);
//!             self.next += 1;
//!         }
//!     }
//! }
//! impl Component for Consumer {
//!     fn tick(&mut self, _now: Cycle, io: &mut PortIo<'_>) {
//!         if let Some(_f) = io.recv(0) {
//!             io.return_credit(0);
//!             self.seen.set(self.seen.get() + 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let link = engine.add_link(1, 4);
//! let pkt = PacketBuilder::unicast(NodeId(0), NodeId(1), 8, 16).build();
//! let seen = Rc::new(std::cell::Cell::new(0));
//! engine.add_component(
//!     Box::new(Producer { pkt: Rc::new(pkt), next: 0 }),
//!     vec![],
//!     vec![link],
//! );
//! engine.add_component(
//!     Box::new(Consumer { seen: seen.clone() }),
//!     vec![link],
//!     vec![],
//! );
//! engine.run_for(64);
//! assert_eq!(seen.get(), 10); // 2 header flits + 8 payload flits
//! ```
#![deny(unreachable_pub, missing_debug_implementations)]

pub mod destset;
pub mod engine;
pub mod fault;
pub mod flit;
pub mod header;
pub mod health;
pub mod ids;
pub mod link;
pub mod message;
pub mod packet;
pub mod rng;
pub mod stats;

/// Simulation time, measured in link-flit cycles.
///
/// One cycle is the time to move one flit across one link (for the default
/// SP2-like parameterization: one byte at 40 MHz, i.e. 25 ns).
pub type Cycle = u64;

pub use destset::DestSet;
pub use engine::{Component, Engine, EpochAudit, EpochStatus, PortIo, TickStats};
pub use fault::{FaultCounters, FaultPlan};
pub use flit::Flit;
pub use header::RoutingHeader;
pub use health::FabricHealth;
pub use ids::{LinkId, MessageId, NodeId, PacketId, SwitchId};
pub use link::LinkEvent;
pub use message::{Message, MessageKind};
pub use packet::{Packet, PacketBuilder};
pub use rng::SimRng;
