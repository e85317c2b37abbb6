//! # mdworm — reproduction of *Implementing Multidestination Worms in
//! Switch-Based Parallel Systems: Architectural Alternatives and their
//! Impact* (Stunkel, Sivaram & Panda, ISCA 1997)
//!
//! This crate ties the substrates together into runnable systems and
//! experiments:
//!
//! * [`config::SystemConfig`] — topology (k-ary tree / butterfly /
//!   irregular), switch architecture (central-buffer / input-buffer),
//!   multicast scheme (bit-string HW / multiport HW / U-Min SW), timing;
//! * [`build::build_system`] — wires hosts, switches and links into a
//!   deterministic [`netsim::engine::Engine`];
//! * [`workload`] — the paper's traffic mixes (multiple multicast,
//!   bimodal, degree/length/size sweeps);
//! * [`sim::run_experiment`] — warm-up / measure / drain harness with a
//!   deadlock watchdog, optional link-fault injection and end-to-end
//!   recovery;
//! * [`forensics`] — structured [`forensics::DeadlockReport`] (buffer
//!   occupancy, blocked worms, wait-for cycle) when the watchdog fires;
//! * [`sweep`] — parallel fan-out of independent runs over a worker pool
//!   (thread-confined engines, deterministic result order);
//! * [`experiments`] — the E1..E11 suite mapped to the paper's evaluation
//!   (see DESIGN.md and EXPERIMENTS.md);
//! * [`report`] — markdown/CSV result tables.
//!
//! ## Quickstart
//!
//! ```
//! use mdworm::config::{SystemConfig, TopologyKind};
//! use mdworm::sim::{run_experiment, RunConfig};
//! use mdworm::workload::TrafficSpec;
//!
//! // 8-processor tree, light multiple-multicast traffic, short run.
//! let cfg = SystemConfig {
//!     topology: TopologyKind::KaryTree { k: 2, n: 3 },
//!     ..SystemConfig::default()
//! };
//! let spec = TrafficSpec::multiple_multicast(0.02, 4, 16);
//! let out = run_experiment(&cfg, &spec, &RunConfig::quick());
//! assert!(!out.deadlocked);
//! assert!(out.completed_mcasts > 0);
//! ```

pub mod build;
pub mod cfgtext;
pub mod chaos;
pub mod config;
pub mod experiments;
pub mod forensics;
pub mod journal;
pub mod report;
pub mod respond;
pub mod routed;
pub mod sim;
pub mod sweep;
pub mod workload;

pub use build::{build_system, System};
pub use cfgtext::parse_config;
pub use config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
pub use forensics::{capture_deadlock_report, DeadlockReport};
pub use mdw_analysis::{ConfigReport, Diagnostic, Severity};
pub use respond::{FaultResponder, MemoStats, ResponseConfig, ResponseCounters, ResponseEvent};
pub use routed::{RoutedService, StormResponder};
pub use sim::{run_experiment, RunConfig, RunOutcome};
pub use sweep::{parallel_map, run_sweep};
pub use workload::{make_sources, RandomTraffic, TrafficSpec};
