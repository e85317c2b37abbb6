//! `mdw-routed` — a resident fault-tolerant fabric-control service
//! (DESIGN.md §12).
//!
//! The offline pipeline (PR 4's [`FaultResponder`](crate::respond) +
//! PR 5's memoized model-check vet) handles one outage at a time under a
//! test harness's control. This module packages it as a *service* that
//! owns a live [`System`](crate::build::System) and survives fault
//! storms:
//!
//! * [`proto`] — the line-delimited request protocol clients speak
//!   (link up/down, multicast join/leave, route/reach/health/metrics
//!   queries, deterministic `step`);
//! * [`queue`] — bounded request queues with the explicit
//!   backpressure/shed split: fabric *events* block the producer (they
//!   must never be lost), *queries* are shed with a counted error when
//!   the service falls behind;
//! * [`damp`] — per-link flap damping layered over the responder's
//!   debounce: each confirmed transition charges a penalty that decays
//!   exponentially; links over the suppress threshold are masked until
//!   they cool below the reuse threshold, so one flapping cable cannot
//!   force a reroute per flap;
//! * [`backoff`] — capped exponential retry backoff with deterministic
//!   jitter for responses the vet rejected or the purge timed out on;
//! * [`ladder`] — the degradation ladder (full mcast → masked mcast →
//!   U-Min unicast → read-only) with hysteresis on heal: descent is
//!   immediate, each climb waits out a calm window;
//! * [`storm`] — the storm controller gluing damper, backoff, ladder,
//!   and the detect→vet→install watchdog around the responder;
//! * [`metrics`] — first-class service metrics: p50/p99 detect→install
//!   latency (cycles), p50/p99 vet wall time (ns), shed/served counts;
//! * [`service`] — the resident loop: owns the `System` (which is
//!   `!Send` — `Rc` everywhere — so the service thread is the only one
//!   that touches it) and consumes request envelopes from reader
//!   threads over an `mpsc::sync_channel`.

pub mod backoff;
pub mod damp;
pub mod ladder;
pub mod metrics;
pub mod proto;
pub mod queue;
pub mod service;
pub mod storm;

pub use backoff::Backoff;
pub use damp::FlapDamper;
pub use ladder::Ladder;
pub use metrics::ServiceMetrics;
pub use proto::{LinkRef, Request};
pub use queue::{Envelope, ShedCounter};
pub use service::RoutedService;
pub use storm::{StormCounters, StormResponder};

use netsim::Cycle;

// The storm-hardening tuning (DESIGN.md §12). Every run uses these
// values; the unit tests of `FlapDamper`, `Backoff` and `Ladder` drive
// other values through their constructors.

/// Capacity of the bounded request queue between reader threads and the
/// service loop. Fabric events block when it fills (backpressure);
/// queries are shed with an error.
pub const QUEUE_CAP: usize = 64;
/// Engine cycles advanced per service-loop slice, which is also the storm
/// controller's tick cadence.
pub const SLICE: Cycle = 32;
/// Flap penalty charged per debounce-confirmed link transition.
pub const FLAP_PENALTY: u64 = 1_000;
/// Penalty at or above which a link is suppressed (treated as dead).
pub const FLAP_SUPPRESS: u64 = 2_500;
/// Penalty at or below which a suppressed link is reinstated.
pub const FLAP_REUSE: u64 = 800;
/// Half-life of the flap penalty decay, in cycles.
pub const FLAP_HALF_LIFE: Cycle = 2_048;
/// Base delay of the reroute retry backoff, in cycles.
pub const RETRY_BASE: Cycle = 64;
/// Cap on a single backoff delay, in cycles.
pub const RETRY_CAP: Cycle = 4_096;
/// Retry attempts before the ladder drops the fabric to read-only.
pub const RETRY_MAX: u32 = 5;
/// Calm cycles required before the ladder climbs one rung on heal.
pub const HEAL_HYSTERESIS: Cycle = 2_048;
/// Watchdog deadline on a detect→vet→install episode, in cycles; an
/// episode running past it force-degrades the fabric to U-Min.
pub const DEADLINE: Cycle = 4_096;
/// Largest `step` one request may ask for, in cycles. The service
/// thread runs a step to completion before it reads the next request,
/// so an unbounded step would make every client wait behind it; a
/// client that needs more time sends several steps. A capped step on an
/// idle `configs/routed.mdw` fabric takes 24–50 ms (release build,
/// 2-CPU host).
pub const MAX_STEP: Cycle = 1_000_000;

const _: () = {
    // A zero-slot queue sheds every query and blocks every event forever.
    assert!(QUEUE_CAP >= 1);
    // A zero slice never advances the fabric between ticks.
    assert!(SLICE >= 1 && SLICE <= MAX_STEP);
    // A zero-cycle watchdog trips on every successful response.
    assert!(DEADLINE >= 1);
    // A suppressed link must be able to cool off below the threshold
    // that suppressed it.
    assert!(FLAP_REUSE < FLAP_SUPPRESS);
    assert!(FLAP_HALF_LIFE >= 1 && FLAP_PENALTY >= 1);
    assert!(RETRY_BASE >= 1 && RETRY_BASE <= RETRY_CAP && RETRY_MAX >= 1);
};
