//! The storm controller: flap damping, retry backoff, the degradation
//! ladder, and the detect→install watchdog wrapped around the
//! [`FaultResponder`].
//!
//! Per tick (every [`SLICE`](super::SLICE) cycles):
//!
//! 1. **observe** — drain link events into the debounced health view;
//! 2. **damp** — charge each newly confirmed transition to the flap
//!    damper, decay penalties, and push the resulting suppressed set
//!    into the responder (suppressed links mask exactly like dead ones);
//! 3. **retry** — if a rejected/incomplete response's backoff expired,
//!    arm the responder's one-shot retry;
//! 4. **respond** — let the responder run the gate→purge→vet→install
//!    protocol if the dead set changed (or a retry is armed). A success
//!    resets the backoff; a rejection or incomplete purge schedules the
//!    next retry, and an exhausted retry budget forces the fabric to
//!    read-only;
//! 5. **watchdog** — an episode whose detect→install latency ran past
//!    [`DEADLINE`] force-degrades to U-Min-only: slow
//!    recovery is treated as no recovery, and unicast keeps flowing while
//!    humans (or more retries) catch up;
//! 6. **ladder** — compute the rung current conditions demand, let the
//!    hysteresis ladder integrate it, and project the rung onto the
//!    shared [`FabricMode`](collectives::degrade::FabricMode) cell.
//!
//! All timing is cycle-domain and all jitter comes from a forked
//! [`SimRng`] stream, so an identical storm replays
//! to an identical recovery timeline — the E18 determinism test holds
//! the whole controller to that.

use super::backoff::Backoff;
use super::damp::FlapDamper;
use super::ladder::Ladder;
use super::{
    DEADLINE, FLAP_HALF_LIFE, FLAP_PENALTY, FLAP_REUSE, FLAP_SUPPRESS, HEAL_HYSTERESIS, RETRY_BASE,
    RETRY_CAP, RETRY_MAX,
};
use crate::build::System;
use crate::respond::{FaultResponder, ResponseConfig, ResponseCounters, MAX_HOPS};
use collectives::{DegradePlanner, Rung};
use mintopo::route::McastPlan;
use netsim::destset::DestSet;
use netsim::ids::NodeId;
use netsim::rng::SimRng;
use netsim::Cycle;

/// Storm-control activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StormCounters {
    /// Retries armed after a rejection or incomplete purge.
    pub retries: u64,
    /// Watchdog deadline breaches.
    pub watchdog_trips: u64,
    /// Retry budgets exhausted (each parks the fabric read-only).
    pub exhausted: u64,
    /// Links suppressed by the flap damper.
    pub suppressions: u64,
    /// Suppressed links reinstated after cooling.
    pub reinstatements: u64,
}

/// The controller. Owns the responder; the service (or the E18 driver)
/// owns the `System` and calls [`tick`](StormResponder::tick) at the
/// slice cadence.
#[derive(Debug)]
pub struct StormResponder {
    resp: FaultResponder,
    damp: FlapDamper,
    ladder: Ladder,
    backoff: Backoff,
    retry_at: Option<Cycle>,
    exhausted: bool,
    seen: ResponseCounters,
    counters: StormCounters,
    /// Cycles spent on each rung, indexed FullMcast..ReadOnly.
    rung_cycles: [u64; 4],
    last_tick: Cycle,
}

fn rung_index(r: Rung) -> usize {
    match r {
        Rung::FullMcast => 0,
        Rung::MaskedMcast => 1,
        Rung::UMinOnly => 2,
        Rung::ReadOnly => 3,
    }
}

impl StormResponder {
    /// Attaches responder + storm control to `sys`. The jitter stream is
    /// forked off the system seed so retry timelines replay.
    pub fn new(response: ResponseConfig, sys: &mut System) -> Self {
        let rng = SimRng::new(sys.config.seed ^ 0x5702_11ED).fork(7);
        let resp = FaultResponder::new(response, sys);
        let damp = FlapDamper::new(FLAP_PENALTY, FLAP_SUPPRESS, FLAP_REUSE, FLAP_HALF_LIFE);
        let backoff = Backoff::new(RETRY_BASE, RETRY_CAP, RETRY_MAX, rng);
        let last_tick = sys.engine.now();
        StormResponder {
            resp,
            damp,
            ladder: Ladder::new(),
            backoff,
            retry_at: None,
            exhausted: false,
            seen: ResponseCounters::default(),
            counters: StormCounters::default(),
            rung_cycles: [0; 4],
            last_tick,
        }
    }

    /// One storm-control tick. Returns `true` if a response protocol ran.
    pub fn tick(&mut self, sys: &mut System) -> bool {
        // Rung occupancy is charged to the rung held *since* the last
        // tick, before any transition this tick makes.
        let now = sys.engine.now();
        self.rung_cycles[rung_index(self.ladder.rung())] += now.saturating_sub(self.last_tick);
        self.last_tick = now;

        // 1+2: observe, then damp on confirmed transitions.
        self.resp.observe_health(sys);
        for t in self.resp.drain_confirmed() {
            self.damp.record(t.link, t.at);
        }
        self.damp.advance(now);
        self.counters.suppressions = self.damp.suppressions();
        self.counters.reinstatements = self.damp.reinstatements();
        self.resp.set_suppressed(self.damp.suppressed());

        // 3: armed retry whose backoff expired.
        if let Some(at) = self.retry_at {
            if now >= at {
                self.retry_at = None;
                self.resp.request_retry();
            }
        }

        // 4: the response protocol proper.
        let ran = self.resp.maybe_respond(sys);
        if ran {
            let c = self.resp.counters();
            let failed = c.reroutes_rejected > self.seen.reroutes_rejected
                || c.purges_incomplete > self.seen.purges_incomplete;
            let succeeded = c.reroutes > self.seen.reroutes || c.heals > self.seen.heals;
            self.seen = c;
            if failed {
                match self.backoff.next_delay() {
                    Some(d) => {
                        self.counters.retries += 1;
                        self.retry_at = Some(sys.engine.now() + d);
                    }
                    None if !self.exhausted => {
                        self.counters.exhausted += 1;
                        self.exhausted = true;
                        self.ladder.force_down(Rung::ReadOnly);
                    }
                    None => {}
                }
            } else if succeeded {
                self.backoff.reset();
                self.retry_at = None;
                self.exhausted = false;
            }

            // 5: watchdog on the episode that just completed.
            if let Some(&latency) = self.resp.latency().values().last() {
                if latency > DEADLINE {
                    self.counters.watchdog_trips += 1;
                    self.ladder.force_down(Rung::UMinOnly);
                }
            }
        }

        // 6: ladder integration. Conditions demand: read-only while the
        // retry budget is exhausted, U-Min while a retry is pending
        // (coverage is stale — the vet refused the masked tables), the
        // responder's masked rung while cuts are masked, full otherwise.
        let demanded = if self.exhausted {
            Rung::ReadOnly
        } else if self.retry_at.is_some() {
            Rung::UMinOnly
        } else if !self.resp.masked_ports().is_empty() {
            Rung::MaskedMcast
        } else {
            Rung::FullMcast
        };
        self.ladder
            .observe(sys.engine.now(), demanded, HEAL_HYSTERESIS);
        self.ladder.apply(&sys.fabric_mode);
        ran
    }

    /// Coverage plan for `dests` from `src` under the current rung and
    /// `sys`'s live tables: one worm over what the tables still cover,
    /// the rest peeled off to unicast, and everything peeled from U-Min
    /// down. The resident service answers route queries with it and E18
    /// draws its query load through it; neither touches the traffic
    /// counters.
    pub fn plan(&self, sys: &System, src: NodeId, dests: &DestSet) -> McastPlan {
        if self.rung() >= Rung::UMinOnly {
            return McastPlan {
                worm: DestSet::empty(dests.universe()),
                peeled: dests.clone(),
            };
        }
        DegradePlanner {
            tables: sys.tables.clone(),
            topo: sys.topology.clone(),
            policy: sys.config.switch.policy,
            max_hops: MAX_HOPS,
        }
        .split(src, dests)
    }

    /// The wrapped responder (health, events, latency series, vet stats).
    pub fn responder(&self) -> &FaultResponder {
        &self.resp
    }

    /// The degradation ladder's current rung.
    pub fn rung(&self) -> Rung {
        self.ladder.rung()
    }

    /// Ladder rung changes so far.
    pub fn ladder_transitions(&self) -> u64 {
        self.ladder.transitions()
    }

    /// Storm-control counters.
    pub fn counters(&self) -> StormCounters {
        self.counters
    }

    /// Cycles spent on each rung `[FullMcast, MaskedMcast, UMinOnly,
    /// ReadOnly]`, as charged at tick boundaries.
    pub fn rung_cycles(&self) -> [u64; 4] {
        self.rung_cycles
    }

    /// Links currently suppressed by the damper.
    pub fn suppressed(&self) -> Vec<netsim::ids::LinkId> {
        self.damp.suppressed()
    }
}
