//! Measurement harness: warm-up, measurement window, drain, deadlock
//! watchdog.

use crate::build::build_system;
use crate::config::SystemConfig;
use crate::forensics::{capture_deadlock_report, DeadlockReport};
use crate::respond::{FaultResponder, MemoStats, ResponseCounters};
use crate::workload::{make_sources, TrafficSpec};
use collectives::{DegradeCounters, RecoveryCounters};
use netsim::stats::Summary;
use netsim::{Cycle, FaultCounters, FaultPlan};

/// Run-length parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Cycles before measurement starts (messages created earlier are
    /// excluded from statistics).
    pub warmup: Cycle,
    /// Measurement window length; traffic generation stops at its end.
    pub measure: Cycle,
    /// Maximum extra cycles allowed for draining in-flight messages.
    pub drain_max: Cycle,
    /// Watchdog: if in-flight messages exist but no flit moves for this
    /// many cycles, declare deadlock.
    pub watchdog_grace: Cycle,
    /// Fault plan injected into every link; `None` (and no-op plans) keep
    /// the fault-free fast path.
    pub faults: Option<FaultPlan>,
    /// Scripted fabric-link outages: `(fabric link index, down, up)`
    /// cycles, applied to `System::links.fabric[index % len]` after the
    /// build. Unlike the [`FaultPlan`] hazard process these are bounded,
    /// deterministic windows — the storm shape crash sweeps and response
    /// experiments want.
    pub outages: Vec<(usize, Cycle, Cycle)>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 5_000,
            measure: 40_000,
            drain_max: 200_000,
            watchdog_grace: 20_000,
            faults: None,
            outages: Vec::new(),
        }
    }
}

/// Upper bound on the drain-phase probe step: how many cycles the engine
/// runs between checks of the outstanding-message count and the deadlock
/// watchdog.
const PROBE: Cycle = 500;

/// Cycles between fault-responder polls while a responder is attached.
/// Half the default debounce window, so a confirmed transition is acted on
/// at most one poll after it matures.
const RESPONDER_POLL: Cycle = 32;

/// The drain probe step actually taken: at most [`PROBE`] cycles, but
/// never more than half the watchdog grace (so stalls are noticed
/// promptly), at least 1 (so degenerate graces still make progress), and
/// never more than the cycles `remaining` in the drain budget (so the run
/// cannot overshoot `stop_at + drain_max`).
fn drain_probe_step(watchdog_grace: Cycle, remaining: Cycle) -> Cycle {
    PROBE.min(watchdog_grace / 2).max(1).min(remaining)
}

impl RunConfig {
    /// A small run for tests and smoke benchmarks.
    pub fn quick() -> Self {
        RunConfig {
            warmup: 1_000,
            measure: 6_000,
            drain_max: 60_000,
            watchdog_grace: 10_000,
            faults: None,
            outages: Vec::new(),
        }
    }
}

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Offered load the workload was configured for.
    pub offered_load: f64,
    /// Multicast latency to the last destination (the paper's metric).
    pub mcast_last: Summary,
    /// Mean-over-destinations multicast latency.
    pub mcast_avg: Summary,
    /// Unicast latency.
    pub unicast: Summary,
    /// Delivered payload flits per node per cycle over the measurement
    /// window (each destination's copy counts).
    pub throughput: f64,
    /// Completed multicasts in the window.
    pub completed_mcasts: u64,
    /// Completed unicasts in the window.
    pub completed_unicasts: u64,
    /// Messages still undelivered when the run ended (should be 0 unless
    /// saturated or deadlocked).
    pub leftover: usize,
    /// The drain phase did not finish: the network could not keep up.
    pub saturated: bool,
    /// The watchdog saw in-flight traffic make no progress.
    pub deadlocked: bool,
    /// Forensic snapshot captured when the watchdog fired: buffer
    /// occupancy, blocked worms, and the wait-for cycle.
    pub deadlock: Option<DeadlockReport>,
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Mean ejection-link utilization over the whole run (flits per link
    /// per cycle) — the scheme-independent capacity bound.
    pub eject_utilization: f64,
    /// Mean inter-switch fabric-link utilization over the whole run.
    pub fabric_utilization: f64,
    /// Faults the links actually injected (all zero on fault-free runs).
    pub faults: FaultCounters,
    /// Host-side recovery activity (all zero when recovery is disabled).
    pub recovery: RecoveryCounters,
    /// Gate/split degradation activity (all zero without fault response).
    pub degrade: DegradeCounters,
    /// Fault-responder activity (all zero without fault response).
    pub response: ResponseCounters,
    /// Responder event-log entries plus latency samples evicted by their
    /// ring bounds (0 without fault response) — how much history the
    /// bounded logs shed over the run.
    pub response_dropped: u64,
    /// Structural vets run, as `misses`; `hits` is always 0, because the
    /// structural half is not cached (all zero without fault response).
    pub vet_memo: MemoStats,
    /// Deep-vet (bounded model check) slot activity: a hit reuses the
    /// responder's last verdict under the same bounds and options.
    pub deep_memo: MemoStats,
    /// FNV-64 digest of the responder's full durable state at run end
    /// (`None` without fault response). A crashed-and-recovered run must
    /// reproduce the uncrashed oracle's digest exactly.
    pub response_digest: Option<String>,
    /// Cycles the engine's torn-install audit flagged: committed table
    /// epochs diverged across switches with no armed commit explaining
    /// the laggard. Always 0 when the audit is off (`epoch.audit`); must
    /// stay 0 when it is on, crash recovery included.
    pub torn_cycles: u64,
}

/// Builds the system, applies the workload and measures it.
///
/// Traffic runs for `run.warmup + run.measure` cycles; statistics cover
/// messages created inside the measurement window; afterwards the system
/// drains (no new traffic) until empty, `run.drain_max` elapses, or the
/// watchdog fires.
pub fn run_experiment(config: &SystemConfig, spec: &TrafficSpec, run: &RunConfig) -> RunOutcome {
    let n = config.n_hosts();
    let stop_at = run.warmup + run.measure;
    let sources = make_sources(spec, n, config.seed, Some(stop_at));
    let mut sys = build_system(config.clone(), sources, None);
    if config.epoch_audit {
        sys.engine.enable_epoch_audit();
    }
    if let Some(plan) = &run.faults {
        sys.engine.install_faults(plan);
    }
    if !sys.links.fabric.is_empty() {
        for &(idx, down, up) in &run.outages {
            let link = sys.links.fabric[idx % sys.links.fabric.len()];
            sys.engine.script_outage(link, down, up);
        }
    }
    sys.shared.tracker.borrow_mut().set_measure_from(run.warmup);
    let mut responder = sys
        .config
        .response
        .clone()
        .map(|rc| FaultResponder::new(rc, &mut sys));

    match &mut responder {
        None => sys.engine.run_until(stop_at),
        Some(r) => {
            // The responder needs the engine paused at a steady cadence to
            // drain link events and run quiesce windows; its own protocol
            // phases advance the engine too, so re-check the clock.
            while sys.engine.now() < stop_at {
                let step = RESPONDER_POLL.min(stop_at - sys.engine.now());
                sys.engine.run_for(step);
                r.poll(&mut sys);
            }
        }
    }

    // Drain with watchdog. The probe step is clamped both by the watchdog
    // grace (so stalls are noticed promptly) and by the cycles left in the
    // drain budget (so the run never overshoots `stop_at + drain_max`).
    let drain_end = stop_at + run.drain_max;
    let mut deadlocked = false;
    let mut last_moves = sys.engine.total_flit_moves();
    let mut last_progress = sys.engine.now();
    while sys.tracker().borrow().outstanding() > 0 && sys.engine.now() < drain_end && !deadlocked {
        let step = drain_probe_step(run.watchdog_grace, drain_end - sys.engine.now());
        sys.engine.run_for(step);
        if let Some(r) = &mut responder {
            r.poll(&mut sys);
        }
        let moves = sys.engine.total_flit_moves();
        if moves != last_moves {
            last_moves = moves;
            last_progress = sys.engine.now();
        } else if sys.engine.now() - last_progress >= run.watchdog_grace {
            deadlocked = true;
        }
    }

    let deadlock = deadlocked.then(|| capture_deadlock_report(&mut sys, last_progress));
    // Catch sleeping switches' per-cycle gauges up before stats are read.
    sys.engine.flush();
    let utilization = sys.link_utilization();
    let recovery = sys.shared.recovery.borrow().counters;
    let tracker = sys.tracker();
    let tracker = tracker.borrow();
    let leftover = tracker.outstanding();
    RunOutcome {
        offered_load: spec.load,
        mcast_last: tracker.mcast_last.summary(),
        mcast_avg: tracker.mcast_avg.summary(),
        unicast: tracker.unicast.summary(),
        throughput: tracker.payload_delivered() as f64 / n as f64 / run.measure as f64,
        completed_mcasts: tracker.completed_mcasts(),
        completed_unicasts: tracker.completed_unicasts(),
        leftover,
        saturated: leftover > 0 && !deadlocked,
        deadlocked,
        deadlock,
        cycles: sys.engine.now(),
        eject_utilization: utilization.eject,
        fabric_utilization: utilization.fabric,
        faults: sys.engine.fault_counters(),
        recovery,
        degrade: sys.fabric_mode.counters(),
        response: responder.as_ref().map(|r| r.counters()).unwrap_or_default(),
        response_dropped: responder.as_ref().map(|r| r.dropped()).unwrap_or_default(),
        vet_memo: responder
            .as_ref()
            .map(|r| r.vet_memo_stats())
            .unwrap_or_default(),
        deep_memo: responder
            .as_ref()
            .map(|r| r.deep_memo_stats())
            .unwrap_or_default(),
        response_digest: responder.as_ref().map(|r| r.state_digest()),
        torn_cycles: sys
            .engine
            .epoch_audit()
            .map(|a| a.torn_cycles)
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{McastImpl, SwitchArch, TopologyKind};

    fn small_cfg(arch: SwitchArch, mcast: McastImpl) -> SystemConfig {
        SystemConfig {
            topology: TopologyKind::KaryTree { k: 2, n: 3 }, // 8 hosts
            arch,
            mcast,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn light_unicast_load_is_clean() {
        let cfg = small_cfg(SwitchArch::CentralBuffer, McastImpl::HwBitString);
        let spec = TrafficSpec::unicast(0.05, 32);
        let out = run_experiment(&cfg, &spec, &RunConfig::quick());
        assert!(!out.deadlocked, "deadlock under light load");
        assert!(!out.saturated, "saturation under light load");
        assert_eq!(out.leftover, 0);
        assert!(out.completed_unicasts > 10);
        assert!(out.unicast.mean > 0.0);
        assert!(out.throughput > 0.0);
    }

    #[test]
    fn light_multicast_load_all_schemes_deliver() {
        for (arch, mcast) in [
            (SwitchArch::CentralBuffer, McastImpl::HwBitString),
            (SwitchArch::InputBuffered, McastImpl::HwBitString),
            (SwitchArch::CentralBuffer, McastImpl::SwBinomial),
        ] {
            let cfg = small_cfg(arch, mcast);
            let spec = TrafficSpec::multiple_multicast(0.03, 4, 32);
            let out = run_experiment(&cfg, &spec, &RunConfig::quick());
            assert!(!out.deadlocked, "{arch:?}/{mcast:?} deadlocked");
            assert_eq!(out.leftover, 0, "{arch:?}/{mcast:?} left messages");
            assert!(out.completed_mcasts > 5, "{arch:?}/{mcast:?}");
        }
    }

    #[test]
    fn heavy_load_saturates_not_deadlocks() {
        let cfg = small_cfg(SwitchArch::CentralBuffer, McastImpl::HwBitString);
        let spec = TrafficSpec::multiple_multicast(0.9, 7, 64);
        let run = RunConfig {
            warmup: 500,
            measure: 4_000,
            drain_max: 2_000, // deliberately too short to drain
            watchdog_grace: 10_000,
            faults: None,
            outages: Vec::new(),
        };
        let out = run_experiment(&cfg, &spec, &run);
        assert!(!out.deadlocked, "watchdog fired under saturation");
    }

    #[test]
    fn eject_utilization_tracks_delivered_load() {
        // Below saturation, ejection-link usage ≈ delivered payload plus
        // header overhead, independent of scheme.
        let cfg = small_cfg(SwitchArch::CentralBuffer, McastImpl::HwBitString);
        let spec = TrafficSpec::multiple_multicast(0.3, 4, 32);
        let run = RunConfig::quick();
        let out = run_experiment(&cfg, &spec, &run);
        assert!(!out.deadlocked);
        // Headers add ~2/34 for this configuration; warm-up/drain phases
        // dilute the average, so accept a broad band around the load.
        assert!(
            out.eject_utilization > 0.15 && out.eject_utilization < 0.45,
            "eject utilization {} for load 0.3",
            out.eject_utilization
        );
        assert!(out.fabric_utilization > 0.0);
    }

    #[test]
    fn drain_probe_step_clamps() {
        // Nominal: a generous grace leaves the full PROBE step.
        assert_eq!(drain_probe_step(20_000, 1 << 30), PROBE);
        // Tight grace halves the step so stalls are noticed in time.
        assert_eq!(drain_probe_step(600, 1 << 30), 300);
        // Degenerate graces still make progress.
        assert_eq!(drain_probe_step(0, 1 << 30), 1);
        assert_eq!(drain_probe_step(1, 1 << 30), 1);
        // The drain_max < watchdog_grace/2 edge: the remaining budget is
        // the binding clamp, never the grace-derived step.
        assert_eq!(drain_probe_step(20_000, 123), 123);
        assert_eq!(drain_probe_step(20_000, 1), 1);
        // ...and a remaining budget above the grace clamp leaves the
        // grace clamp binding.
        assert_eq!(drain_probe_step(100, 123), 50);
    }

    #[test]
    fn drain_probe_never_overshoots_the_budget() {
        // With an odd, tiny drain budget the probe step must shrink to the
        // remaining cycles instead of sailing past `stop_at + drain_max`.
        let cfg = small_cfg(SwitchArch::CentralBuffer, McastImpl::HwBitString);
        let spec = TrafficSpec::multiple_multicast(0.9, 7, 64);
        let run = RunConfig {
            warmup: 500,
            measure: 4_000,
            drain_max: 123,
            watchdog_grace: 10_000,
            faults: None,
            outages: Vec::new(),
        };
        let out = run_experiment(&cfg, &spec, &run);
        assert!(
            out.saturated,
            "load 0.9 with a 123-cycle drain must saturate"
        );
        assert_eq!(
            out.cycles,
            run.warmup + run.measure + run.drain_max,
            "drain ran past its budget"
        );
    }

    #[test]
    fn faulty_links_with_recovery_still_deliver_everything() {
        let mut cfg = small_cfg(SwitchArch::CentralBuffer, McastImpl::HwBitString);
        cfg.recovery = Some(collectives::RecoveryConfig {
            timeout: 1_500,
            timeout_cap: 12_000,
            max_retries: 10,
        });
        let spec = TrafficSpec::multiple_multicast(0.03, 4, 32);
        let run = RunConfig {
            faults: Some(netsim::FaultPlan::drops(9, 1e-3)),
            ..RunConfig::quick()
        };
        let out = run_experiment(&cfg, &spec, &run);
        assert!(!out.deadlocked);
        assert_eq!(out.leftover, 0, "recovery must re-deliver dropped worms");
        assert!(out.faults.worms_dropped > 0, "fault plan never fired");
        assert!(out.recovery.retransmits > 0, "drops must trigger resends");
        assert_eq!(out.recovery.gave_up, 0);
    }

    #[test]
    fn permanent_outage_wedges_and_watchdog_reports() {
        // Every link dies within ~100 cycles and never comes back; without
        // recovery the network freezes and the watchdog must produce a
        // forensic report through the run_experiment path.
        let cfg = small_cfg(SwitchArch::CentralBuffer, McastImpl::HwBitString);
        let spec = TrafficSpec::multiple_multicast(0.1, 4, 32);
        let run = RunConfig {
            warmup: 500,
            measure: 2_000,
            drain_max: 60_000,
            watchdog_grace: 3_000,
            faults: Some(netsim::FaultPlan {
                down_every: 50,
                down_len: 1 << 40,
                ..netsim::FaultPlan::none(5)
            }),
            outages: Vec::new(),
        };
        let out = run_experiment(&cfg, &spec, &run);
        assert!(out.deadlocked, "a fully cut network cannot drain");
        assert!(out.faults.down_cycles > 0);
        let report = out.deadlock.expect("deadlock implies a report");
        assert!(report.outstanding_messages > 0);
        assert_eq!(report.outstanding_messages, out.leftover);
        // An outage stall is not a circular wait, so `cycle` may well be
        // empty — but any reported cycle must be made of real edges.
        for pair in report.cycle.windows(2) {
            assert!(report
                .wait_edges
                .iter()
                .any(|e| e.from_link == pair[0] && e.to_link == pair[1]));
        }
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let cfg = small_cfg(SwitchArch::CentralBuffer, McastImpl::HwBitString);
        let spec = TrafficSpec::bimodal(0.1, 0.2, 3, 16);
        let a = run_experiment(&cfg, &spec, &RunConfig::quick());
        let b = run_experiment(&cfg, &spec, &RunConfig::quick());
        assert_eq!(a.completed_mcasts, b.completed_mcasts);
        assert_eq!(a.completed_unicasts, b.completed_unicasts);
        assert_eq!(a.mcast_last, b.mcast_last);
        assert_eq!(a.cycles, b.cycles);
    }
}
