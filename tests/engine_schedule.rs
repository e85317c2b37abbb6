//! Differential acceptance tests for the quiescence-scheduled engine loop
//! (DESIGN.md §13): it must be **bit-identical** to the reference loop,
//! which ticks every component every cycle — same ledgers every cycle,
//! same per-switch stats, same link-event logs, same `RunOutcome`s and
//! experiment tables — on clean, fault-injected, fault-response,
//! control-plane-storm and crash-sweep runs, while actually skipping host
//! and switch ticks.

use mdworm::build::{build_system, System};
use mdworm::chaos::run_crash_sweep;
use mdworm::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::report::TableRow;
use mdworm::sim::{run_experiment, RunConfig, RunOutcome};
use mdworm::workload::{make_sources, TrafficSpec};
use netsim::engine::{reference_loop, EpochAudit};
use netsim::FaultPlan;
use std::sync::{Mutex, MutexGuard};

/// [`reference_loop`] switches every engine the process creates, so the
/// tests of this binary take turns.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` on the reference loop, then on the scheduled loop.
fn both<R>(f: impl Fn() -> R) -> (R, R) {
    let _turn = turn();
    (reference_loop(&f), f())
}

/// 8 hosts on a 2-ary 3-tree — a real multi-stage fabric that still keeps
/// two-loop comparisons quick.
fn base_cfg() -> SystemConfig {
    SystemConfig {
        topology: TopologyKind::KaryTree { k: 2, n: 3 },
        ..SystemConfig::default()
    }
}

/// Every field of the outcome: the Debug rendering covers latency
/// summaries, counts, flags, fault/recovery/response counters and
/// forensic reports, and prints each float exactly.
fn assert_outcomes_identical(reference: &RunOutcome, scheduled: &RunOutcome, what: &str) {
    assert_eq!(format!("{reference:?}"), format!("{scheduled:?}"), "{what}");
}

/// The rendered table cells of every row — what `results/` holds.
fn cells<T: TableRow>(rows: &[T]) -> Vec<Vec<String>> {
    rows.iter().map(TableRow::cells).collect()
}

/// `RunOutcome` byte-identity on an E2-style run (the paper's multiple-
/// multicast workload) across architectures and schemes. At a link delay
/// of 3 a switch input's link holds flits that have not arrived yet, so
/// the switches visit occupied inputs with no arrival.
#[test]
fn e2_style_outcome_identical_to_reference() {
    for (arch, mcast, link_delay) in [
        (SwitchArch::CentralBuffer, McastImpl::HwBitString, 1),
        (SwitchArch::InputBuffered, McastImpl::HwBitString, 1),
        (SwitchArch::CentralBuffer, McastImpl::SwBinomial, 1),
        (SwitchArch::CentralBuffer, McastImpl::HwBitString, 3),
        (SwitchArch::InputBuffered, McastImpl::HwBitString, 3),
    ] {
        let cfg = SystemConfig {
            arch,
            mcast,
            link_delay,
            ..base_cfg()
        };
        let spec = TrafficSpec::multiple_multicast(0.08, 4, 16);
        let (reference, scheduled) = both(|| run_experiment(&cfg, &spec, &RunConfig::quick()));
        assert!(!reference.deadlocked);
        assert!(reference.completed_mcasts > 0, "workload must do something");
        let what = format!("{arch:?}/{mcast:?}/link delay {link_delay}");
        assert_outcomes_identical(&reference, &scheduled, &what);
    }
}

/// A bimodal run (unicast background plus multicasts) on input-buffered
/// switches, the architecture with per-input FIFOs and no bypass.
#[test]
fn bimodal_ib_outcome_identical_to_reference() {
    let cfg = SystemConfig {
        arch: SwitchArch::InputBuffered,
        ..base_cfg()
    };
    let spec = TrafficSpec::bimodal(0.3, 0.1, 4, 16);
    let (reference, scheduled) = both(|| run_experiment(&cfg, &spec, &RunConfig::quick()));
    assert!(reference.completed_unicasts > 0 && reference.completed_mcasts > 0);
    assert_outcomes_identical(&reference, &scheduled, "bimodal IB");
}

/// `RunOutcome` byte-identity on a fault-injected run with end-to-end
/// recovery — drops, retransmissions and all.
#[test]
fn fault_injected_outcome_identical_to_reference() {
    let cfg = SystemConfig {
        recovery: Some(collectives::RecoveryConfig {
            timeout: 1_500,
            timeout_cap: 12_000,
            max_retries: 10,
        }),
        ..base_cfg()
    };
    let spec = TrafficSpec::multiple_multicast(0.05, 4, 24);
    let run = RunConfig {
        faults: Some(FaultPlan::drops(9, 1e-3)),
        ..RunConfig::quick()
    };
    let (reference, scheduled) = both(|| run_experiment(&cfg, &spec, &run));
    assert!(reference.faults.worms_dropped > 0, "fault plan never fired");
    assert!(
        reference.recovery.retransmits > 0,
        "recovery never exercised"
    );
    assert_outcomes_identical(&reference, &scheduled, "faulty");
}

/// E17's four-phase outage script under the online fault responder:
/// purges, masked reroutes, degraded U-Min fallback and the heal.
#[test]
fn e17_fault_response_tables_identical_to_reference() {
    let base = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 },
        ..SystemConfig::default()
    };
    let (reference, scheduled) =
        both(|| mdworm::experiments::e17_fault_response(&base, 2_000, 0.04, 4, 16));
    assert!(reference.iter().any(|r| r.reroutes > 0), "no reroute ran");
    assert_eq!(cells(&reference), cells(&scheduled));
}

/// E18's storm under the resident control plane (`mdw-routed`), which
/// builds and steps its system directly instead of via `run_experiment`.
#[test]
fn e18_routed_storm_tables_identical_to_reference() {
    let base = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 },
        ..SystemConfig::default()
    };
    let (reference, scheduled) =
        both(|| mdworm::experiments::e18_fault_storm_with_jobs(&base, 2_000, 0.04, 4, 16, 1));
    assert!(reference.iter().all(|r| r.reroutes > 0), "no reroute ran");
    assert_eq!(cells(&reference), cells(&scheduled));
}

/// E19's crash sweep on both architectures: the journaled responder
/// crashes at every protocol boundary, recovers, and must match its
/// oracle — on either loop, with identical oracles across loops.
#[test]
fn e19_crash_sweep_identical_to_reference() {
    for arch in [SwitchArch::CentralBuffer, SwitchArch::InputBuffered] {
        let cfg = SystemConfig {
            topology: TopologyKind::KaryTree { k: 2, n: 2 },
            arch,
            recovery: Some(collectives::RecoveryConfig::default()),
            response: Some(mdworm::respond::ResponseConfig::default()),
            epoch_audit: true,
            ..SystemConfig::default()
        };
        let spec = TrafficSpec::multiple_multicast(0.02, 2, 8);
        let phase = 400;
        let run = RunConfig {
            warmup: 0,
            measure: 3 * phase,
            drain_max: 12 * phase,
            watchdog_grace: 4 * phase,
            faults: None,
            outages: vec![(0, phase, 2 * phase)],
        };
        let (reference, scheduled) = both(|| run_crash_sweep(&cfg, &spec, &run, &[]));
        for out in [&reference, &scheduled] {
            assert!(out.boundaries > 0, "{arch:?}: no protocol boundary");
            assert!(out.mismatches.is_empty(), "{arch:?}: {:?}", out.mismatches);
            assert_eq!(out.torn_cycles, 0, "{arch:?}");
        }
        assert_eq!(
            (reference.boundaries, reference.runs, reference.recoveries),
            (scheduled.boundaries, scheduled.runs, scheduled.recoveries),
            "{arch:?}"
        );
        assert_outcomes_identical(&reference.oracle, &scheduled.oracle, &format!("{arch:?}"));
    }
}

/// The torn-install audit fires exactly when a switch lags the newest
/// committed epoch with no armed commit for it, on both loops. Epoch 1 is
/// prepared everywhere and committed everywhere, but only switch 0 is
/// free to activate it: the others are purging, so they stay armed
/// laggards and are not flagged. A newer prepare on switch 3 then drops
/// its armed epoch (torn from cycle 21), its commit of epoch 2 arms it
/// past the fleet (not torn), and lifting the purges activates epoch 1 on
/// switches 1 and 2 and epoch 2 on switch 3, leaving switches 0–2 behind
/// with nothing armed (torn from cycle 41). The scheduled loop recomputes
/// its verdict only after an epoch change, so every step above must bump
/// the engine's change counter for the two loops to agree.
#[test]
fn torn_install_audit_counts_exactly_the_torn_cycles() {
    for arch in [SwitchArch::CentralBuffer, SwitchArch::InputBuffered] {
        let run = || {
            let cfg = SystemConfig {
                topology: TopologyKind::KaryTree { k: 2, n: 2 },
                arch,
                ..SystemConfig::default()
            };
            let spec = TrafficSpec::multiple_multicast(0.02, 2, 8);
            let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, Some(0));
            let mut sys = build_system(cfg, sources, None);
            sys.engine.enable_epoch_audit();
            let (ctls, tables) = (sys.switch_ctls.clone(), sys.tables.clone());
            let mut audits = Vec::new();
            let mut run_until = |sys: &mut System, cycle| {
                sys.engine.wake_all();
                sys.engine.run_until(cycle);
                audits.push(sys.engine.epoch_audit().expect("audit enabled"));
            };
            run_until(&mut sys, 10);
            for ctl in &ctls {
                ctl.prepare(1, tables.clone());
            }
            for ctl in &ctls[1..] {
                ctl.begin_purge();
            }
            for ctl in &ctls {
                assert!(ctl.commit(1));
            }
            run_until(&mut sys, 20);
            ctls[3].prepare(2, tables.clone());
            run_until(&mut sys, 30);
            assert!(ctls[3].commit(2));
            run_until(&mut sys, 40);
            for ctl in &ctls[1..] {
                ctl.end_purge();
            }
            run_until(&mut sys, 50);
            let committed: Vec<u64> = ctls.iter().map(|c| c.committed_epoch()).collect();
            (audits, committed)
        };
        let (reference, scheduled) = both(run);
        assert_eq!(reference, scheduled, "{arch:?}: the loops disagree");
        let audit = |torn_cycles, first_torn, max_committed| EpochAudit {
            torn_cycles,
            first_torn,
            max_committed,
        };
        assert_eq!(
            scheduled,
            (
                vec![
                    audit(0, None, 0),
                    audit(0, None, 1),
                    audit(10, Some(21), 1),
                    audit(10, Some(21), 1),
                    audit(20, Some(21), 2),
                ],
                vec![1, 1, 1, 2],
            ),
            "{arch:?}"
        );
    }
}

/// Step a scheduled system against the reference loop **cycle by cycle**
/// on a fault-injected run and demand identical ledgers at every cycle,
/// then identical per-switch stats, link-event logs, and tracker state at
/// the end — while the schedule provably skipped ticks.
#[test]
fn faulty_run_matches_reference_cycle_by_cycle() {
    let build = || {
        let cfg = base_cfg();
        let spec = TrafficSpec::multiple_multicast(0.1, 4, 16);
        let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, Some(4_000));
        let mut sys = build_system(cfg, sources, None);
        sys.engine.install_faults(&FaultPlan::drops(9, 2e-3));
        sys.engine.publish_link_events();
        sys
    };
    let _turn = turn();
    let mut reference = reference_loop(build);
    let mut scheduled = build();
    for cycle in 1..=5_000u64 {
        reference.engine.step();
        scheduled.engine.step();
        assert_eq!(
            reference.engine.total_flit_moves(),
            scheduled.engine.total_flit_moves(),
            "flit-move ledger diverged at cycle {cycle}"
        );
        assert_eq!(
            reference.engine.flits_in_links(),
            scheduled.engine.flits_in_links(),
            "in-flight ledger diverged at cycle {cycle}"
        );
    }
    scheduled.engine.flush();

    // Per-switch statistics: every counter and per-cycle gauge.
    for (i, (a, b)) in reference
        .switch_stats
        .iter()
        .zip(&scheduled.switch_stats)
        .enumerate()
    {
        assert_eq!(
            format!("{:?}", a.borrow()),
            format!("{:?}", b.borrow()),
            "switch {i}"
        );
    }

    // Link up/down event logs, in order.
    assert_eq!(
        reference.engine.drain_link_events(),
        scheduled.engine.drain_link_events(),
        "link-event logs diverged"
    );

    // Delivery-tracker state.
    let (ta, tb) = (reference.tracker(), scheduled.tracker());
    let (ta, tb) = (ta.borrow(), tb.borrow());
    assert_eq!(ta.mcast_last.summary(), tb.mcast_last.summary());
    assert_eq!(ta.mcast_avg.summary(), tb.mcast_avg.summary());
    assert_eq!(ta.unicast.summary(), tb.unicast.summary());
    assert_eq!(ta.completed_mcasts(), tb.completed_mcasts());
    assert_eq!(ta.completed_unicasts(), tb.completed_unicasts());
    assert_eq!(ta.outstanding(), tb.outstanding());

    // The identical results must have come from actual skipping.
    assert_eq!(
        reference.engine.tick_stats().ticks_run,
        0,
        "nothing scheduled"
    );
    let stats = scheduled.engine.tick_stats();
    let comps = scheduled.engine.n_components() as u64;
    assert_eq!(stats.ticks_run + stats.ticks_skipped, comps * 5_000);
    assert!(
        stats.ticks_skipped > 0,
        "the schedule never slept: {stats:?}"
    );
}

/// At load 0.02 hosts, not just switches, sleep through most cycles.
#[test]
fn hosts_and_switches_skip_ticks_at_light_load() {
    let _turn = turn();
    let cfg = SystemConfig::default();
    let spec = TrafficSpec::multiple_multicast(0.02, 16, 64);
    let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, Some(20_000));
    let mut sys = build_system(cfg, sources, None);
    sys.engine.run_for(20_000);
    // `build_system` registers the switches first, then the hosts.
    let n_sw = sys.topology.n_switches();
    let skipped = |range: std::ops::Range<usize>| -> u64 {
        range
            .map(|c| sys.engine.component_tick_stats(c).ticks_skipped)
            .sum()
    };
    let (switch, host) = (skipped(0..n_sw), skipped(n_sw..sys.engine.n_components()));
    let host_ticks = sys.n_hosts() as u64 * 20_000;
    assert!(
        host * 2 > host_ticks,
        "hosts skipped only {host} of {host_ticks} ticks"
    );
    assert!(
        switch * 2 > n_sw as u64 * 20_000,
        "switches skipped {switch}"
    );
    assert!(sys.tracker().borrow().completed_mcasts() > 0);
}
