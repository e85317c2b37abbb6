//! Reproducibility: identical configurations yield bit-identical results;
//! different seeds yield different traffic.

use mdworm::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::sim::{run_experiment, RunConfig};
use mdworm::workload::TrafficSpec;

fn cfg(seed: u64) -> SystemConfig {
    SystemConfig {
        topology: TopologyKind::KaryTree { k: 2, n: 3 },
        seed,
        ..SystemConfig::default()
    }
}

#[test]
fn identical_runs_are_bit_identical() {
    let spec = TrafficSpec::bimodal(0.3, 0.2, 4, 32);
    let run = RunConfig::quick();
    let a = run_experiment(&cfg(11), &spec, &run);
    let b = run_experiment(&cfg(11), &spec, &run);
    assert_eq!(a.mcast_last, b.mcast_last);
    assert_eq!(a.mcast_avg, b.mcast_avg);
    assert_eq!(a.unicast, b.unicast);
    assert_eq!(a.completed_mcasts, b.completed_mcasts);
    assert_eq!(a.completed_unicasts, b.completed_unicasts);
    assert_eq!(a.throughput, b.throughput);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn different_seeds_differ() {
    let spec = TrafficSpec::bimodal(0.3, 0.2, 4, 32);
    let run = RunConfig::quick();
    let a = run_experiment(&cfg(11), &spec, &run);
    let b = run_experiment(&cfg(12), &spec, &run);
    // With hundreds of random messages the exact counts almost surely
    // differ; the latency distributions certainly do.
    assert!(
        a.unicast != b.unicast || a.completed_unicasts != b.completed_unicasts,
        "different seeds produced identical runs"
    );
}

#[test]
fn faulty_runs_with_recovery_are_bit_identical() {
    use collectives::RecoveryConfig;
    use netsim::FaultPlan;

    let c = SystemConfig {
        recovery: Some(RecoveryConfig {
            timeout: 1_500,
            timeout_cap: 12_000,
            max_retries: 10,
        }),
        ..cfg(21)
    };
    let spec = TrafficSpec::multiple_multicast(0.05, 4, 24);
    let run = RunConfig {
        warmup: 200,
        measure: 2_500,
        drain_max: 400_000,
        faults: Some(FaultPlan::drops(77, 1e-3)),
        ..RunConfig::default()
    };
    let a = run_experiment(&c, &spec, &run);
    let b = run_experiment(&c, &spec, &run);
    // The injected faults and the recovery protocol's reaction must both
    // replay exactly from the same seeds.
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.mcast_last, b.mcast_last);
    assert_eq!(a.completed_mcasts, b.completed_mcasts);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.leftover, b.leftover);
    // And the plan really did something.
    assert!(a.faults.worms_dropped > 0);
    assert!(a.recovery.retransmits > 0);
}

#[test]
fn fault_response_sweep_is_identical_across_worker_counts() {
    use collectives::RecoveryConfig;
    use mdworm::cfgtext::RunSpec;
    use mdworm::respond::ResponseConfig;
    use mdworm::sweep::run_sweep;
    use netsim::FaultPlan;

    // Seeded link outages (longer than the responder's debounce window)
    // with the full recovery + online-response pipeline armed: the
    // detect/reroute/quiesce/degrade protocol must replay byte-identically
    // whatever the sweep pool size.
    let jobs = || -> Vec<RunSpec> {
        [SwitchArch::CentralBuffer, SwitchArch::InputBuffered]
            .into_iter()
            .map(|arch| RunSpec {
                system: SystemConfig {
                    // Wide leaves (4 up links each): the random outages
                    // degrade paths without ever partitioning a subtree
                    // outright, which no reroute can mask.
                    topology: TopologyKind::KaryTree { k: 4, n: 2 },
                    arch,
                    recovery: Some(RecoveryConfig::default()),
                    response: Some(ResponseConfig::default()),
                    ..cfg(31)
                },
                traffic: TrafficSpec::multiple_multicast(0.04, 4, 16),
                run: RunConfig {
                    warmup: 200,
                    measure: 4_000,
                    drain_max: 400_000,
                    faults: Some(FaultPlan {
                        seed: 99,
                        flit_drop: 0.0,
                        flit_corrupt: 0.0,
                        down_every: 2_500,
                        down_len: 200,
                        credit_leak: 0.0,
                    }),
                    ..RunConfig::default()
                },
            })
            .collect()
    };
    let serial = run_sweep(jobs(), 1);
    let parallel = run_sweep(jobs(), 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.mcast_last, p.mcast_last);
        assert_eq!(s.throughput.to_bits(), p.throughput.to_bits());
        assert_eq!(s.completed_mcasts, p.completed_mcasts);
        assert_eq!(s.cycles, p.cycles);
        assert_eq!(s.leftover, p.leftover);
        assert_eq!(s.faults, p.faults);
        assert_eq!(s.recovery, p.recovery);
        assert_eq!(s.response, p.response);
        assert_eq!(s.degrade, p.degrade);
    }
    // And the pipeline really engaged: outages were confirmed and at
    // least one masked reroute was installed.
    assert!(serial.iter().any(|o| o.response.links_down > 0));
    assert!(serial.iter().any(|o| o.response.reroutes > 0));
}

#[test]
fn determinism_holds_for_every_scheme() {
    let run = RunConfig::quick();
    for (arch, mcast) in [
        (SwitchArch::CentralBuffer, McastImpl::HwBitString),
        (SwitchArch::InputBuffered, McastImpl::HwBitString),
        (SwitchArch::CentralBuffer, McastImpl::SwBinomial),
        (SwitchArch::CentralBuffer, McastImpl::HwMultiport),
    ] {
        let c = SystemConfig {
            arch,
            mcast,
            ..cfg(5)
        };
        let spec = TrafficSpec::multiple_multicast(0.3, 4, 24);
        let a = run_experiment(&c, &spec, &run);
        let b = run_experiment(&c, &spec, &run);
        assert_eq!(a.mcast_last, b.mcast_last, "{arch:?}/{mcast:?}");
        assert_eq!(a.cycles, b.cycles, "{arch:?}/{mcast:?}");
    }
}

#[test]
fn e18_fault_storm_is_identical_across_worker_counts() {
    // The full storm stack — flap damping, retry backoff with seeded
    // jitter, degradation ladder, watchdog, plus the per-slice query
    // load — must replay byte-identically whatever the sweep pool size.
    // Worker counts are passed explicitly so this test cannot race other
    // tests over the global pool setting.
    let base = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 },
        ..cfg(47)
    };
    let serial = mdworm::experiments::e18_fault_storm_with_jobs(&base, 2_000, 0.04, 4, 16, 1);
    let parallel = mdworm::experiments::e18_fault_storm_with_jobs(&base, 2_000, 0.04, 4, 16, 4);
    assert_eq!(serial.len(), 2);
    assert_eq!(parallel.len(), 2);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.scheme, p.scheme);
        assert_eq!(s.mcasts, p.mcasts, "{}", s.scheme);
        assert_eq!(s.reroutes, p.reroutes, "{}", s.scheme);
        assert_eq!(s.rejected, p.rejected, "{}", s.scheme);
        assert_eq!(s.heals, p.heals, "{}", s.scheme);
        assert_eq!(s.stale, p.stale, "{}", s.scheme);
        assert_eq!(s.suppressions, p.suppressions, "{}", s.scheme);
        assert_eq!(s.reinstatements, p.reinstatements, "{}", s.scheme);
        assert_eq!(s.retries, p.retries, "{}", s.scheme);
        assert_eq!(s.watchdog, p.watchdog, "{}", s.scheme);
        assert_eq!(s.ladder, p.ladder, "{}", s.scheme);
        assert_eq!(
            (s.p50, s.p99, s.lat_max),
            (p.p50, p.p99, p.lat_max),
            "{}",
            s.scheme
        );
        assert_eq!((s.queries, s.q_worm), (p.queries, p.q_worm), "{}", s.scheme);
        assert_eq!(
            s.avail_full.to_bits(),
            p.avail_full.to_bits(),
            "{}",
            s.scheme
        );
        assert_eq!(
            s.avail_masked.to_bits(),
            p.avail_masked.to_bits(),
            "{}",
            s.scheme
        );
        assert_eq!(
            s.avail_umin.to_bits(),
            p.avail_umin.to_bits(),
            "{}",
            s.scheme
        );
        assert_eq!(s.avail_ro.to_bits(), p.avail_ro.to_bits(), "{}", s.scheme);
        assert_eq!(s.leftover, p.leftover, "{}", s.scheme);
        assert_eq!(s.verdict, p.verdict, "{}", s.scheme);
    }
    // And the storm actually stormed.
    assert!(serial.iter().all(|r| r.reroutes > 0 && r.suppressions > 0));
}

#[test]
fn crash_sweep_is_identical_across_worker_counts() {
    // The E19 shape at phase 400 on 4 hosts, with one torn-tail size.
    // Only the wall-clock recovery latencies may differ between pools.
    // Worker counts are passed explicitly so this test cannot race other
    // tests over the global pool setting.
    use mdworm::chaos::run_crash_sweep_with_jobs;
    use mdworm::experiments::{e19_config, e19_run};
    let base = SystemConfig {
        topology: TopologyKind::KaryTree { k: 2, n: 2 },
        ..SystemConfig::default()
    };
    let spec = TrafficSpec::multiple_multicast(0.02, 2, 8);
    let run = e19_run(400);
    for arch in [SwitchArch::CentralBuffer, SwitchArch::InputBuffered] {
        let cfg = e19_config(&base, arch);
        let serial = run_crash_sweep_with_jobs(&cfg, &spec, &run, &[8], 1);
        let parallel = run_crash_sweep_with_jobs(&cfg, &spec, &run, &[8], 4);
        assert!(serial.boundaries > 0, "{arch:?}");
        assert_eq!(serial.boundaries, parallel.boundaries, "{arch:?}");
        assert_eq!(serial.runs, parallel.runs, "{arch:?}");
        assert_eq!(serial.mismatches, parallel.mismatches, "{arch:?}");
        assert_eq!(serial.torn_cycles, parallel.torn_cycles, "{arch:?}");
        assert_eq!(serial.recoveries, parallel.recoveries, "{arch:?}");
        assert_eq!(
            serial.recovery_ns.count(),
            parallel.recovery_ns.count(),
            "{arch:?}"
        );
        assert_eq!(
            format!("{:?}", serial.oracle),
            format!("{:?}", parallel.oracle),
            "{arch:?}"
        );
    }
}
