//! The per-thread fabric table behind `SystemConfig::report` and
//! `build_system` (DESIGN.md §8, §9): a report the table answers is the
//! report a fresh thread computes, each field of the table's key selects
//! its own verdict, an invalid config is refused with the same message on
//! a cold and a warm thread, and a run on a warm thread — one whose
//! fabric a build, a masked reroute or an eviction went through — gives
//! the outcome a fresh thread gives.

use collectives::{RecoveryConfig, SilentSource, TrafficSource};
use mdw_analysis::ModelMode;
use mdworm::cfgtext::parse_config;
use mdworm::config::{fabric_builds, McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::{build_system, run_experiment, ConfigReport, ResponseConfig, RunConfig, TrafficSpec};
use mintopo::route::{ReplicatePolicy, RouteTables};
use std::rc::Rc;

/// `cfg.report()` on a new thread, whose verdict table is empty.
fn fresh_report(cfg: &SystemConfig) -> ConfigReport {
    let cfg = cfg.clone();
    std::thread::spawn(move || cfg.report())
        .join()
        .expect("fresh-thread report")
}

/// The default (`mdw-lint --default`) and every shipped `configs/*.mdw`.
fn shipped() -> Vec<(String, SystemConfig)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/configs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("configs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdw"))
        .collect();
    paths.sort();
    let mut configs = vec![("--default".to_string(), SystemConfig::default())];
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("read config");
        let cfg = parse_config(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        configs.push((path.display().to_string(), cfg));
    }
    assert!(configs.len() >= 8, "{configs:?}");
    configs
}

/// Every report made on a thread the earlier configs warmed equals the
/// fresh-thread report: shipped configs, configs that share the default
/// fabric but differ in local settings (the `model-exact-vet-bound`
/// warning reads the recorded switch count), and single changes of each
/// key field.
#[test]
fn warm_reports_equal_fresh_thread_reports() {
    let mut configs = shipped();
    let base = SystemConfig::default();
    let exact_vet = SystemConfig {
        response: Some(ResponseConfig::default()),
        model_mode: ModelMode::Exact,
        ..base.clone()
    };
    let mut undersized = base.clone();
    undersized.switch.cq_chunks = 0;
    let mut forward = base.clone();
    forward.switch.policy = ReplicatePolicy::ForwardAndReturn;
    for (name, cfg) in [
        ("exact vet", exact_vet),
        ("undersized", undersized),
        (
            "unimin",
            SystemConfig {
                topology: TopologyKind::UniMin { k: 4, n: 3 },
                ..base.clone()
            },
        ),
        ("forward-and-return", forward),
    ] {
        configs.push((name.to_string(), cfg));
    }
    for (name, cfg) in &configs {
        let first = cfg.report();
        let warm = cfg.report();
        assert_eq!(warm, first, "{name}");
        let fresh = fresh_report(cfg);
        assert_eq!(warm, fresh, "{name}");
        assert_eq!(warm.render_json(), fresh.render_json(), "{name}");
    }
    let report = |name: &str| {
        let (_, cfg) = configs.iter().find(|(n, _)| n == name).expect("listed");
        cfg.report()
    };
    assert!(report("exact vet")
        .warnings()
        .any(|w| w.code == "model-exact-vet-bound"));
}

/// `build_system` refuses an invalid config with the same panic message
/// whether or not the thread already knows the config's fabric.
#[test]
fn invalid_config_panics_alike_on_a_warm_thread() {
    fn build_panic(cfg: SystemConfig) -> String {
        let payload = std::panic::catch_unwind(|| {
            build_system(cfg, Vec::new(), None);
        })
        .expect_err("an invalid config must not build");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted panic message")
    }
    let mut broken = SystemConfig::default();
    broken.switch.input_buf_flits = 4;
    let cold = {
        let broken = broken.clone();
        std::thread::spawn(move || build_panic(broken))
            .join()
            .expect("cold thread")
    };
    SystemConfig::default().validate().expect("valid default");
    let warm = build_panic(broken);
    assert!(warm.starts_with("invalid system config: "), "{warm}");
    assert_eq!(warm, cold);
}

/// `f` on a new thread, whose fabric table is empty.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("fresh thread")
}

fn silent(n: usize) -> Vec<Box<dyn TrafficSource>> {
    (0..n)
        .map(|_| Box::new(SilentSource) as Box<dyn TrafficSource>)
        .collect()
}

fn short_run() -> RunConfig {
    RunConfig {
        warmup: 500,
        measure: 3_000,
        ..RunConfig::quick()
    }
}

/// The `Debug` text of `run_experiment`'s outcome: every field, so two
/// runs agree on it only if they agree on everything they measured.
fn outcome(cfg: &SystemConfig, spec: &TrafficSpec, run: &RunConfig) -> String {
    format!("{:?}", run_experiment(cfg, spec, run))
}

/// `outcome` on a new thread.
fn fresh_outcome(cfg: &SystemConfig, spec: &TrafficSpec, run: &RunConfig) -> String {
    let (cfg, spec, run) = (cfg.clone(), spec.clone(), run.clone());
    on_fresh_thread(move || outcome(&cfg, &spec, &run))
}

fn irregular(seed: u64) -> TopologyKind {
    TopologyKind::Irregular {
        switches: 4,
        ports: 8,
        hosts: 8,
        extra_links: 1,
        seed,
    }
}

/// A run whose system shares its topology and tables with the builds
/// before it is the run a fresh thread makes: central-buffer,
/// input-buffered, multiport, U-Min and irregular configs, each run twice
/// on this thread (the input-buffered and multiport ones on the tree the
/// central-buffer runs built).
#[test]
fn warm_runs_equal_fresh_thread_runs() {
    let tree = TopologyKind::KaryTree { k: 4, n: 2 };
    let with = |topology, arch, mcast| SystemConfig {
        topology,
        arch,
        mcast,
        ..SystemConfig::default()
    };
    let cb = SwitchArch::CentralBuffer;
    let hw = McastImpl::HwBitString;
    let configs = [
        with(tree, cb, hw),
        with(tree, SwitchArch::InputBuffered, hw),
        with(tree, cb, McastImpl::HwMultiport),
        with(TopologyKind::UniMin { k: 4, n: 2 }, cb, hw),
        with(
            TopologyKind::Irregular {
                switches: 8,
                ports: 8,
                hosts: 16,
                extra_links: 4,
                seed: 7,
            },
            SwitchArch::InputBuffered,
            hw,
        ),
    ];
    let spec = TrafficSpec::multiple_multicast(0.05, 4, 16);
    for cfg in &configs {
        let first = outcome(cfg, &spec, &short_run());
        let warm = outcome(cfg, &spec, &short_run());
        assert_eq!(warm, first, "{:?}", cfg.topology);
        assert_eq!(warm, fresh_outcome(cfg, &spec, &short_run()), "{cfg:?}");
    }
}

/// A responder that installs masked tables replaces the system's handle
/// and leaves the thread's fabric alone: the next build on the thread
/// wires the unmasked tables every build shares, and the run's outcome is
/// a fresh thread's.
#[test]
fn masked_reroute_leaves_the_shared_tables_unmasked() {
    let cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 },
        recovery: Some(RecoveryConfig::default()),
        response: Some(ResponseConfig::default()),
        ..SystemConfig::default()
    };
    let spec = TrafficSpec::multiple_multicast(0.03, 4, 16);
    // Fabric link 0 goes down for good: the run ends on masked tables.
    let run = RunConfig {
        outages: vec![(0, 1_500, 1_000_000_000)],
        ..short_run()
    };
    let before = build_system(cfg.clone(), silent(16), None).tables;
    let rerouted = run_experiment(&cfg, &spec, &run);
    assert!(rerouted.response.reroutes >= 1, "{rerouted:?}");
    assert_eq!(rerouted.response.heals, 0, "{rerouted:?}");

    let next = build_system(cfg.clone(), silent(16), None);
    let again = build_system(cfg.clone(), silent(16), None);
    assert!(Rc::ptr_eq(&next.tables, &before));
    assert!(Rc::ptr_eq(&next.tables, &again.tables));
    assert_eq!(
        format!("{:?}", next.tables),
        format!("{:?}", RouteTables::build(&next.topology)),
        "the shared tables are the unmasked build"
    );
    assert_eq!(format!("{rerouted:?}"), fresh_outcome(&cfg, &spec, &run));
}

/// A cold `build_system` builds its topology and tables once — the
/// fabric pass's build, which the system then wires — and a warm one
/// builds neither.
#[test]
fn a_cold_build_builds_the_fabric_once_and_a_warm_one_never() {
    on_fresh_thread(|| {
        let cfg = SystemConfig::default();
        assert_eq!(fabric_builds(), 0);
        build_system(cfg.clone(), silent(64), None);
        assert_eq!(fabric_builds(), 1, "cold build");
        build_system(cfg.clone(), silent(64), None);
        let mut ib = cfg.clone();
        ib.arch = SwitchArch::InputBuffered;
        ib.switch.policy = ReplicatePolicy::ForwardAndReturn;
        build_system(ib, silent(64), None);
        cfg.report();
        assert_eq!(fabric_builds(), 1, "warm builds, another policy, a report");
    });
}

/// A fabric the table evicted is built again on its next use, and the run
/// on the rebuilt fabric gives the outcome it gave before the eviction.
#[test]
fn an_evicted_fabric_rebuilds_to_the_same_outcome() {
    on_fresh_thread(|| {
        let cfg = |seed| SystemConfig {
            topology: irregular(seed),
            ..SystemConfig::default()
        };
        let spec = TrafficSpec::multiple_multicast(0.05, 3, 16);
        let before = outcome(&cfg(0), &spec, &short_run());
        let builds = fabric_builds();
        // Distinct fabrics until the first is evicted: its next run
        // builds it again.
        let mut seed = 1;
        loop {
            cfg(seed).validate().expect("valid irregular fabric");
            seed += 1;
            let probe = fabric_builds();
            cfg(0).validate().expect("valid");
            if fabric_builds() > probe {
                break;
            }
            assert!(seed < 1_000, "the table never evicted");
        }
        assert_eq!(fabric_builds(), builds + seed as usize);
        let after = outcome(&cfg(0), &spec, &short_run());
        assert_eq!(after, before);
    });
}
