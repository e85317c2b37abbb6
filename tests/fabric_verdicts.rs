//! The per-thread fabric-verdict table behind `SystemConfig::report`
//! (DESIGN.md §8, §9): a report the table answers is the report a fresh
//! thread computes, each field of the table's key selects its own
//! verdict, and an invalid config is refused with the same message on a
//! cold and a warm thread.

use mdw_analysis::ModelMode;
use mdworm::cfgtext::parse_config;
use mdworm::config::{CertifyConfig, SystemConfig, TopologyKind};
use mdworm::{build_system, ConfigReport, ResponseConfig};
use mintopo::route::ReplicatePolicy;

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
    let certified = SystemConfig {
        certify: CertifyConfig {
            enabled: true,
            ..CertifyConfig::default()
        },
        ..base.clone()
    };
    let mut forward = certified.clone();
    forward.switch.policy = ReplicatePolicy::ForwardAndReturn;
    for (name, cfg) in [
        ("exact vet", exact_vet),
        ("undersized", undersized),
        ("certified", certified.clone()),
        (
            "certified unimin",
            SystemConfig {
                topology: TopologyKind::UniMin { k: 4, n: 3 },
                ..certified.clone()
            },
        ),
        ("certified forward-and-return", forward),
        (
            "certify off",
            SystemConfig {
                certify: CertifyConfig {
                    enabled: false,
                    ..certified.certify
                },
                ..certified.clone()
            },
        ),
        (
            "starved budget",
            SystemConfig {
                certify: CertifyConfig {
                    cdg_budget: 10,
                    ..certified.certify
                },
                ..certified.clone()
            },
        ),
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
    // The untruncated fabric warmed the table first; the truncating
    // budget still gets its own verdict.
    assert!(report("starved budget")
        .warnings()
        .any(|w| w.code == "cdg-budget-exhausted"));
    assert!(!report("certified")
        .warnings()
        .any(|w| w.code == "cdg-budget-exhausted"));
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
