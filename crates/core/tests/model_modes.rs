//! Differential validation of the model checker's modes over every
//! shipped config (DESIGN.md §14).
//!
//! Compositional mode — the per-switch assume-guarantee decomposition,
//! and the path `auto` takes beyond 4 switches — is only admissible if
//! it never changes a verdict. This suite pins that contract to the
//! artifacts users actually lint: for each `configs/*.mdw`, the exact
//! oracle, compositional mode and `auto` must agree, and every
//! counterexample must re-execute against the rebuilt model.
//! At the 16-switch tier the oracle exhausts its budget and
//! compositional mode carries the verdict.

use mdw_analysis::model::reexecute_violation;
use mdw_analysis::{
    check_model_opts, ArchClass, CheckOutcome, ModelBounds, ModelMode, ModelOptions,
};
use mdworm::cfgtext::parse_config;
use mdworm::config::SystemConfig;
use switches::ReplicationMode;

/// Parses every shipped `configs/*.mdw` whose static lint is clean
/// enough to earn a model check (the crafted undersized-central-buffer
/// config is rejected before exploration, exactly as `mdw-lint` does).
fn shipped_configs() -> Vec<(String, SystemConfig)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("configs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdw"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("read config");
        let cfg = parse_config(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if cfg.report().has_errors() {
            continue; // statically rejected; the checker never sees it
        }
        out.push((name, cfg));
    }
    assert!(
        out.len() >= 4,
        "expected the shipped config set, got {out:?}"
    );
    out
}

fn model_inputs(cfg: &SystemConfig) -> (ArchClass, bool) {
    (
        cfg.arch.into(),
        cfg.switch.replication == ReplicationMode::Synchronous,
    )
}

/// Every mode reaches the same verdict as the oracle on every shipped
/// config, at the
/// default bounds: verified configs stay verified, and the crafted
/// `sync-replication-hazard.mdw` fails in every mode with a
/// counterexample that re-executes cleanly against the rebuilt model.
#[test]
fn every_mode_agrees_with_the_oracle_on_shipped_configs() {
    let bounds = ModelBounds::default();
    let modes = [ModelMode::Exact, ModelMode::Compositional, ModelMode::Auto];
    for (name, cfg) in shipped_configs() {
        let (arch, sync) = model_inputs(&cfg);
        let oracle = check_model_opts(
            arch,
            sync,
            cfg.switch.policy,
            &bounds,
            &ModelOptions::oracle(),
        );
        for mode in modes {
            let opts = ModelOptions {
                mode,
                ..ModelOptions::default()
            };
            let out = check_model_opts(arch, sync, cfg.switch.policy, &bounds, &opts);
            assert_eq!(
                out.is_verified(),
                oracle.is_verified(),
                "{name} ({mode:?}) disagrees with the oracle: {out:?}"
            );
            if let CheckOutcome::Violated(v) = &out {
                let steps = reexecute_violation(arch, sync, cfg.switch.policy, &bounds, v)
                    .unwrap_or_else(|e| panic!("{name} ({mode:?}): counterexample rejected: {e}"));
                assert_eq!(steps, v.trace.len(), "{name} ({mode:?})");
            }
        }
        // The one shipped hazard config must actually be caught.
        if name == "sync-replication-hazard.mdw" {
            assert!(!oracle.is_verified(), "{name} must deadlock: {oracle:?}");
        } else {
            assert!(oracle.is_verified(), "{name} must verify: {oracle:?}");
        }
    }
}

/// The scale tier compositional mode exists for: at a 16-switch fabric
/// bound with a 50k-state budget the exact oracle exhausts its bound,
/// while compositional mode and `auto` (compositional beyond 4 switches)
/// verify the shipped default config with ≥10× headroom.
#[test]
fn compositional_checker_verifies_where_the_oracle_exhausts_its_state_budget() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let text = std::fs::read_to_string(format!("{dir}/sp2-default.mdw")).expect("read config");
    let cfg = parse_config(&text).expect("parse");
    let (arch, sync) = model_inputs(&cfg);
    let bounds = ModelBounds {
        max_switches: 16,
        max_states: 50_000,
        ..ModelBounds::default()
    };

    let oracle = check_model_opts(
        arch,
        sync,
        cfg.switch.policy,
        &bounds,
        &ModelOptions::oracle(),
    );
    let CheckOutcome::Violated(v) = &oracle else {
        panic!("the exact oracle must exhaust 50k states at 16 switches: {oracle:?}");
    };
    assert_eq!(v.kind, "state-bound", "{v}");

    for mode in [ModelMode::Compositional, ModelMode::Auto] {
        let opts = ModelOptions {
            mode,
            ..ModelOptions::default()
        };
        let out = check_model_opts(arch, sync, cfg.switch.policy, &bounds, &opts);
        let CheckOutcome::Verified(stats) = &out else {
            panic!("{mode:?} must verify the 16-switch tier: {out:?}");
        };
        assert!(
            stats.states * 10 <= bounds.max_states,
            "{mode:?} should verify with >=10x headroom: {stats:?}"
        );
    }
}
