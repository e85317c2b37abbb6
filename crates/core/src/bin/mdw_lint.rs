//! Static deadlock-freedom & protocol-invariant linter for system configs.
//!
//! Runs the full `mdw-analysis` pass — switch buffer sizing, system-level
//! consistency, channel-dependency-graph cycle detection, and header
//! round-trip checks — over one or more config files *without simulating
//! a single cycle*, and reports the findings human-readably or as JSON.
//!
//! ```text
//! cargo run --release -p mdworm --bin mdw-lint -- configs/sp2-default.mdw
//! cargo run --release -p mdworm --bin mdw-lint -- --json configs/*.mdw
//! cargo run --release -p mdworm --bin mdw-lint -- --default
//! cargo run --release -p mdworm --bin mdw-lint -- --model-check configs/*.mdw
//! cargo run --release -p mdworm --bin mdw-lint -- --model-check \
//!     --model-switches 16 --model-stats configs/sp2-default.mdw
//! ```
//!
//! Config files are `key = value` lines (`#` starts a comment); unknown
//! keys are rejected, and each key has one spelling. The control plane's
//! timing and storm tuning are constants of `mdworm::respond` and
//! `mdworm::routed` whose invariants are checked at compile time, so no
//! lint rule guards them; the journal cadence `journal.snapshot_every`
//! is the one control-plane number a config sets. See `configs/` for
//! annotated examples. Exit status
//! is non-zero iff any linted config has an error-severity finding, so
//! the tool slots directly into CI and sweep-launcher scripts.
//!
//! `--model-check` additionally runs the `mdw-model` bounded model
//! checker (see `mdw_analysis::model`): the configured architecture,
//! replication mode, and replication policy are explored exhaustively
//! over small fabrics, verifying chunk conservation and the paper's
//! buffered-eventually liveness condition on the state machines the
//! simulator actually runs. A violation prints a minimal counterexample
//! trace and fails the lint (DESIGN.md §14); knobs:
//!
//! * `--model-mode exact|compositional|auto` — the exact oracle over each
//!   scenario's joint state space, the per-switch assume-guarantee
//!   decomposition, or exact up to 4 switches and compositional beyond
//!   (the default; overrides the config's `model.mode` key when given);
//! * `--model-switches N` — largest scenario fabric explored (default 2,
//!   at least 1: the smallest scenario has one switch);
//! * `--model-stats` — one JSON line per config with the verdict, state
//!   and transition counts and wall time.
//!
//! The deadlock verdict of every lint is the explicit channel-dependency
//! graph's: an acyclic CDG proves the routing function deadlock-free.
//! `tests/deadlock_freedom.rs` checks that graph against the routes it
//! abstracts, walking every worm hop by hop through the production
//! routing function (DESIGN.md §16).

use mdw_analysis::{
    check_model_opts, ArchClass, CheckOutcome, Json, ModelBounds, ModelMode, ModelOptions,
};
use mdworm::cfgtext::parse_config;
use mdworm::config::SystemConfig;
use switches::ReplicationMode;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: mdw-lint [--json] [--default] [--model-check] \
                 [--model-mode exact|compositional|auto] [--model-switches N] \
                 [--model-stats] <config.mdw>...";
    let mut json = false;
    let mut lint_default = false;
    let mut model_check = false;
    let mut model_stats = false;
    let mut model_mode: Option<ModelMode> = None;
    let mut model_switches: Option<usize> = None;
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let value_of = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{} needs a value\n{usage}", argv[*i - 1]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--json" => json = true,
            "--default" => lint_default = true,
            "--model-check" => model_check = true,
            "--model-stats" => model_stats = true,
            "--model-mode" => {
                model_mode = Some(match value_of(&mut i).as_str() {
                    "exact" => ModelMode::Exact,
                    "compositional" => ModelMode::Compositional,
                    "auto" => ModelMode::Auto,
                    other => {
                        eprintln!("bad --model-mode `{other}` (exact|compositional|auto)\n{usage}");
                        std::process::exit(2);
                    }
                })
            }
            "--model-switches" => {
                // The smallest scenario has one switch: a bound of 0
                // would check nothing and pass.
                let value = value_of(&mut i);
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => model_switches = Some(n),
                    _ => {
                        eprintln!("bad --model-switches `{value}` (at least 1)\n{usage}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{usage}");
                return;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}\n{usage}");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if files.is_empty() && !lint_default {
        eprintln!("no config files given\n{usage}");
        std::process::exit(2);
    }

    let mut targets: Vec<(String, SystemConfig)> = Vec::new();
    if lint_default {
        targets.push(("<default>".to_string(), SystemConfig::default()));
    }
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("{file}: {e}");
            std::process::exit(2);
        });
        match parse_config(&text) {
            Ok(cfg) => targets.push((file.clone(), cfg)),
            Err(e) => {
                eprintln!("{file}: {e}");
                std::process::exit(2);
            }
        }
    }

    // Under `--json` stdout is pure JSON: passes go unsaid, failures to stderr.
    let say = |line: String, failed: bool| match (json, failed) {
        (false, _) => println!("{line}"),
        (true, true) => eprintln!("{line}"),
        (true, false) => {}
    };
    let mut any_errors = false;
    for (i, (name, cfg)) in targets.iter().enumerate() {
        let report = cfg.report();
        any_errors |= report.has_errors();
        if json {
            if targets.len() > 1 && i > 0 {
                println!();
            }
            print!("{}", report.render_json());
        } else {
            print!("{name}: {}", report.render_human());
        }
        if model_check && !report.has_errors() {
            // Statically broken configs already fail the lint; only sound
            // ones earn the (more expensive) state-space exploration.
            let arch = ArchClass::from(cfg.arch);
            let sync = cfg.switch.replication == ReplicationMode::Synchronous;
            let bounds = ModelBounds {
                max_switches: model_switches.unwrap_or(ModelBounds::default().max_switches),
                ..ModelBounds::default()
            };
            let mode = model_mode.unwrap_or(cfg.model_mode);
            let opts = ModelOptions {
                mode,
                ..ModelOptions::default()
            };
            let start = std::time::Instant::now();
            let outcome = check_model_opts(arch, sync, cfg.switch.policy, &bounds, &opts);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if model_stats {
                // Violations carry a counterexample, not counters; the
                // stats line then reports the verdict with zeroed counts.
                let (verified, st) = match &outcome {
                    CheckOutcome::Verified(st) => (true, Some(st)),
                    CheckOutcome::Violated(_) => (false, None),
                };
                let stats = Json::Obj(vec![
                    ("config", Json::str(name)),
                    ("mode", Json::str(format!("{mode:?}").to_lowercase())),
                    ("verified", Json::raw(verified)),
                    ("states", Json::raw(st.map_or(0, |s| s.states))),
                    ("transitions", Json::raw(st.map_or(0, |s| s.transitions))),
                    ("wall_ms", Json::raw(format!("{wall_ms:.3}"))),
                ]);
                println!("{}", stats.line());
            }
            match outcome {
                CheckOutcome::Verified(stats) => say(
                    format!(
                        "{name}: model check passed — {} states, {} \
                         transitions over {} scenario(s)",
                        stats.states, stats.transitions, stats.scenarios
                    ),
                    false,
                ),
                CheckOutcome::Violated(v) => {
                    any_errors = true;
                    say(format!("{name}: model check FAILED: {v}"), true);
                }
            }
        }
    }
    if any_errors {
        std::process::exit(1);
    }
}
