//! Cross-validation of the static analyzer against the runtime.
//!
//! The contract `mdw-lint` sells: a config it **rejects** would have
//! deadlocked (so rejecting it before a single cycle runs saves the
//! watchdog's thousands of wasted cycles), a config it **warns** about
//! carries a real hazard the runtime can demonstrate, and every config
//! the experiment suite actually ships comes back clean.

use collectives::{MessageSpec, ScheduledSource, SilentSource, TrafficSource};
use mdworm::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::experiments::scheme_configs;
use mdworm::{build_system, capture_deadlock_report, System};
use netsim::destset::DestSet;
use netsim::ids::NodeId;
use netsim::message::MessageKind;
use switches::ReplicationMode;

/// The crafted deadlock-prone config (shipped as
/// `configs/undersized-central-buffer.mdw`): 128-flit worms against a
/// 32-flit central queue, violating the paper's "a packet accepted for
/// transmission can eventually be completely buffered" condition.
fn undersized_central_buffer() -> SystemConfig {
    let mut cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 3 },
        arch: SwitchArch::CentralBuffer,
        mcast: McastImpl::HwBitString,
        ..SystemConfig::default()
    };
    cfg.switch.chunk_flits = 8;
    cfg.switch.cq_chunks = 4;
    cfg.switch.max_packet_flits = 128;
    cfg
}

#[test]
fn undersized_central_buffer_is_rejected_statically() {
    let cfg = undersized_central_buffer();
    let report = cfg.report();
    assert!(report.has_errors(), "{:?}", report.diagnostics);
    assert!(
        report.errors().any(|d| d.code == "cb-packet-exceeds-cq"),
        "the buffer-sufficiency check must name the violation: {:?}",
        report.diagnostics
    );
    assert!(cfg.validate().is_err(), "validate() must refuse to build");
    assert!(report.render_human().contains("REJECTED"));
    // The fabric pass never ran — no point enumerating a CDG for a
    // system the sizing checks already condemned.
    assert_eq!(report.stats.channels, 0);
}

/// Builds the paper-§3 crossed-grant scenario on a single 8-port switch:
/// a warm-up unicast rotates one output's grant pointer, then two
/// multicasts to the same pair of hosts decode together and each wins
/// one of the two outputs the other needs. Runs until traffic drains or
/// progress stalls for a long grace period; returns the system for
/// inspection.
fn run_crossed_multicasts(replication: ReplicationMode) -> System {
    let mut cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 1 },
        arch: SwitchArch::InputBuffered,
        mcast: McastImpl::HwBitString,
        ..SystemConfig::default()
    };
    cfg.switch.replication = replication;
    let n = cfg.n_hosts();
    let mcast = MessageSpec {
        kind: MessageKind::Multicast(DestSet::from_nodes(n, [2, 3].map(NodeId))),
        payload_flits: 48,
    };
    let mut sources: Vec<Box<dyn TrafficSource>> = (0..n)
        .map(|_| Box::new(SilentSource) as Box<dyn TrafficSource>)
        .collect();
    sources[1] = Box::new(ScheduledSource::new(vec![(
        1,
        MessageSpec {
            kind: MessageKind::Unicast(NodeId(3)),
            payload_flits: 8,
        },
    )]));
    sources[0] = Box::new(ScheduledSource::new(vec![(200, mcast.clone())]));
    sources[2] = Box::new(ScheduledSource::new(vec![(200, mcast)]));
    let mut sys = build_system(cfg, sources, None);

    let mut last_moves = sys.engine.total_flit_moves();
    let mut last_progress = sys.engine.now();
    while sys.engine.now() < 30_000 {
        sys.engine.run_for(200);
        if sys.tracker().borrow().outstanding() == 0 {
            break;
        }
        let moves = sys.engine.total_flit_moves();
        if moves != last_moves {
            last_moves = moves;
            last_progress = sys.engine.now();
        } else if sys.engine.now() - last_progress >= 3_000 {
            break;
        }
    }
    sys
}

/// The analyzer's warning (not error) severity for synchronous
/// replication on input-buffered switches is exactly right: the config
/// is buildable and flagged, the hazard is real (the watchdog catches
/// the predicted deadlock), and flipping the one warned-about knob back
/// to asynchronous replication makes the same traffic drain clean.
#[test]
fn sync_replication_warning_is_confirmed_by_the_watchdog() {
    let mut cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 1 },
        arch: SwitchArch::InputBuffered,
        mcast: McastImpl::HwBitString,
        ..SystemConfig::default()
    };
    cfg.switch.replication = ReplicationMode::Synchronous;
    let report = cfg.report();
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
    assert!(
        report
            .warnings()
            .any(|w| w.code == "sync-replication-hazard"),
        "{:?}",
        report.diagnostics
    );
    cfg.validate().expect("warned configs still build");

    let mut wedged = run_crossed_multicasts(ReplicationMode::Synchronous);
    assert!(
        wedged.tracker().borrow().outstanding() > 0,
        "the hazard the analyzer warned about must be demonstrable"
    );
    let last_progress = wedged.engine.now();
    let forensics = capture_deadlock_report(&mut wedged, last_progress);
    assert!(
        !forensics.cycle.is_empty(),
        "the wedge is a genuine circular wait: {forensics:?}"
    );

    let drained = run_crossed_multicasts(ReplicationMode::Asynchronous);
    assert_eq!(
        drained.tracker().borrow().outstanding(),
        0,
        "asynchronous replication (the unwarned default) drains the same traffic"
    );
}

/// Every configuration the experiment suite sweeps — the three schemes
/// over the paper's default 64-processor system and the system-size /
/// topology variants E10..E16 reach for — passes the analyzer with zero
/// errors and an acyclic channel-dependency graph.
#[test]
fn shipped_experiment_configs_pass_clean() {
    let mut bases = vec![SystemConfig::default()];
    for n in 1..=3 {
        bases.push(SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n },
            ..SystemConfig::default()
        });
    }
    bases.push(SystemConfig {
        topology: TopologyKind::KaryTree { k: 2, n: 3 },
        ..SystemConfig::default()
    });
    for base in &bases {
        for (label, cfg) in scheme_configs(base) {
            let report = cfg.report();
            assert!(
                !report.has_errors(),
                "{label} on {:?}: {:?}",
                base.topology,
                report.diagnostics
            );
            assert!(
                report.cycles.is_empty(),
                "{label} on {:?}: CDG must be acyclic",
                base.topology
            );
            assert!(report.stats.channels > 0, "{label}: fabric pass ran");
        }
    }
}

/// With the fault responder on, `model.mode = exact` runs the deep
/// reroute vet as the unreduced oracle at the fabric's switch count (at
/// most 16). On `configs/fault-response.mdw` that bound is past what
/// `auto` checks exactly, so the lint warns before the run; `auto`, and
/// `exact` on a one-switch fabric, stay silent.
#[test]
fn exact_model_mode_past_the_auto_range_warns_before_the_run() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/fault-response.mdw"
    );
    let text = std::fs::read_to_string(path).expect("shipped config");
    let warns = |extra: &str| {
        let cfg = mdworm::cfgtext::parse_config(&format!("{text}\n{extra}")).expect("parses");
        let report = cfg.report();
        assert!(!report.has_errors(), "{extra}: {:?}", report.diagnostics);
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "model-exact-vet-bound")
    };
    assert!(warns("model.mode = exact"));
    assert!(!warns("model.mode = auto"));
    assert!(!warns("stages = 1\nmodel.mode = exact"));
}

/// Every shipped config file parses, and every statically sound one
/// passes the explicit CDG pass: no dependency cycle, one SCC per
/// channel. The 4K fat-tree's coverage counters are pinned, so the
/// production-scale tier cannot shrink unnoticed.
#[test]
fn shipped_config_files_pass_the_explicit_cdg() {
    let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(configs)
        .expect("configs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "mdw"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.display();
        let text = std::fs::read_to_string(&path).expect("read config");
        let cfg = mdworm::cfgtext::parse_config(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        seen += 1;

        let report = cfg.report();
        if report.has_errors() {
            continue; // statically condemned before the fabric pass
        }
        assert!(
            !report.errors().any(|d| d.code == "cdg-cycle") && report.cycles.is_empty(),
            "{name}: explicit CDG must accept: {:?}",
            report.diagnostics
        );
        let st = &report.stats;
        assert!(st.dependencies > 0, "{name}: the fabric pass ran");
        assert_eq!(st.sccs, st.channels, "{name}: acyclic, so singleton SCCs");
        if path.ends_with("fat-tree-4k.mdw") {
            assert_eq!(
                (st.channels, st.dependencies, st.sccs, st.roundtrips),
                (49_152, 262_144, 49_152, 54_272),
                "{name}"
            );
        }
    }
    assert!(seen >= 7, "only {seen} shipped configs found");
}

/// The `mdw-lint` binary end-to-end over the shipped config files:
/// the SP2-style default passes, the crafted undersized-central-buffer
/// config is rejected with a nonzero exit code and a diagnostic naming
/// the buffer-sufficiency violation, and so are irregular networks with
/// no switches or with more ports than a switch has — rejected, not a
/// panic.
#[test]
fn mdw_lint_cli_flags_the_shipped_deadlock_config() {
    let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let run_path = |path: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_mdw-lint"))
            .arg(path)
            .output()
            .expect("run mdw-lint")
    };
    let run = |file: &str| run_path(&format!("{configs}/{file}"));

    let good = run("sp2-default.mdw");
    assert!(good.status.success(), "{good:?}");
    assert!(String::from_utf8_lossy(&good.stdout).contains("PASSED"));

    let bad = run("undersized-central-buffer.mdw");
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    let out = String::from_utf8_lossy(&bad.stdout);
    assert!(out.contains("REJECTED"), "{out}");
    assert!(out.contains("cb-packet-exceeds-cq"), "{out}");

    let warned = run("sync-replication-hazard.mdw");
    assert!(warned.status.success(), "{warned:?}");
    let out = String::from_utf8_lossy(&warned.stdout);
    assert!(out.contains("sync-replication-hazard"), "{out}");

    for (name, text, code, want) in [
        (
            "no_switches",
            "topology = irregular\nswitches = 0\n",
            "topology-shape",
            "need at least one switch",
        ),
        (
            "wide_switches",
            "topology = irregular\nports = 17\n",
            "topology-shape",
            "switch ports must be in 1..=16",
        ),
        (
            "zero_bit_flits",
            "bits_per_flit = 0\n",
            "bits-per-flit-zero",
            "bits_per_flit must be positive",
        ),
        (
            "zero_link_delay",
            "link_delay = 0\n",
            "link-delay-zero",
            "link_delay must be at least one cycle",
        ),
        (
            "zero_eject_credits",
            "host_eject_credits = 0\n",
            "host-eject-credits-zero",
            "host_eject_credits must be at least one flit",
        ),
    ] {
        let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("lint_cli_{name}.mdw"));
        std::fs::write(&path, text).expect("written");
        let rejected = run_path(path.to_str().expect("utf-8 temp path"));
        assert_eq!(rejected.status.code(), Some(1), "{rejected:?}");
        let out = String::from_utf8_lossy(&rejected.stdout);
        assert!(out.contains(code), "{out}");
        assert!(out.contains(want), "{out}");
    }
}

/// `mdw-lint --model-check` flag handling: a `--model-switches` bound
/// that selects no scenario is a usage error rather than a vacuous pass,
/// a bad `--model-mode` or `--model-switches` value is echoed with the
/// usage, the removed `--model-jobs` and `--certify` flags are unknown, and the
/// 16-switch tier verifies through compositional mode with a stats line
/// that carries only the verdict, counts and wall time.
#[test]
fn mdw_lint_model_check_flags() {
    let config = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/sp2-default.mdw");
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_mdw-lint"))
            .args(["--model-check"])
            .args(args)
            .arg(config)
            .output()
            .expect("run mdw-lint")
    };

    for args in [&["--model-jobs", "4"][..], &["--certify"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: mdw-lint"), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} must check nothing: {out:?}"
        );
    }

    for (args, echoed) in [
        (&["--model-mode", "bogus"][..], "`bogus`"),
        (&["--model-switches", "abc"], "`abc`"),
        (&["--model-switches", "0"], "`0`"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(echoed), "{args:?}: {err}");
        assert!(err.contains("usage: mdw-lint"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }

    let out = run(&["--model-switches", "16", "--model-stats"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let stats = text
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no stats line: {text}"));
    assert!(stats.contains("\"verified\": true"), "{stats}");
    for removed in [
        "orbit_hits",
        "orbit_reduction_factor",
        "ample_skips",
        "frontier_workers",
    ] {
        assert!(!stats.contains(removed), "{removed} in {stats}");
    }
}

/// The `--model-stats` line names the config by its path, escaped: a
/// path holding `"` and `\` still makes one valid JSON line.
#[test]
fn mdw_lint_model_stats_escapes_the_config_path() {
    let shipped = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/sp2-default.mdw");
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint \"q\\uoted\"");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cfg.mdw");
    std::fs::copy(shipped, &path).expect("config copied");
    let path = path.to_str().expect("utf-8 temp path");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mdw-lint"))
        .args(["--model-check", "--model-stats", path])
        .output()
        .expect("run mdw-lint");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let stats = text
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no stats line: {text}"));
    assert!(stats.starts_with("{\"config\": \""), "{stats}");
    assert!(
        stats.contains(r#"/lint \"q\\uoted\"/cfg.mdw", "mode": "#),
        "{stats}"
    );
}

/// `mdw-lint --json` layout, byte for byte, on two configs: one document
/// per config separated by a blank line, one top-level key per line, one
/// diagnostic per line, and empty tables as `[` and `  ]` on two lines.
#[test]
fn mdw_lint_json_layout_is_pinned() {
    let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mdw-lint"))
        .args([
            "--json",
            &format!("{configs}/undersized-central-buffer.mdw"),
            &format!("{configs}/sync-replication-hazard.mdw"),
        ])
        .output()
        .expect("run mdw-lint --json");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let golden = r#"{
  "clean": false,
  "errors": 2,
  "warnings": 0,
  "stats": {"channels": 0, "dependencies": 0, "sccs": 0, "roundtrips": 0},
  "diagnostics": [
    {"code": "cb-packet-exceeds-cq", "severity": "error", "message": "max packet (128 flits) exceeds central queue (32 flits): deadlock-freedom guarantee impossible"},
    {"code": "cb-no-descending-reserve", "severity": "error", "message": "central queue (4 chunks) must hold at least two max packets (16 chunks each): one is reserved for descending traffic"}
  ],
  "cycles": [
  ]
}

{
  "clean": false,
  "errors": 0,
  "warnings": 1,
  "stats": {"channels": 8, "dependencies": 16, "sccs": 8, "roundtrips": 8},
  "diagnostics": [
    {"code": "sync-replication-hazard", "severity": "warning", "message": "synchronous (lock-step) replication on the input-buffered switch admits grant-wait cycles between partially granted multidestination worms (paper §3): two worms can each hold a subset of the other's output ports and neither ever streams; use Asynchronous replication for a deadlock-freedom guarantee"}
  ],
  "cycles": [
  ]
}
"#;
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

/// `--help` prints the usage on stdout and succeeds, like the other
/// binaries.
#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mdw-lint"))
            .arg(flag)
            .output()
            .expect("run mdw-lint");
        assert!(out.status.success(), "{flag}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: mdw-lint"));
    }
}
