//! The `simulate` command line fails with the usage text and exit status
//! 2 on bad arguments — never a panic — and `--help` succeeds.

use mdworm::experiments::{SCHEMES, SWEEP_BASE};
use std::path::PathBuf;
use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate runs")
}

/// Writes `text` to a config file under the test's temp directory.
fn config_file(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("config written");
    path.to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = simulate(&[flag]);
        assert!(out.status.success(), "{flag}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: simulate"));
    }
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    let bad_line = config_file(
        "simulate_cli_bad.mdw",
        "traffic.load = 0.2\ntraffic.len = 0x40\n",
    );
    for args in [
        &["--frobnicate", "1"][..],
        &["--frobnicate"],
        &["--set"],
        &["--set", "stages=2", "--config"],
        &["--set", "traffic.load=heavy"],
        &["--set", "k=-1"],
        &["--set", "traffic.len=70000"],
        &["--set", "seed=0x10"],
        &["--set", "fault.drop_rate="],
        &["--set", "arch=xb"],
        &["--set", "mcast=tree"],
        &["--set", "traffic.pattern=spiral"],
        // Unknown keys, malformed pairs and unreadable or unparsable
        // files.
        &["--set", "typo_key=1"],
        // Retired control-plane tuning keys and second spellings.
        &["--set", "routed_slice=16"],
        &["--set", "response_debounce=32"],
        &["--set", "model_mode=exact"],
        &["--set", "traffic.load"],
        &["--config", "no-such-dir/run.mdw"],
        &["--config", &bad_line],
        // Values that parse but are out of range for the fabric or the
        // traffic mix.
        &["--set", "k=0"],
        &["--set", "k=1"],
        &["--set", "stages=0"],
        &["--set", "k=8", "--set", "stages=40"],
        &["--set", "traffic.len=0"],
        &["--set", "traffic.degree=0"],
        &["--set", "traffic.degree=500"],
        &["--set", "traffic.degree=64"],
        &["--set", "traffic.mcast_fraction=2"],
        &["--set", "traffic.mcast_fraction=-0.5"],
        &["--set", "traffic.load=-1"],
        &["--set", "traffic.load=NaN"],
        &["--set", "traffic.load=inf"],
        &["--set", "traffic.load=5000"],
        &["--set", "link_delay=0"],
        &["--set", "host_eject_credits=0"],
        &["--set", "recovery_timeout=0"],
        &["--set", "run.measure=0"],
        // A permutation of 27 hosts.
        &[
            "--set",
            "k=3",
            "--set",
            "traffic.pattern=bitrev",
            "--set",
            "traffic.mcast_fraction=0.5",
        ],
        // Fault rates are probabilities.
        &["--set", "fault.drop_rate=NaN"],
        &["--set", "fault.drop_rate=-1"],
        &["--set", "fault.drop_rate=2"],
        &["--set", "fault.corrupt_rate=1.5"],
        &["--set", "fault.credit_leak=2"],
    ] {
        let out = simulate(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: simulate"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran a simulation");
    }
    // Errors name where the bad value came from.
    let stderr = |args: &[&str]| String::from_utf8_lossy(&simulate(args).stderr).into_owned();
    assert!(stderr(&["--config", &bad_line]).contains(&format!("{bad_line}: line 2")));
    assert!(stderr(&["--set", "k=-1"]).contains("--set `k=-1`"));
    assert!(stderr(&["--set", "traffic.load=inf"]).contains("traffic.load inf"));
    // A zero degree is named as such, not as the load it makes unbounded.
    let zero_degree = stderr(&["--set", "traffic.degree=0"]);
    assert!(
        zero_degree.contains("traffic.degree 0") && !zero_degree.contains("traffic.load"),
        "{zero_degree}"
    );
}

#[test]
fn good_arguments_run_a_simulation() {
    let file = config_file("simulate_cli_good.mdw", "stages = 2\ntraffic.load = 0.5\n");
    let args: Vec<&str> = "--set traffic.load=0.05 --set traffic.degree=4 --set traffic.len=8 \
                           --set run.warmup=200 --set run.measure=800"
        .split_whitespace()
        .collect();
    // The file's load is overridden by the later `--set`.
    let out = simulate(&[&["--config", &file][..], &args].concat());
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("multicasts completed"), "{stdout}");
    assert!(
        stdout.starts_with("system: 16 hosts") && stdout.contains("load 0.05 "),
        "{stdout}"
    );
}

/// A checked-in results row is a runnable spec: the sweep base, its
/// scheme's lines and its point's lines. E8's 16-host CB-HW row (full
/// scale, whose window is `simulate`'s default) is the cheapest.
#[test]
fn config_file_reproduces_a_checked_in_row() {
    let csv = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/e8_syssize.csv");
    let csv = std::fs::read_to_string(csv).expect("e8 table");
    let row: Vec<&str> = csv
        .lines()
        .find(|l| l.starts_with("CB-HW,N,16.0,"))
        .expect("16-host CB-HW row")
        .split(',')
        .collect();
    let (mean, p95, throughput, mcasts) = (row[3], row[4], row[6], row[7]);

    let spec = format!(
        "{SWEEP_BASE}{}stages = 2\ntraffic.degree = 4\n",
        SCHEMES[0].1
    );
    let file = config_file("simulate_cli_e8_row.mdw", &spec);
    let out = simulate(&["--config", &file]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for want in [
        format!("multicasts completed: {mcasts}\n"),
        format!("multicast latency:    mean {mean}  "),
        format!("  p95 {p95}  "),
        format!("throughput:           {throughput} "),
    ] {
        assert!(stdout.contains(&want), "missing `{want}` in\n{stdout}");
    }
}
