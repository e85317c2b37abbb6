//! The `mdw-routed` command line fails with a message and exit status 2
//! on bad arguments and bad config files — never a panic — and `--help`
//! succeeds.

use std::path::PathBuf;
use std::process::{Command, Output};

fn routed(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdw-routed"))
        .args(args)
        .output()
        .expect("mdw-routed runs")
}

/// Asserts a usage or config error: exit 2, `want` on stderr, no panic,
/// and no service output on stdout.
fn assert_rejected(args: &[&str], want: &str) {
    let out = routed(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(want), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: the service ran");
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = routed(&[flag]);
        assert!(out.status.success(), "{flag}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: mdw-routed"));
    }
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [
        &["--frobnicate"][..],
        &["--config"],
        &["--script", "s.txt", "--p99-budget"],
        &["--p99-budget", "fast"],
        &["--p99-budget", "-1"],
        &["--script", "s.txt", "--listen", "127.0.0.1:0"],
    ] {
        assert_rejected(args, "usage: mdw-routed");
    }
}

#[test]
fn bad_config_files_exit_2_with_the_path() {
    let missing = "no-such-dir/routed.mdw";
    assert_rejected(&["--config", missing], missing);

    let bad = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("routed_cli_bad.mdw");
    std::fs::write(&bad, "arch = warp-drive\n").expect("temp config written");
    let bad = bad.to_str().expect("utf-8 temp path");
    assert_rejected(&["--config", bad, "--script", "s.txt"], bad);

    let unbuildable = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("routed_cli_irregular.mdw");
    std::fs::write(&unbuildable, "topology = irregular\nswitches = 0\n").expect("written");
    let unbuildable = unbuildable.to_str().expect("utf-8 temp path");
    assert_rejected(
        &["--config", unbuildable, "--script", "s.txt"],
        "need at least one switch",
    );

    for (name, text, want) in [
        (
            "zero_bits",
            "bits_per_flit = 0\n",
            "bits_per_flit must be positive",
        ),
        (
            "zero_delay",
            "link_delay = 0\n",
            "link_delay must be at least one cycle",
        ),
        (
            "zero_credits",
            "host_eject_credits = 0\n",
            "host_eject_credits must be at least one flit",
        ),
    ] {
        let path =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("routed_cli_{name}.mdw"));
        std::fs::write(&path, text).expect("written");
        let path = path.to_str().expect("utf-8 temp path");
        assert_rejected(&["--config", path, "--script", "s.txt"], path);
        assert_rejected(&["--config", path, "--script", "s.txt"], want);
    }
}
