//! The `simulate` command line fails with the usage text and exit status
//! 2 on bad arguments — never a panic — and `--help` succeeds.

use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate runs")
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
    for args in [
        &["--frobnicate", "1"][..],
        &["--frobnicate"],
        &["--load"],
        &["--stages", "2", "--measure"],
        &["--load", "heavy"],
        &["--k", "-1"],
        &["--len", "70000"],
        &["--seed", "0x10"],
        &["--drop-rate", ""],
        &["--arch", "xb"],
        &["--mcast", "tree"],
        &["--pattern", "spiral"],
        // Values that parse but are out of range for the fabric or the
        // traffic mix.
        &["--k", "0"],
        &["--k", "1"],
        &["--stages", "0"],
        &["--k", "8", "--stages", "40"],
        &["--len", "0"],
        &["--degree", "0"],
        &["--degree", "500"],
        &["--degree", "64"],
        &["--mcast-fraction", "2"],
        &["--mcast-fraction", "-0.5"],
        &["--load", "-1"],
        &["--load", "NaN"],
    ] {
        let out = simulate(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: simulate"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran a simulation");
    }
}

#[test]
fn good_arguments_run_a_simulation() {
    let args: Vec<&str> = "--stages 2 --load 0.05 --degree 4 --len 8 --warmup 200 --measure 800"
        .split_whitespace()
        .collect();
    let out = simulate(&args);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("multicasts completed"), "{stdout}");
}
