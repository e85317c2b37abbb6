//! The `figures` command line fails with the usage text and exit status
//! 2 on bad arguments — never a panic — and `--help` succeeds.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs")
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = figures(&[flag]);
        assert!(out.status.success(), "{flag}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: figures"));
    }
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    // An output directory below a regular file can never be created.
    let unwritable = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
    for args in [
        &["--scale", "huge"][..],
        &["--exp", "e99"],
        &["--exp", "e02"],
        &["--exp"],
        &["--jobs", "0"],
        &["--jobs", "many"],
        &["--out"],
        &["--frobnicate"],
        &["--exp", "e1", "--scale", "quick", "--out", unwritable],
    ] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
