//! Benchmark command line:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--short]
//! ```
//!
//! Prints one `name = value unit` line per metric, then the result line
//! (one JSON object) last. Exits 1 when a correctness check failed, 2 on
//! bad arguments.

use perfbench::{run, Options, Scale, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--short]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--short" {
            opts.scale = Scale::Short;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad value for {flag}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload '{}'", opts.workload));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    for f in &report.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    print!("{}", report.text(opts.trace));
    println!("{}", report.json(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
