//! Regenerates every evaluation table/figure of the reproduction
//! (E1..E19, see DESIGN.md) and writes markdown + CSV into `results/`.
//!
//! ```text
//! cargo run --release -p mdw-bench --bin figures -- --exp all --scale full
//! cargo run --release -p mdw-bench --bin figures -- --exp e2 --scale quick
//! cargo run --release -p mdw-bench --bin figures -- --scale quick --jobs 4 --bench
//! ```
//!
//! `--jobs N` sizes the sweep worker pool (default: available
//! parallelism). `--bench` runs the selected suite twice —
//! serial then parallel — verifies the outputs are byte-identical, times
//! the reference-vs-scheduled engine grid, the control plane (including
//! the crash sweep on one worker vs the pool) and the model checker, and
//! writes `BENCH_sweep.json` next to the tables. Bad
//! arguments, including an `--out` directory that cannot be created,
//! print the usage and exit with status 2 before any experiment runs;
//! `--help` prints it and exits 0.

use mdw_bench::perf::bench_sweep;
use mdw_bench::suite::{run_suite, Table};
use mdw_bench::{base_system, Scale};
use mdworm::sweep;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: figures [--exp all|e1..e19] [--scale full|quick] \
                     [--out DIR] [--jobs N] [--bench]";

struct Args {
    exp: String,
    scale: Scale,
    out: PathBuf,
    jobs: Option<usize>,
    bench: bool,
}

/// `all` or one experiment id the suite renders (`e1` … `e19`).
fn known_exp(v: &str) -> bool {
    v == "all"
        || v.strip_prefix('e')
            .and_then(|n| n.parse::<u32>().ok())
            .is_some_and(|n| (1..=19).contains(&n) && v == format!("e{n}"))
}

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        exp: "all".to_string(),
        scale: Scale::Full,
        out: PathBuf::from("results"),
        jobs: None,
        bench: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--exp" => {
                let v = value()?;
                if !known_exp(&v) {
                    return Err(format!("unknown experiment `{v}`"));
                }
                args.exp = v;
            }
            "--scale" => {
                let v = value()?;
                args.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale `{v}`"))?;
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--jobs" => {
                let v = value()?;
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => args.jobs = Some(n),
                    _ => return Err(format!("bad --jobs value `{v}` (at least 1)")),
                }
            }
            "--bench" => args.bench = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(Some(args))
}

/// Writes each table as CSV and markdown into `out`, which `main` has
/// already created.
fn emit(out: &Path, tables: &[Table]) {
    for t in tables {
        println!("\n## {}\n\n{}", t.title, t.md);
        fs::write(out.join(format!("{}.csv", t.name)), &t.csv).expect("write csv");
        fs::write(
            out.join(format!("{}.md", t.name)),
            format!("## {}\n\n{}", t.title, t.md),
        )
        .expect("write md");
    }
}

/// Statically lints every scheme configuration the suite will sweep
/// (CB-HW, IB-HW, SW-CB over the base system) before a single cycle
/// runs. Errors abort the whole suite — a provably-deadlocking config
/// would only waste hours before the watchdog fired; warnings are
/// printed and tolerated.
fn prelint(base: &mdworm::SystemConfig) -> Result<(), ()> {
    let mut failed = false;
    for (label, cfg) in mdworm::experiments::scheme_configs(base) {
        let report = cfg.report();
        for d in &report.diagnostics {
            eprintln!("prelint {label}: {d}");
        }
        failed |= report.has_errors();
    }
    if failed {
        eprintln!("prelint: provably unsafe configuration — refusing to run the suite");
        Err(())
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("figures: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fs::create_dir_all(&args.out) {
        eprintln!(
            "figures: cannot create output directory {}: {e}\n{USAGE}",
            args.out.display()
        );
        return ExitCode::from(2);
    }
    let base = base_system();
    if let Some(n) = args.jobs {
        sweep::set_jobs(n);
    }
    if prelint(&base).is_err() {
        return ExitCode::FAILURE;
    }
    let started = std::time::Instant::now();

    if args.bench {
        let jobs_parallel = args.jobs.unwrap_or_else(sweep::jobs).max(2);
        let (report, tables) = bench_sweep(&base, args.scale, &args.exp, jobs_parallel);
        emit(&args.out, &tables);
        let json = report.json();
        fs::write(args.out.join("BENCH_sweep.json"), &json).expect("write BENCH_sweep.json");
        eprintln!("bench: {json}");
        eprintln!(
            "figures: bench done in {:.1}s (exp={}, scale={:?}, out={})",
            started.elapsed().as_secs_f64(),
            args.exp,
            args.scale,
            args.out.display()
        );
        if !report.outputs_identical {
            eprintln!("bench: FAILURE — serial and parallel outputs diverge");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let tables = run_suite(&base, args.scale, &args.exp);
    emit(&args.out, &tables);
    eprintln!(
        "figures: done in {:.1}s (exp={}, scale={:?}, jobs={}, out={})",
        started.elapsed().as_secs_f64(),
        args.exp,
        args.scale,
        sweep::jobs(),
        args.out.display()
    );
    ExitCode::SUCCESS
}
