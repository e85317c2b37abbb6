//! One-off simulation runs from the command line.
//!
//! ```text
//! cargo run --release -p mdworm --bin simulate -- \
//!     --config configs/sp2-default.mdw --set traffic.load=0.5 --set traffic.degree=8
//! ```
//!
//! A run is a config-text spec (`mdworm::cfgtext`): the fabric keys
//! `mdw-lint` reads plus `traffic.*`, `run.*` and `fault.*`. `--config`
//! applies a file's lines and `--set` one `key=value` pair, in
//! command-line order; the last value of a key wins. Bad arguments (an
//! unknown flag, a missing value, an unreadable file, an unknown key, an
//! unparsable value, or a value out of range for the fabric or the
//! traffic mix) print the usage and exit with status 2; `--help` prints
//! it and exits 0.

use mdworm::cfgtext::{RunSpec, SpecParser};
use mdworm::sim::run_experiment;
use std::process::ExitCode;

const USAGE: &str = "usage: simulate [--config FILE] [--set key=value]...\n\
                     keys: the fabric keys of configs/*.mdw, traffic.{load,mcast_fraction,\
                     degree,len,pattern}, run.{warmup,measure}, \
                     fault.{seed,drop_rate,corrupt_rate,down_every,down_len,credit_leak}";

/// Applies `--config` files and `--set` pairs in command-line order;
/// `Ok(None)` means `--help` was asked for.
fn spec_from_args(argv: &[String]) -> Result<Option<RunSpec>, String> {
    let mut parser = SpecParser::new(RunSpec::default());
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            return Ok(None);
        }
        let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--config" => {
                let text = std::fs::read_to_string(v).map_err(|e| format!("{v}: {e}"))?;
                parser.text(&text).map_err(|e| format!("{v}: {e}"))?;
            }
            "--set" => parser.set(v)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(parser.finish()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = match spec_from_args(&argv) {
        Ok(Some(spec)) => spec,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("simulate: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = spec.check() {
        eprintln!("simulate: {e}\n{USAGE}");
        return ExitCode::from(2);
    }
    let (cfg, t) = (&spec.system, &spec.traffic);
    println!(
        "system: {} hosts, {:?}, {:?} | workload: load {} ({}% multicast, degree {}, {} flits)",
        cfg.n_hosts(),
        cfg.arch,
        cfg.mcast,
        t.load,
        (t.mcast_fraction * 100.0) as u32,
        t.degree,
        t.mcast_len
    );
    let started = std::time::Instant::now();
    let out = run_experiment(cfg, t, &spec.run);
    println!(
        "simulated {} cycles in {:.1}s\n",
        out.cycles,
        started.elapsed().as_secs_f64()
    );
    println!("multicasts completed: {}", out.completed_mcasts);
    println!("unicasts completed:   {}", out.completed_unicasts);
    if out.completed_mcasts > 0 {
        println!(
            "multicast latency:    mean {:.0}  p50 {}  p95 {}  p99 {}  max {}",
            out.mcast_last.mean,
            out.mcast_last.p50,
            out.mcast_last.p95,
            out.mcast_last.p99,
            out.mcast_last.max
        );
    }
    if out.completed_unicasts > 0 {
        println!(
            "unicast latency:      mean {:.0}  p50 {}  p95 {}  p99 {}  max {}",
            out.unicast.mean, out.unicast.p50, out.unicast.p95, out.unicast.p99, out.unicast.max
        );
    }
    println!(
        "throughput:           {:.4} payload flits/node/cycle",
        out.throughput
    );
    println!(
        "link utilization:     eject {:.4}, fabric {:.4}",
        out.eject_utilization, out.fabric_utilization
    );
    let rec = &out.recovery;
    if rec.retransmits + rec.corrupt_discards + rec.duplicate_discards + rec.gave_up > 0 {
        println!(
            "recovery:             {} retransmits ({} worms), {} corrupt and {} duplicate discards, {} gave up",
            rec.retransmits,
            rec.packets_retransmitted,
            rec.corrupt_discards,
            rec.duplicate_discards,
            rec.gave_up
        );
    }
    if !out.faults.is_clean() {
        println!(
            "faults injected:      {} worms dropped ({} flits), {} flits corrupted, {} link-down cycles, {} credits leaked",
            out.faults.worms_dropped,
            out.faults.flits_dropped,
            out.faults.flits_corrupted,
            out.faults.down_cycles,
            out.faults.credits_leaked
        );
    }
    if let Some(report) = &out.deadlock {
        println!("!! DEADLOCK detected by the watchdog — forensic report:");
        print!("{}", mdworm::report::deadlock_json(report));
        if report.switches.is_empty() && out.faults.worms_dropped > 0 && cfg.recovery.is_none() {
            println!(
                "   (no worms blocked in the fabric: these messages were lost to \
                 injected faults with recovery disabled, not to a circular wait — \
                 rerun with --set recovery=on to retransmit them)"
            );
        }
    } else if out.saturated {
        println!("!! saturated: {} messages undelivered", out.leftover);
    }
    ExitCode::SUCCESS
}
