//! One-off simulation runs from the command line.
//!
//! ```text
//! cargo run --release -p mdworm --bin simulate -- \
//!     --arch cb --mcast hw --k 4 --stages 3 \
//!     --load 0.5 --mcast-fraction 0.1 --degree 16 --len 64
//! ```
//!
//! Bad arguments (an unknown flag, a missing value, an unparsable number,
//! an unknown choice, or a value out of range for the fabric or the
//! traffic mix) print the usage and exit with status 2; `--help` prints
//! it and exits 0.

use collectives::RecoveryConfig;
use mdworm::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::sim::{run_experiment, RunConfig};
use mdworm::workload::{Pattern, TrafficSpec};
use netsim::FaultPlan;
use std::process::ExitCode;

struct Args {
    arch: SwitchArch,
    mcast: McastImpl,
    k: usize,
    stages: usize,
    load: f64,
    mcast_fraction: f64,
    degree: usize,
    len: u16,
    warmup: u64,
    measure: u64,
    seed: u64,
    pattern: Pattern,
    drop_rate: f64,
    corrupt_rate: f64,
    down_every: u64,
    down_len: u64,
    credit_leak: f64,
    fault_seed: u64,
    recovery_timeout: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            arch: SwitchArch::CentralBuffer,
            mcast: McastImpl::HwBitString,
            k: 4,
            stages: 3,
            load: 0.4,
            mcast_fraction: 1.0,
            degree: 16,
            len: 64,
            warmup: 5_000,
            measure: 40_000,
            seed: 0xD0E5_1997,
            pattern: Pattern::Uniform,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            down_every: 0,
            down_len: 0,
            credit_leak: 0.0,
            fault_seed: 0xFA17,
            recovery_timeout: 0,
        }
    }
}

const USAGE: &str = "usage: simulate [--arch cb|ib] [--mcast hw|mp|sw] [--k N] [--stages N] \
                     [--load F] [--mcast-fraction F] [--degree N] [--len N] \
                     [--warmup N] [--measure N] [--seed N] \
                     [--pattern uniform|bitrev|transpose|neighbor] \
                     [--drop-rate F] [--corrupt-rate F] [--down-every N] [--down-len N] \
                     [--credit-leak F] [--fault-seed N] [--recovery-timeout N]";

/// Parses `v` as the value of `flag`.
fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
}

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if matches!(flag, "--help" | "-h") {
            return Ok(None);
        }
        let v = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--arch" => {
                args.arch = match v.as_str() {
                    "cb" => SwitchArch::CentralBuffer,
                    "ib" => SwitchArch::InputBuffered,
                    other => return Err(format!("unknown arch `{other}` (cb|ib)")),
                }
            }
            "--mcast" => {
                args.mcast = match v.as_str() {
                    "hw" => McastImpl::HwBitString,
                    "mp" => McastImpl::HwMultiport,
                    "sw" => McastImpl::SwBinomial,
                    other => return Err(format!("unknown mcast scheme `{other}` (hw|mp|sw)")),
                }
            }
            "--k" => args.k = num(flag, v)?,
            "--stages" => args.stages = num(flag, v)?,
            "--load" => args.load = num(flag, v)?,
            "--mcast-fraction" => args.mcast_fraction = num(flag, v)?,
            "--degree" => args.degree = num(flag, v)?,
            "--len" => args.len = num(flag, v)?,
            "--warmup" => args.warmup = num(flag, v)?,
            "--measure" => args.measure = num(flag, v)?,
            "--seed" => args.seed = num(flag, v)?,
            "--drop-rate" => args.drop_rate = num(flag, v)?,
            "--corrupt-rate" => args.corrupt_rate = num(flag, v)?,
            "--down-every" => args.down_every = num(flag, v)?,
            "--down-len" => args.down_len = num(flag, v)?,
            "--credit-leak" => args.credit_leak = num(flag, v)?,
            "--fault-seed" => args.fault_seed = num(flag, v)?,
            "--recovery-timeout" => args.recovery_timeout = num(flag, v)?,
            "--pattern" => {
                args.pattern = match v.as_str() {
                    "uniform" => Pattern::Uniform,
                    "bitrev" => Pattern::BitReversal,
                    "transpose" => Pattern::Transpose,
                    "neighbor" => Pattern::NearNeighbor,
                    other => return Err(format!("unknown pattern `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Some(args))
}

/// Rejects values that parse but that no run can use: a fabric that
/// fails [`SystemConfig::validate`], or a traffic mix no source can
/// generate on its host count.
fn check_ranges(cfg: &SystemConfig, a: &Args) -> Result<(), String> {
    cfg.validate().map_err(|e| format!("invalid system: {e}"))?;
    if !(0.0..=1.0).contains(&a.mcast_fraction) {
        return Err(format!(
            "--mcast-fraction {} is outside [0, 1]",
            a.mcast_fraction
        ));
    }
    if !(0.0..).contains(&a.load) {
        return Err(format!("--load {} is not a load (at least 0)", a.load));
    }
    if a.len == 0 {
        return Err("--len 0: messages must carry at least one flit".into());
    }
    let hosts = cfg.n_hosts();
    if a.mcast_fraction > 0.0 && !(1..hosts).contains(&a.degree) {
        return Err(format!(
            "--degree {} impossible with {hosts} hosts (1 to {})",
            a.degree,
            hosts - 1
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("simulate: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let recovery = (a.recovery_timeout > 0).then(|| RecoveryConfig {
        timeout: a.recovery_timeout,
        ..RecoveryConfig::default()
    });
    let cfg = SystemConfig {
        topology: TopologyKind::KaryTree {
            k: a.k,
            n: a.stages,
        },
        arch: a.arch,
        mcast: a.mcast,
        seed: a.seed,
        recovery,
        ..SystemConfig::default()
    };
    if let Err(e) = check_ranges(&cfg, &a) {
        eprintln!("simulate: {e}\n{USAGE}");
        return ExitCode::from(2);
    }
    let faults = FaultPlan {
        seed: a.fault_seed,
        flit_drop: a.drop_rate,
        flit_corrupt: a.corrupt_rate,
        down_every: a.down_every,
        down_len: a.down_len,
        credit_leak: a.credit_leak,
    };
    let spec =
        TrafficSpec::bimodal(a.load, a.mcast_fraction, a.degree, a.len).with_pattern(a.pattern);
    let run = RunConfig {
        warmup: a.warmup,
        measure: a.measure,
        faults: (!faults.is_noop()).then_some(faults),
        ..RunConfig::default()
    };
    println!(
        "system: {} hosts, {:?}, {:?} | workload: load {} ({}% multicast, degree {}, {} flits)",
        cfg.n_hosts(),
        cfg.arch,
        cfg.mcast,
        a.load,
        (a.mcast_fraction * 100.0) as u32,
        a.degree,
        a.len
    );
    let started = std::time::Instant::now();
    let out = run_experiment(&cfg, &spec, &run);
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
        if report.switches.is_empty() && out.faults.worms_dropped > 0 && a.recovery_timeout == 0 {
            println!(
                "   (no worms blocked in the fabric: these messages were lost to \
                 injected faults with recovery disabled, not to a circular wait — \
                 rerun with --recovery-timeout to retransmit them)"
            );
        }
    } else if out.saturated {
        println!("!! saturated: {} messages undelivered", out.leftover);
    }
    ExitCode::SUCCESS
}
