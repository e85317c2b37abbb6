//! The repository benchmark: four fixed workloads driven through the
//! simulator's production entry points ([`run_experiment`] and
//! [`run_crash_sweep`]), an untraced run that reports end-to-end metrics,
//! and a traced run that times each layer's public calls from outside the
//! program ([`traced`]).
//!
//! Every workload runs on one thread in one process. The workload seed is
//! the traffic seed (`SystemConfig::seed`); the same seed gives the same
//! simulated results, byte for byte.

pub mod report;
pub mod traced;

use mdworm::chaos::run_crash_sweep;
use mdworm::{
    build_system, make_sources, run_experiment, McastImpl, ResponseConfig, RunConfig, RunOutcome,
    SwitchArch, SystemConfig, TopologyKind, TrafficSpec,
};
use report::{Report, Samples};
use std::time::Instant;
use traced::SimDigest;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "mcast-heavy-cb256",
    "mcast-light-cb256",
    "bimodal-ib256",
    "crash-storm-cb4",
];

/// Run length: `Full` is the measured benchmark, `Short` shrinks every
/// workload so the self-test finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as recorded in `BENCHMARK.json`.
    Full,
    /// Shortened windows (and clean crashes only) for tests.
    Short,
}

/// What one operation of a workload calls.
#[derive(Debug, Clone)]
pub enum Kind {
    /// One [`run_experiment`] call.
    Sim,
    /// One [`run_crash_sweep`] call with these torn-tail sizes.
    CrashSweep {
        /// Dirty-tail sizes swept in addition to the clean crash.
        tears: Vec<usize>,
    },
}

/// A fully specified workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Fabric, switches and control plane.
    pub cfg: SystemConfig,
    /// Offered traffic.
    pub spec: TrafficSpec,
    /// Warm-up, window, drain and outages.
    pub run: RunConfig,
    /// The production entry point an operation calls.
    pub kind: Kind,
    /// Rounds of `make_sources` + `build_system` repetitions that
    /// `setup_s` is the median of, and the host seconds each one lasts.
    pub setup_rounds: (usize, f64),
}

/// The 4-ary 4-tree (256 hosts) every simulation workload runs on.
fn fabric256(arch: SwitchArch, seed: u64) -> SystemConfig {
    SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 4 },
        arch,
        mcast: McastImpl::HwBitString,
        seed,
        ..SystemConfig::default()
    }
}

/// A 2000-cycle warm-up and a `measure`-cycle window (a tenth of each
/// when short).
fn sim_run(scale: Scale, measure: u64) -> RunConfig {
    let div = if scale == Scale::Short { 10 } else { 1 };
    RunConfig {
        warmup: 2_000 / div,
        measure: measure / div,
        ..RunConfig::default()
    }
}

/// The E19 crash-storm configuration: the smallest multi-root tree (4
/// hosts), journaled fault responder, end-to-end recovery and the
/// torn-install audit on.
pub fn crash_config(arch: SwitchArch, seed: u64) -> SystemConfig {
    SystemConfig {
        topology: TopologyKind::KaryTree { k: 2, n: 2 },
        arch,
        mcast: McastImpl::HwBitString,
        recovery: Some(collectives::RecoveryConfig::default()),
        response: Some(ResponseConfig::default()),
        epoch_audit: true,
        seed,
        ..SystemConfig::default()
    }
}

/// The E19 run shape at phase length 400: three bounded cuts (two
/// overlapping, then a clean fail-and-heal window), all healed before the
/// drain.
pub fn crash_run() -> RunConfig {
    let phase = 400;
    RunConfig {
        warmup: 0,
        measure: 4 * phase,
        drain_max: 20 * phase,
        watchdog_grace: 6 * phase,
        faults: None,
        outages: vec![
            (0, phase, 2 * phase),
            (1, phase + phase / 4, 2 * phase - phase / 4),
            (2, 5 * phase / 2, 7 * phase / 2),
        ],
    }
}

/// The E19 traffic: light multiple multicast, degree 2, 8 flits.
pub fn crash_spec() -> TrafficSpec {
    TrafficSpec::multiple_multicast(0.02, 2, 8)
}

/// Looks a workload up by name; `None` for an unknown name.
pub fn workload(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let short = scale == Scale::Short;
    let setup_rounds = if short { (2, 0.002) } else { (60, 0.01) };
    let sim = |arch, spec, measure| Workload {
        cfg: fabric256(arch, seed),
        spec,
        run: sim_run(scale, measure),
        kind: Kind::Sim,
        setup_rounds,
    };
    let w = match name {
        "mcast-heavy-cb256" => sim(
            SwitchArch::CentralBuffer,
            TrafficSpec::multiple_multicast(0.3, 16, 64),
            32_000,
        ),
        "mcast-light-cb256" => sim(
            SwitchArch::CentralBuffer,
            TrafficSpec::multiple_multicast(0.02, 16, 64),
            64_000,
        ),
        "bimodal-ib256" => sim(
            SwitchArch::InputBuffered,
            TrafficSpec::bimodal(0.3, 0.1, 16, 64),
            16_000,
        ),
        "crash-storm-cb4" => Workload {
            cfg: crash_config(SwitchArch::CentralBuffer, seed),
            spec: crash_spec(),
            run: crash_run(),
            kind: Kind::CrashSweep {
                tears: if short { Vec::new() } else { vec![8] },
            },
            setup_rounds,
        },
        _ => return None,
    };
    Some(w)
}

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload (traffic) seed.
    pub seed: u64,
    /// Measurement window, host seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
    /// Run length.
    pub scale: Scale,
}

/// How much more steeply set-up time rises than the reference slice's
/// when the host slows: set-up time goes as slice time to this power.
/// A busy neighbour slows set-up about twice while the slice slows 1.4
/// to 1.5 times. Exponents fitted on both fabrics, in the host's own
/// slow periods and beside a memory-streaming process, ranged from 1.2
/// to 2.1, most of them 1.5 to 1.8.
const SETUP_SENSITIVITY: f64 = 1.7;

/// Host seconds of `make_sources` + `build_system` for the workload's
/// fabric. Each round repeats the pair for a fixed host time, between two
/// slices of the reference kernel; its median repetition is corrected
/// with those two slices (see [`SETUP_SENSITIVITY`]). Returns the median
/// over rounds, corrected and measured.
fn setup_secs(w: &Workload) -> (f64, f64) {
    let (rounds, round_secs) = w.setup_rounds;
    let stop_at = w.run.warmup + w.run.measure;
    let mut per_round = Vec::with_capacity(rounds);
    let mut raw = Vec::with_capacity(rounds);
    let mut before = reference_slice();
    for _ in 0..rounds {
        let mut s = Vec::new();
        let start = Instant::now();
        while s.is_empty() || start.elapsed().as_secs_f64() < round_secs {
            let t = Instant::now();
            let sources = make_sources(&w.spec, w.cfg.n_hosts(), w.cfg.seed, Some(stop_at));
            let sys = build_system(w.cfg.clone(), sources, None);
            std::hint::black_box(&sys);
            s.push(t.elapsed().as_secs_f64());
        }
        let after = reference_slice();
        let m = report::median(&s);
        raw.push(m);
        let speed = REFERENCE_SLICE_NOMINAL_S * 2.0 / (before + after);
        per_round.push(m * speed.powf(SETUP_SENSITIVITY));
        before = after;
    }
    (report::median(&per_round), report::median(&raw))
}

/// One untraced operation: its host time, simulated cycles, the outcome
/// the simulated metrics come from, a repr that must repeat exactly for
/// the same seed, and a verdict.
struct Op {
    secs: f64,
    cycles: u64,
    runs: u64,
    outcome: RunOutcome,
    repr: String,
    failure: Option<String>,
}

fn untraced_op(w: &Workload) -> Op {
    match &w.kind {
        Kind::Sim => {
            let t = Instant::now();
            let out = run_experiment(&w.cfg, &w.spec, &w.run);
            let secs = t.elapsed().as_secs_f64();
            let failure = if out.deadlocked {
                Some("deadlocked".to_string())
            } else if out.saturated || out.leftover > 0 {
                Some(format!(
                    "saturated={} leftover={}",
                    out.saturated, out.leftover
                ))
            } else {
                None
            };
            Op {
                secs,
                cycles: out.cycles,
                runs: 1,
                repr: format!("{out:?}"),
                outcome: out,
                failure,
            }
        }
        Kind::CrashSweep { tears } => {
            let t = Instant::now();
            let sw = run_crash_sweep(&w.cfg, &w.spec, &w.run, tears);
            let secs = t.elapsed().as_secs_f64();
            let o = &sw.oracle;
            let failure = if !sw.mismatches.is_empty() || sw.torn_cycles > 0 {
                Some(format!(
                    "mismatches={:?} torn_cycles={}",
                    sw.mismatches, sw.torn_cycles
                ))
            } else if sw.boundaries == 0 || o.deadlocked || o.leftover > 0 {
                Some(format!(
                    "boundaries={} deadlocked={} leftover={}",
                    sw.boundaries, o.deadlocked, o.leftover
                ))
            } else {
                None
            };
            Op {
                secs,
                // Every injected run replays the oracle's cycles exactly.
                cycles: o.cycles * (sw.runs + 1),
                runs: sw.runs + 1,
                repr: format!(
                    "{:?}",
                    (sw.boundaries, sw.runs, sw.recoveries, &sw.mismatches, o)
                ),
                outcome: sw.oracle,
                failure,
            }
        }
    }
}

/// Host seconds of the reference kernel, about its median on the 2-vCPU
/// host the baseline was recorded on. Only ratios of corrected times are
/// compared, so its exact value is a choice of scale.
pub const REFERENCE_NOMINAL_S: f64 = 0.1;

/// A fixed, simulator-independent CPU kernel (ordered and hashed maps,
/// short sorts: the same kinds of work a simulated cycle does). Returns its
/// host seconds. On a shared host these move with the host's momentary
/// speed, which [`corrected`] divides out.
pub fn reference_kernel() -> f64 {
    reference_work(500_000)
}

/// A tenth of the reference kernel, to interleave with short timings.
fn reference_slice() -> f64 {
    reference_work(50_000)
}

/// Nominal host seconds of [`reference_slice`], on the same scale as
/// [`REFERENCE_NOMINAL_S`].
const REFERENCE_SLICE_NOMINAL_S: f64 = REFERENCE_NOMINAL_S / 10.0;

fn reference_work(iterations: u64) -> f64 {
    use std::collections::{BTreeMap, HashMap};
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut ordered = BTreeMap::new();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    let mut batch: Vec<u64> = Vec::with_capacity(256);
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.insert(x % 50_000, i);
        *hashed.entry(x % 20_000).or_default() += i;
        if x & 3 == 0 {
            ordered.remove(&((x >> 8) % 50_000));
        }
        batch.push(x);
        if batch.len() == 256 {
            batch.sort_unstable();
            batch.clear();
        }
    }
    std::hint::black_box((ordered.len(), hashed.len(), batch.len()));
    t.elapsed().as_secs_f64()
}

/// `secs` of host time corrected for the host's speed around the call:
/// scaled by the reference kernel's nominal time over its mean measured
/// time just before and just after.
pub fn corrected(secs: f64, ref_before: f64, ref_after: f64) -> f64 {
    secs * REFERENCE_NOMINAL_S * 2.0 / (ref_before + ref_after)
}

/// Peak resident set of this process so far in MiB (`VmHWM`), 0 if
/// unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload for `opts.seconds` and returns its report. Errors
/// only on an unknown workload name.
pub fn run(opts: &Options) -> Result<Report, String> {
    let w = workload(&opts.workload, opts.seed, opts.scale)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    let t0 = Instant::now();
    let mut attempted = 1u64;
    let mut failures = Vec::new();
    let mut untraced_secs = Vec::new();
    let mut raw_secs = Vec::new();
    let mut reference = Vec::new();
    let mut record = |i: usize, op: &Op, first: Option<&Op>, before: f64, after: f64| {
        let secs = corrected(op.secs, before, after);
        eprintln!(
            "op {i}: {:.4} s measured, {secs:.4} s corrected, {} cycles",
            op.secs, op.cycles
        );
        reference.extend([before, after]);
        untraced_secs.push(secs);
        raw_secs.push(op.secs);
        let differs = first.is_some_and(|f| f.repr != op.repr);
        op.failure
            .clone()
            .or_else(|| differs.then(|| "outcome differs from the first operation".into()))
            .map(|f| format!("operation {i}: {f}"))
    };
    // The first operation runs before the reference kernel or the setup
    // loop has allocated anything, so the peak resident set read after it
    // is the program's own. Its time is corrected by the kernel after it.
    let first = untraced_op(&w);
    let peak_rss = peak_rss_mb();
    let after = reference_kernel();
    failures.extend(record(0, &first, None, after, after));
    let (setup, measured_setup) = setup_secs(&w);

    let mut layers = Samples::default();
    let mut traced_secs = Vec::new();
    // The untraced run repeats the same operation; the traced run
    // alternates untraced and traced operations, untraced first, so both
    // rates are measured under the same host conditions.
    let min_ops = 2;
    let mut i = 1usize;
    while i < min_ops || t0.elapsed().as_secs_f64() < opts.seconds {
        attempted += 1;
        let before = reference_kernel();
        if opts.trace && i % 2 == 1 {
            let base = SimDigest::of(&first.outcome);
            let (secs, failure) = traced::traced_op(&w, base, &mut layers);
            traced_secs.push(corrected(secs, before, reference_kernel()));
            if let Some(f) = failure {
                failures.push(format!("traced operation {i}: {f}"));
            }
        } else {
            let op = untraced_op(&w);
            let after = reference_kernel();
            failures.extend(record(i, &op, Some(&first), before, after));
        }
        i += 1;
    }
    if opts.trace {
        if let Kind::Sim = w.kind {
            // The control-plane layers never run on a fault-free fabric;
            // measure them on the E19 fabric with this workload's switch
            // architecture (the oracle plus the first boundary's crashes).
            attempted += 1;
            let probe = crash_config(w.cfg.arch, w.cfg.seed);
            if let Some(f) = traced::control_plane_probe(&probe, &mut layers) {
                failures.push(format!("control-plane probe: {f}"));
            }
        }
    }
    let out = &first.outcome;
    let mut r = Report::new(attempted, failures);
    // Rates count each run's traffic window, not its drain: the drain's
    // length depends on the seed (on the crash storm it ends at 3228 or
    // 3729 cycles), so counting it would move the rate with the input
    // while the host time stays put.
    let window = ((w.run.warmup + w.run.measure) * first.runs) as f64;
    let rate = |secs: &[f64]| report::iqm(&secs.iter().map(|s| window / s).collect::<Vec<_>>());
    let measured_rate = rate(&raw_secs);
    if opts.trace {
        let (untraced, traced) = (rate(&untraced_secs), rate(&traced_secs));
        layers.push("trace.untraced_cycles_per_s", untraced);
        layers.push("trace.traced_cycles_per_s", traced);
        layers.push("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
        layers.push("trace.reference_kernel_s", report::median(&reference));
        layers.push("ops.traced", traced_secs.len() as f64);
        r.metrics = layers.medians();
    } else {
        r.push("sim_cycles_per_s", rate(&untraced_secs));
        r.push("setup_s", setup);
        r.push("peak_rss_mb", peak_rss);
    }
    // Printed by name, outside the result line: the simulated results
    // (deterministic per seed; a speed-only change must leave them
    // unchanged), a ratio that is 0 on a healthy run, and the uncorrected
    // host times.
    r.extra = vec![
        ("mcast_latency_mean_cycles", out.mcast_last.mean, "cycles"),
        (
            "mcast_latency_p95_cycles",
            out.mcast_last.p95 as f64,
            "cycles",
        ),
        ("unicast_latency_mean_cycles", out.unicast.mean, "cycles"),
        (
            "throughput_flits_per_node_cycle",
            out.throughput,
            "flits/cycle",
        ),
        (
            "failed_ratio",
            r.failed as f64 / r.attempted as f64,
            "ratio",
        ),
        ("measured_sim_cycles_per_s", measured_rate, "1/s"),
        ("measured_op_s", report::iqm(&raw_secs), "s"),
        ("measured_setup_s", measured_setup, "s"),
        ("reference_kernel_s", report::median(&reference), "s"),
        ("operations", untraced_secs.len() as f64, "count"),
    ];
    if let Kind::CrashSweep { .. } = w.kind {
        r.extra
            .push(("crash_sweep_s", report::iqm(&untraced_secs), "s"));
        r.extra
            .push(("crash_sweep_runs", first.runs as f64, "count"));
    }
    Ok(r)
}
