//! Perf measurement: times the sweep suite serial vs parallel, the
//! quiescence-scheduled engine loop against the reference loop over an
//! architecture × fabric-size × load grid, the control plane (including
//! the crash sweep on one worker vs the pool) and the model checker, and
//! serializes the result as
//! `BENCH_sweep.json` — the repo's recorded performance trajectory.

use crate::suite::{run_suite, run_suite_timed, Table};
use crate::Scale;
use mdw_analysis::Json;
use mdworm::chaos::CrashSweepOutcome;
use mdworm::{
    build_system, make_sources, sweep, SwitchArch, SystemConfig, TopologyKind, TrafficSpec,
};
use std::time::Instant;

/// Cycles each load-0.3 cell of the [`bench_scale`] grid simulates per
/// loop; lighter cells run proportionally longer.
const SCALE_CYCLES: u64 = 20_000;

/// Timed runs of each loop per [`bench_scale`] cell. One run can swing 2×
/// on a shared host, so a cell reports the median and interquartile
/// range of its runs.
const SCALE_RUNS: usize = 5;

/// Outcome of one `figures --bench` run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Scale the suite ran at (`full` / `quick`).
    pub scale: String,
    /// Experiment filter (`all` or one id).
    pub exp: String,
    /// Worker-pool size of the parallel pass.
    pub jobs_parallel: usize,
    /// CPUs available on the benchmarking host — the speedup ceiling.
    /// On a single-core host the parallel pass cannot beat serial.
    pub host_cpus: usize,
    /// Wall-clock of the serial pass (jobs = 1), seconds.
    pub serial_secs: f64,
    /// Wall-clock of the parallel pass, seconds.
    pub parallel_secs: f64,
    /// serial_secs / parallel_secs.
    pub speedup: f64,
    /// Serial and parallel passes produced byte-identical tables.
    pub outputs_identical: bool,
    /// Number of tables rendered per pass.
    pub tables: usize,
    /// Wall-clock of each table's experiment in the serial pass, seconds,
    /// keyed by table name in suite order.
    pub suite_secs: Vec<(&'static str, f64)>,
    /// Detect→install episodes in the storm microbench.
    pub storm_episodes: usize,
    /// p50 detect→install latency of the storm microbench, cycles.
    pub storm_p50_cycles: u64,
    /// p99 detect→install latency of the storm microbench, cycles.
    pub storm_p99_cycles: u64,
    /// p50 wall time of a structural reroute vet, nanoseconds.
    pub storm_vet_p50_ns: u64,
    /// p99 wall time of a structural reroute vet, nanoseconds.
    pub storm_vet_p99_ns: u64,
    /// Protocol boundaries the crash-recovery microbench swept (E19
    /// shape, CB-HW scheme).
    pub crash_boundaries: u64,
    /// Responder recoveries completed across the crash microbench.
    pub crash_recoveries: u64,
    /// p50 restart→caught-up recovery latency (journal replay + episode
    /// re-drive), nanoseconds.
    pub crash_recovery_p50_ns: u64,
    /// p99 restart→caught-up recovery latency, nanoseconds.
    pub crash_recovery_p99_ns: u64,
    /// One crash sweep timed on one worker and on the parallel pool
    /// ([`bench_crash_sweep`]).
    pub crash_sweep: CrashSweepBench,
    /// Reference vs scheduled engine loop over the architecture ×
    /// fabric-size × load grid ([`bench_scale`]).
    pub bench_scale: Vec<ScaleCell>,
    /// Oracle-vs-compositional model-check state counts and wall time per
    /// architecture and fabric-size tier (DESIGN.md §11, §14).
    pub bench_model_check: Vec<ModelCheckBench>,
}

/// Wall time of one E19 crash sweep with its injected runs on one worker
/// and on the parallel pool, timed alternately.
#[derive(Debug, Clone)]
pub struct CrashSweepBench {
    /// Worker-pool size of the parallel timings.
    pub jobs: usize,
    /// Timed sweeps per pool size.
    pub runs: usize,
    /// Median wall time of a one-worker sweep, seconds.
    pub serial_secs: f64,
    /// Interquartile range of the one-worker sweeps, seconds.
    pub serial_iqr: f64,
    /// Median wall time of a sweep on `jobs` workers, seconds.
    pub parallel_secs: f64,
    /// Interquartile range of the `jobs`-worker sweeps, seconds.
    pub parallel_iqr: f64,
}

/// One tier of the model-check benchmark: the exact oracle and the
/// compositional checker over the same scenarios and state budget.
#[derive(Debug, Clone)]
pub struct ModelCheckBench {
    /// Switch architecture checked (`CB` / `IB`).
    pub arch: &'static str,
    /// Fabric-size bound of the tier (largest scenario explored).
    pub switches: usize,
    /// States the exact oracle explored before finishing or exhausting the
    /// budget.
    pub oracle_states: usize,
    /// Whether the oracle delivered a verdict (`false` = state-bound
    /// exhausted; `oracle_states` is then the budget it burned).
    pub oracle_completed: bool,
    /// Wall time of the oracle run, seconds.
    pub oracle_secs: f64,
    /// States the compositional (per-switch) checker explored.
    pub compositional_states: usize,
    /// Wall time of the compositional run, seconds.
    pub compositional_secs: f64,
}

/// One cell of the engine grid: the reference loop (every component
/// ticks every cycle) and the quiescence-scheduled loop, timed on the same
/// fabric and workload.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Switch architecture of the fabric (`CB` / `IB`).
    pub arch: &'static str,
    /// Host count of the fabric.
    pub hosts: usize,
    /// Switch count of the fabric.
    pub switches: usize,
    /// Offered load of the multiple-multicast workload.
    pub load: f64,
    /// Cycles each measurement simulated.
    pub cycles: u64,
    /// Timed runs of each loop, interleaved reference/scheduled.
    pub runs: usize,
    /// Reference-loop cycles/sec, median over the runs.
    pub reference_cycles_per_sec: f64,
    /// Interquartile range of the reference-loop cycles/sec.
    pub reference_iqr: f64,
    /// Scheduled-loop cycles/sec, median over the runs.
    pub scheduled_cycles_per_sec: f64,
    /// Interquartile range of the scheduled-loop cycles/sec.
    pub scheduled_iqr: f64,
    /// Host ticks the scheduled loop skipped (of `hosts × cycles`).
    pub host_ticks_skipped: u64,
    /// Switch ticks the scheduled loop skipped (of `switches × cycles`).
    pub switch_ticks_skipped: u64,
}

impl BenchReport {
    /// Serializes the report as a JSON document, one table row per line.
    pub fn json(&self) -> String {
        let secs = |s: f64| Json::raw(format!("{s:.3}"));
        let per_sec = |r: f64| Json::raw(format!("{r:.0}"));
        let cells = self.bench_scale.iter().map(|c| {
            let (reference, scheduled) = (c.reference_cycles_per_sec, c.scheduled_cycles_per_sec);
            let speedup = scheduled / reference.max(1e-9);
            Json::Obj(vec![
                ("arch", Json::str(c.arch)),
                ("hosts", Json::raw(c.hosts)),
                ("switches", Json::raw(c.switches)),
                ("load", Json::raw(c.load)),
                ("cycles", Json::raw(c.cycles)),
                ("runs", Json::raw(c.runs)),
                ("reference_cycles_per_sec", per_sec(reference)),
                ("reference_iqr", per_sec(c.reference_iqr)),
                ("scheduled_cycles_per_sec", per_sec(scheduled)),
                ("scheduled_iqr", per_sec(c.scheduled_iqr)),
                ("speedup", Json::raw(format!("{speedup:.2}"))),
                ("host_ticks_skipped", Json::raw(c.host_ticks_skipped)),
                ("switch_ticks_skipped", Json::raw(c.switch_ticks_skipped)),
            ])
        });
        let model_rows = self.bench_model_check.iter().map(|m| {
            Json::Obj(vec![
                ("arch", Json::str(m.arch)),
                ("switches", Json::raw(m.switches)),
                ("oracle_states", Json::raw(m.oracle_states)),
                ("oracle_completed", Json::raw(m.oracle_completed)),
                ("oracle_secs", secs(m.oracle_secs)),
                ("compositional_states", Json::raw(m.compositional_states)),
                ("compositional_secs", secs(m.compositional_secs)),
            ])
        });
        let suite_secs = self.suite_secs.iter().map(|&(name, s)| (name, secs(s)));
        let ms = |s: f64| Json::raw(format!("{:.2}", s * 1e3));
        let c = &self.crash_sweep;
        let crash_sweep = Json::Obj(vec![
            ("jobs", Json::raw(c.jobs)),
            ("runs", Json::raw(c.runs)),
            ("serial_ms", ms(c.serial_secs)),
            ("serial_iqr_ms", ms(c.serial_iqr)),
            ("parallel_ms", ms(c.parallel_secs)),
            ("parallel_iqr_ms", ms(c.parallel_iqr)),
            (
                "speedup",
                Json::raw(format!("{:.2}", c.serial_secs / c.parallel_secs.max(1e-9))),
            ),
        ]);
        let (recovery_p50, recovery_p99) = (self.crash_recovery_p50_ns, self.crash_recovery_p99_ns);
        Json::Obj(vec![
            ("scale", Json::str(&self.scale)),
            ("exp", Json::str(&self.exp)),
            ("jobs_serial", Json::raw(1)),
            ("jobs_parallel", Json::raw(self.jobs_parallel)),
            ("host_cpus", Json::raw(self.host_cpus)),
            ("serial_secs", secs(self.serial_secs)),
            ("parallel_secs", secs(self.parallel_secs)),
            ("speedup", secs(self.speedup)),
            ("outputs_identical", Json::raw(self.outputs_identical)),
            ("tables", Json::raw(self.tables)),
            ("suite_secs", Json::Obj(suite_secs.collect())),
            ("storm_episodes", Json::raw(self.storm_episodes)),
            ("storm_p50_cycles", Json::raw(self.storm_p50_cycles)),
            ("storm_p99_cycles", Json::raw(self.storm_p99_cycles)),
            ("storm_vet_p50_ns", Json::raw(self.storm_vet_p50_ns)),
            ("storm_vet_p99_ns", Json::raw(self.storm_vet_p99_ns)),
            ("crash_boundaries", Json::raw(self.crash_boundaries)),
            ("crash_recoveries", Json::raw(self.crash_recoveries)),
            ("crash_recovery_p50_ns", Json::raw(recovery_p50)),
            ("crash_recovery_p99_ns", Json::raw(recovery_p99)),
            ("crash_sweep", crash_sweep),
            ("bench_scale", Json::Arr(cells.collect())),
            ("bench_model_check", Json::Arr(model_rows.collect())),
        ])
        .document()
    }
}

/// Detect→vet→install latency of the resident control plane under a
/// short scripted storm: p50/p99 in cycles (deterministic) plus the
/// wall-clock cost of the structural vet (host-dependent — the perf
/// number that moves when the analyzer moves).
///
/// Returns `(episodes, p50_cycles, p99_cycles, vet_p50_ns, vet_p99_ns)`.
pub fn storm_latency() -> (usize, u64, u64, u64, u64) {
    use mdworm::respond::ResponseConfig;
    use mdworm::routed::{StormResponder, SLICE};
    use mdworm::TopologyKind;

    let cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 },
        recovery: Some(collectives::RecoveryConfig::default()),
        response: Some(ResponseConfig::default()),
        ..SystemConfig::default()
    };
    let spec = TrafficSpec::multiple_multicast(0.04, 4, 16);
    let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, Some(8_000));
    let mut sys = build_system(cfg, sources, None);
    // One cut per fabric-link pair boundary: fail, heal, fail the next —
    // enough episodes for stable percentiles without a long run.
    let fabric: Vec<_> = sys.links.fabric.iter().copied().take(4).collect();
    for (i, link) in fabric.iter().enumerate() {
        let start = 1_000 + 3_000 * i as u64;
        sys.engine.script_outage(*link, start, start + 1_500);
    }
    let mut storm = StormResponder::new(ResponseConfig::default(), &mut sys);
    let end = 1_000 + 3_000 * fabric.len() as u64 + 4_000;
    while sys.engine.now() < end {
        sys.engine.run_for(SLICE);
        storm.tick(&mut sys);
    }
    let resp = storm.responder();
    let lat = resp.latency();
    let vet = resp.vet_stats();
    (
        lat.count(),
        lat.percentile(50.0),
        lat.percentile(99.0),
        vet.structural_ns.percentile(50.0),
        vet.structural_ns.percentile(99.0),
    )
}

/// Timed sweeps per pool size in [`bench_crash_sweep`].
const CRASH_SWEEP_RUNS: usize = 5;

/// The E19 CB-HW crash sweep (phase 400, tears `[8]`: every protocol
/// boundary of a seeded outage storm, clean and torn-tail, on a 4-host
/// tree) timed with its injected runs on one worker and on `jobs`
/// workers, alternating, `CRASH_SWEEP_RUNS` (5) runs each, after one
/// untimed sweep that fills the model-check verdict table. Also returns
/// the last one-worker sweep, whose restart→caught-up latencies (journal
/// replay + episode re-drive) are the control plane's recovery numbers.
pub fn bench_crash_sweep(jobs: usize) -> (CrashSweepBench, CrashSweepOutcome) {
    use mdworm::chaos::run_crash_sweep_with_jobs;
    use mdworm::experiments::{e19_config, e19_run};

    let base = SystemConfig {
        topology: TopologyKind::KaryTree { k: 2, n: 2 },
        ..SystemConfig::default()
    };
    let cfg = e19_config(&base, SwitchArch::CentralBuffer);
    let spec = TrafficSpec::multiple_multicast(0.02, 2, 8);
    let run = e19_run(400);
    let timed = |workers: usize| {
        let t = Instant::now();
        let sweep = run_crash_sweep_with_jobs(&cfg, &spec, &run, &[8], workers);
        let secs = t.elapsed().as_secs_f64();
        assert!(
            sweep.mismatches.is_empty() && sweep.torn_cycles == 0,
            "the bench host reproduced a crash-recovery divergence: {sweep:?}"
        );
        (secs, sweep)
    };
    let (_, mut last_serial) = timed(1);
    let mut serial = Vec::with_capacity(CRASH_SWEEP_RUNS);
    let mut parallel = Vec::with_capacity(CRASH_SWEEP_RUNS);
    for _ in 0..CRASH_SWEEP_RUNS {
        let (secs, sweep) = timed(1);
        serial.push(secs);
        last_serial = sweep;
        parallel.push(timed(jobs).0);
    }
    let (serial_secs, serial_iqr) = median_iqr(serial);
    let (parallel_secs, parallel_iqr) = median_iqr(parallel);
    let bench = CrashSweepBench {
        jobs,
        runs: CRASH_SWEEP_RUNS,
        serial_secs,
        serial_iqr,
        parallel_secs,
        parallel_iqr,
    };
    (bench, last_serial)
}

/// Times one fabric for `cycles` cycles of the grid workload on the
/// reference or the scheduled loop. Returns elapsed seconds, the ticks
/// skipped by hosts and by switches (zero on the reference loop), and the
/// switch count.
fn scale_run(
    cfg: &SystemConfig,
    load: f64,
    cycles: u64,
    reference: bool,
) -> (f64, u64, u64, usize) {
    let build = || {
        let spec = TrafficSpec::multiple_multicast(load, 16, 64);
        let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, None);
        build_system(cfg.clone(), sources, None)
    };
    let mut sys = if reference {
        netsim::engine::reference_loop(build)
    } else {
        build()
    };
    let t = Instant::now();
    sys.engine.run_for(cycles);
    let secs = t.elapsed().as_secs_f64();
    // `build_system` registers the switches first, then the hosts.
    let n_sw = sys.topology.n_switches();
    let skipped = |range: std::ops::Range<usize>| -> u64 {
        range
            .map(|c| sys.engine.component_tick_stats(c).ticks_skipped)
            .sum()
    };
    let switch_skipped = skipped(0..n_sw);
    let host_skipped = skipped(n_sw..sys.engine.n_components());
    (secs, host_skipped, switch_skipped, n_sw)
}

/// Median and interquartile range of a sample, by nearest rank.
fn median_iqr(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let rank = |q: f64| xs[((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1];
    (rank(0.5), rank(0.75) - rank(0.25))
}

/// Times the reference loop against the scheduled loop on the grid
/// {64, 256} central-buffer and {64, 256} input-buffered hosts × loads
/// {0.02, 0.1, 0.3} of the multiple-multicast workload (degree 16, 64
/// flits). Both loops run the identical workload, so the ratio is purely
/// the ticks the schedule avoids against its bookkeeping. Each cell runs
/// each loop `SCALE_RUNS` times, alternating reference and scheduled,
/// and reports medians with interquartile ranges. A cell at load `l`
/// simulates `cycles · 0.3 / l` cycles, so light cells, which run fastest,
/// still last long enough that timer and scheduler noise stay small; the
/// count depends on the load alone, never on the host.
pub fn bench_scale(cycles: u64) -> Vec<ScaleCell> {
    // 4-ary trees: 3 stages is the default 64-host fabric, 4 is 256 hosts.
    let tree = |n| TopologyKind::KaryTree { k: 4, n };
    let fabrics = [
        (SwitchArch::CentralBuffer, tree(3)),
        (SwitchArch::CentralBuffer, tree(4)),
        (SwitchArch::InputBuffered, tree(3)),
        (SwitchArch::InputBuffered, tree(4)),
    ];
    let mut cells = Vec::new();
    for (arch, topology) in fabrics {
        let cfg = SystemConfig {
            arch,
            topology,
            ..SystemConfig::default()
        };
        for load in [0.02, 0.1, 0.3] {
            let cycles = (cycles as f64 * 0.3 / load).round() as u64;
            let rate = |secs: f64| cycles as f64 / secs.max(1e-9);
            let mut reference = Vec::with_capacity(SCALE_RUNS);
            let mut scheduled = Vec::with_capacity(SCALE_RUNS);
            let mut skips = (0, 0, 0);
            for _ in 0..SCALE_RUNS {
                reference.push(rate(scale_run(&cfg, load, cycles, true).0));
                let (secs, host, switch, switches) = scale_run(&cfg, load, cycles, false);
                scheduled.push(rate(secs));
                skips = (host, switch, switches);
            }
            let (host_ticks_skipped, switch_ticks_skipped, switches) = skips;
            let (reference_cycles_per_sec, reference_iqr) = median_iqr(reference);
            let (scheduled_cycles_per_sec, scheduled_iqr) = median_iqr(scheduled);
            cells.push(ScaleCell {
                arch: arch.label(),
                hosts: cfg.n_hosts(),
                switches,
                load,
                cycles,
                runs: SCALE_RUNS,
                reference_cycles_per_sec,
                reference_iqr,
                scheduled_cycles_per_sec,
                scheduled_iqr,
                host_ticks_skipped,
                switch_ticks_skipped,
            });
        }
    }
    cells
}

/// Times the model checker (DESIGN.md §11, §14) on asynchronous,
/// return-only replication with a 50k-state budget: the exact oracle
/// against the compositional per-switch checker. The tiers are
/// central-buffer switches at fabric bounds 2, 4, 8 and 16 and
/// input-buffered switches at 2. The 2-switch bound is the one
/// `mdw-lint --model-check` and the reroute deep vet run. The oracle is
/// *expected* to exhaust the budget at the 8/16-switch tiers — that is
/// recorded honestly (`oracle_completed: false`) rather than hidden.
pub fn bench_model_check() -> Vec<ModelCheckBench> {
    use mdw_analysis::{check_model_opts, ArchClass, CheckOutcome, ModelBounds, ModelOptions};
    use mintopo::route::ReplicatePolicy;

    let tiers = [
        ("CB", ArchClass::CentralBuffer, 2usize),
        ("CB", ArchClass::CentralBuffer, 4),
        ("CB", ArchClass::CentralBuffer, 8),
        ("CB", ArchClass::CentralBuffer, 16),
        ("IB", ArchClass::InputBuffered, 2),
    ];
    tiers
        .into_iter()
        .map(|(label, arch, switches)| {
            let timed = |bounds: &ModelBounds, opts: &ModelOptions| {
                let t = Instant::now();
                let out = check_model_opts(arch, false, ReplicatePolicy::ReturnOnly, bounds, opts);
                (out, t.elapsed().as_secs_f64())
            };
            let bounds = ModelBounds {
                max_switches: switches,
                max_states: 50_000,
                ..ModelBounds::default()
            };
            let (oracle, oracle_secs) = timed(&bounds, &ModelOptions::oracle());
            let (oracle_states, oracle_completed) = match &oracle {
                CheckOutcome::Verified(stats) => (stats.states, true),
                // The only violation the known-good default config can
                // produce is the state-bound; the budget it burned is
                // the honest state count.
                CheckOutcome::Violated(_) => (bounds.max_states, false),
            };
            let compositional = ModelOptions {
                mode: mdw_analysis::ModelMode::Compositional,
                ..ModelOptions::default()
            };
            let (comp, compositional_secs) = timed(&bounds, &compositional);
            let CheckOutcome::Verified(comp_stats) = comp else {
                panic!(
                    "compositional checker must verify the {label} {switches}-switch tier: {comp:?}"
                );
            };
            ModelCheckBench {
                arch: label,
                switches,
                oracle_states,
                oracle_completed,
                oracle_secs,
                compositional_states: comp_stats.states,
                compositional_secs,
            }
        })
        .collect()
}

/// Runs the suite serially (jobs = 1), then with `jobs_parallel` workers,
/// verifies the outputs are byte-identical, and times the engine grid, the
/// control plane and the model checker. Returns the report and the
/// parallel pass's tables (for writing to `results/`).
///
/// Restores the worker-pool override to `jobs_parallel` on return.
pub fn bench_sweep(
    base: &SystemConfig,
    scale: Scale,
    exp: &str,
    jobs_parallel: usize,
) -> (BenchReport, Vec<Table>) {
    sweep::set_jobs(1);
    let t = Instant::now();
    let (serial, serial_table_secs): (Vec<Table>, Vec<f64>) =
        run_suite_timed(base, scale, exp).into_iter().unzip();
    let serial_secs = t.elapsed().as_secs_f64();
    let suite_secs = serial
        .iter()
        .map(|t| t.name)
        .zip(serial_table_secs)
        .collect();

    sweep::set_jobs(jobs_parallel);
    // Record the pool the pass actually ran with: `jobs()` clamps the
    // request to the host's CPU count (see the 0.888 "speedup" this file
    // once recorded from oversubscribing a 1-core host).
    let jobs_parallel = sweep::jobs();
    let t = Instant::now();
    let parallel = run_suite(base, scale, exp);
    let parallel_secs = t.elapsed().as_secs_f64();

    let outputs_identical = serial == parallel;
    let (storm_episodes, storm_p50, storm_p99, vet_p50, vet_p99) = storm_latency();
    let (crash_sweep, crash) = bench_crash_sweep(jobs_parallel);
    let scale_cells = bench_scale(SCALE_CYCLES);
    let report = BenchReport {
        scale: format!("{scale:?}").to_lowercase(),
        exp: exp.to_string(),
        jobs_parallel,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        serial_secs,
        parallel_secs,
        speedup: serial_secs / parallel_secs.max(1e-9),
        outputs_identical,
        tables: parallel.len(),
        suite_secs,
        storm_episodes,
        storm_p50_cycles: storm_p50,
        storm_p99_cycles: storm_p99,
        storm_vet_p50_ns: vet_p50,
        storm_vet_p99_ns: vet_p99,
        crash_boundaries: crash.boundaries,
        crash_recoveries: crash.recoveries,
        crash_recovery_p50_ns: crash.recovery_ns.percentile(50.0),
        crash_recovery_p99_ns: crash.recovery_ns.percentile(99.0),
        crash_sweep,
        bench_scale: scale_cells,
        bench_model_check: bench_model_check(),
    };
    (report, parallel)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCH_sweep.json`'s layout, byte for byte, on one row in each
    /// table and a two-entry `suite_secs` map: one top-level key per line,
    /// one table row per line, rows inline.
    #[test]
    fn report_json_layout_is_pinned() {
        let r = BenchReport {
            scale: "quick".into(),
            exp: "all".into(),
            jobs_parallel: 4,
            host_cpus: 8,
            serial_secs: 10.0,
            parallel_secs: 4.0,
            speedup: 2.5,
            outputs_identical: true,
            tables: 14,
            suite_secs: vec![("e1_parameters", 0.012), ("e19_crash_storm", 0.25)],
            storm_episodes: 8,
            storm_p50_cycles: 256,
            storm_p99_cycles: 257,
            storm_vet_p50_ns: 1_000,
            storm_vet_p99_ns: 2_000,
            crash_boundaries: 40,
            crash_recoveries: 80,
            crash_recovery_p50_ns: 12_000,
            crash_recovery_p99_ns: 48_000,
            crash_sweep: CrashSweepBench {
                jobs: 2,
                runs: 5,
                serial_secs: 0.045,
                serial_iqr: 0.002,
                parallel_secs: 0.025,
                parallel_iqr: 0.001,
            },
            bench_scale: vec![ScaleCell {
                arch: "IB",
                hosts: 64,
                switches: 48,
                load: 0.02,
                cycles: 20_000,
                runs: 5,
                reference_cycles_per_sec: 50_000.0,
                reference_iqr: 4_000.0,
                scheduled_cycles_per_sec: 90_000.0,
                scheduled_iqr: 6_000.0,
                host_ticks_skipped: 1_000,
                switch_ticks_skipped: 9_000,
            }],
            bench_model_check: vec![ModelCheckBench {
                arch: "CB",
                switches: 16,
                oracle_states: 50_000,
                oracle_completed: false,
                oracle_secs: 1.25,
                compositional_states: 500,
                compositional_secs: 0.01,
            }],
        };
        let golden = r#"{
  "scale": "quick",
  "exp": "all",
  "jobs_serial": 1,
  "jobs_parallel": 4,
  "host_cpus": 8,
  "serial_secs": 10.000,
  "parallel_secs": 4.000,
  "speedup": 2.500,
  "outputs_identical": true,
  "tables": 14,
  "suite_secs": {"e1_parameters": 0.012, "e19_crash_storm": 0.250},
  "storm_episodes": 8,
  "storm_p50_cycles": 256,
  "storm_p99_cycles": 257,
  "storm_vet_p50_ns": 1000,
  "storm_vet_p99_ns": 2000,
  "crash_boundaries": 40,
  "crash_recoveries": 80,
  "crash_recovery_p50_ns": 12000,
  "crash_recovery_p99_ns": 48000,
  "crash_sweep": {"jobs": 2, "runs": 5, "serial_ms": 45.00, "serial_iqr_ms": 2.00, "parallel_ms": 25.00, "parallel_iqr_ms": 1.00, "speedup": 1.80},
  "bench_scale": [
    {"arch": "IB", "hosts": 64, "switches": 48, "load": 0.02, "cycles": 20000, "runs": 5, "reference_cycles_per_sec": 50000, "reference_iqr": 4000, "scheduled_cycles_per_sec": 90000, "scheduled_iqr": 6000, "speedup": 1.80, "host_ticks_skipped": 1000, "switch_ticks_skipped": 9000}
  ],
  "bench_model_check": [
    {"arch": "CB", "switches": 16, "oracle_states": 50000, "oracle_completed": false, "oracle_secs": 1.250, "compositional_states": 500, "compositional_secs": 0.010}
  ]
}
"#;
        assert_eq!(r.json(), golden);
    }

    /// The model-check benchmark covers CB at 2/4/8/16 switches and IB at
    /// the 2-switch default bound. The oracle verifies the small tiers
    /// inside the budget. At the 8/16-switch tiers it records the §14
    /// claim: the oracle exhausts its budget while the compositional
    /// checker verifies with ≥10× fewer states.
    #[test]
    fn bench_model_check_times_the_oracle_against_compositional() {
        let rows = bench_model_check();
        let tiers: Vec<_> = rows.iter().map(|r| (r.arch, r.switches)).collect();
        assert_eq!(
            tiers,
            [("CB", 2), ("CB", 4), ("CB", 8), ("CB", 16), ("IB", 2)]
        );
        for row in &rows {
            assert!(row.compositional_states > 0, "{row:?}");
            if row.switches <= 4 {
                assert!(row.oracle_completed, "{row:?}");
                continue;
            }
            assert!(
                !row.oracle_completed,
                "{}-switch tier: the oracle finishing means the tier is too easy",
                row.switches
            );
            assert!(
                row.compositional_states * 10 <= row.oracle_states,
                "{row:?}"
            );
        }
    }

    /// The grid covers the 64- and 256-host CB and IB fabrics at all
    /// three loads, lighter loads run proportionally more cycles, and the
    /// scheduled loop skips host and switch ticks in every cell.
    #[test]
    fn bench_scale_skips_host_and_switch_ticks_in_every_cell() {
        let cells = bench_scale(40);
        let fabrics: Vec<_> = cells.iter().map(|c| (c.arch, c.hosts)).collect();
        assert_eq!(
            fabrics,
            [
                [("CB", 64); 3].as_slice(),
                &[("CB", 256); 3],
                &[("IB", 64); 3],
                &[("IB", 256); 3]
            ]
            .concat()
        );
        let cycles: Vec<_> = cells.iter().map(|c| c.cycles).collect();
        assert_eq!(cycles, [600, 120, 40].repeat(4));
        for c in &cells {
            assert_eq!(c.runs, SCALE_RUNS, "{c:?}");
            assert!(c.reference_cycles_per_sec > 0.0 && c.scheduled_cycles_per_sec > 0.0);
            assert!(c.reference_iqr >= 0.0 && c.scheduled_iqr >= 0.0, "{c:?}");
            assert!(c.host_ticks_skipped > 0, "{c:?}");
            assert!(c.switch_ticks_skipped > 0, "{c:?}");
            assert!(c.host_ticks_skipped < c.hosts as u64 * c.cycles, "{c:?}");
            assert!(
                c.switch_ticks_skipped < c.switches as u64 * c.cycles,
                "{c:?}"
            );
        }
    }

    /// The crash-sweep row times every run on both pools and reports the
    /// pool it was asked for.
    #[test]
    fn bench_crash_sweep_times_both_pools() {
        let (c, sweep) = bench_crash_sweep(2);
        assert_eq!((c.jobs, c.runs), (2, CRASH_SWEEP_RUNS));
        assert!(sweep.boundaries > 0 && sweep.recoveries > 0, "{sweep:?}");
        assert!(c.serial_secs > 0.0 && c.parallel_secs > 0.0, "{c:?}");
        assert!(c.serial_iqr >= 0.0 && c.parallel_iqr >= 0.0, "{c:?}");
    }

    #[test]
    fn median_iqr_uses_nearest_ranks() {
        assert_eq!(median_iqr(vec![5.0, 1.0, 4.0, 2.0, 3.0]), (3.0, 2.0));
        assert_eq!(median_iqr(vec![7.0]), (7.0, 0.0));
    }

    #[test]
    fn storm_microbench_records_episodes_and_ordered_percentiles() {
        let (episodes, p50, p99, vet_p50, vet_p99) = storm_latency();
        assert!(episodes >= 4, "{episodes} episodes");
        assert!(p50 > 0 && p99 >= p50, "cycle percentiles ordered");
        assert!(vet_p99 >= vet_p50, "vet percentiles ordered");
    }
}
