//! The experiment suite (E1..E19 in DESIGN.md), reproducing every
//! evaluation axis the paper's abstract enumerates: multiple multicast,
//! bimodal traffic, degree of multicast, message length, and system size —
//! plus parameter ablations, single-multicast latency, and the barrier /
//! hot-spot / all-reduce / fault-resilience extensions.
//!
//! Every experiment compares the three schemes of the paper:
//!
//! * **CB-HW** — central-buffer switch, bit-string hardware worms,
//! * **IB-HW** — input-buffer switch, bit-string hardware worms,
//! * **SW-CB** — U-Min binomial software multicast on the central-buffer
//!   switch.
//!
//! Every sweep is a cross-product of *independent* deterministic runs, so
//! each experiment builds its full job list up front and fans it out over
//! the [`crate::sweep`] worker pool (`figures --jobs N`; defaults to
//! available parallelism). Results return in submission order,
//! so tables are bit-identical to a serial run.

use crate::build::build_system;
use crate::cfgtext::RunSpec;
use crate::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use crate::report::{f, TableRow};
use crate::respond::{FaultResponder, ResponseConfig};
use crate::sim::{RunConfig, RunOutcome};
use crate::sweep;
use crate::workload::TrafficSpec;
use collectives::traffic::DeliveryHook;
use collectives::{
    BarrierEngine, MessageSpec, RecoveryConfig, ScheduledSource, SilentSource, TrafficSource,
};
use netsim::ids::NodeId;
use netsim::message::MessageKind;
use netsim::rng::SimRng;
use std::cell::RefCell;
use std::rc::Rc;

/// The three schemes of the paper, as the spec lines that select each.
pub const SCHEMES: [(&str, &str); 3] = [
    ("CB-HW", "arch = cb\nmcast = hw\n"),
    ("IB-HW", "arch = ib\nmcast = hw\n"),
    ("SW-CB", "arch = cb\nmcast = sw\n"),
];

/// The three schemes of the paper, derived from a base configuration.
pub fn scheme_configs(base: &SystemConfig) -> Vec<(&'static str, SystemConfig)> {
    let base = RunSpec {
        system: base.clone(),
        ..RunSpec::default()
    };
    SCHEMES
        .iter()
        .map(|&(label, lines)| (label, base.with(lines).expect("scheme lines parse").system))
        .collect()
}

// ---------------------------------------------------------------------
// E1: parameter table
// ---------------------------------------------------------------------

/// One configuration parameter (E1).
#[derive(Debug, Clone)]
pub struct ParamRow {
    /// Parameter name.
    pub name: String,
    /// Its value.
    pub value: String,
}

impl TableRow for ParamRow {
    fn headers() -> Vec<&'static str> {
        vec!["parameter", "value"]
    }
    fn cells(&self) -> Vec<String> {
        vec![self.name.clone(), self.value.clone()]
    }
}

/// E1: the default simulation parameters (the paper's parameter table).
pub fn e1_parameters(cfg: &SystemConfig, run: &RunConfig) -> Vec<ParamRow> {
    let sw = cfg.effective_switch();
    let row = |name: &str, value: String| ParamRow {
        name: name.to_string(),
        value,
    };
    vec![
        row("processors", cfg.n_hosts().to_string()),
        row("topology", format!("{:?}", cfg.topology)),
        row("switch ports", sw.ports.to_string()),
        row("flit width (bits)", cfg.bits_per_flit.to_string()),
        row("link delay (cycles)", cfg.link_delay.to_string()),
        row("route decision delay (cycles)", sw.route_delay.to_string()),
        row(
            "central queue (chunks x flits)",
            format!("{} x {}", sw.cq_chunks, sw.chunk_flits),
        ),
        row(
            "input buffer per port (flits)",
            sw.input_buf_flits.to_string(),
        ),
        row("max packet (flits)", sw.max_packet_flits.to_string()),
        row("send overhead (cycles)", cfg.send_overhead.to_string()),
        row("receive overhead (cycles)", cfg.recv_overhead.to_string()),
        row("up-path selection", format!("{:?}", sw.up_select)),
        row("replication policy", format!("{:?}", sw.policy)),
        row(
            "warmup / measure (cycles)",
            format!("{} / {}", run.warmup, run.measure),
        ),
        row("seed", format!("{:#x}", cfg.seed)),
    ]
}

// ---------------------------------------------------------------------
// Spec tables: E2/E3, E4/E5, E6, E7, E8, E9, E15 and E16
// ---------------------------------------------------------------------

/// The spec every row of the spec tables starts from: the paper's
/// multiple multicast (every message a multicast) at load 0.4, degree 16
/// and 64 flits on the default 64-host fabric. A row's whole spec is this
/// text, the run window, its table's lines and its own lines; an E2/E3,
/// E6, E7 or E8 row's own lines are its scheme's [`SCHEMES`] lines and
/// its point's.
pub const SWEEP_BASE: &str = "\
traffic.load = 0.4
traffic.mcast_fraction = 1
traffic.degree = 16
traffic.len = 64
";

/// One point of a latency/throughput sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Scheme label (CB-HW / IB-HW / SW-CB).
    pub scheme: String,
    /// Sweep variable name.
    pub x_name: String,
    /// Sweep variable value.
    pub x: f64,
    /// Multicast latency to last destination, mean (cycles).
    pub mcast_mean: f64,
    /// Multicast latency, 95th percentile.
    pub mcast_p95: u64,
    /// Unicast latency mean (0 if no unicasts).
    pub unicast_mean: f64,
    /// Delivered payload flits / node / cycle.
    pub throughput: f64,
    /// Completed multicasts in the window.
    pub mcasts: u64,
    /// Saturated (could not drain)?
    pub saturated: bool,
    /// Deadlocked (watchdog fired)?
    pub deadlocked: bool,
}

impl SweepRow {
    /// The row of `scheme`'s run at sweep point `x`.
    pub fn from_outcome(scheme: &str, x_name: &str, x: f64, o: &RunOutcome) -> Self {
        SweepRow {
            scheme: scheme.to_string(),
            x_name: x_name.to_string(),
            x,
            mcast_mean: o.mcast_last.mean,
            mcast_p95: o.mcast_last.p95,
            unicast_mean: o.unicast.mean,
            throughput: o.throughput,
            mcasts: o.completed_mcasts,
            saturated: o.saturated,
            deadlocked: o.deadlocked,
        }
    }
}

impl TableRow for SweepRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "scheme",
            "x_name",
            "x",
            "mcast_mean",
            "mcast_p95",
            "unicast_mean",
            "throughput",
            "mcasts",
            "saturated",
            "deadlocked",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            self.x_name.clone(),
            f(self.x),
            f(self.mcast_mean),
            self.mcast_p95.to_string(),
            f(self.unicast_mean),
            f(self.throughput),
            self.mcasts.to_string(),
            self.saturated.to_string(),
            self.deadlocked.to_string(),
        ]
    }
}

/// Runs one row per `(label, lines)` pair: `base` with the row's spec
/// lines applied, fanned out over the sweep worker pool. Outcomes come
/// back in row order, each with its label.
///
/// # Panics
///
/// Panics if a row's lines do not parse, or if they parse to a spec that
/// [`RunSpec::check`] (and so `simulate`) rejects.
pub fn spec_rows<L>(base: &RunSpec, rows: Vec<(L, String)>) -> Vec<(L, RunOutcome)> {
    let (labels, specs): (Vec<L>, Vec<RunSpec>) = rows
        .into_iter()
        .map(|(label, lines)| {
            let spec = base
                .with(&lines)
                .and_then(|spec| spec.check().map(|()| spec))
                .unwrap_or_else(|e| panic!("{e}; row lines:\n{lines}"));
            (label, spec)
        })
        .unzip();
    labels
        .into_iter()
        .zip(sweep::run_sweep_auto(specs))
        .collect()
}

/// The rows of every scheme at every point, scheme by scheme: each
/// labeled `(scheme, x)`, its lines the scheme's then the point's.
pub fn scheme_rows<'a, X: Copy>(
    schemes: &[(&'a str, &str)],
    points: &[(X, String)],
) -> Vec<((&'a str, X), String)> {
    let mut rows = Vec::new();
    for &(label, scheme) in schemes {
        for (x, lines) in points {
            rows.push(((label, *x), format!("{scheme}{lines}")));
        }
    }
    rows
}

/// E2/E3 (load), E6 (degree), E7 (message length) and E8 (system size):
/// [`spec_rows`] over every scheme of [`SCHEMES`] and point, scheme by
/// scheme. A point is its `x` and the spec lines that differ from `base`.
///
/// # Panics
///
/// Panics if a point's lines do not parse or do not pass
/// [`RunSpec::check`].
pub fn spec_sweep(base: &RunSpec, x_name: &str, points: &[(f64, String)]) -> Vec<SweepRow> {
    spec_rows(base, scheme_rows(&SCHEMES, points))
        .iter()
        .map(|((label, x), o)| SweepRow::from_outcome(label, x_name, *x, o))
        .collect()
}

/// E12 (extension; the paper's §9 names hot-spot impact as follow-on
/// work): unicast background with a fraction of messages converging on
/// node 0 — how gracefully does each buffer organization degrade?
pub fn e12_hotspot(
    base: &SystemConfig,
    run: &RunConfig,
    load: f64,
    fractions: &[f64],
    len: u16,
) -> Vec<SweepRow> {
    let mut labels = Vec::new();
    let mut specs = Vec::new();
    for (label, arch) in [
        ("CB", SwitchArch::CentralBuffer),
        ("IB", SwitchArch::InputBuffered),
    ] {
        let system = SystemConfig {
            arch,
            mcast: McastImpl::HwBitString,
            ..base.clone()
        };
        for &frac in fractions {
            labels.push((label, frac));
            specs.push(RunSpec {
                system: system.clone(),
                traffic: TrafficSpec::unicast(load, len).with_hotspot(frac, 0),
                run: run.clone(),
            });
        }
    }
    labels
        .iter()
        .zip(sweep::run_sweep_auto(specs))
        .map(|((label, frac), o)| SweepRow::from_outcome(label, "hotspot_frac", *frac, &o))
        .collect()
}

// ---------------------------------------------------------------------
// E4/E5: bimodal traffic
// ---------------------------------------------------------------------

/// E4 + E5, bimodal traffic: how does each multicast implementation
/// affect the *background unicast* latency (the abstract's headline
/// bimodal claim), and what multicast latency does it achieve meanwhile?
/// Every row is [`SWEEP_BASE`] plus these lines, its scheme's [`SCHEMES`]
/// lines and its `traffic.load`. A fourth series, `CB-none`, is the same
/// unicast background with the multicast share removed entirely: CB-HW
/// lines, `traffic.mcast_fraction = 0` and the load scaled by the
/// unicast share.
pub const BIMODAL: &str = "traffic.mcast_fraction = 0.1\n";

/// One point of the bimodal-traffic comparison.
#[derive(Debug, Clone)]
pub struct BimodalRow {
    /// Scheme label; "CB-none" is the multicast-free reference.
    pub scheme: String,
    /// Offered load.
    pub load: f64,
    /// Background unicast latency, mean.
    pub unicast_mean: f64,
    /// Background unicast latency, 95th percentile.
    pub unicast_p95: u64,
    /// Multicast latency (last destination), mean.
    pub mcast_mean: f64,
    /// Delivered payload flits / node / cycle.
    pub throughput: f64,
    /// Saturated?
    pub saturated: bool,
    /// Deadlocked?
    pub deadlocked: bool,
}

impl BimodalRow {
    /// The row of `scheme`'s run at offered load `load`.
    pub fn from_outcome(scheme: &str, load: f64, o: &RunOutcome) -> Self {
        BimodalRow {
            scheme: scheme.to_string(),
            load,
            unicast_mean: o.unicast.mean,
            unicast_p95: o.unicast.p95,
            mcast_mean: o.mcast_last.mean,
            throughput: o.throughput,
            saturated: o.saturated,
            deadlocked: o.deadlocked,
        }
    }
}

impl TableRow for BimodalRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "scheme",
            "load",
            "unicast_mean",
            "unicast_p95",
            "mcast_mean",
            "throughput",
            "saturated",
            "deadlocked",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            f(self.load),
            f(self.unicast_mean),
            self.unicast_p95.to_string(),
            f(self.mcast_mean),
            f(self.throughput),
            self.saturated.to_string(),
            self.deadlocked.to_string(),
        ]
    }
}

// ---------------------------------------------------------------------
// E9: ablations
// ---------------------------------------------------------------------

/// E9: design-choice ablations of the central-buffer switch under the
/// bimodal workload ([`BIMODAL`] at load 0.4): bypass crossbar, up-path
/// selection, replication policy, central-queue sizing, chunk size, the
/// multiport encoding, flit width, and the input-buffered references.
/// Each variant is its label and the spec lines it changes on a CB-HW
/// system.
pub const ABLATIONS: [(&str, &str); 13] = [
    ("CB baseline", ""),
    ("CB no bypass crossbar", "bypass_crossbar = false"),
    ("CB deterministic up-path", "up_select = deterministic"),
    (
        "CB forward-and-return replication",
        "policy = forward-and-return",
    ),
    ("CB central queue 32 chunks", "cq_chunks = 32"),
    ("CB central queue 64 chunks", "cq_chunks = 64"),
    ("CB central queue 256 chunks", "cq_chunks = 256"),
    // The chunk-size rows keep the queue at 1 KB.
    ("CB chunk size 4 flits", "chunk_flits = 4\ncq_chunks = 256"),
    ("CB chunk size 16 flits", "chunk_flits = 16\ncq_chunks = 64"),
    ("CB multiport encoding", "mcast = mp"),
    // Wider flits halve the bit-string header's serialization cost (and
    // double every payload's, in flit terms — lengths here are in flits,
    // so this isolates the header-size effect).
    ("CB 16-bit flits (half-size headers)", "bits_per_flit = 16"),
    ("IB same-storage reference", "arch = ib"),
    // The rejected alternative of §3: lock-step branch progress. This
    // variant is *expected* to report deadlocked=true under multicast
    // load — crossed partial grants between overlapping worms — which is
    // the paper's argument for asynchronous replication.
    (
        "IB synchronous replication (rejected; may deadlock)",
        "arch = ib\nreplication = sync",
    ),
];

/// One ablation variant's outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant description.
    pub variant: String,
    /// Multicast latency (last destination), mean.
    pub mcast_mean: f64,
    /// Unicast latency, mean.
    pub unicast_mean: f64,
    /// Delivered payload flits / node / cycle.
    pub throughput: f64,
    /// Saturated?
    pub saturated: bool,
    /// Deadlocked?
    pub deadlocked: bool,
}

impl AblationRow {
    /// The row of `variant`'s run.
    pub fn from_outcome(variant: &str, o: &RunOutcome) -> Self {
        AblationRow {
            variant: variant.to_string(),
            mcast_mean: o.mcast_last.mean,
            unicast_mean: o.unicast.mean,
            throughput: o.throughput,
            saturated: o.saturated,
            deadlocked: o.deadlocked,
        }
    }
}

impl TableRow for AblationRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "variant",
            "mcast_mean",
            "unicast_mean",
            "throughput",
            "saturated",
            "deadlocked",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.variant.clone(),
            f(self.mcast_mean),
            f(self.unicast_mean),
            f(self.throughput),
            self.saturated.to_string(),
            self.deadlocked.to_string(),
        ]
    }
}

// ---------------------------------------------------------------------
// E10: single multicast, unloaded network
// ---------------------------------------------------------------------

/// Latency of one multicast on an otherwise idle network.
#[derive(Debug, Clone)]
pub struct SingleRow {
    /// Scheme label.
    pub scheme: String,
    /// Destinations.
    pub degree: usize,
    /// Latency to the last destination (cycles).
    pub latency: u64,
    /// Ratio of this scheme's latency to CB-HW's at the same degree.
    pub ratio_vs_cbhw: f64,
}

impl TableRow for SingleRow {
    fn headers() -> Vec<&'static str> {
        vec!["scheme", "degree", "latency", "ratio_vs_cbhw"]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            self.degree.to_string(),
            self.latency.to_string(),
            f(self.ratio_vs_cbhw),
        ]
    }
}

/// Measures one multicast from host 0 to a uniformly random destination
/// set of the given degree, on an idle network.
///
/// # Panics
///
/// Panics if the multicast fails to complete within a generous bound.
pub fn single_multicast_latency(cfg: &SystemConfig, degree: usize, len: u16) -> u64 {
    let mut rng = SimRng::new(cfg.seed ^ 0xE10);
    let dests = rng.dest_set(cfg.n_hosts(), degree, NodeId(0));
    single_multicast_latency_to(cfg, dests, len)
}

/// Measures one multicast from host 0 to an explicit destination set, on an
/// idle network.
///
/// # Panics
///
/// Panics if the multicast fails to complete within a generous bound.
pub fn single_multicast_latency_to(cfg: &SystemConfig, dests: netsim::DestSet, len: u16) -> u64 {
    let n = cfg.n_hosts();
    let mut sources: Vec<Box<dyn TrafficSource>> = (0..n)
        .map(|_| Box::new(SilentSource) as Box<dyn TrafficSource>)
        .collect();
    sources[0] = Box::new(ScheduledSource::new(vec![(
        1,
        MessageSpec {
            kind: MessageKind::Multicast(dests),
            payload_flits: len,
        },
    )]));
    let mut sys = build_system(cfg.clone(), sources, None);
    let cap = 2_000_000;
    loop {
        sys.engine.run_for(200);
        let t = sys.tracker();
        let done = t.borrow().completed_total() > 0 && t.borrow().outstanding() == 0;
        if done || sys.engine.now() >= cap {
            break;
        }
    }
    assert_eq!(
        sys.tracker().borrow().outstanding(),
        0,
        "single multicast failed to complete"
    );
    sys.tracker().borrow().mcast_last.summary().max
}

/// E10: single-multicast latency for each scheme across degrees, with the
/// SW/HW ratio the companion work quotes ("up to a factor of 4").
pub fn e10_single_multicast(base: &SystemConfig, degrees: &[usize], len: u16) -> Vec<SingleRow> {
    let mut jobs = Vec::new();
    for &d in degrees {
        for (label, cfg) in scheme_configs(base) {
            jobs.push((label, d, cfg));
        }
    }
    let latencies = sweep::parallel_map(jobs, sweep::jobs(), |(label, d, cfg)| {
        (label, d, single_multicast_latency(&cfg, d, len))
    });
    // Submission order puts CB-HW first within each degree, so the
    // reference latency for the ratio is always the most recent CB-HW row.
    let mut rows = Vec::new();
    let mut cbhw = 0u64;
    for (label, degree, latency) in latencies {
        if label == "CB-HW" {
            cbhw = latency;
        }
        rows.push(SingleRow {
            scheme: label.to_string(),
            degree,
            latency,
            ratio_vs_cbhw: latency as f64 / cbhw as f64,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E11: barrier extension
// ---------------------------------------------------------------------

/// Barrier-round latency for one configuration.
#[derive(Debug, Clone)]
pub struct BarrierRow {
    /// Scheme label for the release multicast.
    pub scheme: String,
    /// System size.
    pub n: usize,
    /// Rounds completed.
    pub rounds: u64,
    /// Mean round latency (cycles).
    pub mean_latency: f64,
}

impl TableRow for BarrierRow {
    fn headers() -> Vec<&'static str> {
        vec!["scheme", "n", "rounds", "mean_latency"]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            self.n.to_string(),
            self.rounds.to_string(),
            f(self.mean_latency),
        ]
    }
}

/// Runs `rounds` barrier rounds; returns (completed rounds, mean latency).
///
/// # Panics
///
/// Panics if no round completes within a generous cycle bound.
pub fn run_barrier(cfg: &SystemConfig, rounds: u64) -> (u64, f64) {
    let n = cfg.n_hosts();
    let engine = BarrierEngine::new(n, NodeId(0), rounds);
    let sources: Vec<Box<dyn TrafficSource>> = (0..n)
        .map(|h| {
            Box::new(BarrierEngine::source_for(&engine, NodeId::from(h))) as Box<dyn TrafficSource>
        })
        .collect();
    let hook: Rc<RefCell<dyn DeliveryHook>> = engine.clone();
    let mut sys = build_system(cfg.clone(), sources, Some(hook));
    let cap = 4_000_000;
    while !engine.borrow().done() && sys.engine.now() < cap {
        sys.engine.run_for(500);
    }
    let e = engine.borrow();
    assert!(e.completed_rounds() > 0, "no barrier round completed");
    (
        e.completed_rounds(),
        e.latencies.mean().expect("rounds completed"),
    )
}

/// E11: barrier latency, hardware-worm release versus software-multicast
/// release, across system sizes (4-ary trees of the given stages).
pub fn e11_barrier(base: &SystemConfig, stages: &[usize], rounds: u64) -> Vec<BarrierRow> {
    let mut jobs = Vec::new();
    for &n in stages {
        let size_base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n },
            ..base.clone()
        };
        for (label, mcast) in [
            ("HW release", McastImpl::HwBitString),
            ("SW release", McastImpl::SwBinomial),
        ] {
            let cfg = SystemConfig {
                arch: SwitchArch::CentralBuffer,
                mcast,
                ..size_base.clone()
            };
            jobs.push((label, cfg));
        }
    }
    sweep::parallel_map(jobs, sweep::jobs(), |(label, cfg)| {
        let (done, mean) = run_barrier(&cfg, rounds);
        BarrierRow {
            scheme: label.to_string(),
            n: cfg.n_hosts(),
            rounds: done,
            mean_latency: mean,
        }
    })
}

/// E15 (extension; "other traffic patterns" in the paper's §9 outlook):
/// permutation unicast traffic — how each buffer organization handles
/// the classic MIN stress patterns at a fixed load. Each pattern is its
/// table name and its spec line; a row's `x` is the pattern's index here.
pub const PATTERNS: [(&str, &str); 4] = [
    ("uniform", "traffic.pattern = uniform\n"),
    ("bit-reversal", "traffic.pattern = bitrev\n"),
    ("transpose", "traffic.pattern = transpose\n"),
    ("near-neighbor", "traffic.pattern = neighbor\n"),
];

// ---------------------------------------------------------------------
// E13: reduction / all-reduce extension
// ---------------------------------------------------------------------

/// All-reduce round latency for one configuration.
#[derive(Debug, Clone)]
pub struct ReduceRow {
    /// Scheme label for the broadcast phase.
    pub scheme: String,
    /// System size.
    pub n: usize,
    /// Rounds completed.
    pub rounds: u64,
    /// Mean round latency (cycles).
    pub mean_latency: f64,
    /// The combined result matched the expected sum.
    pub result_ok: bool,
}

impl TableRow for ReduceRow {
    fn headers() -> Vec<&'static str> {
        vec!["scheme", "n", "rounds", "mean_latency", "result_ok"]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            self.n.to_string(),
            self.rounds.to_string(),
            f(self.mean_latency),
            self.result_ok.to_string(),
        ]
    }
}

/// Runs `rounds` all-reduce rounds; returns (completed, mean latency,
/// result correct).
///
/// # Panics
///
/// Panics if no round completes within a generous cycle bound.
pub fn run_allreduce(cfg: &SystemConfig, rounds: u64, payload: u16) -> (u64, f64, bool) {
    use collectives::ReduceEngine;
    let n = cfg.n_hosts();
    let engine = ReduceEngine::new(n, NodeId(0), rounds, payload, true);
    let sources: Vec<Box<dyn TrafficSource>> = (0..n)
        .map(|h| {
            Box::new(ReduceEngine::source_for(&engine, NodeId::from(h))) as Box<dyn TrafficSource>
        })
        .collect();
    let hook: Rc<RefCell<dyn DeliveryHook>> = engine.clone();
    let mut sys = build_system(cfg.clone(), sources, Some(hook));
    let cap = 4_000_000;
    while !engine.borrow().done() && sys.engine.now() < cap {
        sys.engine.run_for(500);
    }
    let e = engine.borrow();
    assert!(e.completed_rounds() > 0, "no all-reduce round completed");
    let ok = e.last_result == Some(e.expected_sum());
    (
        e.completed_rounds(),
        e.latencies.mean().expect("rounds completed"),
        ok,
    )
}

/// E13 (extension): all-reduce latency — combine up the binomial tree,
/// broadcast the result with hardware worms vs software multicast.
pub fn e13_allreduce(base: &SystemConfig, stages: &[usize], rounds: u64) -> Vec<ReduceRow> {
    let mut jobs = Vec::new();
    for &n in stages {
        let size_base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n },
            ..base.clone()
        };
        for (label, mcast) in [
            ("HW broadcast", McastImpl::HwBitString),
            ("SW broadcast", McastImpl::SwBinomial),
        ] {
            let cfg = SystemConfig {
                arch: SwitchArch::CentralBuffer,
                mcast,
                ..size_base.clone()
            };
            jobs.push((label, cfg));
        }
    }
    sweep::parallel_map(jobs, sweep::jobs(), |(label, cfg)| {
        let (done, mean, ok) = run_allreduce(&cfg, rounds, 8);
        ReduceRow {
            scheme: label.to_string(),
            n: cfg.n_hosts(),
            rounds: done,
            mean_latency: mean,
            result_ok: ok,
        }
    })
}

// ---------------------------------------------------------------------
// E14: switch-combining hardware barrier
// ---------------------------------------------------------------------

/// Runs `rounds` switch-combining barrier rounds; returns (completed,
/// mean latency).
///
/// # Panics
///
/// Panics if the configuration does not enable `barrier_combining`, or if
/// no round completes within a generous cycle bound.
pub fn run_combining_barrier(cfg: &SystemConfig, rounds: u64) -> (u64, f64) {
    use collectives::CombiningBarrierEngine;
    assert!(
        cfg.barrier_combining,
        "config must enable barrier combining"
    );
    let n = cfg.n_hosts();
    let engine = CombiningBarrierEngine::new(n, rounds);
    let sources: Vec<Box<dyn TrafficSource>> = (0..n)
        .map(|h| {
            Box::new(CombiningBarrierEngine::source_for(&engine, NodeId::from(h)))
                as Box<dyn TrafficSource>
        })
        .collect();
    let hook: Rc<RefCell<dyn DeliveryHook>> = engine.clone();
    let mut sys = build_system(cfg.clone(), sources, Some(hook));
    let cap = 4_000_000;
    while !engine.borrow().done() && sys.engine.now() < cap {
        sys.engine.run_for(200);
    }
    let e = engine.borrow();
    assert!(
        e.completed_rounds() > 0,
        "no combining-barrier round completed"
    );
    (
        e.completed_rounds(),
        e.latencies.mean().expect("rounds completed"),
    )
}

/// E14 (extension; the full vision of the paper's §9 / companion work
/// \[34\]): barrier latency with **switch-combining** gathers versus the
/// host-level gather + multicast-release protocol of E11.
pub fn e14_combining_barrier(
    base: &SystemConfig,
    stages: &[usize],
    rounds: u64,
) -> Vec<BarrierRow> {
    let mut jobs = Vec::new();
    for &n in stages {
        let size_base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n },
            arch: SwitchArch::CentralBuffer,
            ..base.clone()
        };
        // Switch-combining hardware barrier.
        let comb_cfg = SystemConfig {
            barrier_combining: true,
            ..size_base.clone()
        };
        jobs.push(("switch-combining", comb_cfg, true));
        // Host-level references (same as E11).
        for (label, mcast) in [
            ("host gather + HW release", McastImpl::HwBitString),
            ("host gather + SW release", McastImpl::SwBinomial),
        ] {
            let cfg = SystemConfig {
                mcast,
                ..size_base.clone()
            };
            jobs.push((label, cfg, false));
        }
    }
    sweep::parallel_map(jobs, sweep::jobs(), |(label, cfg, combining)| {
        let (done, mean) = if combining {
            run_combining_barrier(&cfg, rounds)
        } else {
            run_barrier(&cfg, rounds)
        };
        BarrierRow {
            scheme: label.to_string(),
            n: cfg.n_hosts(),
            rounds: done,
            mean_latency: mean,
        }
    })
}

// ---------------------------------------------------------------------
// E16: graceful degradation under link faults
// ---------------------------------------------------------------------

/// One point of the E16 fault-rate degradation sweep (robustness
/// extension): latency and delivered throughput versus the per-flit drop
/// rate, with end-to-end recovery on (`recovery = on`), for both buffer
/// organizations. Shows how gracefully each architecture degrades as
/// links get lossy — and that the retransmission protocol keeps delivery
/// lossless until it can no longer keep up.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scheme label (CB-HW / IB-HW).
    pub scheme: String,
    /// Per-flit drop probability injected on every link.
    pub drop_rate: f64,
    /// Multicast latency to last destination, mean (cycles).
    pub mcast_mean: f64,
    /// Delivered payload flits / node / cycle.
    pub throughput: f64,
    /// Worms condemned by the injector.
    pub worms_dropped: u64,
    /// Sender-side retransmissions triggered by ACK timeouts.
    pub retransmits: u64,
    /// Messages abandoned after exhausting retries.
    pub gave_up: u64,
    /// Messages still undelivered after the drain (must stay 0 while
    /// recovery keeps up).
    pub leftover: usize,
    /// Saturated (could not drain)?
    pub saturated: bool,
}

impl FaultRow {
    /// The row of `scheme`'s run at per-flit drop rate `drop_rate`.
    pub fn from_outcome(scheme: &str, drop_rate: f64, o: &RunOutcome) -> Self {
        FaultRow {
            scheme: scheme.to_string(),
            drop_rate,
            mcast_mean: o.mcast_last.mean,
            throughput: o.throughput,
            worms_dropped: o.faults.worms_dropped,
            retransmits: o.recovery.retransmits,
            gave_up: o.recovery.gave_up,
            leftover: o.leftover,
            saturated: o.saturated,
        }
    }
}

impl TableRow for FaultRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "scheme",
            "drop_rate",
            "mcast_mean",
            "throughput",
            "worms_dropped",
            "retransmits",
            "gave_up",
            "leftover",
            "saturated",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            format!("{:e}", self.drop_rate),
            f(self.mcast_mean),
            f(self.throughput),
            self.worms_dropped.to_string(),
            self.retransmits.to_string(),
            self.gave_up.to_string(),
            self.leftover.to_string(),
            self.saturated.to_string(),
        ]
    }
}

// ---------------------------------------------------------------------
// E17: online fault response (detect → reroute → degrade → heal)
// ---------------------------------------------------------------------

/// One phase of the fault-response sweep for one scheme (E17).
#[derive(Debug, Clone)]
pub struct FaultResponseRow {
    /// Scheme label (CB-HW / IB-HW).
    pub scheme: String,
    /// Fabric phase: healthy / rerouted / degraded / healed.
    pub phase: &'static str,
    /// Multicasts completed during the phase.
    pub mcasts: u64,
    /// Mean multicast latency to last destination over the phase (cycles).
    pub mcast_mean: f64,
    /// Delivered payload flits / node / cycle over the phase.
    pub throughput: f64,
    /// Destinations served by the U-Min unicast fallback in the phase.
    pub peeled: u64,
    /// Retransmissions fired in the phase.
    pub retransmits: u64,
    /// Switch packet replications in the phase (hardware multicast alive).
    pub replications: u64,
    /// Masked reroutes staged in the phase.
    pub reroutes: u64,
    /// Reroute candidates the deadlock vet rejected in the phase.
    pub rejected: u64,
    /// Messages still undelivered at the end of the phase (only the final
    /// phase may legitimately be non-zero, and only under saturation).
    pub leftover: usize,
}

impl TableRow for FaultResponseRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "scheme",
            "phase",
            "mcasts",
            "mcast_mean",
            "throughput",
            "peeled",
            "retransmits",
            "replications",
            "reroutes",
            "rejected",
            "leftover",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            self.phase.to_string(),
            self.mcasts.to_string(),
            f(self.mcast_mean),
            f(self.throughput),
            self.peeled.to_string(),
            self.retransmits.to_string(),
            self.replications.to_string(),
            self.reroutes.to_string(),
            self.rejected.to_string(),
            self.leftover.to_string(),
        ]
    }
}

/// Cumulative counters captured at a phase boundary; rows are deltas
/// between consecutive snapshots.
#[derive(Debug, Clone, Copy)]
struct PhaseSnap {
    at: netsim::Cycle,
    mcasts: u64,
    latency_sum: f64,
    payload: u64,
    peeled: u64,
    retransmits: u64,
    replications: u64,
    reroutes: u64,
    rejected: u64,
}

fn phase_snap(sys: &crate::build::System, resp: &FaultResponder) -> PhaseSnap {
    let tracker = sys.tracker();
    let tracker = tracker.borrow();
    let lat = tracker.mcast_last.summary();
    PhaseSnap {
        at: sys.engine.now(),
        mcasts: lat.count,
        latency_sum: lat.mean * lat.count as f64,
        payload: tracker.payload_delivered(),
        peeled: sys.fabric_mode.counters().peeled_dests,
        retransmits: sys.shared.recovery.borrow().counters.retransmits,
        replications: sys
            .switch_stats
            .iter()
            .map(|s| s.borrow().packets_replicated)
            .sum(),
        reroutes: resp.counters().reroutes,
        rejected: resp.counters().reroutes_rejected,
    }
}

/// Drives one scheme through the four-phase outage script:
/// `[0, P)` healthy, `[P, 2P)` one root→leaf cut (reroute keeps full worm
/// coverage), `[2P, 3P)` a crossed cut (worm-coverage holes force the
/// U-Min fallback), `[3P, 4P)` healed, then a drain for recovery to finish.
fn e17_drive(
    label: &str,
    cfg: SystemConfig,
    phase_len: netsim::Cycle,
    load: f64,
    degree: usize,
    len: u16,
) -> Vec<FaultResponseRow> {
    let k = match cfg.topology {
        TopologyKind::KaryTree { k, n: 2 } => k,
        other => panic!("E17 runs on 2-stage k-ary trees, got {other:?}"),
    };
    let n = cfg.n_hosts();
    let stop_at = 4 * phase_len;
    let spec = TrafficSpec::multiple_multicast(load, degree, len);
    let sources = crate::workload::make_sources(&spec, n, cfg.seed, Some(stop_at));
    let mut sys = build_system(cfg, sources, None);

    // Representative hosts on two distinct non-zero leaves.
    let d1 = NodeId::from(k);
    let d2 = NodeId::from(2 * k);
    let (single, _) = crate::respond::outage::single_cut(&sys, d1);
    sys.engine.script_outage(single, phase_len, 3 * phase_len);
    for (link, _) in crate::respond::outage::crossed_cut(&sys, d1, d2) {
        if link != single {
            sys.engine.script_outage(link, 2 * phase_len, 3 * phase_len);
        }
    }

    let mut responder = FaultResponder::new(ResponseConfig::default(), &mut sys);
    let mut snaps = vec![phase_snap(&sys, &responder)];
    for boundary in [phase_len, 2 * phase_len, 3 * phase_len, stop_at] {
        while sys.engine.now() < boundary {
            let step = 32.min(boundary - sys.engine.now());
            sys.engine.run_for(step);
            responder.poll(&mut sys);
        }
        if boundary < stop_at {
            snaps.push(phase_snap(&sys, &responder));
        }
    }
    // Drain: recovery re-delivers whatever the outages and purges cost.
    let drain_end = sys.engine.now() + 50 * phase_len;
    while sys.tracker().borrow().outstanding() > 0 && sys.engine.now() < drain_end {
        sys.engine.run_for(100);
        responder.poll(&mut sys);
    }
    snaps.push(phase_snap(&sys, &responder));
    let leftover = sys.tracker().borrow().outstanding();

    snaps
        .windows(2)
        .zip(["healthy", "rerouted", "degraded", "healed"])
        .map(|(w, phase)| {
            let (a, b) = (w[0], w[1]);
            let mcasts = b.mcasts - a.mcasts;
            FaultResponseRow {
                scheme: label.to_string(),
                phase,
                mcasts,
                mcast_mean: if mcasts > 0 {
                    (b.latency_sum - a.latency_sum) / mcasts as f64
                } else {
                    0.0
                },
                throughput: (b.payload - a.payload) as f64 / n as f64 / (b.at - a.at).max(1) as f64,
                peeled: b.peeled - a.peeled,
                retransmits: b.retransmits - a.retransmits,
                replications: b.replications - a.replications,
                reroutes: b.reroutes - a.reroutes,
                rejected: b.rejected - a.rejected,
                leftover: if phase == "healed" { leftover } else { 0 },
            }
        })
        .collect()
}

/// E17 (robustness extension): the full online fault-response pipeline
/// measured phase by phase — healthy baseline, vetted reroute around a
/// single cut, graceful degradation under a crossed cut that defeats every
/// single-worm covering, and restoration after heal — for both buffer
/// organizations.
pub fn e17_fault_response(
    base: &SystemConfig,
    phase_len: netsim::Cycle,
    load: f64,
    degree: usize,
    len: u16,
) -> Vec<FaultResponseRow> {
    let mut jobs = Vec::new();
    for (label, arch) in [
        ("CB-HW", SwitchArch::CentralBuffer),
        ("IB-HW", SwitchArch::InputBuffered),
    ] {
        let cfg = SystemConfig {
            arch,
            mcast: McastImpl::HwBitString,
            recovery: Some(RecoveryConfig::default()),
            response: Some(crate::respond::ResponseConfig::default()),
            ..base.clone()
        };
        jobs.push((label, cfg));
    }
    sweep::parallel_map(jobs, sweep::jobs(), |(label, cfg)| {
        e17_drive(label, cfg, phase_len, load, degree, len)
    })
    .into_iter()
    .flatten()
    .collect()
}

// ---------------------------------------------------------------------
// E18: fault storm under the resident control plane (mdw-routed)
// ---------------------------------------------------------------------

/// One scheme's storm outcome (E18).
#[derive(Debug, Clone)]
pub struct FaultStormRow {
    /// Scheme label (CB-HW / IB-HW).
    pub scheme: String,
    /// Multicasts completed across the whole run.
    pub mcasts: u64,
    /// Masked reroutes installed.
    pub reroutes: u64,
    /// Reroute candidates the vet rejected.
    pub rejected: u64,
    /// Heals back to the unmasked tables.
    pub heals: u64,
    /// Detections that went stale inside the quiesce (no install needed).
    pub stale: u64,
    /// Links the flap damper suppressed.
    pub suppressions: u64,
    /// Suppressed links reinstated after cooling.
    pub reinstatements: u64,
    /// Backoff retries after rejected/incomplete responses.
    pub retries: u64,
    /// Watchdog deadline breaches.
    pub watchdog: u64,
    /// Degradation-ladder rung changes, both directions.
    pub ladder: u64,
    /// p50 detect→install latency, cycles.
    pub p50: u64,
    /// p99 detect→install latency, cycles.
    pub p99: u64,
    /// Worst detect→install latency, cycles.
    pub lat_max: u64,
    /// Route queries answered during the storm.
    pub queries: u64,
    /// Queries answered with hardware-worm coverage (vs full U-Min peel).
    pub q_worm: u64,
    /// Fraction of cycles on the full-mcast rung.
    pub avail_full: f64,
    /// Fraction of cycles on the masked-mcast rung.
    pub avail_masked: f64,
    /// Fraction of cycles on the U-Min-only rung.
    pub avail_umin: f64,
    /// Fraction of cycles read-only.
    pub avail_ro: f64,
    /// Messages still undelivered after the drain.
    pub leftover: usize,
    /// Availability verdict: `available` (never read-only, nothing
    /// lost), `degraded` (read-only cycles but nothing lost), or
    /// `failed` (payload lost).
    pub verdict: &'static str,
}

impl TableRow for FaultStormRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "scheme",
            "mcasts",
            "reroutes",
            "rejected",
            "heals",
            "stale",
            "suppressions",
            "reinstatements",
            "retries",
            "watchdog",
            "ladder",
            "p50",
            "p99",
            "lat_max",
            "queries",
            "q_worm",
            "avail_full",
            "avail_masked",
            "avail_umin",
            "avail_ro",
            "leftover",
            "verdict",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            self.mcasts.to_string(),
            self.reroutes.to_string(),
            self.rejected.to_string(),
            self.heals.to_string(),
            self.stale.to_string(),
            self.suppressions.to_string(),
            self.reinstatements.to_string(),
            self.retries.to_string(),
            self.watchdog.to_string(),
            self.ladder.to_string(),
            self.p50.to_string(),
            self.p99.to_string(),
            self.lat_max.to_string(),
            self.queries.to_string(),
            self.q_worm.to_string(),
            f(self.avail_full),
            f(self.avail_masked),
            f(self.avail_umin),
            f(self.avail_ro),
            self.leftover.to_string(),
            self.verdict.to_string(),
        ]
    }
}

/// Drives one scheme through the storm: two overlapping scripted cuts, a
/// flapping link the damper must suppress, and a route query answered
/// from the live tables every slice — all under the full storm
/// controller (damping, backoff, ladder, watchdog).
fn e18_drive(
    label: &str,
    cfg: SystemConfig,
    phase_len: netsim::Cycle,
    load: f64,
    degree: usize,
    len: u16,
) -> FaultStormRow {
    let k = match cfg.topology {
        TopologyKind::KaryTree { k, n: 2 } => k,
        other => panic!("E18 runs on 2-stage k-ary trees, got {other:?}"),
    };
    let n = cfg.n_hosts();
    let stop_at = 6 * phase_len;
    let spec = TrafficSpec::multiple_multicast(load, degree, len);
    let sources = crate::workload::make_sources(&spec, n, cfg.seed, Some(stop_at));
    let response = cfg.response.clone().unwrap_or_default();
    let mut sys = build_system(cfg, sources, None);

    // Storm script. Two real cuts overlap in [2P, 3P); the flapping link
    // blinks at twice the debounce period through [P, 3P) so both edges
    // of every blink confirm and the damper has something to suppress.
    let d1 = NodeId::from(k);
    let d2 = NodeId::from(2 * k);
    let (cut1, _) = crate::respond::outage::single_cut(&sys, d1);
    sys.engine.script_outage(cut1, phase_len, 4 * phase_len);
    let mut cut2 = None;
    for (link, _) in crate::respond::outage::crossed_cut(&sys, d1, d2) {
        if link != cut1 {
            sys.engine.script_outage(link, 2 * phase_len, 3 * phase_len);
            cut2 = Some(link);
        }
    }
    let flap = *sys
        .links
        .fabric
        .iter()
        .rev()
        .find(|l| Some(**l) != cut2 && **l != cut1)
        .expect("a fabric link that is not a scripted cut");
    let blink = 2 * crate::respond::DEBOUNCE;
    let mut t = phase_len;
    while t + blink < 3 * phase_len {
        sys.engine.script_outage(flap, t, t + blink);
        t += 2 * blink;
    }

    let mut storm = crate::routed::StormResponder::new(response, &mut sys);
    let mut queries = 0u64;
    let mut q_worm = 0u64;
    let mut probe = SimRng::new(sys.config.seed ^ 0xE18).fork(3);

    let run_to = |sys: &mut crate::build::System,
                  storm: &mut crate::routed::StormResponder,
                  boundary: netsim::Cycle,
                  probe: &mut SimRng,
                  queries: &mut u64,
                  q_worm: &mut u64| {
        while sys.engine.now() < boundary {
            let step = crate::routed::SLICE.min(boundary - sys.engine.now());
            sys.engine.run_for(step);
            storm.tick(sys);
            // The concurrent query load: one route lookup per slice from
            // a rotating source, answered by the resident service's
            // planner.
            let src = NodeId::from(probe.below(n));
            let dests = probe.dest_set(n, degree.min(n - 1), src);
            *queries += 1;
            if storm.plan(sys, src, &dests).worm.count() > 0 {
                *q_worm += 1;
            }
        }
    };
    run_to(
        &mut sys,
        &mut storm,
        stop_at,
        &mut probe,
        &mut queries,
        &mut q_worm,
    );
    // Drain: recovery re-delivers whatever the storm cost; storm control
    // stays live so the heal path and damper cool-off are exercised.
    let drain_end = sys.engine.now() + 50 * phase_len;
    while sys.tracker().borrow().outstanding() > 0 && sys.engine.now() < drain_end {
        let next = (sys.engine.now() + 128).min(drain_end);
        run_to(
            &mut sys,
            &mut storm,
            next,
            &mut probe,
            &mut queries,
            &mut q_worm,
        );
    }
    // Cool-down: the damper's penalty must decay past the reuse
    // threshold and the ladder climb its hysteresis windows before the
    // fabric is back to full multicast; bounded so a storm that somehow
    // parked read-only still terminates and reports it.
    let cool_end = sys.engine.now() + 40 * phase_len;
    while storm.rung() != collectives::Rung::FullMcast && sys.engine.now() < cool_end {
        let next = (sys.engine.now() + 128).min(cool_end);
        run_to(
            &mut sys,
            &mut storm,
            next,
            &mut probe,
            &mut queries,
            &mut q_worm,
        );
    }
    let leftover = sys.tracker().borrow().outstanding();

    let resp = storm.responder();
    let c = resp.counters();
    let sc = storm.counters();
    let lat = resp.latency();
    let rung_cycles = storm.rung_cycles();
    let total: u64 = rung_cycles.iter().sum::<u64>().max(1);
    let frac = |i: usize| rung_cycles[i] as f64 / total as f64;
    let verdict = if leftover > 0 {
        "failed"
    } else if rung_cycles[3] > 0 {
        "degraded"
    } else {
        "available"
    };
    FaultStormRow {
        scheme: label.to_string(),
        mcasts: sys.tracker().borrow().mcast_last.summary().count,
        reroutes: c.reroutes,
        rejected: c.reroutes_rejected,
        heals: c.heals,
        stale: c.stale_detects,
        suppressions: sc.suppressions,
        reinstatements: sc.reinstatements,
        retries: sc.retries,
        watchdog: sc.watchdog_trips,
        ladder: storm.ladder_transitions(),
        p50: lat.percentile(50.0),
        p99: lat.percentile(99.0),
        lat_max: lat.max(),
        queries,
        q_worm,
        avail_full: frac(0),
        avail_masked: frac(1),
        avail_umin: frac(2),
        avail_ro: frac(3),
        leftover,
        verdict,
    }
}

/// E18 with an explicit worker count (the determinism suite compares
/// 1-vs-N worker runs byte for byte without racing the global pool
/// setting).
pub fn e18_fault_storm_with_jobs(
    base: &SystemConfig,
    phase_len: netsim::Cycle,
    load: f64,
    degree: usize,
    len: u16,
    jobs: usize,
) -> Vec<FaultStormRow> {
    let mut sweep_jobs = Vec::new();
    for (label, arch) in [
        ("CB-HW", SwitchArch::CentralBuffer),
        ("IB-HW", SwitchArch::InputBuffered),
    ] {
        let cfg = SystemConfig {
            arch,
            mcast: McastImpl::HwBitString,
            recovery: Some(RecoveryConfig::default()),
            response: Some(crate::respond::ResponseConfig::default()),
            ..base.clone()
        };
        sweep_jobs.push((label, cfg));
    }
    sweep::parallel_map(sweep_jobs, jobs, |(label, cfg)| {
        e18_drive(label, cfg, phase_len, load, degree, len)
    })
}

/// E18 (robustness extension): a seeded fault storm — overlapping cuts
/// plus a flapping link — handled by the resident control plane's full
/// storm machinery (flap damping, retry backoff, degradation ladder,
/// watchdog) under concurrent route-query load, with an availability
/// verdict and first-class detect→install latency percentiles per
/// architecture.
pub fn e18_fault_storm(
    base: &SystemConfig,
    phase_len: netsim::Cycle,
    load: f64,
    degree: usize,
    len: u16,
) -> Vec<FaultStormRow> {
    e18_fault_storm_with_jobs(base, phase_len, load, degree, len, sweep::jobs())
}

// ---------------------------------------------------------------------
// E19: exhaustive crash sweep of the journaled control plane
// ---------------------------------------------------------------------

/// One scheme's crash-sweep verdict (E19): the oracle run's fault
/// response, and whether a responder crash at *every* protocol boundary
/// — with and without a torn journal tail — recovered to a byte-identical
/// [`RunOutcome`] with zero torn-install cycles.
#[derive(Debug, Clone)]
pub struct CrashStormRow {
    /// Scheme label (CB-HW / IB-HW).
    pub scheme: String,
    /// Protocol-step boundaries the oracle crossed (crash sites swept
    /// per tear variant).
    pub boundaries: u64,
    /// Injected runs executed (boundaries × tear variants).
    pub runs: u64,
    /// Injected runs whose recovered outcome diverged from the oracle.
    pub mismatches: u64,
    /// Torn-install cycles summed over every injected run.
    pub torn_cycles: u64,
    /// Responder recoveries completed across the sweep.
    pub recoveries: u64,
    /// p50 restart→caught-up recovery latency, ns (wall clock; kept out
    /// of the rendered table so serial/parallel suite renders stay
    /// byte-identical — the recorded numbers land in
    /// `results/BENCH_sweep.json` as `crash_recovery_p50_ns`).
    pub rec_p50_ns: u64,
    /// p99 restart→caught-up recovery latency, ns (wall clock; see
    /// `rec_p50_ns`).
    pub rec_p99_ns: u64,
    /// Masked reroutes the oracle installed (two-phase commits exercised).
    pub reroutes: u64,
    /// Heals back to the unmasked tables in the oracle run.
    pub heals: u64,
    /// Event-log entries + latency samples the oracle's bounded rings
    /// evicted.
    pub dropped: u64,
    /// FNV-64 digest of the oracle responder's durable state at run end.
    pub digest: String,
    /// `identical` (every crash recovered byte-identically, no torn
    /// installs) or `diverged`.
    pub verdict: &'static str,
}

impl TableRow for CrashStormRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "scheme",
            "boundaries",
            "runs",
            "mismatches",
            "torn_cycles",
            "recoveries",
            "reroutes",
            "heals",
            "dropped",
            "digest",
            "verdict",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            self.boundaries.to_string(),
            self.runs.to_string(),
            self.mismatches.to_string(),
            self.torn_cycles.to_string(),
            self.recoveries.to_string(),
            self.reroutes.to_string(),
            self.heals.to_string(),
            self.dropped.to_string(),
            self.digest.clone(),
            self.verdict.to_string(),
        ]
    }
}

/// The E19 system: `base` with `arch`, bit-string hardware multicast,
/// end-to-end recovery, the journaled responder and the torn-install
/// audit.
pub fn e19_config(base: &SystemConfig, arch: SwitchArch) -> SystemConfig {
    SystemConfig {
        arch,
        mcast: McastImpl::HwBitString,
        recovery: Some(RecoveryConfig::default()),
        response: Some(crate::respond::ResponseConfig::default()),
        epoch_audit: true,
        ..base.clone()
    }
}

/// The E19 run shape: a four-phase traffic window and a scripted
/// outage storm.
pub fn e19_run(phase_len: netsim::Cycle) -> RunConfig {
    RunConfig {
        warmup: 0,
        measure: 4 * phase_len,
        drain_max: 20 * phase_len,
        watchdog_grace: 6 * phase_len,
        faults: None,
        // Three bounded cuts: two overlapping (a crossed reroute, or a
        // vet rejection if the pair partitions the fabric — either way
        // deterministic), then a clean fail-and-heal window. Every link
        // is healthy again before the drain, so each injected run stays
        // short and the boundary count stays proportional to the storm,
        // not the run length.
        outages: vec![
            (0, phase_len, 2 * phase_len),
            (1, phase_len + phase_len / 4, 2 * phase_len - phase_len / 4),
            (2, 5 * phase_len / 2, 7 * phase_len / 2),
        ],
    }
}

/// Drives one scheme through the exhaustive crash sweep: a seeded
/// [`netsim::FaultPlan`] outage schedule forces reroute and heal
/// episodes, the oracle pass counts the protocol boundaries, and one
/// injected run per (boundary, tear) pair crashes the responder there.
fn e19_drive(
    label: &str,
    cfg: SystemConfig,
    phase_len: netsim::Cycle,
    load: f64,
    degree: usize,
    len: u16,
) -> CrashStormRow {
    let spec = TrafficSpec::multiple_multicast(load, degree, len);
    let run = e19_run(phase_len);
    let sweep = crate::chaos::run_crash_sweep(&cfg, &spec, &run, &[8]);
    let verdict = if sweep.mismatches.is_empty() && sweep.torn_cycles == 0 {
        "identical"
    } else {
        "diverged"
    };
    CrashStormRow {
        scheme: label.to_string(),
        boundaries: sweep.boundaries,
        runs: sweep.runs,
        mismatches: sweep.mismatches.len() as u64,
        torn_cycles: sweep.torn_cycles,
        recoveries: sweep.recoveries,
        rec_p50_ns: sweep.recovery_ns.percentile(50.0),
        rec_p99_ns: sweep.recovery_ns.percentile(99.0),
        reroutes: sweep.oracle.response.reroutes,
        heals: sweep.oracle.response.heals,
        dropped: sweep.oracle.response_dropped,
        digest: sweep.oracle.response_digest.clone().unwrap_or_default(),
        verdict,
    }
}

/// E19 (crash storm): deterministic crash injection at **every**
/// protocol-step boundary of the journaled fault responder, per
/// architecture, under a seeded outage schedule. Each crash site is swept
/// clean and with a torn journal tail; the recovered run must reproduce
/// the uncrashed oracle's [`RunOutcome`] byte for byte with the engine's
/// torn-install audit silent throughout. Reports the sweep size, the
/// recovery-latency percentiles, and the verdict.
pub fn e19_crash_storm(
    base: &SystemConfig,
    phase_len: netsim::Cycle,
    load: f64,
    degree: usize,
    len: u16,
) -> Vec<CrashStormRow> {
    let mut jobs = Vec::new();
    for (label, arch) in [
        ("CB-HW", SwitchArch::CentralBuffer),
        ("IB-HW", SwitchArch::InputBuffered),
    ] {
        jobs.push((label, e19_config(base, arch)));
    }
    // The chaos handle is installed thread-locally and consumed on the
    // worker thread that runs the sweep, so per-scheme fan-out is safe.
    sweep::parallel_map(jobs, sweep::jobs(), |(label, cfg)| {
        e19_drive(label, cfg, phase_len, load, degree, len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> SystemConfig {
        SystemConfig {
            topology: TopologyKind::KaryTree { k: 2, n: 3 }, // 8 hosts
            ..SystemConfig::default()
        }
    }

    /// The 8-host tree under [`SWEEP_BASE`] over `run`, with `lines`
    /// applied.
    fn tiny_spec(run: RunConfig, lines: &str) -> RunSpec {
        RunSpec {
            system: tiny_base(),
            run,
            ..RunSpec::default()
        }
        .with(&format!("{SWEEP_BASE}{lines}"))
        .expect("parses")
    }

    #[test]
    #[should_panic(expected = "traffic.degree 16 impossible with 8 hosts")]
    fn spec_rows_refuses_a_row_simulate_would_reject() {
        spec_rows(
            &tiny_spec(RunConfig::quick(), ""),
            vec![((), String::new())],
        );
    }

    #[test]
    fn e18_storm_suppresses_flaps_and_loses_nothing() {
        let base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 2 }, // 16 hosts
            ..SystemConfig::default()
        };
        let rows = e18_fault_storm(&base, 2_500, 0.04, 4, 16);
        assert_eq!(rows.len(), 2, "CB-HW and IB-HW");
        for r in &rows {
            assert_eq!(r.leftover, 0, "{} lost messages in the storm", r.scheme);
            assert_ne!(r.verdict, "failed", "{}", r.scheme);
            assert!(r.reroutes >= 1, "{} must reroute around the cuts", r.scheme);
            assert!(r.heals >= 1, "{} must heal after the storm", r.scheme);
            assert!(
                r.suppressions >= 1,
                "{} damper must suppress the flapping link",
                r.scheme
            );
            assert!(
                r.reinstatements >= 1,
                "{} suppressed link must cool off and reinstate",
                r.scheme
            );
            assert!(r.p99 >= r.p50, "{} percentile ordering", r.scheme);
            assert!(r.p99 > 0, "{} must record response latency", r.scheme);
            assert!(r.ladder >= 2, "{} ladder must move and recover", r.scheme);
            assert!(r.queries > 0 && r.q_worm > 0, "{} query load ran", r.scheme);
            let total = r.avail_full + r.avail_masked + r.avail_umin + r.avail_ro;
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{} fractions sum to 1",
                r.scheme
            );
            assert!(
                r.avail_full > 0.0 && r.avail_masked > 0.0,
                "{} storm must visit both healthy and masked rungs",
                r.scheme
            );
        }
    }

    #[test]
    fn e19_crash_sweep_recovers_byte_identically() {
        let base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 2, n: 2 }, // 4 hosts
            ..SystemConfig::default()
        };
        // Phase must clear debounce (64) + drain_wait (256) + purge so the
        // cut is still confirmed-down when the install window opens;
        // shorter phases make every episode go stale.
        let rows = e19_crash_storm(&base, 400, 0.02, 2, 8);
        assert_eq!(rows.len(), 2, "CB-HW and IB-HW");
        for r in &rows {
            assert!(r.boundaries > 0, "{} crossed no boundaries", r.scheme);
            assert_eq!(r.runs, 2 * r.boundaries, "clean + torn tear variants");
            assert_eq!(r.mismatches, 0, "{} diverged after a crash", r.scheme);
            assert_eq!(r.torn_cycles, 0, "{} tore an install", r.scheme);
            assert!(r.reroutes >= 1, "{} oracle must reroute", r.scheme);
            assert!(
                r.recoveries >= r.runs,
                "{}: every injected run recovers at least once",
                r.scheme
            );
            assert!(r.rec_p99_ns >= r.rec_p50_ns, "{}", r.scheme);
            assert!(!r.digest.is_empty(), "{} oracle digest missing", r.scheme);
            assert_eq!(r.verdict, "identical", "{}", r.scheme);
        }
    }

    #[test]
    fn e17_phases_reroute_degrade_and_heal_losslessly() {
        let base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 2 }, // 16 hosts
            ..SystemConfig::default()
        };
        let rows = e17_fault_response(&base, 2_500, 0.04, 4, 16);
        assert_eq!(rows.len(), 8, "2 schemes x 4 phases");
        for r in &rows {
            assert_eq!(r.leftover, 0, "{}/{} lost messages", r.scheme, r.phase);
            assert_eq!(
                r.rejected, 0,
                "honest masked rebuilds never fail the deadlock vet"
            );
            assert!(
                r.mcasts > 0,
                "{}/{} completed no multicasts",
                r.scheme,
                r.phase
            );
        }
        for scheme in ["CB-HW", "IB-HW"] {
            let get = |phase: &str| {
                rows.iter()
                    .find(|r| r.scheme == scheme && r.phase == phase)
                    .expect("phase row")
            };
            assert!(get("rerouted").reroutes >= 1, "{scheme} must reroute");
            assert_eq!(get("healthy").peeled, 0, "{scheme} healthy never peels");
            assert!(
                get("degraded").peeled > 0,
                "{scheme} crossed cut must force the U-Min fallback"
            );
            assert!(
                get("healed").replications > 0,
                "{scheme} hardware replication must resume after heal"
            );
        }
    }

    #[test]
    fn e1_lists_core_parameters() {
        let rows = e1_parameters(&SystemConfig::default(), &RunConfig::default());
        assert!(rows
            .iter()
            .any(|r| r.name == "processors" && r.value == "64"));
        assert!(rows.iter().any(|r| r.name.contains("central queue")));
    }

    #[test]
    fn e2_rows_cover_all_schemes_and_loads() {
        let base = tiny_spec(RunConfig::quick(), "traffic.degree = 4\ntraffic.len = 16");
        let points = [0.02, 0.05].map(|l| (l, format!("traffic.load = {l}")));
        let rows = spec_sweep(&base, "load", &points);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| !r.deadlocked));
        assert!(rows.iter().all(|r| r.mcasts > 0));
        // The spec path runs exactly what the hand-built configs do.
        let (label, cfg) = &scheme_configs(&tiny_base())[1];
        let direct = crate::sim::run_experiment(
            cfg,
            &TrafficSpec::multiple_multicast(0.05, 4, 16),
            &RunConfig::quick(),
        );
        let row = SweepRow::from_outcome(label, "load", 0.05, &direct);
        assert_eq!(rows[3].cells(), row.cells());
    }

    #[test]
    fn scheme_configs_set_arch_and_mcast_only() {
        let base = tiny_base();
        let got: Vec<_> = scheme_configs(&base)
            .into_iter()
            .map(|(label, c)| (label, c.arch, c.mcast, c.topology))
            .collect();
        let tree = base.topology;
        assert_eq!(
            got,
            [
                (
                    "CB-HW",
                    SwitchArch::CentralBuffer,
                    McastImpl::HwBitString,
                    tree
                ),
                (
                    "IB-HW",
                    SwitchArch::InputBuffered,
                    McastImpl::HwBitString,
                    tree
                ),
                (
                    "SW-CB",
                    SwitchArch::CentralBuffer,
                    McastImpl::SwBinomial,
                    tree
                ),
            ]
        );
    }

    #[test]
    fn e10_software_is_slower_than_hardware() {
        let rows = e10_single_multicast(&tiny_base(), &[4], 32);
        let get = |s: &str| rows.iter().find(|r| r.scheme == s).unwrap().latency;
        let (cb, ib, sw) = (get("CB-HW"), get("IB-HW"), get("SW-CB"));
        assert!(sw > cb, "SW {sw} must exceed CB-HW {cb}");
        assert!(sw > ib, "SW {sw} must exceed IB-HW {ib}");
        let ratio = rows
            .iter()
            .find(|r| r.scheme == "SW-CB")
            .unwrap()
            .ratio_vs_cbhw;
        assert!(ratio > 1.5, "SW/HW ratio {ratio} too small");
    }

    #[test]
    fn e11_barrier_completes_and_hw_wins() {
        let rows = e11_barrier(&tiny_base(), &[2], 3); // 16 hosts
        assert_eq!(rows.len(), 2);
        let hw = rows.iter().find(|r| r.scheme == "HW release").unwrap();
        let sw = rows.iter().find(|r| r.scheme == "SW release").unwrap();
        assert_eq!(hw.rounds, 3);
        assert_eq!(sw.rounds, 3);
        assert!(
            hw.mean_latency < sw.mean_latency,
            "hardware barrier ({}) must beat software ({})",
            hw.mean_latency,
            sw.mean_latency
        );
    }

    #[test]
    fn e15_patterns_run_clean_on_16_hosts() {
        let base = tiny_spec(
            RunConfig::quick(),
            "traffic.mcast_fraction = 0\ntraffic.load = 0.2\ntraffic.len = 32",
        );
        let mut rows = Vec::new();
        for (pi, (name, pattern)) in PATTERNS.iter().enumerate() {
            for (label, arch) in [("CB", SCHEMES[0].1), ("IB", SCHEMES[1].1)] {
                rows.push(((format!("{label}/{name}"), pi), format!("{arch}{pattern}")));
            }
        }
        let rows: Vec<SweepRow> = spec_rows(&base, rows)
            .iter()
            .map(|((scheme, pi), o)| SweepRow::from_outcome(scheme, "pattern", *pi as f64, o))
            .collect();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| !r.deadlocked), "{rows:?}");
        assert!(rows.iter().all(|r| r.unicast_mean > 0.0));
    }

    #[test]
    fn e14_combining_barrier_beats_host_level() {
        let rows = e14_combining_barrier(&tiny_base(), &[2], 3); // 16 hosts
        assert_eq!(rows.len(), 3);
        let get = |s: &str| {
            rows.iter()
                .find(|r| r.scheme == s)
                .unwrap_or_else(|| panic!("{s} row missing"))
        };
        let comb = get("switch-combining");
        let host_hw = get("host gather + HW release");
        let host_sw = get("host gather + SW release");
        assert_eq!(comb.rounds, 3);
        assert!(
            comb.mean_latency < host_hw.mean_latency,
            "combining ({}) must beat host-level HW ({})",
            comb.mean_latency,
            host_hw.mean_latency
        );
        assert!(host_hw.mean_latency < host_sw.mean_latency);
    }

    #[test]
    fn e13_allreduce_correct_and_hw_faster() {
        let rows = e13_allreduce(&tiny_base(), &[2], 3); // 16 hosts
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.result_ok && r.rounds == 3));
        let hw = rows.iter().find(|r| r.scheme == "HW broadcast").unwrap();
        let sw = rows.iter().find(|r| r.scheme == "SW broadcast").unwrap();
        assert!(
            hw.mean_latency < sw.mean_latency,
            "hardware all-reduce ({}) must beat software ({})",
            hw.mean_latency,
            sw.mean_latency
        );
    }

    #[test]
    fn e16_recovery_keeps_delivery_lossless_under_drops() {
        let run = RunConfig {
            warmup: 500,
            measure: 4_000,
            drain_max: 400_000,
            ..RunConfig::default()
        };
        let base = tiny_spec(
            run,
            "recovery = on\ntraffic.load = 0.05\ntraffic.degree = 4\ntraffic.len = 32",
        );
        let seed = base.system.seed ^ 0xE16;
        let rates = [0.0, 1e-4, 1e-3].map(|rate| {
            (
                rate,
                format!("fault.seed = {seed}\nfault.drop_rate = {rate}\n"),
            )
        });
        let rows: Vec<FaultRow> = spec_rows(&base, scheme_rows(&SCHEMES[..2], &rates))
            .iter()
            .map(|((label, rate), o)| FaultRow::from_outcome(label, *rate, o))
            .collect();
        assert_eq!(rows.len(), 6);
        // Lossless delivery at every probed rate, for both architectures.
        assert!(
            rows.iter().all(|r| r.leftover == 0 && r.gave_up == 0),
            "{rows:?}"
        );
        // The clean baseline needs no retransmissions...
        assert!(rows
            .iter()
            .filter(|r| r.drop_rate == 0.0)
            .all(|r| r.worms_dropped == 0 && r.retransmits == 0));
        // ...while the lossy points actually exercised the protocol.
        assert!(
            rows.iter()
                .filter(|r| r.drop_rate >= 1e-3)
                .all(|r| r.worms_dropped > 0 && r.retransmits > 0),
            "{rows:?}"
        );
    }

    #[test]
    fn e9_ablations_all_run_clean() {
        // The base's 16 destinations do not fit 8 hosts.
        let base = tiny_spec(
            RunConfig::quick(),
            &format!(
                "{BIMODAL}{}traffic.load = 0.05\ntraffic.degree = 4",
                SCHEMES[0].1
            ),
        );
        let rows = ABLATIONS.iter().map(|&(v, lines)| (v, lines.to_string()));
        let rows: Vec<AblationRow> = spec_rows(&base, rows.collect())
            .iter()
            .map(|(variant, o)| AblationRow::from_outcome(variant, o))
            .collect();
        assert_eq!(rows.len(), ABLATIONS.len());
        // Every variant except the deliberately unsafe synchronous-
        // replication one must be deadlock-free.
        assert!(
            rows.iter()
                .filter(|r| !r.variant.contains("synchronous"))
                .all(|r| !r.deadlocked),
            "{rows:?}"
        );
    }
}
