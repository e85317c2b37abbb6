//! The traced run: the same public calls an untraced operation makes,
//! with timers around each layer boundary, from outside the program.
//!
//! [`traced_experiment`] mirrors `sim::run_experiment` step by step
//! through public API (`make_sources`, `build_system`, a wrapped
//! `TrafficSource`, a counting `DeliveryHook`, `Engine::run_until` /
//! `run_for`, `FaultResponder::poll`, `Engine::flush`), so its simulated
//! results must equal the untraced call's byte for byte; every traced
//! operation checks that. [`traced_sweep`] mirrors `chaos::run_crash_sweep`
//! the same way (`chaos::handle` + `install` + `run_experiment` per
//! boundary) and adds `Journal::reopen` and a standalone
//! `check_model_opts` at the responder's bounds.

use crate::report::{median, quantile, Samples};
use crate::{Kind, Workload};
use collectives::traffic::DeliveryHook;
use collectives::{MessageSpec, TrafficSource};
use mdw_analysis::{check_model_opts, ArchClass, CheckOutcome, ModelBounds, ModelOptions};
use mdworm::chaos::{self, ChaosMode};
use mdworm::journal::{Journal, JournalConfig};
use mdworm::{
    build_system, make_sources, run_experiment, FaultResponder, RunConfig, RunOutcome, SwitchArch,
    SystemConfig, TopologyKind, TrafficSpec,
};
use mintopo::route::RouteTables;
use mintopo::KaryTree;
use netsim::ids::{MessageId, NodeId};
use netsim::stats::Summary;
use netsim::Cycle;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};
use switches::ReplicationMode;

/// The simulated results of one run: the `RunOutcome` fields both the
/// untraced call and the traced mirror can produce, compared exactly.
#[derive(Debug, PartialEq)]
pub struct SimDigest {
    mcast_last: Summary,
    mcast_avg: Summary,
    unicast: Summary,
    throughput: f64,
    completed: (u64, u64),
    leftover: usize,
    deadlocked: bool,
    cycles: Cycle,
    utilization: (f64, f64),
    counters: String,
    response_digest: Option<String>,
    torn_cycles: u64,
}

impl SimDigest {
    /// The digest of an untraced outcome.
    pub fn of(o: &RunOutcome) -> Self {
        SimDigest {
            mcast_last: o.mcast_last,
            mcast_avg: o.mcast_avg,
            unicast: o.unicast,
            throughput: o.throughput,
            completed: (o.completed_mcasts, o.completed_unicasts),
            leftover: o.leftover,
            deadlocked: o.deadlocked,
            cycles: o.cycles,
            utilization: (o.eject_utilization, o.fabric_utilization),
            counters: format!(
                "{:?}",
                (
                    &o.faults,
                    &o.recovery,
                    &o.degrade,
                    &o.response,
                    o.response_dropped
                )
            ),
            response_digest: o.response_digest.clone(),
            torn_cycles: o.torn_cycles,
        }
    }

    /// Equal simulated results, every float bit for bit.
    pub fn same(&self, other: &SimDigest) -> bool {
        self == other
    }
}

/// Host time spent inside wrapped traffic sources and the delivery hook.
#[derive(Debug, Default)]
struct HostProbe {
    polls: Cell<u64>,
    sampled_polls: Cell<u64>,
    sampled_poll_time: Cell<Duration>,
    messages: Cell<u64>,
    hook: Cell<Duration>,
    deliveries: Cell<u64>,
}

/// One in this many polls is timed; the rest are only counted. A light
/// workload makes about 17 million polls, each about as long as reading
/// the clock twice, and a timer around every one would time mostly the
/// timer. The stride is prime, so it does not keep landing on the same
/// hosts of a cycle.
const POLL_SAMPLE: u64 = 61;

/// A traffic source that counts every `poll` of the one it wraps and
/// times every [`POLL_SAMPLE`]-th.
struct TimedSource {
    inner: Box<dyn TrafficSource>,
    probe: Rc<HostProbe>,
}

impl TrafficSource for TimedSource {
    fn poll(&mut self, now: Cycle) -> Option<MessageSpec> {
        let p = &self.probe;
        let n = p.polls.get();
        p.polls.set(n + 1);
        let m = if n % POLL_SAMPLE == 0 {
            let t = Instant::now();
            let m = self.inner.poll(now);
            p.sampled_poll_time.set(p.sampled_poll_time.get() + t.elapsed());
            p.sampled_polls.set(p.sampled_polls.get() + 1);
            m
        } else {
            self.inner.poll(now)
        };
        if m.is_some() {
            p.messages.set(p.messages.get() + 1);
        }
        m
    }
}

/// Mean host seconds an empty `Instant::now` / `elapsed` pair reads: the
/// timer's own share of every timed call, subtracted from each.
fn timer_cost() -> f64 {
    const PAIRS: u32 = 100_000;
    let mut total = Duration::ZERO;
    for _ in 0..PAIRS {
        let t = Instant::now();
        total += std::hint::black_box(t).elapsed();
    }
    total.as_secs_f64() / f64::from(PAIRS)
}

/// A delivery hook that only counts (and times itself).
struct CountingHook(Rc<HostProbe>);

impl DeliveryHook for CountingHook {
    fn on_delivered(&mut self, _msg: MessageId, _host: NodeId, _now: Cycle) {
        let t = Instant::now();
        self.0.deliveries.set(self.0.deliveries.get() + 1);
        self.0.hook.set(self.0.hook.get() + t.elapsed());
    }
}

/// Drain probe step of `run_experiment`: at most 500 cycles, at most
/// half the watchdog grace, at least 1, never past the drain budget.
fn drain_step(grace: Cycle, remaining: Cycle) -> Cycle {
    500.min(grace / 2).max(1).min(remaining)
}

/// Cycles between responder polls while the traffic window runs.
const RESPONDER_POLL: Cycle = 32;

/// A traced run's results, layer samples and surviving responder.
pub struct TracedRun {
    /// Simulated results, comparable with the untraced call's.
    pub digest: SimDigest,
    /// Host seconds of the whole call.
    pub secs: f64,
    /// `(metric, value)` samples of the build, workload, engine,
    /// switches and host layers.
    pub layers: Vec<(&'static str, f64)>,
    /// Host seconds inside `FaultResponder::poll`, when there is one.
    pub respond_s: Option<f64>,
    /// The responder, when the configuration has one.
    pub responder: Option<FaultResponder>,
    /// Switches in the fabric.
    pub n_switches: usize,
}

/// `run_experiment` from outside, with a timer around every layer call.
pub fn traced_experiment(cfg: &SystemConfig, spec: &TrafficSpec, run: &RunConfig) -> TracedRun {
    let start = Instant::now();
    let n = cfg.n_hosts();
    let stop_at = run.warmup + run.measure;
    let probe = Rc::new(HostProbe::default());

    let t = Instant::now();
    let sources = make_sources(spec, n, cfg.seed, Some(stop_at));
    let make_sources_s = t.elapsed().as_secs_f64();
    let sources: Vec<Box<dyn TrafficSource>> = sources
        .into_iter()
        .map(|inner| {
            Box::new(TimedSource {
                inner,
                probe: probe.clone(),
            }) as Box<dyn TrafficSource>
        })
        .collect();
    let hook: Rc<RefCell<dyn DeliveryHook>> = Rc::new(RefCell::new(CountingHook(probe.clone())));

    let t = Instant::now();
    let mut sys = build_system(cfg.clone(), sources, Some(hook));
    let system_s = t.elapsed().as_secs_f64();

    if cfg.epoch_audit {
        sys.engine.enable_epoch_audit();
    }
    if let Some(plan) = &run.faults {
        sys.engine.install_faults(plan);
    }
    if !sys.links.fabric.is_empty() {
        for &(idx, down, up) in &run.outages {
            let link = sys.links.fabric[idx % sys.links.fabric.len()];
            sys.engine.script_outage(link, down, up);
        }
    }
    sys.shared.tracker.borrow_mut().set_measure_from(run.warmup);
    let mut responder = cfg
        .response
        .clone()
        .map(|rc| FaultResponder::new(rc, &mut sys));

    let mut engine = Duration::ZERO;
    let mut respond = Duration::ZERO;
    let mut poll = |r: &mut Option<FaultResponder>, sys: &mut mdworm::System| {
        if let Some(r) = r {
            let t = Instant::now();
            r.poll(sys);
            respond += t.elapsed();
        }
    };
    match responder {
        None => {
            let t = Instant::now();
            sys.engine.run_until(stop_at);
            engine += t.elapsed();
        }
        Some(_) => {
            while sys.engine.now() < stop_at {
                let step = RESPONDER_POLL.min(stop_at - sys.engine.now());
                let t = Instant::now();
                sys.engine.run_for(step);
                engine += t.elapsed();
                poll(&mut responder, &mut sys);
            }
        }
    }

    let drain_end = stop_at + run.drain_max;
    let mut deadlocked = false;
    let mut last_moves = sys.engine.total_flit_moves();
    let mut last_progress = sys.engine.now();
    while sys.tracker().borrow().outstanding() > 0 && sys.engine.now() < drain_end && !deadlocked {
        let step = drain_step(run.watchdog_grace, drain_end - sys.engine.now());
        let t = Instant::now();
        sys.engine.run_for(step);
        engine += t.elapsed();
        poll(&mut responder, &mut sys);
        let moves = sys.engine.total_flit_moves();
        if moves != last_moves {
            last_moves = moves;
            last_progress = sys.engine.now();
        } else if sys.engine.now() - last_progress >= run.watchdog_grace {
            deadlocked = true;
        }
    }

    let t = Instant::now();
    sys.engine.flush();
    let flush_s = t.elapsed().as_secs_f64();
    let secs = start.elapsed().as_secs_f64();

    let util = sys.link_utilization();
    let recovery = sys.shared.recovery.borrow().counters;
    let tracker = sys.tracker();
    let tracker = tracker.borrow();
    let cycles = sys.engine.now();
    let r = responder.as_ref();
    let digest = SimDigest {
        mcast_last: tracker.mcast_last.summary(),
        mcast_avg: tracker.mcast_avg.summary(),
        unicast: tracker.unicast.summary(),
        throughput: tracker.payload_delivered() as f64 / n as f64 / run.measure as f64,
        completed: (tracker.completed_mcasts(), tracker.completed_unicasts()),
        leftover: tracker.outstanding(),
        deadlocked,
        cycles,
        utilization: (util.eject, util.fabric),
        counters: format!(
            "{:?}",
            (
                sys.engine.fault_counters(),
                recovery,
                sys.fabric_mode.counters(),
                r.map(|r| r.counters()).unwrap_or_default(),
                r.map(|r| r.dropped()).unwrap_or_default(),
            )
        ),
        response_digest: r.map(|r| r.state_digest()),
        torn_cycles: sys.engine.epoch_audit().map_or(0, |a| a.torn_cycles),
    };

    let engine_s = engine.as_secs_f64();
    // Both are net of the timer's own cost; the sampled poll time is
    // scaled up to all polls.
    let timer = timer_cost();
    let sampled = probe.sampled_polls.get().max(1) as f64;
    let poll_s = (probe.sampled_poll_time.get().as_secs_f64() - sampled * timer)
        * (probe.polls.get() as f64 / sampled);
    let hook_s = probe.hook.get().as_secs_f64() - probe.deliveries.get() as f64 * timer;    let flit_moves = sys.engine.total_flit_moves();
    let mut sw = [0u64; 6];
    let (mut cq, mut ib) = (Vec::new(), Vec::new());
    for s in &sys.switch_stats {
        let s = s.borrow();
        for (acc, v) in sw.iter_mut().zip([
            s.flits_sent,
            s.bypass_flits,
            s.packets_replicated,
            s.branches_created,
            s.reservation_wait_cycles,
            s.purged_flits,
        ]) {
            *acc += v;
        }
        cq.extend(s.cq_used_chunks.mean());
        ib.extend(s.ib_used_flits.mean());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let layers = vec![
        ("build.system_s", system_s),
        ("build.components", sys.engine.n_components() as f64),
        ("build.links", sys.engine.n_links() as f64),
        ("workload.make_sources_s", make_sources_s),
        ("workload.poll_s", poll_s),
        ("workload.messages", probe.messages.get() as f64),
        ("engine.run_s", engine_s),
        ("engine.self_s", engine_s - poll_s - hook_s),
        ("engine.cycles", cycles as f64),
        ("engine.flit_moves", flit_moves as f64),
        ("engine.ns_per_cycle", engine_s * 1e9 / cycles.max(1) as f64),
        (
            "engine.ns_per_flit_move",
            engine_s * 1e9 / flit_moves.max(1) as f64,
        ),
        ("engine.flush_s", flush_s),
        ("switches.flits_sent", sw[0] as f64),
        ("switches.bypass_flits", sw[1] as f64),
        ("switches.packets_replicated", sw[2] as f64),
        ("switches.branches_created", sw[3] as f64),
        ("switches.reservation_wait_cycles", sw[4] as f64),
        ("switches.purged_flits", sw[5] as f64),
        ("switches.cq_occupancy_mean", mean(&cq)),
        ("switches.ib_occupancy_mean", mean(&ib)),
        ("host.deliveries", probe.deliveries.get() as f64),
        ("host.hook_s", hook_s),
        ("host.retransmits", recovery.retransmits as f64),
    ];
    let respond_s = responder.is_some().then_some(respond.as_secs_f64());
    drop(tracker);
    TracedRun {
        digest,
        secs,
        layers,
        respond_s,
        responder,
        n_switches: sys.topology.n_switches(),
    }
}

/// Host seconds of `RouteTables::build` on a workload's fabric.
fn route_tables_secs(topology: TopologyKind) -> f64 {
    let TopologyKind::KaryTree { k, n } = topology else {
        panic!("every benchmark fabric is a k-ary n-tree");
    };
    let tree = KaryTree::new(k, n);
    let t = Instant::now();
    let tables = RouteTables::build(tree.topology());
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(tables);
    secs
}

/// One traced operation of workload `w`. Returns its host seconds and,
/// if its results differ from `base` (the untraced operation's) or a
/// sweep check fails, why.
pub fn traced_op(w: &Workload, base: SimDigest, out: &mut Samples) -> (f64, Option<String>) {
    out.push("build.route_tables_s", route_tables_secs(w.cfg.topology));
    match &w.kind {
        Kind::Sim => {
            let tr = traced_experiment(&w.cfg, &w.spec, &w.run);
            for &(k, v) in &tr.layers {
                out.push(k, v);
            }
            let failure = (!tr.digest.same(&base))
                .then(|| "traced results differ from the untraced run".to_string());
            (tr.secs, failure)
        }
        Kind::CrashSweep { tears } => {
            let s = traced_sweep(&w.cfg, &w.spec, &w.run, tears, u64::MAX, out, true);
            let failure = s.failure.or_else(|| {
                (!s.oracle.same(&base))
                    .then(|| "traced oracle differs from the untraced sweep's".to_string())
            });
            (s.secs, failure)
        }
    }
}

/// The control-plane layers on a fault-free workload's behalf: the E19
/// run shape on `cfg`, with the crashes of the first boundary only.
pub fn control_plane_probe(cfg: &SystemConfig, out: &mut Samples) -> Option<String> {
    let s = traced_sweep(
        cfg,
        &crate::crash_spec(),
        &crate::crash_run(),
        &[8],
        1,
        out,
        false,
    );
    s.failure
}

/// Outcome of a traced crash sweep.
pub struct TracedSweep {
    /// Host seconds of the sweep.
    pub secs: f64,
    /// The oracle's results.
    pub oracle: SimDigest,
    /// A failed check, if any.
    pub failure: Option<String>,
}

/// `run_crash_sweep` from outside, limited to the first `max_boundaries`
/// boundaries, with the journal reopen and the responder's model check
/// timed on their own. `sim_layers` also records the traced oracle's
/// build/engine/switch/host samples.
pub fn traced_sweep(
    cfg: &SystemConfig,
    spec: &TrafficSpec,
    run: &RunConfig,
    tears: &[usize],
    max_boundaries: u64,
    out: &mut Samples,
    sim_layers: bool,
) -> TracedSweep {
    let start = Instant::now();
    let h = chaos::handle(ChaosMode::Record);
    chaos::install(h.clone());
    let oracle = traced_experiment(cfg, spec, run);
    let boundaries = h.borrow().boundaries;
    out.push("chaos.oracle_run_s", oracle.secs);
    out.push(
        "respond.poll_s",
        oracle.respond_s.expect("crash sweeps run a responder"),
    );
    if sim_layers {
        for &(k, v) in &oracle.layers {
            out.push(k, v);
        }
    }

    let mut variants = vec![0usize];
    variants.extend(tears.iter().copied().filter(|&t| t > 0));
    let mut runs = 0u64;
    let mut mismatches = Vec::new();
    let mut torn = 0u64;
    let mut injected = Vec::new();
    let mut recovery_us = Vec::new();
    let resp = oracle
        .responder
        .as_ref()
        .expect("crash sweeps run a responder");
    let (mut vet, mut deep) = (resp.vet_memo_stats(), resp.deep_memo_stats());
    for boundary in 0..boundaries.min(max_boundaries) {
        for &tear_bytes in &variants {
            let h = chaos::handle(ChaosMode::CrashAt {
                boundary,
                tear_bytes,
            });
            chaos::install(h.clone());
            let t = Instant::now();
            let o = run_experiment(cfg, spec, run);
            injected.push(t.elapsed().as_secs_f64());
            runs += 1;
            torn += o.torn_cycles;
            if !SimDigest::of(&o).same(&oracle.digest) {
                mismatches.push((boundary, tear_bytes));
            }
            vet.hits += o.vet_memo.hits;
            vet.misses += o.vet_memo.misses;
            deep.hits += o.deep_memo.hits;
            deep.misses += o.deep_memo.misses;
            recovery_us.extend(h.borrow().recovery_ns.iter().map(|&ns| ns as f64 / 1e3));
        }
    }
    let secs = start.elapsed().as_secs_f64();

    out.push("chaos.boundaries", boundaries as f64);
    out.push("chaos.runs", runs as f64);
    out.push("chaos.injected_run_s", median(&injected));
    out.push(
        "chaos.model_checks_per_run",
        deep.misses as f64 / (runs + 1) as f64,
    );
    out.push("chaos.recovery_p50_us", quantile(&recovery_us, 0.5));
    out.push("chaos.recovery_p90_us", quantile(&recovery_us, 0.9));
    let counters = resp.counters();
    out.push("respond.reroutes", counters.reroutes as f64);
    out.push("respond.heals", counters.heals as f64);
    out.push("respond.vet_memo_hits", vet.hits as f64);
    out.push("respond.vet_memo_misses", vet.misses as f64);
    out.push("respond.deep_memo_hits", deep.hits as f64);
    out.push("respond.deep_memo_misses", deep.misses as f64);
    let stats = resp.vet_stats();
    out.push(
        "analysis.vet_structural_ns",
        stats.structural_ns.percentile(50.0) as f64,
    );
    out.push(
        "analysis.vet_model_ns",
        stats.model_ns.percentile(50.0) as f64,
    );

    journal_reopen(cfg, resp, out);
    model_check(cfg, oracle.n_switches, out);

    let failure = if !mismatches.is_empty() || torn > 0 {
        Some(format!("mismatches={mismatches:?} torn_cycles={torn}"))
    } else if boundaries == 0 {
        Some("the oracle crossed no protocol boundary".to_string())
    } else {
        None
    };
    TracedSweep {
        secs,
        oracle: oracle.digest,
        failure,
    }
}

/// Times `Journal::reopen` of a copy of the oracle's journal (median of
/// several reopens).
fn journal_reopen(cfg: &SystemConfig, resp: &FaultResponder, out: &mut Samples) {
    let jcfg = JournalConfig {
        snapshot_every: cfg.response.as_ref().map_or(0, |r| r.snapshot_every),
    };
    let text = resp.journal().store().borrow().clone();
    let mut times = Vec::new();
    let mut records = 0;
    for _ in 0..15 {
        let copy = Rc::new(RefCell::new(text.clone()));
        let t = Instant::now();
        let (journal, recs) = Journal::reopen(copy, jcfg.clone());
        times.push(t.elapsed().as_secs_f64());
        records = recs.len();
        std::hint::black_box(journal);
    }
    out.push("journal.reopen_s", median(&times));
    out.push("journal.records", records as f64);
}

/// Times the bounded model check the responder's deep vet runs on this
/// fabric: same bounds, same options, one worker.
fn model_check(cfg: &SystemConfig, n_switches: usize, out: &mut Samples) {
    let bounds = ModelBounds {
        max_switches: n_switches.clamp(2, 16),
        ..ModelBounds::default()
    };
    let opts = ModelOptions {
        mode: cfg.model_mode,
        jobs: 1,
        ..ModelOptions::default()
    };
    let arch = match cfg.arch {
        SwitchArch::CentralBuffer => ArchClass::CentralBuffer,
        SwitchArch::InputBuffered => ArchClass::InputBuffered,
    };
    let sync = cfg.switch.replication == ReplicationMode::Synchronous;
    let t = Instant::now();
    let outcome = check_model_opts(arch, sync, cfg.switch.policy, &bounds, &opts);
    out.push("analysis.model_check_s", t.elapsed().as_secs_f64());
    let states = match outcome {
        CheckOutcome::Verified(stats) => stats.states,
        CheckOutcome::Violated(_) => 0,
    };
    out.push("analysis.model_states", states as f64);
}
