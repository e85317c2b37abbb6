//! Online fault response: detection → quiesce → reroute → degrade → heal
//! (DESIGN.md §10), made crash-tolerant by a write-ahead journal and
//! two-phase epoch'd table installs (DESIGN.md §15).
//!
//! The [`FaultResponder`] models an SP2-style service processor sitting
//! beside the fabric. It watches the engine's link up/down event stream
//! through a debounced [`netsim::health::FabricHealth`] view and, whenever
//! the set of confirmed-dead *fabric* ports changes, runs the response
//! protocol:
//!
//! 1. **gate** — hosts stop injecting ([`collectives::FabricMode`]);
//!    ejection keeps draining, so worms already past the cut complete;
//! 2. **drain + purge** — after a grace window the per-switch
//!    [`switches::SwitchCtl`] purge command kills whatever is still
//!    resident (wedged against the dead link), returning credits so
//!    link-level conservation holds; the killed payloads come back through
//!    the end-to-end retransmission ledger;
//! 3. **reroute** — new LCA tables are derived with the dead ports masked
//!    ([`mintopo::route::RouteTables::build_masked`]) and **prepared**
//!    under a fresh epoch on every switch (two-phase: staged, inactive).
//!    The candidate is vetted in two halves: structurally by the static
//!    deadlock analyzer ([`mdw_analysis::vet_reroute`], run afresh for
//!    every candidate; a re-driven episode takes its journaled verdict
//!    instead) and behaviorally by the bounded model checker
//!    ([`mdw_analysis::check_model_opts`]). The model check's verdict
//!    never depends on the candidate, so the responder keeps the last
//!    one in a single slot keyed by the checker's complete input, and
//!    under it one process-wide verdict table runs each distinct check
//!    once per process no matter how many responders, on however many
//!    threads, ask.
//!    A passing candidate is
//!    **committed** — armed on every
//!    switch, each swapping it in on its first empty tick and stamping
//!    the epoch; a failing candidate is **aborted** and the fabric stays
//!    on the old tables, degraded rather than deadlocked;
//! 4. **degrade** — while masked tables are active, each hardware
//!    multicast is split into the worm-coverable part and a peeled
//!    remainder served by binomial-tree unicast
//!    ([`collectives::DegradePlanner`]);
//! 5. **heal** — when every cut is confirmed back up the original tables
//!    are re-derived, vetted and swapped in, and hosts return to pure
//!    hardware multicast.
//!
//! ## Crash tolerance (DESIGN.md §15)
//!
//! Every durable decision is journaled ([`crate::journal`]) before or
//! atomically with its in-memory effect, and every wait inside an episode
//! is keyed to an *absolute* engine-cycle deadline derived from the
//! detection cycle. A responder that crashes (modeled by the
//! [`crate::chaos`] harness as an early unwind at a protocol boundary)
//! therefore recovers by replaying the journal — rebuilding health,
//! counters, the event log, the latency series and the epoch cursor to
//! byte-identical state — and *re-driving* the in-flight episode. Every
//! re-driven step is idempotent: deadlines in the past are no-ops,
//! [`SwitchCtl::prepare`](switches::ctl::SwitchCtl::prepare)/[`commit`](switches::ctl::SwitchCtl::commit) tolerate re-issue, and
//! journaled verdicts short-circuit re-vetting. An install whose commit
//! record is durable but whose per-switch commits were cut short is
//! completed by recovery, so the fabric can never be left torn — the
//! engine's epoch audit ([`netsim::engine::Engine::enable_epoch_audit`])
//! holds every cycle to that.
//!
//! The verdict table is simulator state, not responder state: it
//! survives a simulated crash, while the responder's deep-vet slot does
//! not. It holds pure functions of the checker's input and sits below the
//! slot, so the slot's counters and `VetStats` sample counts, and hence
//! every recovered run, are the same on a cold or a warm table, and
//! whichever thread of a parallel crash sweep filled it.
//!
//! The only deliberately ephemeral bit is
//! [`request_retry`](FaultResponder::request_retry): a retry lost to a
//! crash is re-armed by the storm controller's backoff on its own
//! schedule, so journaling it would buy nothing.
//!
//! Table swaps ride the switches' install-only-when-empty rule, so no worm
//! ever decodes against a mix of old and new tables.
//!
//! Only switch→switch links are masked. A dead injection/ejection link
//! makes a *host* unreachable — no reroute can fix that, exactly as no
//! spare path exists to a dead adapter in a real machine — so those
//! outages are left to the end-to-end recovery layer alone.

use crate::build::System;
use crate::chaos::{ChaosHandle, ChaosMode, Crashed};
use crate::config::SystemConfig;
use crate::journal::{
    EpisodeOutcome, Journal, JournalConfig, JournalRecord, JournalStore, ResponderSnapshot,
};
use collectives::DegradePlanner;
use mdw_analysis::{
    check_model_opts, vet_reroute, ArchClass, CheckOutcome, ModelBounds, ModelOptions, Samples,
    VetStats,
};
use mintopo::route::{ReplicatePolicy, RouteTables};
use mintopo::topology::Topology;
use netsim::health::FabricHealth;
use netsim::ids::{LinkId, SwitchId};
use netsim::Cycle;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use switches::ReplicationMode;

/// Cycles a link must hold a new state before the transition is
/// confirmed (absorbs fault-injector blips).
pub const DEBOUNCE: Cycle = 64;
/// Gated grace window before the purge: in-flight worms get this many
/// cycles to complete on their own.
pub const DRAIN_WAIT: Cycle = 256;
/// Maximum cycles the purge may take to empty the fabric before the
/// responder gives up waiting (and records the incident).
pub const PURGE_MAX: Cycle = 256;
/// Hop budget for coverage traces on the degraded planner.
pub const MAX_HOPS: usize = 64;
/// Capacity of the bounded event log; the oldest entries are evicted
/// (and counted) once the ring fills, so a responder embedded in a
/// long-running service holds steady-state memory.
pub const EVENT_LOG_CAP: usize = 1024;
/// Capacity of the detect→install latency ring (oldest evicted and
/// counted, like the event log).
pub const LATENCY_CAP: usize = 4096;

const _: () = {
    // A zero hop budget traces no coverage; a zero purge window can never
    // confirm the fabric drained; zero-slot rings hold nothing.
    assert!(DEBOUNCE >= 1 && MAX_HOPS >= 1 && PURGE_MAX >= 1);
    assert!(EVENT_LOG_CAP >= 1 && LATENCY_CAP >= 1);
};

/// The configurable part of the online fault-response protocol: the
/// journal's snapshot cadence. The rest of its tuning is the constants
/// above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseConfig {
    /// Journal records between snapshots (config key
    /// `journal.snapshot_every`); each snapshot compacts the journal, so
    /// this bounds both replay time and journal memory.
    pub snapshot_every: u64,
}

impl Default for ResponseConfig {
    fn default() -> Self {
        ResponseConfig {
            snapshot_every: 256,
        }
    }
}

/// One entry in the responder's event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseEvent {
    /// A link transition survived the debounce window.
    LinkConfirmed {
        /// The link that changed state.
        link: LinkId,
        /// `true` = confirmed down, `false` = confirmed back up.
        down: bool,
    },
    /// New masked tables passed the deadlock vet and were committed.
    Rerouted {
        /// Directed dead fabric ports masked out of the new tables.
        masked_ports: usize,
    },
    /// The candidate tables failed the deadlock vet; its epoch was
    /// aborted and the fabric stays on the previous tables, degraded.
    RerouteRejected {
        /// Diagnostic code of the first analyzer error (e.g. "cdg-cycle").
        code: String,
        /// Human-readable analyzer message.
        message: String,
    },
    /// All cuts confirmed back up; original tables restored.
    Healed,
    /// The purge did not empty the fabric within [`PURGE_MAX`] cycles.
    PurgeIncomplete {
        /// Flits still sitting in links when the responder gave up.
        flits_left: usize,
    },
    /// The dead-port set re-sampled after the quiesce matched the masking
    /// already installed: the transition that triggered this response
    /// reverted during the drain/purge window, so no tables were built.
    StaleDetect,
}

/// A bounded ring of the most recent responder events. Once `cap`
/// entries are held, each push evicts the oldest and bumps the drop
/// counter — the log never grows past its capacity, however long the
/// responder lives.
#[derive(Debug)]
pub struct EventLog {
    cap: usize,
    buf: VecDeque<(Cycle, ResponseEvent)>,
    dropped: u64,
}

impl EventLog {
    fn new(cap: usize) -> Self {
        EventLog {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Rebuilds a log from snapshot state: the retained window (already
    /// within `cap`) plus the historical drop count.
    fn restore(cap: usize, entries: Vec<(Cycle, ResponseEvent)>, dropped: u64) -> Self {
        let mut log = EventLog::new(cap);
        log.dropped = dropped;
        for (at, ev) in entries {
            log.push(at, ev);
        }
        log
    }

    fn push(&mut self, at: Cycle, ev: ResponseEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back((at, ev));
    }

    /// Iterates the retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(Cycle, ResponseEvent)> {
        self.buf.iter()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been logged (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Entries evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = &'a (Cycle, ResponseEvent);
    type IntoIter = std::collections::vec_deque::Iter<'a, (Cycle, ResponseEvent)>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

/// A debounce-confirmed link transition, as handed to callers of
/// [`FaultResponder::drain_confirmed`] (the flap damper feeds on these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmedTransition {
    /// Cycle the confirmation fired.
    pub at: Cycle,
    /// The link that changed state.
    pub link: LinkId,
    /// `true` = confirmed down, `false` = confirmed back up.
    pub down: bool,
}

/// Running totals of responder activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResponseCounters {
    /// Debounce-confirmed link-down transitions.
    pub links_down: u64,
    /// Debounce-confirmed link-up transitions.
    pub links_up: u64,
    /// Masked reroutes vetted, committed and activated.
    pub reroutes: u64,
    /// Reroute candidates rejected by the deadlock vet (epoch aborted).
    pub reroutes_rejected: u64,
    /// Full heals (all cuts back up, original tables restored).
    pub heals: u64,
    /// Quiesce windows that purged the fabric.
    pub purges: u64,
    /// Purges that hit the [`PURGE_MAX`] budget with flits still in flight.
    pub purges_incomplete: u64,
    /// Responses abandoned because the triggering transition reverted
    /// during the quiesce (the post-purge recheck found nothing to do).
    pub stale_detects: u64,
}

/// Builds candidate routing tables for a set of dead directed fabric
/// ports. The default is the honest masked rebuild; tests substitute
/// deliberately broken builders to exercise the rejection path (modelling
/// a buggy out-of-band route-planner — exactly what the vet gate exists
/// to catch). The builder must be deterministic in its inputs: episode
/// recovery re-invokes it to rebuild a candidate whose epoch was prepared
/// before the crash.
pub type CandidateBuilder = Box<dyn Fn(&Topology, &[(SwitchId, usize)]) -> RouteTables>;

/// How far a journaled episode had durably progressed — replayed from the
/// record stream and used by [`FaultResponder::drive`] to skip completed
/// steps.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stage {
    /// Hosts gated; drain window may or may not have elapsed.
    Started,
    /// Purge raised on every switch.
    Purging,
    /// Purge loop finished (fabric empty or budget exhausted).
    Purged,
    /// Post-purge resample found nothing new to do.
    Staled,
    /// Epoch allocated; candidate staged (or staging) on the switches.
    Prepared,
    /// Vet verdict durable.
    Vetted(Result<(), (String, String)>),
    /// Commit decision durable; per-switch commits may be cut short.
    Committing,
    /// Abort decision durable; per-switch aborts may be cut short.
    Aborting,
}

impl Stage {
    fn rank(&self) -> u8 {
        match self {
            Stage::Started => 0,
            Stage::Purging => 1,
            Stage::Purged => 2,
            Stage::Staled => 3,
            Stage::Prepared => 4,
            Stage::Vetted(_) => 5,
            Stage::Committing | Stage::Aborting => 6,
        }
    }
}

/// One in-flight response episode, as reconstructed from the journal.
#[derive(Debug, Clone)]
pub(crate) struct Episode {
    /// Cycle the episode was triggered (all deadlines key off this).
    detect: Cycle,
    stage: Stage,
    /// Epoch allocated by `prepared` (0 before that).
    epoch: u64,
    /// The dead-port set the episode masks (valid from `Prepared` on).
    masked: Vec<(SwitchId, usize)>,
}

/// Hit and miss counters of a vet cache, surfaced per run in
/// [`crate::sim::RunOutcome`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed and forced a fresh computation.
    pub misses: u64,
}

/// The complete argument tuple of [`mdw_analysis::check_model_opts`].
pub(crate) type ModelKey = (ArchClass, bool, ReplicatePolicy, ModelBounds, ModelOptions);

/// Verdict of every distinct bounded model check run in this process,
/// keyed by the checker's complete argument tuple, so a new checker
/// argument has to change the key. This is simulator state, not responder
/// state: it outlives every [`FaultResponder`] and every simulated crash
/// (DESIGN.md §15), so the hundreds of fresh and recovered responders of a
/// crash sweep, on however many worker threads, share one exploration per
/// key. A verdict is a pure function of its key, and [`model_verdict`]
/// checks a missing key while holding the lock, so each key is checked at
/// most once per process and no run can tell which thread checked first.
/// The key space is finite (2 architectures × 2 replication modes × 2
/// policies × 3 modes × `max_switches` 2..=16 under the responder's fixed
/// remaining bounds), so the table needs no bound.
static MODEL_VERDICTS: Mutex<Vec<(ModelKey, Result<(), String>)>> = Mutex::new(Vec::new());

/// The bounded model check's verdict as the reroute gate reports it.
fn model_verdict_of(outcome: CheckOutcome) -> Result<(), String> {
    match outcome {
        CheckOutcome::Verified(_) => Ok(()),
        CheckOutcome::Violated(v) => Err(format!(
            "bounded model check found a {} in scenario '{}': {}",
            v.kind, v.scenario, v.detail
        )),
    }
}

/// The verdict of `check_model_opts` on `key`, running the check only if
/// no thread of the process has run it yet. Records one `model_ns`
/// sample per call, holding the wall time actually spent (≈0 when the
/// table answers, the check's time when this call runs it or waits on
/// another thread's), so sample counts never depend on what ran earlier.
fn model_verdict(key: &ModelKey, stats: &mut VetStats) -> Result<(), String> {
    let start = Instant::now();
    // A check that panicked pushed nothing, so a poisoned table is
    // still whole.
    let mut table = MODEL_VERDICTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let verdict = match table.iter().find(|(k, _)| k == key) {
        Some((_, v)) => v.clone(),
        None => {
            let (arch, sync, policy, bounds, opts) = key;
            let v = model_verdict_of(check_model_opts(*arch, *sync, *policy, bounds, opts));
            table.push((key.clone(), v.clone()));
            v
        }
    };
    drop(table);
    stats.model_ns.record(start.elapsed().as_nanos() as u64);
    verdict
}

/// Entries of the verdict table under `key`: the number of times the
/// process has checked it (1 once any thread has, never more).
#[cfg(test)]
pub(crate) fn model_verdict_entries(key: &ModelKey) -> usize {
    let table = MODEL_VERDICTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    table.iter().filter(|(k, _)| k == key).count()
}

/// The model-check key of the deep vet of `config` on a fabric of
/// `n_switches` switches: the configured architecture, replication mode
/// and policy, the fabric-size bound ([`deep_vet_switches`]) and the
/// configured exact/compositional mode.
pub(crate) fn deep_vet_key(config: &SystemConfig, n_switches: usize) -> ModelKey {
    (
        config.arch.into(),
        config.switch.replication == ReplicationMode::Synchronous,
        config.switch.policy,
        ModelBounds {
            max_switches: deep_vet_switches(n_switches),
            ..ModelBounds::default()
        },
        ModelOptions {
            mode: config.model_mode,
            ..ModelOptions::default()
        },
    )
}

/// The fabric-size bound of the deep vet's model check: the live switch
/// count, clamped to the checker's scenario range.
pub(crate) fn deep_vet_switches(n_switches: usize) -> usize {
    n_switches.clamp(2, 16)
}

/// The fault-response orchestrator. Owns the debounced health view, the
/// write-ahead journal, and drives the gate/purge/two-phase-install
/// protocol against a [`System`].
pub struct FaultResponder {
    cfg: ResponseConfig,
    health: FabricHealth,
    /// Directed fabric ports currently masked out of the active tables,
    /// sorted; empty on a healthy fabric.
    masked: Vec<(SwitchId, usize)>,
    /// Fabric link → the directed (switch, out-port) that drives it.
    fabric_ports: HashMap<LinkId, (SwitchId, usize)>,
    builder: Option<CandidateBuilder>,
    events: EventLog,
    counters: ResponseCounters,
    /// Links administratively suppressed by a flap damper: treated as
    /// dead regardless of their confirmed health state.
    suppressed: Vec<LinkId>,
    /// Confirmed transitions accumulated since the last
    /// [`drain_confirmed`](Self::drain_confirmed) call.
    fresh_confirmed: Vec<ConfirmedTransition>,
    /// One-shot override of the `dead == masked` early-exit, set by
    /// [`request_retry`](Self::request_retry) so a storm controller can
    /// re-run the response after a backoff even though nothing changed.
    /// Deliberately not journaled — see the module docs.
    retry_requested: bool,
    /// Wall-clock accounting of the two vet halves.
    vet_stats: VetStats,
    /// Detect→install (or detect→reject) latency of each completed
    /// response episode, in cycles (bounded ring, drops counted).
    latency: Samples,
    /// Write-ahead journal of every durable decision.
    journal: Journal,
    /// Highest epoch allocated so far (0 = none; build-time tables).
    last_epoch: u64,
    /// The last verdict of the bounded model check (the deep half of the
    /// reroute gate), with the key it ran under ([`deep_vet_key`]). The
    /// verdict never depends on the candidate tables, and the key comes
    /// from the responder's own system, so one exploration covers every
    /// reroute of the run. A verdict obtained under loose bounds says
    /// nothing about a stricter vet, so a request under a different key
    /// replaces the slot instead of reusing a weaker answer. A miss asks
    /// the process's verdict table ([`model_verdict`]) rather than the
    /// checker, so the check runs only if no responder in the process has
    /// run it; the slot and its counters behave the same either way.
    deep_vetted: Option<(ModelKey, Result<(), String>)>,
    /// Hits and misses of [`deep_vetted`](Self::deep_vetted).
    deep_memo: MemoStats,
    /// Crash-injection harness hook; `None` outside chaos runs.
    chaos: Option<ChaosHandle>,
    /// Completed crash recoveries (journal replays).
    recoveries: u64,
    /// Wall-clock restart→caught-up duration of each recovery, ns.
    recovery_ns: Samples,
}

impl std::fmt::Debug for FaultResponder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultResponder")
            .field("cfg", &self.cfg)
            .field("masked", &self.masked)
            .field("counters", &self.counters)
            .field("last_epoch", &self.last_epoch)
            .field("recoveries", &self.recoveries)
            .finish_non_exhaustive()
    }
}

impl FaultResponder {
    /// Shared construction: a fresh responder against `sys`, with the
    /// given journal write end.
    fn base(cfg: ResponseConfig, sys: &mut System, journal: Journal) -> Self {
        sys.engine.publish_link_events();
        let mut r = FaultResponder::detached(cfg, journal);
        for (s, outs) in sys.sw_out.iter().enumerate() {
            for (p, &l) in outs.iter().enumerate() {
                if sys.links.fabric.contains(&l) {
                    r.fabric_ports.insert(l, (SwitchId::from(s), p));
                }
            }
        }
        r
    }

    /// A fresh responder that knows no fabric ports.
    fn detached(cfg: ResponseConfig, journal: Journal) -> Self {
        FaultResponder {
            cfg,
            health: FabricHealth::new(DEBOUNCE),
            masked: Vec::new(),
            fabric_ports: HashMap::new(),
            builder: None,
            events: EventLog::new(EVENT_LOG_CAP),
            counters: ResponseCounters::default(),
            suppressed: Vec::new(),
            fresh_confirmed: Vec::new(),
            retry_requested: false,
            vet_stats: VetStats::new(),
            latency: Samples::with_cap(LATENCY_CAP),
            journal,
            last_epoch: 0,
            deep_vetted: None,
            deep_memo: MemoStats::default(),
            chaos: None,
            recoveries: 0,
            recovery_ns: Samples::new(),
        }
    }

    /// Attaches a responder to `sys` with a fresh journal and enables
    /// link-event publication on its engine. Picks up a crash-injection
    /// handle if the chaos harness installed one
    /// ([`crate::chaos::install`]).
    pub fn new(cfg: ResponseConfig, sys: &mut System) -> Self {
        let journal = Journal::new(JournalConfig {
            snapshot_every: cfg.snapshot_every,
        });
        let mut r = FaultResponder::base(cfg, sys, journal);
        r.chaos = crate::chaos::take_installed();
        r
    }

    /// Rebuilds a responder from a surviving journal store: replays every
    /// intact record (snapshot first, then the tail; duplicated-tail
    /// sequence numbers are skipped, torn tails were dropped at reopen)
    /// and returns the recovered responder plus the in-flight episode to
    /// re-drive, if the crash interrupted one. The recovered state is
    /// byte-identical to the pre-crash responder's durable state.
    pub(crate) fn recover(
        cfg: ResponseConfig,
        store: JournalStore,
        sys: &mut System,
    ) -> (Self, Option<Episode>) {
        let (journal, records) = Journal::reopen(
            store,
            JournalConfig {
                snapshot_every: cfg.snapshot_every,
            },
        );
        let mut r = FaultResponder::base(cfg, sys, journal);
        let mut episode = None;
        let mut last_seq: Option<u64> = None;
        for (seq, rec) in records {
            if last_seq.is_some_and(|s| seq <= s) {
                continue; // duplicated tail: already applied
            }
            last_seq = Some(seq);
            r.replay(rec, &mut episode);
        }
        (r, episode)
    }

    /// Applies one journal record's in-memory effects — the exact
    /// counterpart of what the live path does when it writes the record.
    fn replay(&mut self, rec: JournalRecord, episode: &mut Option<Episode>) {
        fn stage_of(episode: &mut Option<Episode>) -> &mut Episode {
            episode.as_mut().expect("episode record outside an episode")
        }
        match rec {
            JournalRecord::Snapshot(s) => {
                self.last_epoch = s.last_epoch;
                self.masked = s.masked;
                self.suppressed = s.suppressed;
                self.counters = s.counters;
                self.latency = Samples::restore(LATENCY_CAP, &s.latency, s.latency_dropped);
                self.events = EventLog::restore(EVENT_LOG_CAP, s.events, s.events_dropped);
                self.fresh_confirmed = s.fresh;
                self.health =
                    FabricHealth::restore(DEBOUNCE, &s.health_confirmed, &s.health_pending);
            }
            JournalRecord::Observed { link, at, down } => {
                self.health.observe(netsim::LinkEvent { link, at, down });
            }
            JournalRecord::Polled { now } => self.apply_poll(now),
            JournalRecord::Drained => self.fresh_confirmed.clear(),
            JournalRecord::Suppressed { links } => self.suppressed = links,
            JournalRecord::RespondStarted { detect } => {
                *episode = Some(Episode {
                    detect,
                    stage: Stage::Started,
                    epoch: 0,
                    masked: Vec::new(),
                });
            }
            JournalRecord::PurgeStarted { .. } => {
                self.counters.purges += 1;
                stage_of(episode).stage = Stage::Purging;
            }
            JournalRecord::PurgeDone {
                at,
                flits_left,
                complete,
            } => {
                if !complete {
                    self.counters.purges_incomplete += 1;
                    self.events.push(
                        at,
                        ResponseEvent::PurgeIncomplete {
                            flits_left: flits_left as usize,
                        },
                    );
                }
                stage_of(episode).stage = Stage::Purged;
            }
            JournalRecord::StaleDetected { at } => {
                self.counters.stale_detects += 1;
                self.events.push(at, ResponseEvent::StaleDetect);
                stage_of(episode).stage = Stage::Staled;
            }
            JournalRecord::Prepared { epoch, masked } => {
                self.last_epoch = self.last_epoch.max(epoch);
                let ep = stage_of(episode);
                ep.epoch = epoch;
                ep.masked = masked;
                ep.stage = Stage::Prepared;
            }
            JournalRecord::Vetted { verdict, .. } => {
                stage_of(episode).stage = Stage::Vetted(verdict);
            }
            JournalRecord::Committed { .. } => stage_of(episode).stage = Stage::Committing,
            JournalRecord::Aborted {
                at, code, message, ..
            } => {
                self.counters.reroutes_rejected += 1;
                self.events
                    .push(at, ResponseEvent::RerouteRejected { code, message });
                stage_of(episode).stage = Stage::Aborting;
            }
            JournalRecord::Finalized { at, outcome, .. } => {
                let (detect, masked) = {
                    let ep = stage_of(episode);
                    (ep.detect, std::mem::take(&mut ep.masked))
                };
                self.apply_finalized(at, detect, &masked, outcome);
                *episode = None;
            }
        }
    }

    /// A chaos-harness protocol-step boundary: in a crash-injected run,
    /// unwinds with [`Crashed`] when the scheduled boundary is reached,
    /// optionally dirtying the journal with a partial record first —
    /// modeling a process that died mid-way through its *next* append.
    /// (Records already appended are durable by the WAL convention; a
    /// mid-append crash can only tear the line being written.)
    fn chaos_point(&mut self) -> Result<(), Crashed> {
        let Some(h) = &self.chaos else { return Ok(()) };
        let mut st = h.borrow_mut();
        let b = st.boundaries;
        st.boundaries += 1;
        if let ChaosMode::CrashAt {
            boundary,
            tear_bytes,
        } = st.mode
        {
            if !st.fired && b == boundary {
                st.fired = true;
                if tear_bytes > 0 {
                    crate::chaos::dirty_tail(&self.journal.store(), tear_bytes);
                }
                return Err(Crashed);
            }
        }
        Ok(())
    }

    /// Simulated process restart: rebuilds this responder from its
    /// surviving journal store and resumes whatever was in flight.
    /// Returns `true` if a response protocol ran (before or after the
    /// crash). The restart itself consumes **zero engine cycles** — only
    /// the responder's memory is lost — so a recovered run's outcome is
    /// byte-identical to an uncrashed one.
    fn crash_recover(&mut self, sys: &mut System) -> bool {
        let cfg = self.cfg.clone();
        let mut recoveries = self.recoveries;
        let mut recovery_ns = std::mem::take(&mut self.recovery_ns);
        loop {
            recoveries += 1;
            let t0 = Instant::now();
            let store = self.journal.store();
            let builder = self.builder.take();
            let chaos = self.chaos.take();
            let (mut fresh, episode) = FaultResponder::recover(cfg.clone(), store, sys);
            fresh.builder = builder;
            fresh.chaos = chaos;
            *self = fresh;
            let ns = t0.elapsed().as_nanos() as u64;
            recovery_ns.record(ns);
            if let Some(h) = &self.chaos {
                let mut st = h.borrow_mut();
                st.recoveries += 1;
                st.recovery_ns.push(ns);
            }
            let result = match episode {
                Some(ep) => self.drive(sys, ep).map(|()| true),
                None => self.try_poll(sys),
            };
            match result {
                Ok(ran) => {
                    self.recoveries = recoveries;
                    self.recovery_ns = recovery_ns;
                    return ran;
                }
                Err(Crashed) => continue,
            }
        }
    }

    /// The `mdw-model` bounded model check of the configured architecture
    /// and replication mode, under the [`deep_vet_key`] it runs with. The
    /// fabric-size bound scales with the live
    /// topology (`n_switches`, clamped to the checker's scenario range)
    /// and the exact/compositional mode comes from the configuration, so
    /// growing the fabric or switching modes re-vets instead of replaying
    /// a verdict from a weaker exploration. A reroute may only activate
    /// when both the candidate's channel-dependency graph (structural)
    /// and the switch state machines (behavioral) are deadlock-free.
    fn deep_vet(&mut self, config: &SystemConfig, n_switches: usize) -> Result<(), String> {
        let key = deep_vet_key(config, n_switches);
        if let Some((k, v)) = &self.deep_vetted {
            if *k == key {
                self.deep_memo.hits += 1;
                return v.clone();
            }
        }
        self.deep_memo.misses += 1;
        let verdict = model_verdict(&key, &mut self.vet_stats);
        self.deep_vetted = Some((key, verdict.clone()));
        verdict
    }

    /// The full candidate vet: structural analyzer plus behavioral model
    /// check. Every call runs the structural half; an episode re-driven
    /// after a crash never calls this once its `vetted` record is durable
    /// ([`Stage::Vetted`]).
    fn vet_candidate(
        &mut self,
        topo: &Topology,
        config: &SystemConfig,
        candidate: &RouteTables,
    ) -> Result<(), (String, String)> {
        let start = Instant::now();
        let structural = vet_reroute(topo, candidate, config.switch.policy);
        self.vet_stats
            .structural_ns
            .record(start.elapsed().as_nanos() as u64);
        structural
            .map_err(|report| {
                let d = report.first_error().expect("vet failed with no error");
                (d.code.to_string(), d.message.clone())
            })
            .and_then(|_| {
                self.deep_vet(config, topo.n_switches())
                    .map_err(|detail| ("model-check".to_string(), detail))
            })
    }

    /// Substitutes the candidate-table builder (rejection-path tests).
    pub fn set_candidate_builder(&mut self, builder: CandidateBuilder) {
        self.builder = Some(builder);
    }

    /// The bounded event log (most recent [`EVENT_LOG_CAP`] entries, in
    /// occurrence order, tagged with the cycle).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Snapshot of the activity counters.
    pub fn counters(&self) -> ResponseCounters {
        self.counters
    }

    /// Structural vets run, as `misses` with `hits` always 0: the
    /// structural half is not cached, because no candidate is vetted twice
    /// (a re-driven episode reads its journaled verdict).
    pub fn vet_memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: 0,
            misses: self.vet_stats.structural_ns.count() as u64,
        }
    }

    /// Hits and misses of the deep-vet (model-check) slot.
    pub fn deep_memo_stats(&self) -> MemoStats {
        self.deep_memo
    }

    /// Directed fabric ports currently masked out of the active tables.
    pub fn masked_ports(&self) -> &[(SwitchId, usize)] {
        &self.masked
    }

    /// Wall-clock accounting of the structural and behavioral vet halves.
    pub fn vet_stats(&self) -> &VetStats {
        &self.vet_stats
    }

    /// Detect→install (or detect→reject) latency of every completed
    /// response episode, in cycles. p50/p99 of this series are the
    /// service's headline recovery metrics.
    pub fn latency(&self) -> &Samples {
        &self.latency
    }

    /// The write-ahead journal (records, store handle, size).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Highest install epoch allocated so far (0 = build-time tables).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Crash recoveries completed (journal replays).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Wall-clock restart→caught-up duration of each recovery, ns.
    pub fn recovery_ns(&self) -> &Samples {
        &self.recovery_ns
    }

    /// Event-log entries plus latency samples evicted by their ring
    /// bounds — the "how much history did I shed" gauge surfaced in
    /// [`crate::sim::RunOutcome::response_dropped`].
    pub fn dropped(&self) -> u64 {
        self.events.dropped() + self.latency.dropped()
    }

    /// Serializes the responder's full durable state into a snapshot —
    /// exactly what a journal snapshot record would hold.
    fn make_snapshot(&self) -> ResponderSnapshot {
        ResponderSnapshot {
            last_epoch: self.last_epoch,
            masked: self.masked.clone(),
            suppressed: self.suppressed.clone(),
            counters: self.counters,
            latency: self.latency.values().to_vec(),
            latency_dropped: self.latency.dropped(),
            events: self.events.iter().cloned().collect(),
            events_dropped: self.events.dropped(),
            fresh: self.fresh_confirmed.clone(),
            health_confirmed: self.health.confirmed_down(),
            health_pending: self.health.pending(),
        }
    }

    /// FNV-64 digest of the responder's durable state (the snapshot
    /// serialization). A crashed-and-recovered responder produces the
    /// same digest as an uncrashed one — the crash harness holds every
    /// injected run to that.
    pub fn state_digest(&self) -> String {
        crate::journal::snapshot_digest(&self.make_snapshot())
    }

    /// Overrides the set of administratively suppressed links: a flap
    /// damper parks misbehaving links here and the responder masks them
    /// exactly as if they were confirmed dead. The next
    /// [`poll`](Self::poll) acts on any resulting dead-set change.
    pub fn set_suppressed(&mut self, mut links: Vec<LinkId>) {
        links.sort_unstable();
        links.dedup();
        if links == self.suppressed {
            return;
        }
        self.journal.append(&JournalRecord::Suppressed {
            links: links.clone(),
        });
        self.suppressed = links;
    }

    /// Links currently under administrative suppression.
    pub fn suppressed(&self) -> &[LinkId] {
        &self.suppressed
    }

    /// Hands out (and clears) the debounce-confirmed transitions
    /// accumulated since the previous call — the flap damper's diet.
    pub fn drain_confirmed(&mut self) -> Vec<ConfirmedTransition> {
        if !self.fresh_confirmed.is_empty() {
            self.journal.append(&JournalRecord::Drained);
        }
        std::mem::take(&mut self.fresh_confirmed)
    }

    /// Arms a one-shot override of the `dead == masked` early-exit so the
    /// next [`poll`](Self::poll) re-runs the full response even though
    /// the dead-port set is unchanged. A storm controller uses this to
    /// retry after a vet rejection or an incomplete purge once its
    /// backoff expires; clearing the cached model-check verdict is
    /// deliberately *not* part of this — it depends only on the
    /// configuration and the bounds/options it was explored under, never
    /// on fabric state. (The retry *will* re-run the structural vet, as
    /// every new episode does.)
    pub fn request_retry(&mut self) {
        self.retry_requested = true;
    }

    /// Drains the engine's link events and advances the debounce view,
    /// logging (and accumulating for [`drain_confirmed`](Self::drain_confirmed))
    /// every confirmed transition. Does **not** respond. Recovers in
    /// place if a chaos-injected crash lands inside.
    pub fn observe_health(&mut self, sys: &mut System) {
        if self.observe_inner(sys).is_err() {
            self.crash_recover(sys);
        }
    }

    /// The fallible observation path: journals raw events as they are
    /// drained (the drain + append pair is atomic — the event queue is
    /// reliable, see DESIGN.md §15) and journals one `polled` record per
    /// poll that confirms anything, then applies the poll.
    fn observe_inner(&mut self, sys: &mut System) -> Result<(), Crashed> {
        let events = sys.engine.drain_link_events();
        if !events.is_empty() {
            for ev in events {
                self.journal.append(&JournalRecord::Observed {
                    link: ev.link,
                    at: ev.at,
                    down: ev.down,
                });
                self.health.observe(ev);
            }
            self.chaos_point()?;
        }
        if !self.health.has_pending() {
            return Ok(());
        }
        let now = sys.engine.now();
        // Poll on a probe clone first: a `polled` record is only written
        // when the poll actually confirms something, so quiet ticks leave
        // no journal residue.
        if self.health.clone().poll(now).is_empty() {
            return Ok(());
        }
        self.journal.append(&JournalRecord::Polled { now });
        self.apply_poll(now);
        self.chaos_point()?;
        Ok(())
    }

    /// Applies a debounce poll at `now`: counters, event log, and the
    /// fresh-confirmed queue. Deterministic in the health view and `now`,
    /// so journal replay of a `polled` record reproduces it exactly.
    fn apply_poll(&mut self, now: Cycle) {
        for ev in self.health.poll(now) {
            if ev.down {
                self.counters.links_down += 1;
            } else {
                self.counters.links_up += 1;
            }
            self.events.push(
                now,
                ResponseEvent::LinkConfirmed {
                    link: ev.link,
                    down: ev.down,
                },
            );
            self.fresh_confirmed.push(ConfirmedTransition {
                at: now,
                link: ev.link,
                down: ev.down,
            });
        }
    }

    /// The directed fabric ports that should be masked right now: the
    /// union of debounce-confirmed dead links and administratively
    /// suppressed links, restricted to switch→switch ports (host adapter
    /// outages never change the route tables), sorted.
    pub fn current_dead(&self) -> Vec<(SwitchId, usize)> {
        let mut dead: Vec<(SwitchId, usize)> = self
            .health
            .confirmed_down()
            .into_iter()
            .chain(self.suppressed.iter().copied())
            .filter_map(|l| self.fabric_ports.get(&l).copied())
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Drains the engine's link events, advances the debounce view, and —
    /// when the confirmed-dead fabric-port set changed (or a retry was
    /// requested) — runs the full response protocol (which steps the
    /// engine through the quiesce window). Returns `true` if a response
    /// ran. Recovers in place if a chaos-injected crash lands anywhere
    /// inside.
    pub fn poll(&mut self, sys: &mut System) -> bool {
        match self.try_poll(sys) {
            Ok(ran) => ran,
            Err(Crashed) => self.crash_recover(sys),
        }
    }

    fn try_poll(&mut self, sys: &mut System) -> Result<bool, Crashed> {
        self.observe_inner(sys)?;
        self.respond_if_needed(sys)
    }

    /// The respond-decision half of [`poll`](Self::poll), without the
    /// event drain — for callers (the storm controller) that interleave
    /// damping between observation and response.
    pub fn maybe_respond(&mut self, sys: &mut System) -> bool {
        match self.respond_if_needed(sys) {
            Ok(ran) => ran,
            Err(Crashed) => self.crash_recover(sys),
        }
    }

    fn respond_if_needed(&mut self, sys: &mut System) -> Result<bool, Crashed> {
        let dead = self.current_dead();
        let ran = if dead != self.masked || self.retry_requested {
            self.retry_requested = false;
            let detect = sys.engine.now();
            // journal_apply: episode opened, hosts gated.
            self.journal
                .append(&JournalRecord::RespondStarted { detect });
            sys.fabric_mode.gate();
            self.chaos_point()?;
            self.drive(
                sys,
                Episode {
                    detect,
                    stage: Stage::Started,
                    epoch: 0,
                    masked: Vec::new(),
                },
            )?;
            true
        } else {
            false
        };
        // Quiescent point (never mid-episode): snapshot + compact once
        // enough records accumulated.
        if self.journal.wants_snapshot() {
            self.journal
                .append(&JournalRecord::Snapshot(Box::new(self.make_snapshot())));
        }
        Ok(ran)
    }

    /// Runs (or, after a crash, *re-runs*) an episode from whatever stage
    /// the journal proves durable: gate → drain → purge → resample →
    /// prepare → vet → commit/abort → degrade/heal → ungate. Every step
    /// is idempotent — waits use absolute deadlines keyed off
    /// `ep.detect`, switch control accepts re-issued commands, and
    /// journaled decisions are skipped rather than re-taken — so driving
    /// the same episode any number of times converges on the same fabric
    /// state and the same engine timeline.
    fn drive(&mut self, sys: &mut System, mut ep: Episode) -> Result<(), Crashed> {
        let detect = ep.detect;
        sys.fabric_mode.gate(); // idempotent re-assert on re-drive
        sys.engine.run_until(detect + DRAIN_WAIT);

        // Purge: raise on every switch (re-raising is a no-op), then loop
        // until the fabric is empty or the absolute budget expires.
        for ctl in &sys.switch_ctls {
            ctl.begin_purge();
        }
        // Control-plane flips are invisible to the engine's wake
        // protocol: sleeping switches must be woken to see the purge flag.
        sys.engine.wake_all();
        if ep.stage.rank() < Stage::Purging.rank() {
            self.journal.append(&JournalRecord::PurgeStarted {
                at: sys.engine.now(),
            });
            self.counters.purges += 1;
            ep.stage = Stage::Purging;
            self.chaos_point()?;
        }

        if ep.stage.rank() < Stage::Purged.rank() {
            let purge_end = detect + DRAIN_WAIT + PURGE_MAX;
            loop {
                let empty = sys.engine.flits_in_links() == 0
                    && sys.switch_ctls.iter().all(|c| c.is_empty());
                if empty {
                    self.journal.append(&JournalRecord::PurgeDone {
                        at: sys.engine.now(),
                        flits_left: 0,
                        complete: true,
                    });
                    break;
                }
                if sys.engine.now() >= purge_end {
                    let flits_left = sys.engine.flits_in_links();
                    self.journal.append(&JournalRecord::PurgeDone {
                        at: sys.engine.now(),
                        flits_left: flits_left as u64,
                        complete: false,
                    });
                    self.counters.purges_incomplete += 1;
                    self.events.push(
                        sys.engine.now(),
                        ResponseEvent::PurgeIncomplete { flits_left },
                    );
                    break;
                }
                sys.engine.run_for(1);
            }
            ep.stage = Stage::Purged;
            self.chaos_point()?;
        }

        if ep.stage == Stage::Purged {
            // Re-sample health after the quiesce: the drain + purge just
            // consumed hundreds of cycles, plenty for the outage that
            // triggered this response to clear (a sub-window blip the
            // debounce confirmed right at its edge) or for further links
            // to fall over. Installing tables for the stale set would
            // leave ports masked for links already back up — the service
            // would then run degraded until the *next* transition woke it.
            self.observe_inner(sys)?;
            let dead = self.current_dead();
            if dead == self.masked {
                self.journal.append(&JournalRecord::StaleDetected {
                    at: sys.engine.now(),
                });
                self.counters.stale_detects += 1;
                self.events
                    .push(sys.engine.now(), ResponseEvent::StaleDetect);
                ep.stage = Stage::Staled;
                self.chaos_point()?;
            } else {
                let epoch = self.last_epoch + 1;
                self.journal.append(&JournalRecord::Prepared {
                    epoch,
                    masked: dead.clone(),
                });
                self.last_epoch = epoch;
                ep.epoch = epoch;
                ep.masked = dead;
                ep.stage = Stage::Prepared;
                self.chaos_point()?;
            }
        }
        if ep.stage == Stage::Staled {
            return self.finish(sys, &ep, EpisodeOutcome::Stale);
        }

        // Rebuild the candidate deterministically (recovery reconstructs
        // the exact tables the crashed run staged) and (re-)prepare it on
        // every switch. Prepare is idempotent against both a staged and
        // an armed copy of the same epoch.
        let candidate = match &self.builder {
            Some(b) => b(&sys.topology, &ep.masked),
            None => RouteTables::build_masked(&sys.topology, &ep.masked),
        };
        let tables = Rc::new(candidate);
        for ctl in &sys.switch_ctls {
            ctl.prepare(ep.epoch, tables.clone());
            self.chaos_point()?; // "crash after prepare on switch k"
        }

        let verdict = match &ep.stage {
            Stage::Committing => Ok(()),
            Stage::Aborting => Err((String::new(), String::new())), // effects already durable
            Stage::Vetted(v) => v.clone(),
            _ => {
                let v = self.vet_candidate(&sys.topology, &sys.config, &tables);
                self.journal.append(&JournalRecord::Vetted {
                    epoch: ep.epoch,
                    verdict: v.clone(),
                });
                ep.stage = Stage::Vetted(v.clone());
                self.chaos_point()?;
                v
            }
        };

        match verdict {
            Ok(()) => {
                if ep.stage.rank() < Stage::Committing.rank() {
                    // Point of no return: once this record is durable the
                    // install *will* reach every switch — recovery
                    // re-drives the loop below however often it takes.
                    self.journal
                        .append(&JournalRecord::Committed { epoch: ep.epoch });
                    ep.stage = Stage::Committing;
                    self.chaos_point()?;
                }
                for ctl in &sys.switch_ctls {
                    let committed = ctl.commit(ep.epoch);
                    debug_assert!(committed, "a prepared epoch must commit");
                    self.chaos_point()?; // the torn-install window
                }
                // Wake sleeping switches so each sees the armed swap
                // (idle switches are empty and swap on their next tick).
                sys.engine.wake_all();
                sys.tables = tables;
                let outcome = if ep.masked.is_empty() {
                    EpisodeOutcome::Healed
                } else {
                    EpisodeOutcome::Installed {
                        masked_ports: ep.masked.len(),
                    }
                };
                self.finish(sys, &ep, outcome)
            }
            Err((code, message)) => {
                if ep.stage != Stage::Aborting {
                    // Stay on the proven-deadlock-free old tables; the
                    // degraded planner below still peels what they cannot
                    // cover.
                    self.journal.append(&JournalRecord::Aborted {
                        at: sys.engine.now(),
                        epoch: ep.epoch,
                        code: code.clone(),
                        message: message.clone(),
                    });
                    self.counters.reroutes_rejected += 1;
                    self.events.push(
                        sys.engine.now(),
                        ResponseEvent::RerouteRejected { code, message },
                    );
                    ep.stage = Stage::Aborting;
                    self.chaos_point()?;
                }
                for ctl in &sys.switch_ctls {
                    ctl.abort(ep.epoch);
                }
                self.finish(sys, &ep, EpisodeOutcome::Rejected)
            }
        }
    }

    /// The episode tail: lower the purge, set the post-episode fabric
    /// mode, ungate the hosts, and write the `finalized` record (whose
    /// apply updates counters, the event log, the masked set and the
    /// latency series in one atomic step).
    fn finish(
        &mut self,
        sys: &mut System,
        ep: &Episode,
        outcome: EpisodeOutcome,
    ) -> Result<(), Crashed> {
        for ctl in &sys.switch_ctls {
            ctl.end_purge();
        }
        // Degrade whenever masked tables are (or should be) active: the
        // planner sends full-coverage sets as one worm anyway, so on cuts
        // that leave coverage intact this only costs the plan check. A
        // stale episode keeps whatever mode was already in force.
        if outcome != EpisodeOutcome::Stale {
            if ep.masked.is_empty() {
                sys.fabric_mode.heal();
            } else {
                sys.fabric_mode.degrade(DegradePlanner {
                    tables: sys.tables.clone(),
                    topo: sys.topology.clone(),
                    policy: sys.config.switch.policy,
                    max_hops: MAX_HOPS,
                });
            }
        }
        sys.fabric_mode.ungate();
        let at = sys.engine.now();
        self.journal.append(&JournalRecord::Finalized {
            at,
            epoch: ep.epoch,
            outcome,
        });
        self.apply_finalized(at, ep.detect, &ep.masked, outcome);
        self.chaos_point()?;
        Ok(())
    }

    /// In-memory effects of a `finalized` record — shared verbatim
    /// between the live path and journal replay.
    fn apply_finalized(
        &mut self,
        at: Cycle,
        detect: Cycle,
        masked: &[(SwitchId, usize)],
        outcome: EpisodeOutcome,
    ) {
        match outcome {
            EpisodeOutcome::Installed { masked_ports } => {
                self.counters.reroutes += 1;
                self.events
                    .push(at, ResponseEvent::Rerouted { masked_ports });
                self.masked = masked.to_vec();
            }
            EpisodeOutcome::Healed => {
                self.counters.heals += 1;
                self.events.push(at, ResponseEvent::Healed);
                self.masked = masked.to_vec();
            }
            EpisodeOutcome::Rejected => {
                self.masked = masked.to_vec();
            }
            EpisodeOutcome::Stale => {}
        }
        self.latency.record(at - detect);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_ring_evicts_oldest_and_counts_drops() {
        let mut log = EventLog::new(3);
        for i in 0..5u64 {
            log.push(i, ResponseEvent::Healed);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let cycles: Vec<Cycle> = log.iter().map(|&(c, _)| c).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        assert!(!log.is_empty());
    }

    #[test]
    fn event_log_restore_roundtrips() {
        let mut log = EventLog::new(2);
        for i in 0..5u64 {
            log.push(i, ResponseEvent::StaleDetect);
        }
        let restored = EventLog::restore(2, log.iter().cloned().collect(), log.dropped());
        assert_eq!(restored.len(), log.len());
        assert_eq!(restored.dropped(), log.dropped());
        assert!(restored.iter().eq(log.iter()));
    }

    /// A responder with no fabric attached — enough to exercise the
    /// deep vet, which never touches a live engine.
    fn bare_responder() -> FaultResponder {
        FaultResponder::detached(
            ResponseConfig::default(),
            Journal::new(JournalConfig::default()),
        )
    }

    #[test]
    fn deep_vet_cache_is_keyed_by_bounds_and_options() {
        let mut r = bare_responder();
        let config = SystemConfig::default();
        let memo = |r: &FaultResponder| {
            let m = r.deep_memo_stats();
            (m.hits, m.misses)
        };

        // First vet at a 2-switch fabric bound: one exploration, cached.
        r.deep_vet(&config, 2).expect("defaults verify");
        assert_eq!(memo(&r), (0, 1));
        assert_eq!(r.vet_stats.model_ns.count(), 1);

        // Same fabric again: the slot answers, no new exploration.
        r.deep_vet(&config, 2).expect("cached verdict");
        assert_eq!(memo(&r), (1, 1));
        assert_eq!(r.vet_stats.model_ns.count(), 1);

        // A larger fabric is a *stricter* vet: the loose-bounds verdict
        // must not be reused — a fresh exploration replaces the slot.
        r.deep_vet(&config, 4).expect("quad fabric verifies");
        assert_eq!(memo(&r), (1, 2));
        assert_eq!(r.vet_stats.model_ns.count(), 2);

        // Back to the old key: the slot holds only the last one, so this
        // is a miss again.
        r.deep_vet(&config, 2).expect("defaults verify");
        assert_eq!(memo(&r), (1, 3));
        assert_eq!(r.vet_stats.model_ns.count(), 3);

        // A different decomposition mode is likewise its own key.
        let compositional = SystemConfig {
            model_mode: mdw_analysis::ModelMode::Compositional,
            ..SystemConfig::default()
        };
        r.deep_vet(&compositional, 2)
            .expect("compositional verifies");
        assert_eq!(memo(&r), (1, 4));
        assert_eq!(r.vet_stats.model_ns.count(), 4);

        // The switch count saturates at the checker's scenario range, so
        // production-size fabrics share one key.
        r.deep_vet(&config, 48).expect("clamped to 16 switches");
        r.deep_vet(&config, 64).expect("same clamped key");
        assert_eq!(memo(&r), (2, 5));
        assert_eq!(r.vet_stats.model_ns.count(), 5);
    }

    /// The verdict table is a pure fast path: over arch × replication ×
    /// policy × mode × fabric bound, its verdict equals a fresh check on
    /// both calls (the first may fill the entry or find it filled by
    /// another test), the synchronous-replication hazard's counterexample
    /// message included verbatim, and each key holds exactly one entry.
    #[test]
    fn model_verdict_table_matches_a_fresh_check() {
        use mdw_analysis::ModelMode;
        let mut stats = VetStats::new();
        let mut keys = 0;
        let mut violated = 0;
        for arch in [ArchClass::CentralBuffer, ArchClass::InputBuffered] {
            for sync in [false, true] {
                for policy in [
                    ReplicatePolicy::ReturnOnly,
                    ReplicatePolicy::ForwardAndReturn,
                ] {
                    for mode in [ModelMode::Exact, ModelMode::Compositional] {
                        for max_switches in [2, 4] {
                            let bounds = ModelBounds {
                                max_switches,
                                ..ModelBounds::default()
                            };
                            let opts = ModelOptions {
                                mode,
                                ..ModelOptions::default()
                            };
                            let fresh = model_verdict_of(check_model_opts(
                                arch, sync, policy, &bounds, &opts,
                            ));
                            let key = (arch, sync, policy, bounds, opts);
                            for _ in 0..2 {
                                assert_eq!(model_verdict(&key, &mut stats), fresh, "{key:?}");
                            }
                            assert_eq!(model_verdict_entries(&key), 1, "{key:?}");
                            keys += 1;
                            violated += usize::from(fresh.is_err());
                        }
                    }
                }
            }
        }
        assert_eq!(stats.model_ns.count(), 2 * keys, "one sample per call");
        assert!(violated > 0, "the sync-replication hazard must be violated");
    }

    /// Threads racing on one key get one verdict and leave one entry:
    /// the key is checked under the table's lock. (The 3-switch bound is
    /// one no other test asks, so the race starts on a missing key.)
    #[test]
    fn racing_threads_check_a_key_once() {
        let key = (
            ArchClass::InputBuffered,
            false,
            ReplicatePolicy::ForwardAndReturn,
            ModelBounds {
                max_switches: 3,
                ..ModelBounds::default()
            },
            ModelOptions {
                mode: mdw_analysis::ModelMode::Compositional,
                ..ModelOptions::default()
            },
        );
        let verdicts: Vec<_> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| model_verdict(&key, &mut VetStats::new())))
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racer"))
                .collect()
        });
        assert_eq!(verdicts, vec![Ok(()); 4]);
        assert_eq!(model_verdict_entries(&key), 1);
    }

    /// A responder over a warm verdict table records exactly the
    /// deep-vet slot activity and vet sample count of the first one, and
    /// adds no entry for any key it asks.
    #[test]
    fn warm_verdict_table_keeps_responder_counts() {
        let config = SystemConfig::default();
        let counts = || {
            let mut r = bare_responder();
            for n in [2, 2, 4, 48, 4, 64] {
                r.deep_vet(&config, n).expect("defaults verify");
            }
            (r.deep_memo_stats(), r.vet_stats.model_ns.count())
        };
        // The 2-, 4- and 16-switch bounds.
        let keys = [2, 4, 48].map(|n| deep_vet_key(&config, n));
        let entries = || keys.each_ref().map(model_verdict_entries);
        let first = counts();
        assert_eq!(entries(), [1; 3], "one entry per key");
        let warm = counts();
        assert_eq!(entries(), [1; 3], "the warm responder added none");
        assert_eq!(first, warm);
    }

    #[test]
    fn event_log_capacity_floor_is_one() {
        let mut log = EventLog::new(0);
        log.push(1, ResponseEvent::Healed);
        log.push(2, ResponseEvent::StaleDetect);
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 1);
        assert!(matches!(
            log.iter().next(),
            Some((2, ResponseEvent::StaleDetect))
        ));
    }

    #[test]
    fn snapshot_digest_tracks_durable_state_only() {
        let mut a = bare_responder();
        let b = bare_responder();
        assert_eq!(a.state_digest(), b.state_digest());

        // Wall-clock-only state (vet stats, recovery timings) must not
        // perturb the digest...
        a.vet_stats.structural_ns.record(123);
        a.recovery_ns.record(456);
        assert_eq!(a.state_digest(), b.state_digest());

        // ...while any durable bit does.
        a.counters.heals += 1;
        assert_ne!(a.state_digest(), b.state_digest());
    }
}

/// Helpers for scripting representative fabric outages in experiments and
/// tests: finding the directed root→leaf links whose loss exercises the
/// reroute (single cut) and degradation (crossed cut) paths.
pub mod outage {
    use super::System;
    use mintopo::reach::PortClass;
    use netsim::ids::{LinkId, NodeId, SwitchId};

    /// Switches with no up ports — the tree roots.
    pub fn roots(sys: &System) -> Vec<SwitchId> {
        (0..sys.topology.n_switches())
            .map(SwitchId::from)
            .filter(|&s| sys.tables.table(s).up_ports().is_empty())
            .collect()
    }

    /// The down output port of `sw` whose reach covers `host` and drives a
    /// fabric (switch→switch) link, with that link. `None` if `sw` only
    /// reaches `host` through an ejection port or not at all.
    pub fn down_port_to(sys: &System, sw: SwitchId, host: NodeId) -> Option<(usize, LinkId)> {
        let table = sys.tables.table(sw);
        (0..sys.topology.ports(sw)).find_map(|p| {
            let info = table.port(p);
            let link = sys.sw_out[sw.index()][p];
            (info.class == PortClass::Down
                && info.reach.contains(host)
                && sys.links.fabric.contains(&link))
            .then_some((p, link))
        })
    }

    /// One representative cut: the first root's down-link toward `host`'s
    /// leaf. Masked reroutes keep full worm coverage (every other root
    /// still reaches the leaf), so this exercises the pure reroute path.
    ///
    /// # Panics
    ///
    /// Panics if no root has a fabric down-link toward `host` (single-stage
    /// trees attach hosts directly to the roots).
    pub fn single_cut(sys: &System, host: NodeId) -> (LinkId, (SwitchId, usize)) {
        roots(sys)
            .into_iter()
            .find_map(|r| down_port_to(sys, r, host).map(|(p, l)| (l, (r, p))))
            .expect("some root must reach the host over a fabric link")
    }

    /// A crossed cut that leaves `d1` and `d2` (on different leaves)
    /// unicast-reachable but impossible to cover with one worm: half the
    /// roots lose their down-link toward `d1`'s leaf, the other half
    /// toward `d2`'s. Every root then misses one of the two subtrees, so
    /// no single ascent covers both — the degradation planner must peel.
    ///
    /// # Panics
    ///
    /// Panics if `d1` and `d2` share a leaf or fewer than two roots exist.
    pub fn crossed_cut(sys: &System, d1: NodeId, d2: NodeId) -> Vec<(LinkId, (SwitchId, usize))> {
        assert_ne!(
            sys.topology.host_inject(d1).0,
            sys.topology.host_inject(d2).0,
            "crossed cut needs destinations on different leaves"
        );
        let roots = roots(sys);
        assert!(roots.len() >= 2, "crossed cut needs at least two roots");
        let half = roots.len() / 2;
        roots
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| {
                let target = if i < half { d1 } else { d2 };
                down_port_to(sys, r, target).map(|(p, l)| (l, (r, p)))
            })
            .collect()
    }
}
