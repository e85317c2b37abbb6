//! Deterministic crash injection for the journaled fault responder
//! (DESIGN.md §15).
//!
//! The harness models a **control-plane process crash**: the
//! [`crate::respond::FaultResponder`] loses all in-memory state at a
//! chosen protocol-step boundary, while the fabric — engine, switches,
//! staged prepares, gate/purge flags, the journal bytes — survives,
//! exactly as an SP2 service-processor restart leaves the switch fabric
//! running. Recovery replays the journal and re-drives whatever episode
//! was in flight; the restart itself consumes zero simulated cycles, so a
//! recovered run must end in a [`crate::sim::RunOutcome`] byte-identical
//! to an uncrashed one. The sweep driver ([`run_crash_sweep`]) asserts
//! exactly that at *every* boundary of the protocol, in the same
//! exhaustive spirit as the PR-1 [`netsim::FaultPlan`] fault schedules.
//!
//! Crash sites are counted, not named: a `Record`-mode oracle run first
//! counts how many boundaries the protocol actually crosses (every
//! journal-apply step, plus each per-switch prepare and commit — the
//! "crash after prepare on switch k" and torn-commit windows), then one
//! injected run per boundary index crashes there. Each boundary is also
//! swept with a **dirty tail**: the crashed process had started writing
//! its next journal record and died mid-line, leaving a torn,
//! checksum-failing fragment that recovery must fence off. (Records
//! already appended are durable by the WAL convention — the harness
//! never deletes durable bytes, it only adds torn ones.)

use crate::config::SystemConfig;
use crate::journal::JournalStore;
use crate::sim::{run_experiment, RunConfig, RunOutcome};
use crate::sweep;
use crate::workload::TrafficSpec;
use mdw_analysis::Samples;
use std::cell::RefCell;
use std::rc::Rc;

/// The responder process died. Unwinds the response protocol out to the
/// public entry points, which recover in place ([`crate::respond::FaultResponder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crashed;

/// What the injection handle does at each protocol-step boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Count boundaries, never crash — the oracle pass that sizes the
    /// sweep.
    Record,
    /// Crash (once) when the running boundary counter hits `boundary`.
    CrashAt {
        /// Zero-based index of the boundary to crash at.
        boundary: u64,
        /// Bytes of a torn partial record to append to the journal at
        /// the crash (0 = the process died between appends).
        tear_bytes: usize,
    },
}

/// Shared state between a responder under test and the harness.
#[derive(Debug)]
pub struct ChaosState {
    /// The injection schedule.
    pub mode: ChaosMode,
    /// Boundaries crossed so far (also the next boundary's index).
    pub boundaries: u64,
    /// The scheduled crash already fired (single-shot).
    pub fired: bool,
    /// Recoveries the responder completed.
    pub recoveries: u64,
    /// Wall-clock restart→caught-up duration of each recovery, ns.
    pub recovery_ns: Vec<u64>,
}

/// The harness's end of the injection channel.
pub type ChaosHandle = Rc<RefCell<ChaosState>>;

/// A fresh injection handle in the given mode.
pub fn handle(mode: ChaosMode) -> ChaosHandle {
    Rc::new(RefCell::new(ChaosState {
        mode,
        boundaries: 0,
        fired: false,
        recoveries: 0,
        recovery_ns: Vec::new(),
    }))
}

thread_local! {
    static INSTALLED: RefCell<Option<ChaosHandle>> = const { RefCell::new(None) };
}

/// Arms the next [`crate::respond::FaultResponder::new`] on this thread
/// with an injection handle. The constructor consumes it, so one install
/// covers exactly one responder — typically the one
/// [`crate::sim::run_experiment`] builds internally.
pub fn install(h: ChaosHandle) {
    INSTALLED.with(|slot| *slot.borrow_mut() = Some(h));
}

/// Consumes the installed handle, if any.
pub(crate) fn take_installed() -> Option<ChaosHandle> {
    INSTALLED.with(|slot| slot.borrow_mut().take())
}

/// Appends `n` bytes of a torn partial record (no trailing newline, no
/// valid checksum) to a journal store: the crashed writer died mid-way
/// through its next append. Recovery's intact-prefix rule drops the
/// fragment; no durable record is touched.
pub(crate) fn dirty_tail(store: &JournalStore, n: usize) {
    let frag: String = "v1 0 prepared 999 1 0:1 "
        .bytes()
        .cycle()
        .take(n.max(1))
        .map(char::from)
        .collect();
    store.borrow_mut().push_str(&frag);
}

/// Verdict of one exhaustive crash sweep.
#[derive(Debug, Clone)]
pub struct CrashSweepOutcome {
    /// Protocol-step boundaries the oracle run crossed (= crash sites
    /// swept per tear variant).
    pub boundaries: u64,
    /// Injected runs executed (boundaries × tear variants).
    pub runs: u64,
    /// Boundary indices whose recovered [`RunOutcome`] diverged from the
    /// oracle's, or whose crash never fired, with the tear size that
    /// exposed them. Empty = every crash fired and recovered to
    /// byte-identical state.
    pub mismatches: Vec<(u64, usize)>,
    /// Torn-install cycles summed over every injected run (the engine's
    /// epoch audit; 0 = no run ever left committed epochs diverged).
    pub torn_cycles: u64,
    /// Recoveries completed across all injected runs.
    pub recoveries: u64,
    /// Restart→caught-up wall-clock latencies of every recovery, ns
    /// (p50/p99 of this series are the headline recovery metrics).
    pub recovery_ns: Samples,
    /// The oracle outcome the injected runs were held to.
    pub oracle: RunOutcome,
}

/// The `Debug` text a recovered run is compared on. Vet hit/miss
/// counters are process-local observability, not durable state: they
/// count only what the last recovered responder ran, and a re-driven
/// episode takes its journaled verdict without vetting, so a
/// crashed-and-recovered run reaches the same durable state with
/// different counts. They are cleared before the byte comparison
/// (recovery wall-times are likewise excluded); everything else must
/// match exactly.
fn comparable_repr(outcome: &RunOutcome) -> String {
    let outcome = RunOutcome {
        vet_memo: Default::default(),
        deep_memo: Default::default(),
        ..outcome.clone()
    };
    format!("{outcome:?}")
}

/// Verdict of one injected run: its crash fired, and the recovered
/// outcome renders byte-identical to the oracle's. A crash that never
/// fired (the run never reached a boundary the oracle counted) proves
/// nothing about recovery, so it is a mismatch, not a pass.
fn recovered_identically(fired: bool, outcome_repr: &str, oracle_repr: &str) -> bool {
    fired && outcome_repr == oracle_repr
}

/// Sweeps a deterministic crash through **every** protocol-step boundary
/// of a run: first an uncrashed `Record`-mode oracle counts the
/// boundaries, then one injected run per (boundary, tear-size) pair
/// crashes there and the recovered outcome is compared to the oracle
/// byte-for-byte (`Debug` formatting is exact, including floats).
///
/// `tears` lists the dirty-tail sizes to sweep *in addition to* the
/// clean crash (`0` bytes, always included). The injected runs are
/// independent, so they fan out over [`sweep::jobs`] workers
/// ([`run_crash_sweep_with_jobs`]).
pub fn run_crash_sweep(
    config: &SystemConfig,
    spec: &TrafficSpec,
    run: &RunConfig,
    tears: &[usize],
) -> CrashSweepOutcome {
    run_crash_sweep_with_jobs(config, spec, run, tears, sweep::jobs())
}

/// What one injected run reports back to the sweep.
struct InjectedRun {
    recovered: bool,
    torn_cycles: u64,
    recoveries: u64,
    recovery_ns: Vec<u64>,
}

/// [`run_crash_sweep`] with the injected runs on `n_workers` workers
/// ([`sweep::parallel_map`]). The oracle runs on the calling thread; each
/// injected run installs its own handle on the thread that runs it.
/// Results fold in submission order, so the outcome is the same for
/// every worker count except for the wall-clock `recovery_ns` values.
pub fn run_crash_sweep_with_jobs(
    config: &SystemConfig,
    spec: &TrafficSpec,
    run: &RunConfig,
    tears: &[usize],
    n_workers: usize,
) -> CrashSweepOutcome {
    assert!(
        config.response.is_some(),
        "crash sweep needs a responder (config.response)"
    );
    let oracle_h = handle(ChaosMode::Record);
    install(oracle_h.clone());
    let oracle = run_experiment(config, spec, run);
    let boundaries = oracle_h.borrow().boundaries;
    let oracle_repr = comparable_repr(&oracle);

    let mut tear_sizes = vec![0usize];
    tear_sizes.extend(tears.iter().copied().filter(|&t| t > 0));
    let sites: Vec<(u64, usize)> = (0..boundaries)
        .flat_map(|b| tear_sizes.iter().map(move |&t| (b, t)))
        .collect();
    let injected = sweep::parallel_map(sites.clone(), n_workers, |(boundary, tear_bytes)| {
        let h = handle(ChaosMode::CrashAt {
            boundary,
            tear_bytes,
        });
        install(h.clone());
        let outcome = run_experiment(config, spec, run);
        let st = h.borrow();
        InjectedRun {
            recovered: recovered_identically(st.fired, &comparable_repr(&outcome), &oracle_repr),
            torn_cycles: outcome.torn_cycles,
            recoveries: st.recoveries,
            recovery_ns: st.recovery_ns.clone(),
        }
    });
    INSTALLED.with(|slot| *slot.borrow_mut() = None);

    let mut out = CrashSweepOutcome {
        boundaries,
        runs: 0,
        mismatches: Vec::new(),
        torn_cycles: 0,
        recoveries: 0,
        recovery_ns: Samples::new(),
        oracle,
    };
    for (site, r) in sites.into_iter().zip(injected) {
        out.runs += 1;
        out.torn_cycles += r.torn_cycles;
        if !r.recovered {
            out.mismatches.push(site);
        }
        out.recoveries += r.recoveries;
        for ns in r.recovery_ns {
            out.recovery_ns.record(ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SwitchArch, TopologyKind};
    use crate::journal::{Journal, JournalConfig, JournalRecord};
    use crate::respond::{deep_vet_key, model_verdict_entries};

    /// The E19 crash-storm shape at phase 400 on 4 hosts.
    fn e19_shape(arch: SwitchArch) -> (SystemConfig, TrafficSpec, RunConfig) {
        let base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 2, n: 2 },
            ..SystemConfig::default()
        };
        (
            crate::experiments::e19_config(&base, arch),
            TrafficSpec::multiple_multicast(0.02, 2, 8),
            crate::experiments::e19_run(400),
        )
    }

    #[test]
    fn run_verdict_requires_the_crash_to_fire() {
        assert!(recovered_identically(true, "same", "same"));
        assert!(!recovered_identically(true, "other", "same"));
        assert!(
            !recovered_identically(false, "same", "same"),
            "an unfired crash must not pass as a recovery"
        );
    }

    /// A real injected run at the first boundary fires and recovers; one
    /// scheduled past the last boundary never fires and, although its
    /// outcome equals the oracle's, is judged a mismatch.
    #[test]
    fn unfired_injection_is_a_mismatch() {
        let (cfg, spec, run) = e19_shape(SwitchArch::CentralBuffer);
        let oracle_h = handle(ChaosMode::Record);
        install(oracle_h.clone());
        let oracle = comparable_repr(&run_experiment(&cfg, &spec, &run));
        let boundaries = oracle_h.borrow().boundaries;
        assert!(boundaries > 0);
        for (boundary, fires) in [(0, true), (boundaries, false)] {
            let h = handle(ChaosMode::CrashAt {
                boundary,
                tear_bytes: 0,
            });
            install(h.clone());
            let repr = comparable_repr(&run_experiment(&cfg, &spec, &run));
            let fired = h.borrow().fired;
            assert_eq!(fired, fires, "boundary {boundary}");
            assert_eq!(repr, oracle, "boundary {boundary} matches the oracle");
            assert_eq!(recovered_identically(fired, &repr, &oracle), fires);
        }
    }

    /// The process's model-check verdict table is a pure fast path: a
    /// second pair of E19 sweeps over a warm table adds no entry for the
    /// key they ask and renders the same outcome as the first, vet
    /// counters included (only the wall-clock recovery latencies may
    /// differ).
    #[test]
    fn warm_verdict_table_changes_no_sweep_outcome() {
        let archs = [SwitchArch::CentralBuffer, SwitchArch::InputBuffered];
        let sweeps = || {
            archs.map(|arch| {
                let (cfg, spec, run) = e19_shape(arch);
                let sweep = run_crash_sweep(&cfg, &spec, &run, &[8]);
                assert!(sweep.mismatches.is_empty(), "{arch:?}: {sweep:?}");
                assert!(
                    sweep.oracle.deep_memo.misses > 0,
                    "the oracle asked the table"
                );
                format!(
                    "{:?}",
                    CrashSweepOutcome {
                        recovery_ns: Samples::new(),
                        ..sweep
                    }
                )
            })
        };
        let entries = || {
            archs.map(|arch| {
                let (cfg, ..) = e19_shape(arch);
                let switches = crate::config::fabric(cfg.topology).topology.n_switches();
                model_verdict_entries(&deep_vet_key(&cfg, switches))
            })
        };
        let first = sweeps();
        assert_eq!(entries(), [1; 2], "the sweeps' keys were checked once");
        let warm = sweeps();
        assert_eq!(entries(), [1; 2], "warm sweeps added no entry");
        assert_eq!(first, warm);
    }

    #[test]
    fn install_is_single_shot() {
        let h = handle(ChaosMode::Record);
        install(h);
        assert!(take_installed().is_some());
        assert!(take_installed().is_none(), "consumed by the first take");
    }

    #[test]
    fn dirty_tail_is_fenced_by_reopen() {
        let mut j = Journal::new(JournalConfig::default());
        j.append(&JournalRecord::Committed { epoch: 1 });
        j.append(&JournalRecord::Committed { epoch: 2 });
        let store = j.store();
        dirty_tail(&store, 13);
        let (mut j2, records) = Journal::reopen(store, JournalConfig::default());
        assert_eq!(records.len(), 2, "durable records all survive the tear");
        // The reopened write end appends cleanly past the fenced fragment.
        j2.append(&JournalRecord::Committed { epoch: 3 });
        assert_eq!(j2.records().len(), 3);
    }
}
