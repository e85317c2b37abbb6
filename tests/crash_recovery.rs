//! Crash tolerance of the journaled control plane (DESIGN.md §15).
//!
//! Two layers of evidence:
//!
//! * a seeded **crash matrix** — [`mdworm::chaos::run_crash_sweep`]
//!   crashes the fault responder at *every* protocol-step boundary of a
//!   scripted outage storm, clean and with a torn journal tail, and the
//!   recovered run must reproduce the uncrashed oracle's [`RunOutcome`]
//!   byte for byte with the engine's torn-install audit silent; a second
//!   matrix reads each run's whole journal and requires every install
//!   epoch to be vetted exactly once, crash or no crash;
//! * hand-rolled **property loops** over the write-ahead journal itself:
//!   seeded random record sequences survive duplicated tails (replay
//!   idempotence via sequence numbers), truncated tails (durable prefix
//!   rule), and garbage tails (checksum fencing).
//!
//! CI additionally runs this file under `--features invariant-audit` as
//! the release crash-smoke job. The E19 bench table runs the same sweep
//! at a larger phase; this file is the fast tier-1 gate.

use collectives::RecoveryConfig;
use mdworm::chaos::{self, run_crash_sweep, ChaosMode};
use mdworm::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::journal::{Journal, JournalConfig, JournalRecord};
use mdworm::respond::{FaultResponder, ResponseConfig};
use mdworm::sim::RunConfig;
use mdworm::workload::TrafficSpec;
use mdworm::{build_system, make_sources};
use netsim::ids::{LinkId, SwitchId};
use netsim::rng::SimRng;

fn crash_cfg(arch: SwitchArch) -> SystemConfig {
    SystemConfig {
        // Smallest multi-root tree: single-link masks stay connected, so
        // the storm exercises real installs, not just vet rejections.
        topology: TopologyKind::KaryTree { k: 2, n: 2 },
        arch,
        mcast: McastImpl::HwBitString,
        recovery: Some(RecoveryConfig::default()),
        response: Some(ResponseConfig::default()),
        epoch_audit: true,
        ..SystemConfig::default()
    }
}

/// One cut that fails and heals inside the window: the oracle drives a
/// full reroute episode and a heal episode, so the matrix sweeps every
/// stage of the two-phase protocol — gate, purge, prepare-on-switch-k,
/// vet, commit-on-switch-k, finalize — at tier-1 cost.
fn crash_run(phase: u64) -> RunConfig {
    RunConfig {
        warmup: 0,
        measure: 3 * phase,
        drain_max: 12 * phase,
        watchdog_grace: 4 * phase,
        faults: None,
        outages: vec![(0, phase, 2 * phase)],
    }
}

#[test]
fn seeded_crash_matrix_recovers_byte_identically() {
    let cfg = crash_cfg(SwitchArch::CentralBuffer);
    let spec = TrafficSpec::multiple_multicast(0.02, 2, 8);
    let out = run_crash_sweep(&cfg, &spec, &crash_run(400), &[8]);
    assert!(out.boundaries > 0, "oracle crossed no protocol boundaries");
    assert_eq!(out.runs, 2 * out.boundaries, "clean + torn-tail variants");
    assert!(
        out.mismatches.is_empty(),
        "recovered runs diverged from the oracle at (boundary, tear): {:?}",
        out.mismatches
    );
    assert_eq!(out.torn_cycles, 0, "a crash left committed epochs torn");
    assert!(
        out.recoveries >= out.runs,
        "every injected run must recover at least once ({} recoveries / {} runs)",
        out.recoveries,
        out.runs
    );
    assert!(
        out.oracle.response.reroutes >= 1,
        "the oracle must install a masked reroute: {:?}",
        out.oracle.response
    );
    assert!(
        out.oracle.response.heals >= 1,
        "the oracle must heal after the cut: {:?}",
        out.oracle.response
    );
    assert!(
        out.oracle.response_digest.is_some(),
        "responder digest missing from the oracle outcome"
    );
    assert!(
        out.recovery_ns.percentile(99.0) >= out.recovery_ns.percentile(50.0),
        "recovery-latency percentiles out of order"
    );
}

/// The input-buffered switch drives the same two-phase installs through
/// a different switch core; the matrix must hold there too.
#[test]
fn crash_matrix_holds_on_input_buffered_switches() {
    let cfg = crash_cfg(SwitchArch::InputBuffered);
    let spec = TrafficSpec::multiple_multicast(0.02, 2, 8);
    let out = run_crash_sweep(&cfg, &spec, &crash_run(400), &[5]);
    assert!(out.mismatches.is_empty(), "{:?}", out.mismatches);
    assert_eq!(out.torn_cycles, 0);
    assert!(
        out.oracle.response.reroutes >= 1,
        "{:?}",
        out.oracle.response
    );
}

/// Runs the crash storm under `mode` with the responder polled every 32
/// cycles, as `run_experiment` polls it, through the whole window and
/// drain budget. Returns the responder's final journal and the number
/// of protocol boundaries crossed, and whether the scheduled crash fired.
fn journaled_run(
    cfg: &SystemConfig,
    spec: &TrafficSpec,
    run: &RunConfig,
    mode: ChaosMode,
) -> (Vec<(u64, JournalRecord)>, u64, bool) {
    const POLL: u64 = 32;
    let h = chaos::handle(mode);
    chaos::install(h.clone());
    let end = run.warmup + run.measure;
    let sources = make_sources(spec, cfg.n_hosts(), cfg.seed, Some(end));
    let mut sys = build_system(cfg.clone(), sources, None);
    for &(idx, down, up) in &run.outages {
        let link = sys.links.fabric[idx % sys.links.fabric.len()];
        sys.engine.script_outage(link, down, up);
    }
    let rc = cfg.response.clone().expect("the storm runs a responder");
    let mut responder = FaultResponder::new(rc, &mut sys);
    while sys.engine.now() < end + run.drain_max {
        sys.engine.run_for(POLL);
        responder.poll(&mut sys);
    }
    let st = h.borrow();
    (responder.journal().records(), st.boundaries, st.fired)
}

/// Every epoch the journal prepared has exactly one `vetted` record.
fn check_vetted_once(records: &[(u64, JournalRecord)]) -> Result<usize, String> {
    let mut prepared = Vec::new();
    let mut vetted = Vec::new();
    for (_, rec) in records {
        match rec {
            JournalRecord::Prepared { epoch, .. } => prepared.push(*epoch),
            JournalRecord::Vetted { epoch, .. } => vetted.push(*epoch),
            _ => {}
        }
    }
    prepared.dedup();
    vetted.sort_unstable();
    if vetted != prepared {
        return Err(format!("prepared epochs {prepared:?}, vetted {vetted:?}"));
    }
    Ok(prepared.len())
}

/// A re-driven episode takes its verdict from the journaled `vetted`
/// record rather than vetting again, so no candidate is ever vetted twice.
/// With snapshots off, each run's journal keeps every record it ever
/// wrote; across one crash at every boundary, clean and with a torn
/// tail, on both switch architectures, each epoch must show exactly one
/// `vetted` record. (A re-vet reaches the same verdict, so the
/// byte-identical matrix above cannot see one.)
#[test]
fn every_epoch_is_vetted_once_across_crashes() {
    let spec = TrafficSpec::multiple_multicast(0.02, 2, 8);
    let run = crash_run(400);
    for arch in [SwitchArch::CentralBuffer, SwitchArch::InputBuffered] {
        let cfg = SystemConfig {
            response: Some(ResponseConfig {
                snapshot_every: u64::MAX,
            }),
            ..crash_cfg(arch)
        };
        let (records, boundaries, _) = journaled_run(&cfg, &spec, &run, ChaosMode::Record);
        let epochs = check_vetted_once(&records).expect("the oracle vets each epoch once");
        assert!(epochs >= 2, "{arch:?}: the storm reroutes and heals");
        assert!(boundaries > 0, "{arch:?}");
        for boundary in 0..boundaries {
            for tear_bytes in [0, 8] {
                let mode = ChaosMode::CrashAt {
                    boundary,
                    tear_bytes,
                };
                let (records, _, fired) = journaled_run(&cfg, &spec, &run, mode);
                assert!(fired, "{arch:?} {mode:?}: the crash never fired");
                let n = check_vetted_once(&records)
                    .unwrap_or_else(|e| panic!("{arch:?} {mode:?}: {e}"));
                assert_eq!(n, epochs, "{arch:?} {mode:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Journal property loops (hand-rolled; the workspace carries no proptest)
// ---------------------------------------------------------------------

/// A seeded, arbitrary-ish journal record. Covers the fixed-shape
/// variants; snapshot/vet records have their own round-trip unit tests.
fn arb_record(rng: &mut SimRng) -> JournalRecord {
    match rng.below(7) {
        0 => JournalRecord::Observed {
            link: LinkId::from(rng.below(64)),
            at: rng.below(100_000) as u64,
            down: rng.chance(0.5),
        },
        1 => JournalRecord::Polled {
            now: rng.below(100_000) as u64,
        },
        2 => JournalRecord::Drained,
        3 => JournalRecord::Suppressed {
            links: (0..rng.below(4)).map(LinkId::from).collect(),
        },
        4 => JournalRecord::Prepared {
            epoch: rng.below(1_000) as u64,
            masked: (0..rng.below(3))
                .map(|i| (SwitchId::from(i), rng.below(8)))
                .collect(),
        },
        5 => JournalRecord::Committed {
            epoch: rng.below(1_000) as u64,
        },
        _ => JournalRecord::RespondStarted {
            detect: rng.below(100_000) as u64,
        },
    }
}

/// Builds a journal of `n` seeded records with snapshots disabled (so the
/// full history stays in the store) and returns it with its records.
fn seeded_journal(rng: &mut SimRng, n: usize) -> (Journal, Vec<(u64, JournalRecord)>) {
    let mut j = Journal::new(JournalConfig {
        snapshot_every: u64::MAX,
    });
    for _ in 0..n {
        j.append(&arb_record(rng));
    }
    let recs = j.records();
    (j, recs)
}

/// Replay idempotence: a crashed writer can leave the tail of the log
/// duplicated (e.g. a re-driven append after an unacknowledged flush).
/// Sequence numbers make the duplicate harmless — replay applies each
/// seq once, so filtering to strictly-increasing seqs recovers exactly
/// the original history.
#[test]
fn journal_replay_is_idempotent_under_duplicated_tails() {
    let mut rng = SimRng::new(0x15_0001);
    for round in 0..40 {
        let n = 1 + rng.below(30);
        let (j, original) = seeded_journal(&mut rng, n);
        let store = j.store();
        // Duplicate a random tail chunk of whole lines.
        let dup = {
            let s = store.borrow();
            let lines: Vec<&str> = s.split_inclusive('\n').collect();
            let from = rng.below(lines.len());
            lines[from..].concat()
        };
        store.borrow_mut().push_str(&dup);

        let (_, replayed) = Journal::reopen(store, JournalConfig::default());
        // The same skip rule FaultResponder::recover applies.
        let mut last_seq: Option<u64> = None;
        let deduped: Vec<(u64, JournalRecord)> = replayed
            .into_iter()
            .filter(|&(seq, _)| {
                let fresh = last_seq.is_none_or(|s| seq > s);
                if fresh {
                    last_seq = Some(seq);
                }
                fresh
            })
            .collect();
        assert_eq!(
            deduped, original,
            "round {round}: duplicated tail changed the deduplicated history"
        );
    }
}

/// Durable-prefix rule: a crash can cut the log anywhere mid-byte; the
/// records before the cut survive verbatim and the torn line vanishes —
/// no parse error, no corrupted record, no resurrection of the tail.
#[test]
fn journal_truncation_yields_a_clean_prefix() {
    let mut rng = SimRng::new(0x15_0002);
    for round in 0..40 {
        let n = 1 + rng.below(30);
        let (j, original) = seeded_journal(&mut rng, n);
        let store = j.store();
        let cut = rng.below(store.borrow().len() + 1);
        store.borrow_mut().truncate(cut);

        let (_, replayed) = Journal::reopen(store, JournalConfig::default());
        assert!(
            replayed.len() <= original.len(),
            "round {round}: truncation grew the history"
        );
        assert_eq!(
            replayed,
            original[..replayed.len()],
            "round {round}: surviving records are not a verbatim prefix"
        );
    }
}

/// Checksum fencing: arbitrary garbage appended after the durable bytes
/// (the crashed writer's half-formed next record) never parses, and the
/// reopened journal appends cleanly past it.
#[test]
fn journal_garbage_tails_are_fenced_and_writable() {
    let mut rng = SimRng::new(0x15_0003);
    for round in 0..40 {
        let n = 1 + rng.below(20);
        let (j, original) = seeded_journal(&mut rng, n);
        let store = j.store();
        let garbage: String = (0..1 + rng.below(40))
            .map(|_| (b' ' + rng.below(94) as u8) as char)
            .collect();
        store.borrow_mut().push_str(&garbage);

        let (mut j2, replayed) = Journal::reopen(store.clone(), JournalConfig::default());
        // A garbage tail that happens to end in '\n' could in principle
        // parse — but only as a checksummed line, which random ASCII is
        // not; everything durable must survive untouched.
        assert_eq!(
            replayed, original,
            "round {round}: garbage tail perturbed durable records"
        );
        j2.append(&JournalRecord::Drained);
        let reread = j2.records();
        assert_eq!(
            reread.last().map(|(_, r)| r.clone()),
            Some(JournalRecord::Drained),
            "round {round}: reopened journal could not append past the fence"
        );
    }
}
