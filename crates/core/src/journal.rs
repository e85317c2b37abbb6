//! Write-ahead journal of fault-responder decisions (DESIGN.md §15).
//!
//! Every durable state change the [`crate::respond::FaultResponder`]
//! makes — a link event observed, a debounce poll that confirmed
//! transitions, an epoch prepared/committed/aborted, an episode
//! finalized — is appended here *before* (decisions) or *atomically with*
//! (observations) its in-memory effect. A responder that crashes loses
//! only its process state: replaying the journal against the surviving
//! fabric rebuilds byte-identical responder state, and the two-phase
//! install records tell the recovery exactly which epoch was prepared but
//! not yet committed so it can re-drive the commit (see
//! `FaultResponder::recover`).
//!
//! ## Wire format
//!
//! One ASCII line per record:
//!
//! ```text
//! v1 <seq> <kind> <fields...> #<fnv64-hex>
//! ```
//!
//! * `seq` increases by one per append and makes replay idempotent: a
//!   duplicated tail (the crashed process re-sent records it had already
//!   written) replays as no-ops because their sequence numbers were
//!   already applied.
//! * The trailing FNV-1a checksum covers everything before ` #`. A crash
//!   mid-append leaves a torn last line whose checksum cannot match;
//!   [`Journal::reopen`] drops it (and anything after it), modelling the
//!   classic WAL torn-write rule — an unreadable record was never
//!   durable, so the decision it encoded was never made.
//! * Variable-length string fields (diagnostic codes, messages) are
//!   percent-encoded so every record stays a single space-separated line.
//!
//! ## Snapshots and compaction
//!
//! Every `snapshot_every` records the responder serializes its full
//! durable state into a `snapshot` record and the journal drops all
//! earlier bytes: replay cost and journal memory are both bounded by the
//! snapshot cadence, so a responder embedded in a week-long fault storm
//! holds steady-state memory. Replay starts from the last intact
//! snapshot (or the beginning) and applies subsequent records.

use crate::respond::{ConfirmedTransition, ResponseCounters, ResponseEvent};
use netsim::ids::{LinkId, SwitchId};
use netsim::Cycle;
use std::cell::RefCell;
use std::rc::Rc;

/// Journal tuning knobs (config keys `journal.*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// Records between snapshots; each snapshot compacts everything
    /// before it away. Bounds both replay time and journal memory.
    pub snapshot_every: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            snapshot_every: 256,
        }
    }
}

/// The shared backing store of a journal: plain ASCII record lines. The
/// responder holds one end; a crash harness holds the other, so the
/// bytes survive the responder being dropped and rebuilt — the in-memory
/// stand-in for a file that survives the process.
pub type JournalStore = Rc<RefCell<String>>;

/// How one response episode ended (the `finalized` record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpisodeOutcome {
    /// Masked tables committed and armed on every switch.
    Installed {
        /// Directed dead fabric ports masked out of the new tables.
        masked_ports: usize,
    },
    /// All cuts back up; original tables committed everywhere.
    Healed,
    /// The candidate failed the vet; epoch aborted on every switch.
    Rejected,
    /// The triggering transition reverted during the quiesce; no tables
    /// were built.
    Stale,
}

/// Full durable responder state, as serialized into `snapshot` records.
/// Everything a restarted responder cannot re-derive from the surviving
/// fabric lives here; see `FaultResponder::recover`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResponderSnapshot {
    /// Highest epoch ever allocated (the next candidate gets +1).
    pub last_epoch: u64,
    /// Directed fabric ports masked out of the active tables.
    pub masked: Vec<(SwitchId, usize)>,
    /// Links administratively suppressed by the flap damper.
    pub suppressed: Vec<LinkId>,
    /// Activity counters.
    pub counters: ResponseCounters,
    /// Detect→install latency series (cycles) and its overflow drops.
    pub latency: Vec<u64>,
    /// Latency samples evicted by the ring bound.
    pub latency_dropped: u64,
    /// Retained event-log entries.
    pub events: Vec<(Cycle, ResponseEvent)>,
    /// Event-log entries evicted by the ring bound.
    pub events_dropped: u64,
    /// Confirmed transitions not yet drained by a storm controller.
    pub fresh: Vec<ConfirmedTransition>,
    /// Debounced health view: confirmed-down links.
    pub health_confirmed: Vec<LinkId>,
    /// Debounced health view: in-flight excursions `(link, onset, down)`.
    pub health_pending: Vec<(LinkId, Cycle, bool)>,
}

/// One journal record. See the module docs for the wire format.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A raw link transition drained from the engine.
    Observed {
        /// The link that changed state.
        link: LinkId,
        /// Engine cycle of the raw transition.
        at: Cycle,
        /// `true` = went down.
        down: bool,
    },
    /// A debounce poll ran at `now` and confirmed at least one
    /// transition. Replay re-runs the poll: its results are a pure
    /// function of the observed events and `now`.
    Polled {
        /// Cycle the poll ran at.
        now: Cycle,
    },
    /// A storm controller drained the fresh-confirmed queue.
    Drained,
    /// The administratively suppressed link set changed.
    Suppressed {
        /// The new suppressed set, sorted.
        links: Vec<LinkId>,
    },
    /// A response episode began (hosts gated).
    RespondStarted {
        /// Cycle the episode was triggered.
        detect: Cycle,
    },
    /// The purge command was raised on every switch.
    PurgeStarted {
        /// Cycle the purge began.
        at: Cycle,
    },
    /// The purge loop exited.
    PurgeDone {
        /// Cycle the loop exited.
        at: Cycle,
        /// Flits still in links if the purge budget ran out.
        flits_left: u64,
        /// `true` if the fabric drained completely.
        complete: bool,
    },
    /// The post-quiesce re-sample matched the already-installed masking.
    StaleDetected {
        /// Cycle of the detection.
        at: Cycle,
    },
    /// Phase one decided: `epoch` is being staged on every switch.
    Prepared {
        /// The candidate's epoch.
        epoch: u64,
        /// The dead-port set the candidate masks.
        masked: Vec<(SwitchId, usize)>,
    },
    /// The candidate was vetted under `epoch`.
    Vetted {
        /// The candidate's epoch.
        epoch: u64,
        /// `Ok` or the first diagnostic `(code, message)`.
        verdict: Result<(), (String, String)>,
    },
    /// Phase two decided: once this record is durable the commit *must*
    /// reach every switch — recovery re-drives it.
    Committed {
        /// The epoch being committed.
        epoch: u64,
    },
    /// The vet rejected the candidate; its stage is discarded.
    Aborted {
        /// Cycle of the rejection.
        at: Cycle,
        /// The aborted epoch.
        epoch: u64,
        /// Diagnostic code of the first analyzer error.
        code: String,
        /// Human-readable analyzer message.
        message: String,
    },
    /// The episode completed its tail (degrade/heal applied, hosts
    /// ungated); nothing is in flight after this.
    Finalized {
        /// Cycle the episode completed.
        at: Cycle,
        /// Epoch of the episode (0 for stale episodes).
        epoch: u64,
        /// How it ended.
        outcome: EpisodeOutcome,
    },
    /// Full durable state; replay restarts from the last intact one.
    Snapshot(Box<ResponderSnapshot>),
}

/// The write end of the journal: appends checksummed records to the
/// shared store and compacts it at snapshot boundaries.
///
/// Compaction is deliberately deferred: the bytes before a snapshot are
/// only dropped once something is durable *after* it (the next append,
/// or a reopen that parsed it intact). A crash can therefore tear the
/// snapshot line itself and recovery still replays from the records it
/// was meant to summarize — the torn snapshot was never durable, and
/// nothing it covered has been thrown away yet.
#[derive(Debug)]
pub struct Journal {
    store: JournalStore,
    cfg: JournalConfig,
    next_seq: u64,
    since_snapshot: u64,
    /// Byte offset of the last snapshot line, whose prefix is safe to
    /// drop as soon as the snapshot is known durable.
    compact_at: Option<usize>,
}

impl Journal {
    /// Opens a fresh, empty journal.
    pub fn new(cfg: JournalConfig) -> Self {
        Journal {
            store: Rc::new(RefCell::new(String::new())),
            cfg,
            next_seq: 0,
            since_snapshot: 0,
            compact_at: None,
        }
    }

    /// The shared backing store (clone to keep the bytes across a crash).
    pub fn store(&self) -> JournalStore {
        self.store.clone()
    }

    /// Re-opens a surviving store after a crash: parses every intact
    /// record (dropping a torn tail), returns them for replay, and
    /// positions the write end after the last durable sequence number.
    pub fn reopen(store: JournalStore, cfg: JournalConfig) -> (Self, Vec<(u64, JournalRecord)>) {
        let records = parse_store(&store.borrow());
        {
            // Truncate to the intact prefix (future appends must not
            // interleave with torn bytes), then compact away everything
            // before the last snapshot — it parsed, so it is durable.
            let mut s = store.borrow_mut();
            let intact_len = intact_prefix_len(&s);
            s.truncate(intact_len);
            if let Some(at) = last_snapshot_offset(&s) {
                s.replace_range(..at, "");
            }
        }
        let next_seq = records.last().map_or(0, |&(seq, _)| seq + 1);
        (
            Journal {
                store,
                cfg,
                next_seq,
                since_snapshot: records
                    .iter()
                    .rev()
                    .take_while(|(_, r)| !matches!(r, JournalRecord::Snapshot(_)))
                    .count() as u64,
                compact_at: None,
            },
            records,
        )
    }

    /// Appends one record, assigning it the next sequence number. A
    /// successful append proves the previous snapshot (if any) durable,
    /// so its deferred compaction runs first.
    pub fn append(&mut self, rec: &JournalRecord) {
        if let Some(at) = self.compact_at.take() {
            self.store.borrow_mut().replace_range(..at, "");
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut line = format!("v1 {seq} {}", encode_record(rec));
        let sum = fnv64(line.as_bytes());
        line.push_str(&format!(" #{sum:016x}\n"));
        let mut store = self.store.borrow_mut();
        let start = store.len();
        store.push_str(&line);
        drop(store);
        if matches!(rec, JournalRecord::Snapshot(_)) {
            self.compact_at = Some(start);
            self.since_snapshot = 0;
        } else {
            self.since_snapshot += 1;
        }
    }

    /// `true` once enough records accumulated that the next quiescent
    /// point should write a snapshot.
    pub fn wants_snapshot(&self) -> bool {
        self.since_snapshot >= self.cfg.snapshot_every
    }

    /// Records currently decodable from the store (diagnostics, tests).
    pub fn records(&self) -> Vec<(u64, JournalRecord)> {
        parse_store(&self.store.borrow())
    }

    /// Bytes currently held (after compaction).
    pub fn len_bytes(&self) -> usize {
        self.store.borrow().len()
    }

    /// Tears `n` bytes off the end of the store — the crash harness's
    /// model of a crash mid-append (a torn, checksum-failing last line).
    pub fn tear_tail(store: &JournalStore, n: usize) {
        let mut s = store.borrow_mut();
        let keep = s.len().saturating_sub(n);
        s.truncate(keep);
    }
}

/// Byte offset where the last intact snapshot line starts, if any.
fn last_snapshot_offset(text: &str) -> Option<usize> {
    let mut offset = 0;
    let mut found = None;
    for line in text.split_inclusive('\n') {
        if let Some((_, JournalRecord::Snapshot(_))) = parse_line(line.trim_end_matches('\n')) {
            found = Some(offset);
        }
        offset += line.len();
    }
    found
}

/// Byte length of the longest prefix of `text` made of intact lines.
fn intact_prefix_len(text: &str) -> usize {
    let mut len = 0;
    for line in text.split_inclusive('\n') {
        if !line.ends_with('\n') || parse_line(line.trim_end_matches('\n')).is_none() {
            break;
        }
        len += line.len();
    }
    len
}

/// Parses the intact record prefix of a store, starting from the last
/// snapshot found (earlier records were compacted or are redundant).
fn parse_store(text: &str) -> Vec<(u64, JournalRecord)> {
    let mut records = Vec::new();
    for line in text.lines() {
        match parse_line(line) {
            Some(rec) => records.push(rec),
            None => break, // torn tail: nothing after it was durable
        }
    }
    if let Some(snap_idx) = records
        .iter()
        .rposition(|(_, r)| matches!(r, JournalRecord::Snapshot(_)))
    {
        records.drain(..snap_idx);
    }
    records
}

/// FNV-64 hex digest of a snapshot's serialized form — a fingerprint of
/// the responder's complete durable state. Two responders with equal
/// digests would journal byte-identical snapshots; the crash harness
/// holds every recovered run to digest equality with its uncrashed
/// oracle (surfaced as `RunOutcome::response_digest`).
pub fn snapshot_digest(s: &ResponderSnapshot) -> String {
    let encoded = encode_record(&JournalRecord::Snapshot(Box::new(s.clone())));
    format!("{:016x}", fnv64(encoded.as_bytes()))
}

/// FNV-1a, the repo's standard cheap checksum.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Percent-encodes a string into one space-free ASCII token. An empty
/// string encodes as `%` (decodes back to empty).
fn enc(s: &str) -> String {
    if s.is_empty() {
        return "%".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'.' | b':' | b'-' | b'/' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02x}")),
        }
    }
    out
}

/// Inverse of [`enc`]. `None` on malformed escapes.
fn dec(s: &str) -> Option<String> {
    if s == "%" {
        return Some(String::new());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

fn encode_ports(ports: &[(SwitchId, usize)]) -> String {
    let mut out = format!("{}", ports.len());
    for (s, p) in ports {
        out.push_str(&format!(" {}:{}", s.index(), p));
    }
    out
}

fn encode_links(links: &[LinkId]) -> String {
    let mut out = format!("{}", links.len());
    for l in links {
        out.push_str(&format!(" {}", l.index()));
    }
    out
}

fn encode_event(ev: &ResponseEvent) -> String {
    match ev {
        ResponseEvent::LinkConfirmed { link, down } => {
            format!("confirmed,{},{}", link.index(), u8::from(*down))
        }
        ResponseEvent::Rerouted { masked_ports } => format!("rerouted,{masked_ports}"),
        ResponseEvent::RerouteRejected { code, message } => {
            format!("rejected,{},{}", enc(code), enc(message))
        }
        ResponseEvent::Healed => "healed".to_string(),
        ResponseEvent::PurgeIncomplete { flits_left } => format!("purgeinc,{flits_left}"),
        ResponseEvent::StaleDetect => "stale".to_string(),
    }
}

fn decode_event(s: &str) -> Option<ResponseEvent> {
    let mut it = s.split(',');
    let kind = it.next()?;
    let ev = match kind {
        "confirmed" => ResponseEvent::LinkConfirmed {
            link: LinkId::from(it.next()?.parse::<usize>().ok()?),
            down: it.next()? == "1",
        },
        "rerouted" => ResponseEvent::Rerouted {
            masked_ports: it.next()?.parse().ok()?,
        },
        "rejected" => ResponseEvent::RerouteRejected {
            code: dec(it.next()?)?,
            message: dec(it.next()?)?,
        },
        "healed" => ResponseEvent::Healed,
        "purgeinc" => ResponseEvent::PurgeIncomplete {
            flits_left: it.next()?.parse().ok()?,
        },
        "stale" => ResponseEvent::StaleDetect,
        _ => return None,
    };
    Some(ev)
}

fn encode_record(rec: &JournalRecord) -> String {
    match rec {
        JournalRecord::Observed { link, at, down } => {
            format!("observed {} {} {}", link.index(), at, u8::from(*down))
        }
        JournalRecord::Polled { now } => format!("polled {now}"),
        JournalRecord::Drained => "drained".to_string(),
        JournalRecord::Suppressed { links } => {
            format!("suppressed {}", encode_links(links))
        }
        JournalRecord::RespondStarted { detect } => format!("respond {detect}"),
        JournalRecord::PurgeStarted { at } => format!("purge-start {at}"),
        JournalRecord::PurgeDone {
            at,
            flits_left,
            complete,
        } => format!("purge-done {at} {flits_left} {}", u8::from(*complete)),
        JournalRecord::StaleDetected { at } => format!("stale {at}"),
        JournalRecord::Prepared { epoch, masked } => {
            format!("prepared {epoch} {}", encode_ports(masked))
        }
        JournalRecord::Vetted { epoch, verdict } => match verdict {
            Ok(()) => format!("vetted {epoch} 1"),
            Err((code, message)) => {
                format!("vetted {epoch} 0 {} {}", enc(code), enc(message))
            }
        },
        JournalRecord::Committed { epoch } => format!("committed {epoch}"),
        JournalRecord::Aborted {
            at,
            epoch,
            code,
            message,
        } => format!("aborted {at} {epoch} {} {}", enc(code), enc(message)),
        JournalRecord::Finalized { at, epoch, outcome } => {
            let out = match outcome {
                EpisodeOutcome::Installed { masked_ports } => format!("installed {masked_ports}"),
                EpisodeOutcome::Healed => "healed".to_string(),
                EpisodeOutcome::Rejected => "rejected".to_string(),
                EpisodeOutcome::Stale => "stale".to_string(),
            };
            format!("finalized {at} {epoch} {out}")
        }
        JournalRecord::Snapshot(s) => {
            let mut out = format!("snapshot {} {}", s.last_epoch, encode_ports(&s.masked));
            out.push_str(&format!(" {}", encode_links(&s.suppressed)));
            let c = &s.counters;
            out.push_str(&format!(
                " {} {} {} {} {} {} {} {}",
                c.links_down,
                c.links_up,
                c.reroutes,
                c.reroutes_rejected,
                c.heals,
                c.purges,
                c.purges_incomplete,
                c.stale_detects
            ));
            out.push_str(&format!(" {} {}", s.latency_dropped, s.latency.len()));
            for v in &s.latency {
                out.push_str(&format!(" {v}"));
            }
            out.push_str(&format!(" {} {}", s.events_dropped, s.events.len()));
            for (at, ev) in &s.events {
                out.push_str(&format!(" {at} {}", encode_event(ev)));
            }
            out.push_str(&format!(" {}", s.fresh.len()));
            for t in &s.fresh {
                out.push_str(&format!(
                    " {},{},{}",
                    t.at,
                    t.link.index(),
                    u8::from(t.down)
                ));
            }
            out.push_str(&format!(" {}", encode_links(&s.health_confirmed)));
            out.push_str(&format!(" {}", s.health_pending.len()));
            for (l, at, down) in &s.health_pending {
                out.push_str(&format!(" {},{},{}", l.index(), at, u8::from(*down)));
            }
            out
        }
    }
}

/// Parses one `v1` line (without trailing newline), verifying the
/// checksum. `None` = torn or corrupt.
fn parse_line(line: &str) -> Option<(u64, JournalRecord)> {
    let (body, sum_hex) = line.rsplit_once(" #")?;
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    if fnv64(body.as_bytes()) != sum {
        return None;
    }
    let mut it = body.split(' ');
    if it.next()? != "v1" {
        return None;
    }
    let seq: u64 = it.next()?.parse().ok()?;
    let rec = decode_record(&mut it)?;
    Some((seq, rec))
}

fn next_usize<'a>(it: &mut impl Iterator<Item = &'a str>) -> Option<usize> {
    it.next()?.parse().ok()
}

fn next_u64<'a>(it: &mut impl Iterator<Item = &'a str>) -> Option<u64> {
    it.next()?.parse().ok()
}

fn decode_ports<'a>(it: &mut impl Iterator<Item = &'a str>) -> Option<Vec<(SwitchId, usize)>> {
    let n = next_usize(it)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, p) = it.next()?.split_once(':')?;
        out.push((SwitchId::from(s.parse::<usize>().ok()?), p.parse().ok()?));
    }
    Some(out)
}

fn decode_links<'a>(it: &mut impl Iterator<Item = &'a str>) -> Option<Vec<LinkId>> {
    let n = next_usize(it)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(LinkId::from(next_usize(it)?));
    }
    Some(out)
}

fn decode_record<'a>(it: &mut impl Iterator<Item = &'a str>) -> Option<JournalRecord> {
    let rec = match it.next()? {
        "observed" => JournalRecord::Observed {
            link: LinkId::from(next_usize(it)?),
            at: next_u64(it)?,
            down: it.next()? == "1",
        },
        "polled" => JournalRecord::Polled { now: next_u64(it)? },
        "drained" => JournalRecord::Drained,
        "suppressed" => JournalRecord::Suppressed {
            links: decode_links(it)?,
        },
        "respond" => JournalRecord::RespondStarted {
            detect: next_u64(it)?,
        },
        "purge-start" => JournalRecord::PurgeStarted { at: next_u64(it)? },
        "purge-done" => JournalRecord::PurgeDone {
            at: next_u64(it)?,
            flits_left: next_u64(it)?,
            complete: it.next()? == "1",
        },
        "stale" => JournalRecord::StaleDetected { at: next_u64(it)? },
        "prepared" => JournalRecord::Prepared {
            epoch: next_u64(it)?,
            masked: decode_ports(it)?,
        },
        "vetted" => {
            let epoch = next_u64(it)?;
            let verdict = if it.next()? == "1" {
                Ok(())
            } else {
                Err((dec(it.next()?)?, dec(it.next()?)?))
            };
            JournalRecord::Vetted { epoch, verdict }
        }
        "committed" => JournalRecord::Committed {
            epoch: next_u64(it)?,
        },
        "aborted" => JournalRecord::Aborted {
            at: next_u64(it)?,
            epoch: next_u64(it)?,
            code: dec(it.next()?)?,
            message: dec(it.next()?)?,
        },
        "finalized" => {
            let at = next_u64(it)?;
            let epoch = next_u64(it)?;
            let outcome = match it.next()? {
                "installed" => EpisodeOutcome::Installed {
                    masked_ports: next_usize(it)?,
                },
                "healed" => EpisodeOutcome::Healed,
                "rejected" => EpisodeOutcome::Rejected,
                "stale" => EpisodeOutcome::Stale,
                _ => return None,
            };
            JournalRecord::Finalized { at, epoch, outcome }
        }
        "snapshot" => {
            let mut s = ResponderSnapshot {
                last_epoch: next_u64(it)?,
                masked: decode_ports(it)?,
                suppressed: decode_links(it)?,
                ..ResponderSnapshot::default()
            };
            s.counters = ResponseCounters {
                links_down: next_u64(it)?,
                links_up: next_u64(it)?,
                reroutes: next_u64(it)?,
                reroutes_rejected: next_u64(it)?,
                heals: next_u64(it)?,
                purges: next_u64(it)?,
                purges_incomplete: next_u64(it)?,
                stale_detects: next_u64(it)?,
            };
            s.latency_dropped = next_u64(it)?;
            let n = next_usize(it)?;
            for _ in 0..n {
                s.latency.push(next_u64(it)?);
            }
            s.events_dropped = next_u64(it)?;
            let n = next_usize(it)?;
            for _ in 0..n {
                let at = next_u64(it)?;
                s.events.push((at, decode_event(it.next()?)?));
            }
            let n = next_usize(it)?;
            for _ in 0..n {
                let tok = it.next()?;
                let mut f = tok.split(',');
                s.fresh.push(ConfirmedTransition {
                    at: f.next()?.parse().ok()?,
                    link: LinkId::from(f.next()?.parse::<usize>().ok()?),
                    down: f.next()? == "1",
                });
            }
            s.health_confirmed = decode_links(it)?;
            let n = next_usize(it)?;
            for _ in 0..n {
                let tok = it.next()?;
                let mut f = tok.split(',');
                s.health_pending.push((
                    LinkId::from(f.next()?.parse::<usize>().ok()?),
                    f.next()?.parse().ok()?,
                    f.next()? == "1",
                ));
            }
            JournalRecord::Snapshot(Box::new(s))
        }
        _ => return None,
    };
    Some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Observed {
                link: LinkId::from(3usize),
                at: 100,
                down: true,
            },
            JournalRecord::Polled { now: 164 },
            JournalRecord::RespondStarted { detect: 170 },
            JournalRecord::PurgeStarted { at: 426 },
            JournalRecord::PurgeDone {
                at: 430,
                flits_left: 0,
                complete: true,
            },
            JournalRecord::Prepared {
                epoch: 1,
                masked: vec![(SwitchId::from(2usize), 1)],
            },
            JournalRecord::Vetted {
                epoch: 1,
                verdict: Ok(()),
            },
            JournalRecord::Committed { epoch: 1 },
            JournalRecord::Finalized {
                at: 430,
                epoch: 1,
                outcome: EpisodeOutcome::Installed { masked_ports: 1 },
            },
            JournalRecord::Aborted {
                at: 12,
                epoch: 2,
                code: "cdg-cycle".into(),
                message: "cycle via port 3 (worm shapes: asc)".into(),
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_the_wire_format() {
        let mut j = Journal::new(JournalConfig::default());
        let recs = sample_records();
        for r in &recs {
            j.append(r);
        }
        let back = j.records();
        assert_eq!(back.len(), recs.len());
        for (i, (seq, r)) in back.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(r, &recs[i]);
        }
    }

    #[test]
    fn snapshot_roundtrips_and_compacts() {
        let mut j = Journal::new(JournalConfig { snapshot_every: 4 });
        for r in sample_records() {
            j.append(&r);
        }
        assert!(j.wants_snapshot());
        let snap = ResponderSnapshot {
            last_epoch: 2,
            masked: vec![(SwitchId::from(1usize), 0)],
            suppressed: vec![LinkId::from(9usize)],
            counters: ResponseCounters {
                links_down: 3,
                reroutes: 1,
                ..ResponseCounters::default()
            },
            latency: vec![260, 281],
            latency_dropped: 1,
            events: vec![
                (
                    164,
                    ResponseEvent::LinkConfirmed {
                        link: LinkId::from(3usize),
                        down: true,
                    },
                ),
                (
                    430,
                    ResponseEvent::RerouteRejected {
                        code: "cdg-cycle".into(),
                        message: "has spaces & specials %".into(),
                    },
                ),
            ],
            events_dropped: 7,
            fresh: vec![ConfirmedTransition {
                at: 164,
                link: LinkId::from(3usize),
                down: true,
            }],
            health_confirmed: vec![LinkId::from(3usize)],
            health_pending: vec![(LinkId::from(5usize), 400, true)],
        };
        j.append(&JournalRecord::Snapshot(Box::new(snap.clone())));
        assert!(!j.wants_snapshot());
        let records = j.records();
        assert_eq!(records.len(), 1, "compaction dropped the prefix");
        match &records[0].1 {
            JournalRecord::Snapshot(s) => assert_eq!(**s, snap),
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn torn_snapshot_falls_back_to_the_records_it_summarized() {
        let mut j = Journal::new(JournalConfig { snapshot_every: 4 });
        let recs = sample_records();
        for r in &recs {
            j.append(r);
        }
        j.append(&JournalRecord::Snapshot(Box::new(ResponderSnapshot {
            last_epoch: 2,
            ..ResponderSnapshot::default()
        })));
        let store = j.store();
        // The crash tears the snapshot line itself. Deferred compaction
        // means the summarized records are still physically present.
        Journal::tear_tail(&store, 10);
        let (_, records) = Journal::reopen(store, JournalConfig::default());
        assert_eq!(records.len(), recs.len(), "pre-snapshot records survive");
        assert_eq!(records[0].1, recs[0]);
    }

    #[test]
    fn durable_snapshot_compacts_on_next_append_and_reopen() {
        let mut j = Journal::new(JournalConfig { snapshot_every: 4 });
        for r in sample_records() {
            j.append(&r);
        }
        let pre = j.len_bytes();
        j.append(&JournalRecord::Snapshot(Box::default()));
        assert!(j.len_bytes() > pre, "compaction is deferred");
        j.append(&JournalRecord::Committed { epoch: 3 });
        assert!(j.len_bytes() < pre, "next append proved it durable");
        let records = j.records();
        assert_eq!(records.len(), 2, "snapshot + the record after it");

        // Reopen also compacts behind an intact snapshot.
        let (j2, replay) = Journal::reopen(j.store(), JournalConfig::default());
        assert_eq!(replay.len(), 2);
        assert_eq!(j2.len_bytes(), j.len_bytes());
    }

    #[test]
    fn torn_tail_is_dropped_and_reopen_resumes_sequencing() {
        let mut j = Journal::new(JournalConfig::default());
        for r in sample_records() {
            j.append(&r);
        }
        let store = j.store();
        let full = Journal::reopen(store.clone(), JournalConfig::default())
            .1
            .len();
        // Tear a few bytes off the last line: its checksum cannot match.
        Journal::tear_tail(&store, 5);
        let (mut j2, records) = Journal::reopen(store.clone(), JournalConfig::default());
        assert_eq!(records.len(), full - 1, "torn record was never durable");
        // The write end resumes after the last durable seq and appends fine.
        j2.append(&JournalRecord::Committed { epoch: 9 });
        let records = j2.records();
        assert_eq!(records.last().unwrap().0, full as u64 - 1);
        assert_eq!(
            records.last().unwrap().1,
            JournalRecord::Committed { epoch: 9 }
        );
    }

    #[test]
    fn duplicated_tail_replays_with_stable_seqs() {
        // A crashed writer may duplicate its tail; sequence numbers make
        // the duplicates detectable (same seq) so replay skips them.
        let mut j = Journal::new(JournalConfig::default());
        for r in sample_records() {
            j.append(&r);
        }
        let store = j.store();
        let tail: String = {
            let s = store.borrow();
            let lines: Vec<&str> = s.lines().collect();
            format!("{}\n{}\n", lines[lines.len() - 2], lines[lines.len() - 1])
        };
        store.borrow_mut().push_str(&tail);
        let (_, records) = Journal::reopen(store, JournalConfig::default());
        let n = records.len();
        assert_eq!(records[n - 1].0, records[n - 3].0, "duplicate tail seqs");
    }

    #[test]
    fn mid_log_corruption_fences_everything_after() {
        let mut j = Journal::new(JournalConfig::default());
        for r in sample_records() {
            j.append(&r);
        }
        let store = j.store();
        let corrupted = store.borrow().replacen("respond", "fespond", 1);
        *store.borrow_mut() = corrupted;
        let (_, records) = Journal::reopen(store, JournalConfig::default());
        assert_eq!(records.len(), 2, "only records before the flip survive");
    }

    /// Seeded fuzz over the reader: arbitrary tails (random characters,
    /// newlines, ` #` checksum markers, valid record lines with one
    /// character changed) after a valid store. `reopen` never panics,
    /// returns exactly the records of the store without the tail,
    /// truncates the bytes back to them, and numbers the next append
    /// right after them.
    #[test]
    fn arbitrary_tails_recover_the_intact_prefix() {
        use netsim::rng::SimRng;
        const CHARS: &[char] = &[
            'v', '1', ' ', '#', '\n', '0', '9', 'a', 'f', ':', ',', '%', '-', '\u{e9}', '\u{fffd}',
        ];
        let valid_lines: Vec<String> = {
            let mut j = Journal::new(JournalConfig::default());
            for r in sample_records() {
                j.append(&r);
            }
            let text = j.store().borrow().clone();
            text.lines().map(|l| format!("{l}\n")).collect()
        };
        let mut rng = SimRng::new(0x70A1_0F22);
        let mut mutated = 0;
        for case in 0..2_000 {
            // A valid store: a prefix of the sample records, sometimes
            // with a snapshot in the middle.
            let mut j = Journal::new(JournalConfig::default());
            let n = rng.below(sample_records().len() + 1);
            let snapshot_at = (rng.below(3) == 0).then_some(n / 2);
            for (i, r) in sample_records().iter().take(n).enumerate() {
                if snapshot_at == Some(i) {
                    j.append(&JournalRecord::Snapshot(Box::default()));
                }
                j.append(r);
            }
            let clean = j.store().borrow().clone();
            let (clean_journal, expected) = Journal::reopen(
                Rc::new(RefCell::new(clean.clone())),
                JournalConfig::default(),
            );
            let expected_bytes = clean_journal.store().borrow().clone();

            let mut tail = String::new();
            for _ in 0..1 + rng.below(4) {
                match rng.below(4) {
                    0 => {
                        for _ in 0..rng.below(16) {
                            tail.push(CHARS[rng.below(CHARS.len())]);
                        }
                    }
                    1 => tail.push('\n'),
                    2 => tail.push_str(" #"),
                    _ => {
                        let mut line: Vec<char> =
                            valid_lines[rng.below(valid_lines.len())].chars().collect();
                        let at = rng.below(line.len() - 1);
                        let other = CHARS.iter().filter(|&&c| c != line[at]);
                        line[at] = *other.clone().nth(rng.below(other.count())).unwrap();
                        tail.extend(line);
                        mutated += 1;
                    }
                }
            }
            let store = Rc::new(RefCell::new(format!("{clean}{tail}")));
            let (mut reopened, records) = Journal::reopen(store.clone(), JournalConfig::default());
            assert_eq!(records, expected, "case {case}: tail {tail:?}");
            assert_eq!(
                *store.borrow(),
                expected_bytes,
                "case {case}: tail {tail:?}"
            );
            reopened.append(&JournalRecord::Committed { epoch: 99 });
            let next = expected.last().map_or(0, |&(seq, _)| seq + 1);
            assert_eq!(
                reopened.records().last(),
                Some(&(next, JournalRecord::Committed { epoch: 99 })),
                "case {case}: tail {tail:?}"
            );
        }
        assert!(mutated > 500, "only {mutated} mutated records");
    }
}
