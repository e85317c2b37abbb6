//! Transition cores of the switch protocols: plain state machines with no
//! I/O and no access to simulator internals.
//!
//! The chunk-allocate / replicate / credit-return logic of both switch
//! architectures lives here as plain value types. Each machine has one
//! transition body, `apply(&mut state, event) -> effect`, which mutates in
//! place and allocates nothing on the per-flit paths; the pure
//! `step(&state, event) -> (state, effect)` form the model checker
//! explores is a clone plus that same body:
//!
//! * [`CqState`] / [`cq_apply`] — central-queue space accounting with the
//!   descending-traffic reserve and per-class single-waiter reservation
//!   accumulators (paper §4: "a packet accepted for transmission can
//!   eventually be completely buffered");
//! * [`ReplState`] / [`repl_apply`] — the shared writer of a packet stored
//!   once in the central queue, with per-chunk reference counts freed by
//!   the slowest branch (asynchronous replication);
//! * [`IbHeadState`] / [`ib_apply`] — per-branch read cursors, grants, and
//!   FIFO credit recycle of the input-buffered head packet (paper §5).
//!
//! The live simulators ([`crate::CentralBufferSwitch`],
//! [`crate::InputBufferedSwitch`]) drive these cores in place through the
//! mutating convenience wrappers; the bounded model checker
//! (`mdw-analysis`'s `model` module) explores the very same transition
//! bodies, through [`cq_step`] / [`repl_step`] / [`ib_step`], over
//! abstract fabrics. Both run one body — that is the point of the
//! extraction. [`CqState`]'s fields are private, so nothing but
//! [`cq_apply`] and [`CqState::new`] can change central-queue accounting.
//!
//! Every state type derives `Clone + PartialEq + Eq + Hash` so the model
//! checker can use it directly as a canonical hash key.

/// A pending full-packet reservation accumulating freed chunks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResvSlot {
    /// Input port (or virtual input) that owns the accumulator.
    pub input: usize,
    /// Chunks the reservation needs in total.
    pub need: usize,
    /// Chunks accumulated so far.
    pub got: usize,
}

/// Central-queue space accounting with a descending-traffic reserve and one
/// reservation accumulator per traffic class.
///
/// * `reserve` chunks can never be consumed by *ascending* packets (those
///   arriving from hosts or children), so a descending packet — which is
///   guaranteed to drain toward the hosts — can always eventually buffer
///   here. This breaks the store-and-forward cycles a shared queue would
///   otherwise allow (see [`crate::config::SwitchConfig::cq_down_reserve`]).
/// * Each class has a single-waiter accumulator: the first worm of a class
///   that cannot reserve immediately claims freed chunks (descending
///   waiters first; ascending waiters only above the reserve floor) until
///   its demand is met, so streams of small packets cannot starve a large
///   worm and two worms never hold mutually blocking partial reservations.
///
/// The fields are private: [`CqState::new`] and [`cq_apply`] are the only
/// writers, so the live switch and the model checker cannot account chunks
/// any other way.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CqState {
    /// Total chunk capacity.
    capacity: usize,
    /// Chunks neither allocated nor accumulated by a waiter.
    free: usize,
    /// Floor of free chunks ascending packets may never dip below.
    reserve: usize,
    /// Accumulator of the waiting descending reservation, if any.
    resv_desc: Option<ResvSlot>,
    /// Accumulator of the waiting ascending reservation, if any.
    resv_asc: Option<ResvSlot>,
}

/// One input event of the central-queue accounting machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqEvent {
    /// Input `input` asks for the full-packet reservation of `need` chunks
    /// in the given traffic class.
    Reserve {
        /// Requesting input port (or virtual input).
        input: usize,
        /// Chunks the whole packet occupies.
        need: usize,
        /// `true` if the packet arrived through an up port (descending).
        descending: bool,
    },
    /// One chunk's last reader finished; route it to a waiter or the pool.
    Release,
}

/// The observable outcome of one [`cq_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqEffect {
    /// The reservation was granted; the caller may start absorbing.
    Granted,
    /// The reservation is not (yet) granted; the caller must retry.
    Denied,
    /// A released chunk was routed (to a waiter or back to the pool).
    Released,
}

/// The transition body of the central-queue accounting machine: applies
/// `event` to `s` in place and returns its observable outcome.
///
/// # Panics
///
/// Panics on chunk over-release (more [`CqEvent::Release`]s than allocated
/// chunks) — a protocol violation, not a reachable state.
pub fn cq_apply(s: &mut CqState, event: CqEvent) -> CqEffect {
    match event {
        CqEvent::Release => {
            if let Some(r) = &mut s.resv_desc {
                if r.got < r.need {
                    r.got += 1;
                    return CqEffect::Released;
                }
            }
            if s.free >= s.reserve {
                if let Some(r) = &mut s.resv_asc {
                    if r.got < r.need {
                        r.got += 1;
                        return CqEffect::Released;
                    }
                }
            }
            s.free += 1;
            assert!(
                s.free <= s.capacity,
                "central-queue chunk over-released past capacity"
            );
            CqEffect::Released
        }
        CqEvent::Reserve {
            input,
            need,
            descending,
        } => {
            let avail = if descending {
                s.free
            } else {
                s.free.saturating_sub(s.reserve)
            };
            let slot = if descending {
                &mut s.resv_desc
            } else {
                &mut s.resv_asc
            };
            match slot {
                Some(r) if r.input == input => {
                    if r.got == r.need {
                        *slot = None;
                        CqEffect::Granted
                    } else {
                        CqEffect::Denied
                    }
                }
                Some(_) => CqEffect::Denied,
                None => {
                    if avail >= need {
                        s.free -= need;
                        CqEffect::Granted
                    } else {
                        s.free -= avail;
                        *slot = Some(ResvSlot {
                            input,
                            need,
                            got: avail,
                        });
                        CqEffect::Denied
                    }
                }
            }
        }
    }
}

/// The pure transition function of the central-queue accounting machine:
/// [`cq_apply`] on a clone of `state`.
///
/// # Panics
///
/// As [`cq_apply`].
pub fn cq_step(state: &CqState, event: CqEvent) -> (CqState, CqEffect) {
    let mut s = state.clone();
    let effect = cq_apply(&mut s, event);
    (s, effect)
}

impl CqState {
    /// A pristine pool.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity >= 2 * reserve` (the sizing rule
    /// [`crate::config::SwitchConfig::validate`] enforces).
    pub fn new(capacity: usize, reserve: usize) -> Self {
        assert!(capacity >= 2 * reserve, "validated by SwitchConfig");
        CqState {
            capacity,
            free: capacity,
            reserve,
            resv_desc: None,
            resv_asc: None,
        }
    }

    /// Total chunk capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Chunks neither allocated nor accumulated by a waiter.
    pub fn free(&self) -> usize {
        self.free
    }

    /// The waiting reservations' accumulators: descending, then ascending.
    pub fn waiters(&self) -> [Option<&ResvSlot>; 2] {
        [self.resv_desc.as_ref(), self.resv_asc.as_ref()]
    }

    /// Chunks accumulated by the waiting reservations.
    pub fn waiter_held(&self) -> usize {
        self.resv_desc.as_ref().map_or(0, |r| r.got) + self.resv_asc.as_ref().map_or(0, |r| r.got)
    }

    /// Chunks holding (or reserved for) packet data.
    pub fn used(&self) -> usize {
        self.capacity - self.free - self.waiter_held()
    }

    /// Routes a freed chunk: descending waiter first, then (above the
    /// reserve floor) the ascending waiter, then the pool. In-place
    /// wrapper over [`cq_apply`].
    pub fn release_chunk(&mut self) {
        cq_apply(self, CqEvent::Release);
    }

    /// Attempts the full-packet reservation for input `i` needing `need`
    /// chunks of the given class, via the class's accumulator. In-place
    /// wrapper over [`cq_apply`]; returns `true` on grant.
    pub fn try_reserve(&mut self, i: usize, need: usize, descending: bool) -> bool {
        let event = CqEvent::Reserve {
            input: i,
            need,
            descending,
        };
        cq_apply(self, event) == CqEffect::Granted
    }
}

/// Shared writer-side state of one packet stored once in the central
/// queue.
///
/// Branch readers never overtake `written` (cut-through at flit
/// granularity); chunk reference counts start at the branch fan-out and
/// the last reader frees the chunk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReplState {
    /// Total flits of the packet.
    pub total: u16,
    /// Flits absorbed so far.
    pub written: u16,
    /// Flits per central-queue chunk.
    pub chunk_flits: u16,
    /// Branch fan-out (0 until the routing decision fixes it).
    pub n_branches: u8,
    /// Remaining readers per chunk sequence number.
    pub refs: Vec<u8>,
}

/// One input event of the shared-writer / replication machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplEvent {
    /// The routing decision fixed the branch fan-out at `n`; chunks already
    /// written (absorption may precede decision) are fixed up.
    SetBranches(usize),
    /// One flit moved from staging into the central queue, allocating a
    /// fresh chunk first when the previous one is full.
    WriteFlit,
    /// One branch finished reading chunk `idx`.
    ReleaseChunk(usize),
}

/// The observable outcome of one [`repl_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplEffect {
    /// State updated; nothing for the caller to propagate.
    None,
    /// The write allocated a fresh chunk (space was pre-reserved).
    ChunkAllocated,
    /// The released chunk's last reader left; return it to the pool
    /// (a [`CqEvent::Release`] on the owning queue).
    ChunkFreed,
}

/// The transition body of the shared-writer machine: applies `event` to
/// `s` in place and returns its observable outcome.
///
/// # Panics
///
/// Panics on protocol violations: fan-out not fitting `u8`, writing past
/// `total`, or over-releasing a chunk.
pub fn repl_apply(s: &mut ReplState, event: ReplEvent) -> ReplEffect {
    match event {
        ReplEvent::SetBranches(n) => {
            let n = u8::try_from(n).expect("fan-out fits in u8");
            s.n_branches = n;
            s.refs.fill(n);
            ReplEffect::None
        }
        ReplEvent::WriteFlit => {
            assert!(s.written < s.total, "write past end of packet");
            let allocated = s.needs_chunk();
            if allocated {
                s.refs.push(s.n_branches);
            }
            s.written += 1;
            if allocated {
                ReplEffect::ChunkAllocated
            } else {
                ReplEffect::None
            }
        }
        ReplEvent::ReleaseChunk(idx) => {
            let r = &mut s.refs[idx];
            assert!(*r > 0, "chunk {idx} over-released");
            *r -= 1;
            if *r == 0 {
                ReplEffect::ChunkFreed
            } else {
                ReplEffect::None
            }
        }
    }
}

/// The pure transition function of the shared-writer machine:
/// [`repl_apply`] on a clone of `state`.
///
/// # Panics
///
/// As [`repl_apply`].
pub fn repl_step(state: &ReplState, event: ReplEvent) -> (ReplState, ReplEffect) {
    let mut s = state.clone();
    let effect = repl_apply(&mut s, event);
    (s, effect)
}

impl ReplState {
    /// A fresh writer for a packet of `total` flits.
    pub fn new(total: u16, chunk_flits: u16) -> Self {
        ReplState {
            total,
            written: 0,
            chunk_flits,
            n_branches: 0,
            refs: Vec::new(),
        }
    }

    /// Builds the write state of a switch-synthesized packet: fully
    /// written, ready for its branches to stream.
    pub fn synthesized(total: u16, chunk_flits: u16, n_branches: usize) -> Self {
        let mut w = ReplState::new(total, chunk_flits);
        w.set_branches(n_branches);
        while w.written < w.total {
            w.write_flit();
        }
        w
    }

    /// `true` when writing the next flit requires allocating a fresh chunk.
    pub fn needs_chunk(&self) -> bool {
        self.written < self.total && self.written.is_multiple_of(self.chunk_flits)
    }

    /// Absorbs one flit (allocating a chunk when needed; space is
    /// guaranteed by the admission reservation). In-place wrapper over
    /// [`repl_apply`].
    pub fn write_flit(&mut self) {
        repl_apply(self, ReplEvent::WriteFlit);
    }

    /// Sets the branch fan-out once the routing decision is made. In-place
    /// wrapper over [`repl_apply`].
    pub fn set_branches(&mut self, n: usize) {
        repl_apply(self, ReplEvent::SetBranches(n));
    }

    /// One branch finished reading chunk `idx`; returns `true` if the
    /// chunk is now free. In-place wrapper over [`repl_apply`].
    pub fn release(&mut self, idx: usize) -> bool {
        repl_apply(self, ReplEvent::ReleaseChunk(idx)) == ReplEffect::ChunkFreed
    }
}

/// Progress of one output branch of an input-buffered head packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BranchState {
    /// Output port the branch streams through.
    pub port: usize,
    /// Flits read (sent) by this branch.
    pub read: u16,
    /// The branch holds its output transmitter.
    pub granted: bool,
    /// The branch has streamed the whole packet.
    pub done: bool,
}

/// Pure state of the input-buffered head packet: per-branch read cursors,
/// grants, and the FIFO credit-recycle watermark.
///
/// Buffer space is recycled as the *slowest* branch advances: the flits
/// every branch has passed can never be read again, so their credits go
/// back upstream. Because the head packet always fits completely in its
/// buffer, an accepted packet can always be fully buffered — the paper's
/// deadlock-freedom condition for this architecture.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IbHeadState {
    /// Total flits of the head packet.
    pub total: u16,
    /// One entry per output branch of the routing decision.
    pub branches: Vec<BranchState>,
    /// Flits already recycled upstream (the previous min-read watermark).
    pub freed: u16,
}

/// One input event of the input-buffered head machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbEvent {
    /// Branch `branch` won its output-port arbitration.
    Grant {
        /// Index into [`IbHeadState::branches`].
        branch: usize,
    },
    /// Branch `branch` streams one flit (asynchronous replication).
    ReadFlit {
        /// Index into [`IbHeadState::branches`].
        branch: usize,
    },
    /// Every branch streams one flit in lock-step (synchronous
    /// replication — the rejected alternative the checker shows deadlocks).
    ReadLockStep,
    /// Advance the credit-recycle watermark to the slowest branch.
    Recycle,
}

/// The observable outcome of one [`ib_step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IbEffect {
    /// State updated; nothing for the caller to propagate.
    None,
    /// These output ports' branches just finished; their transmitters are
    /// released.
    BranchesDone(Vec<usize>),
    /// Return this many credits upstream (freshly recycled buffer flits).
    Credits(u16),
}

/// The transition body of the input-buffered head machine: applies
/// `event` to `s` in place and returns its observable outcome.
///
/// # Panics
///
/// Panics on protocol violations: granting a granted/done branch, reading
/// past `total` or without a grant, or lock-step reading with diverged
/// cursors.
pub fn ib_apply(s: &mut IbHeadState, event: IbEvent) -> IbEffect {
    match event {
        IbEvent::Grant { branch } => {
            let b = &mut s.branches[branch];
            assert!(!b.granted && !b.done, "grant to a granted or done branch");
            b.granted = true;
            IbEffect::None
        }
        IbEvent::ReadFlit { branch } => {
            let total = s.total;
            let b = &mut s.branches[branch];
            assert!(b.granted && !b.done, "read without an active grant");
            assert!(b.read < total, "read past end of packet");
            b.read += 1;
            if b.read == total {
                b.done = true;
                IbEffect::BranchesDone(vec![b.port])
            } else {
                IbEffect::None
            }
        }
        IbEvent::ReadLockStep => {
            assert!(
                s.branches.iter().all(|b| b.granted && !b.done),
                "lock-step read requires every branch granted and live"
            );
            let read = s.branches[0].read;
            assert!(
                s.branches.iter().all(|b| b.read == read),
                "lock-step branches diverged"
            );
            assert!(read < s.total, "read past end of packet");
            let total = s.total;
            let mut done_ports = Vec::new();
            for b in &mut s.branches {
                b.read += 1;
                if b.read == total {
                    b.done = true;
                    done_ports.push(b.port);
                }
            }
            if done_ports.is_empty() {
                IbEffect::None
            } else {
                IbEffect::BranchesDone(done_ports)
            }
        }
        IbEvent::Recycle => {
            let min_read = s.min_read();
            let newly = min_read - s.freed;
            s.freed = min_read;
            IbEffect::Credits(newly)
        }
    }
}

/// The pure transition function of the input-buffered head machine:
/// [`ib_apply`] on a clone of `state`.
///
/// # Panics
///
/// As [`ib_apply`].
pub fn ib_step(state: &IbHeadState, event: IbEvent) -> (IbHeadState, IbEffect) {
    let mut s = state.clone();
    let effect = ib_apply(&mut s, event);
    (s, effect)
}

impl IbHeadState {
    /// A freshly decoded head packet with branches on `ports`.
    pub fn new(total: u16, ports: impl IntoIterator<Item = usize>) -> Self {
        IbHeadState {
            total,
            branches: ports
                .into_iter()
                .map(|port| BranchState {
                    port,
                    read: 0,
                    granted: false,
                    done: false,
                })
                .collect(),
            freed: 0,
        }
    }

    /// Grants branch `branch` its output. In-place wrapper over
    /// [`ib_apply`].
    pub fn grant(&mut self, branch: usize) {
        ib_apply(self, IbEvent::Grant { branch });
    }

    /// Streams one flit on branch `branch`; returns `true` when the branch
    /// just finished. In-place wrapper over [`ib_apply`].
    pub fn read_flit(&mut self, branch: usize) -> bool {
        matches!(
            ib_apply(self, IbEvent::ReadFlit { branch }),
            IbEffect::BranchesDone(_)
        )
    }

    /// Streams one flit on every branch in lock-step; returns the ports of
    /// branches that just finished. In-place wrapper over [`ib_apply`].
    pub fn read_lockstep(&mut self) -> Vec<usize> {
        match ib_apply(self, IbEvent::ReadLockStep) {
            IbEffect::BranchesDone(ports) => ports,
            _ => Vec::new(),
        }
    }

    /// Advances the recycle watermark; returns the credits to send
    /// upstream. In-place wrapper over [`ib_apply`].
    pub fn recycle(&mut self) -> u16 {
        match ib_apply(self, IbEvent::Recycle) {
            IbEffect::Credits(n) => n,
            _ => 0,
        }
    }

    /// Every branch has streamed the whole packet.
    pub fn all_done(&self) -> bool {
        self.branches.iter().all(|b| b.done)
    }

    /// The slowest branch's read cursor (flits no longer re-readable).
    pub fn min_read(&self) -> u16 {
        self.branches
            .iter()
            .map(|b| b.read)
            .min()
            .expect("at least one branch")
    }
}

#[cfg(test)]
mod accounting_tests {
    use super::CqState;

    #[test]
    fn immediate_grant_when_space_allows() {
        let mut cq = CqState::new(32, 8);
        // Descending can take everything.
        assert!(cq.try_reserve(0, 32, true));
        assert_eq!(cq.free(), 0);
        assert_eq!(cq.used(), 32);
    }

    #[test]
    fn ascending_respects_the_reserve_floor() {
        let mut cq = CqState::new(32, 8);
        // Ascending can use at most capacity - reserve = 24.
        assert!(cq.try_reserve(0, 24, false));
        assert_eq!(cq.free(), 8);
        // Next ascending worm must wait even though 8 chunks are free...
        assert!(!cq.try_reserve(1, 4, false));
        // ...but a descending worm takes them immediately.
        assert!(cq.try_reserve(2, 8, true));
        assert_eq!(cq.free(), 0);
    }

    #[test]
    fn descending_waiter_accumulates_first() {
        let mut cq = CqState::new(32, 8);
        assert!(cq.try_reserve(0, 32, true));
        // Descending waiter for 4 chunks.
        assert!(!cq.try_reserve(1, 4, true));
        // Ascending waiter for 2 chunks queues behind in its own class.
        assert!(!cq.try_reserve(2, 2, false));
        // Four releases feed the descending waiter exclusively.
        for _ in 0..4 {
            cq.release_chunk();
        }
        assert!(cq.try_reserve(1, 4, true), "descending waiter satisfied");
        // Further releases first refill free up to the reserve, then feed
        // the ascending waiter.
        for _ in 0..8 {
            cq.release_chunk();
        }
        assert_eq!(cq.free(), 8, "reserve refilled");
        assert!(!cq.try_reserve(2, 2, false), "still accumulating");
        cq.release_chunk();
        cq.release_chunk();
        assert!(cq.try_reserve(2, 2, false), "ascending waiter satisfied");
    }

    #[test]
    fn waiter_slots_are_single_occupancy_per_class() {
        let mut cq = CqState::new(32, 8);
        assert!(cq.try_reserve(0, 24, false));
        assert!(!cq.try_reserve(1, 4, false), "input 1 takes the slot");
        assert!(!cq.try_reserve(2, 4, false), "input 2 must wait for it");
        for _ in 0..4 {
            cq.release_chunk();
        }
        assert!(
            !cq.try_reserve(2, 4, false),
            "slot still belongs to input 1"
        );
        assert!(cq.try_reserve(1, 4, false), "owner collects");
        assert!(!cq.try_reserve(2, 4, false), "input 2 now owns the slot");
    }

    #[test]
    fn used_counts_waiter_holdings_as_not_used_data() {
        let mut cq = CqState::new(16, 4);
        assert!(cq.try_reserve(0, 10, true));
        assert!(!cq.try_reserve(1, 8, true)); // waiter grabs the free 6
        assert_eq!(cq.free(), 0);
        assert_eq!(cq.used(), 10, "waiter holdings are held, not data");
        cq.release_chunk();
        assert_eq!(cq.used(), 9);
    }
}

#[cfg(test)]
mod step_tests {
    use super::*;

    #[test]
    fn cq_step_is_pure() {
        let s0 = CqState::new(8, 2);
        let (s1, e1) = cq_step(
            &s0,
            CqEvent::Reserve {
                input: 0,
                need: 4,
                descending: false,
            },
        );
        assert_eq!(e1, CqEffect::Granted);
        assert_eq!(s0.free(), 8, "input state untouched");
        assert_eq!(s1.free(), 4);
        // Replaying the same event from the same state gives the same
        // result.
        let (s1b, e1b) = cq_step(
            &s0,
            CqEvent::Reserve {
                input: 0,
                need: 4,
                descending: false,
            },
        );
        assert_eq!((s1, e1), (s1b, e1b));
    }

    #[test]
    fn repl_refcounts_free_on_last_reader() {
        let mut w = ReplState::new(16, 8); // 2 chunks
        w.set_branches(3);
        for _ in 0..16 {
            w.write_flit();
        }
        assert_eq!(w.refs, vec![3, 3]);
        assert!(!w.release(0));
        assert!(!w.release(0));
        assert!(w.release(0), "last reader frees the chunk");
        assert!(!w.release(1));
        assert!(!w.release(1));
        assert!(w.release(1));
    }

    #[test]
    fn repl_synthesized_is_fully_written() {
        let w = ReplState::synthesized(20, 8, 2);
        assert_eq!(w.written, 20);
        assert_eq!(w.refs, vec![2, 2, 2]);
        assert!(!w.needs_chunk());
    }

    #[test]
    fn ib_head_recycles_at_the_slowest_branch() {
        let mut h = IbHeadState::new(4, [1, 3]);
        h.grant(0);
        h.grant(1);
        assert!(!h.read_flit(0));
        assert!(!h.read_flit(0));
        assert_eq!(h.recycle(), 0, "slowest branch has not moved");
        assert!(!h.read_flit(1));
        assert_eq!(h.recycle(), 1, "watermark follows the minimum");
        assert_eq!(h.freed, 1);
        for _ in 0..2 {
            h.read_flit(0);
        }
        for _ in 0..3 {
            h.read_flit(1);
        }
        assert!(h.all_done());
        assert_eq!(h.recycle(), 3, "remaining flits recycled");
    }

    #[test]
    fn ib_lockstep_finishes_all_branches_together() {
        let mut h = IbHeadState::new(2, [0, 2, 3]);
        for b in 0..3 {
            h.grant(b);
        }
        assert!(h.read_lockstep().is_empty());
        let done = h.read_lockstep();
        assert_eq!(done, vec![0, 2, 3]);
        assert!(h.all_done());
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn repl_over_release_panics() {
        let mut w = ReplState::new(8, 8);
        w.set_branches(1);
        for _ in 0..8 {
            w.write_flit();
        }
        w.release(0);
        w.release(0);
    }
}
