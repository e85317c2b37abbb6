//! Transition cores of the switch protocols: plain state machines with no
//! I/O and no access to simulator internals.
//!
//! The chunk-allocate / replicate / credit-return logic of both switch
//! architectures lives here as plain value types. Each transition is one
//! mutating method of its state type, which allocates nothing on the
//! per-flit paths:
//!
//! * [`CqState`] ([`CqState::try_reserve`], [`CqState::release_chunk`]) —
//!   central-queue space accounting with the descending-traffic reserve
//!   and per-class single-waiter reservation accumulators (paper §4: "a
//!   packet accepted for transmission can eventually be completely
//!   buffered");
//! * [`ReplState`] ([`ReplState::set_branches`], [`ReplState::write_flit`],
//!   [`ReplState::release`]) — the shared writer of a packet stored once
//!   in the central queue, with per-chunk reference counts freed by the
//!   slowest branch (asynchronous replication);
//! * [`IbHeadState`] ([`IbHeadState::grant`], [`IbHeadState::read_flit`],
//!   [`IbHeadState::read_lockstep`], [`IbHeadState::recycle`]) — per-branch
//!   read cursors, grants, and FIFO credit recycle of the input-buffered
//!   head packet (paper §5).
//!
//! The live simulators ([`crate::CentralBufferSwitch`],
//! [`crate::InputBufferedSwitch`]) call these methods on their own state;
//! the bounded model checker (`mdw-analysis`'s `model` module) calls the
//! very same methods on a clone per explored transition, over abstract
//! fabrics. Both run one body — that is the point of the extraction.
//! [`CqState`]'s fields are private, so nothing but its own methods can
//! change central-queue accounting.
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
/// The fields are private: [`CqState::new`], [`CqState::try_reserve`] and
/// [`CqState::release_chunk`] are the only writers, so the live switch and
/// the model checker cannot account chunks any other way.
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
    /// reserve floor) the ascending waiter, then the pool.
    ///
    /// # Panics
    ///
    /// Panics on chunk over-release (more releases than allocated chunks)
    /// — a protocol violation, not a reachable state.
    pub fn release_chunk(&mut self) {
        if let Some(r) = &mut self.resv_desc {
            if r.got < r.need {
                r.got += 1;
                return;
            }
        }
        if self.free >= self.reserve {
            if let Some(r) = &mut self.resv_asc {
                if r.got < r.need {
                    r.got += 1;
                    return;
                }
            }
        }
        self.free += 1;
        assert!(
            self.free <= self.capacity,
            "central-queue chunk over-released past capacity"
        );
    }

    /// Attempts the full-packet reservation for input `i` needing `need`
    /// chunks of the given class, via the class's accumulator; returns
    /// `true` on grant. A refused request that finds its class's
    /// accumulator empty claims it with whatever the class may take now.
    pub fn try_reserve(&mut self, i: usize, need: usize, descending: bool) -> bool {
        let avail = if descending {
            self.free
        } else {
            self.free.saturating_sub(self.reserve)
        };
        let slot = if descending {
            &mut self.resv_desc
        } else {
            &mut self.resv_asc
        };
        match slot {
            Some(r) if r.input == i => {
                let granted = r.got == r.need;
                if granted {
                    *slot = None;
                }
                granted
            }
            Some(_) => false,
            None if avail >= need => {
                self.free -= need;
                true
            }
            None => {
                self.free -= avail;
                *slot = Some(ResvSlot {
                    input: i,
                    need,
                    got: avail,
                });
                false
            }
        }
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

    /// Absorbs one flit, allocating a fresh chunk first when the previous
    /// one is full (space is guaranteed by the admission reservation).
    ///
    /// # Panics
    ///
    /// Panics on a write past `total`.
    pub fn write_flit(&mut self) {
        assert!(self.written < self.total, "write past end of packet");
        if self.needs_chunk() {
            self.refs.push(self.n_branches);
        }
        self.written += 1;
    }

    /// Sets the branch fan-out once the routing decision is made; chunks
    /// already written (absorption may precede the decision) are fixed
    /// up.
    ///
    /// # Panics
    ///
    /// Panics unless the fan-out fits `u8`.
    pub fn set_branches(&mut self, n: usize) {
        let n = u8::try_from(n).expect("fan-out fits in u8");
        self.n_branches = n;
        self.refs.fill(n);
    }

    /// One branch finished reading chunk `idx`; returns `true` if the
    /// chunk is now free (its last reader left).
    ///
    /// # Panics
    ///
    /// Panics on over-releasing a chunk.
    pub fn release(&mut self, idx: usize) -> bool {
        let r = &mut self.refs[idx];
        assert!(*r > 0, "chunk {idx} over-released");
        *r -= 1;
        *r == 0
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

    /// Grants branch `branch` its output.
    ///
    /// # Panics
    ///
    /// Panics on granting a granted or done branch.
    pub fn grant(&mut self, branch: usize) {
        let b = &mut self.branches[branch];
        assert!(!b.granted && !b.done, "grant to a granted or done branch");
        b.granted = true;
    }

    /// Streams one flit on branch `branch` (asynchronous replication);
    /// returns `true` when the branch just finished.
    ///
    /// # Panics
    ///
    /// Panics on a read without an active grant or past `total`.
    pub fn read_flit(&mut self, branch: usize) -> bool {
        let total = self.total;
        let b = &mut self.branches[branch];
        assert!(b.granted && !b.done, "read without an active grant");
        assert!(b.read < total, "read past end of packet");
        b.read += 1;
        b.done = b.read == total;
        b.done
    }

    /// Streams one flit on every branch in lock-step (synchronous
    /// replication — the rejected alternative the checker shows
    /// deadlocks); returns the ports of branches that just finished.
    ///
    /// # Panics
    ///
    /// Panics unless every branch is granted and live with equal cursors
    /// short of `total`.
    pub fn read_lockstep(&mut self) -> Vec<usize> {
        assert!(
            self.branches.iter().all(|b| b.granted && !b.done),
            "lock-step read requires every branch granted and live"
        );
        let read = self.branches[0].read;
        assert!(
            self.branches.iter().all(|b| b.read == read),
            "lock-step branches diverged"
        );
        assert!(read < self.total, "read past end of packet");
        let total = self.total;
        let mut done_ports = Vec::new();
        for b in &mut self.branches {
            b.read += 1;
            if b.read == total {
                b.done = true;
                done_ports.push(b.port);
            }
        }
        done_ports
    }

    /// Advances the credit-recycle watermark to the slowest branch;
    /// returns the credits to send upstream (freshly recycled flits).
    pub fn recycle(&mut self) -> u16 {
        let min_read = self.min_read();
        let newly = min_read - self.freed;
        self.freed = min_read;
        newly
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
mod method_tests {
    use super::*;

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
