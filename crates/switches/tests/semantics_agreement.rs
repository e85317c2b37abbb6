//! The switch protocols of `switches::semantics` against their own
//! invariants and against a live switch.
//!
//! Randomized throughout (hand-rolled property tests over
//! `netsim::rng::SimRng` — the container has no proptest, and the seeded
//! generator keeps every failure reproducible from its case number):
//!
//! * **live drain** — a real `CentralBufferSwitch` runs random contended
//!   traffic through a small central queue; every flit must be delivered
//!   and every chunk must be back in the pool at quiescence. The switch
//!   accounts chunks only through `CqState`, whose fields only its own
//!   methods write.
//! * **method walks** — seeded random legal walks of each machine's
//!   methods (`CqState::try_reserve`/`release_chunk`, `ReplState`'s
//!   writer and refcounted release, `IbHeadState::grant`/`read_flit`/
//!   `read_lockstep`/`recycle`) check chunk conservation, chunk demand,
//!   last-reader frees and the credit ledger after every step. The live
//!   switches and the model checker call these same methods.

use mintopo::route::RouteTables;
use mintopo::topology::TopologyBuilder;
use netsim::engine::{Component, Engine, PortIo};
use netsim::flit::Flit;
use netsim::ids::{NodeId, PacketId};
use netsim::packet::{Packet, PacketBuilder};
use netsim::rng::SimRng;
use netsim::Cycle;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use switches::{CentralBufferSwitch, CqState, IbHeadState, ReplState, SwitchConfig, SwitchStats};

/// Injects queued packets flit-by-flit at link rate.
struct Source {
    queue: VecDeque<Rc<Packet>>,
    cur: Option<(Rc<Packet>, u16)>,
}

impl Component for Source {
    fn tick(&mut self, _now: Cycle, io: &mut PortIo<'_>) {
        if self.cur.is_none() {
            self.cur = self.queue.pop_front().map(|p| (p, 0));
        }
        if let Some((pkt, idx)) = &mut self.cur {
            if io.can_send(0) {
                io.send(0, Flit::new(pkt.clone(), *idx));
                *idx += 1;
                if *idx == pkt.total_flits() {
                    self.cur = None;
                }
            }
        }
    }
}

/// Consumes flits, withholding each credit for a per-sink fixed delay so
/// different runs exercise different backpressure shapes.
struct SlowSink {
    flits: Rc<Cell<usize>>,
    delay: u64,
    pending: VecDeque<u64>,
}

impl Component for SlowSink {
    fn tick(&mut self, now: Cycle, io: &mut PortIo<'_>) {
        if io.recv(0).is_some() {
            self.flits.set(self.flits.get() + 1);
            self.pending.push_back(now + self.delay);
        }
        while self.pending.front().is_some_and(|&t| t <= now) {
            self.pending.pop_front();
            io.return_credit(0);
        }
    }
}

/// One random single-switch world: 4 hosts on a 4-port central-buffer
/// switch with a small central queue (so reservations contend), random
/// unicast/multicast mix, random sink slowness. Runs it until it must
/// have drained, asserts every flit arrived, and returns the switch's
/// statistics (flushed) and its chunk capacity.
fn run_cb_case(rng: &mut SimRng) -> (SwitchStats, usize) {
    let n_hosts = 4;
    let cfg = SwitchConfig {
        ports: n_hosts,
        cq_chunks: 16,
        chunk_flits: 4,
        max_packet_flits: 32,
        input_buf_flits: 32,
        staging_flits: 8,
        // Force even unicasts through the central queue.
        bypass_crossbar: rng.chance(0.5),
        ..SwitchConfig::default()
    };

    let mut b = TopologyBuilder::new(n_hosts);
    let sw = b.add_switch(cfg.ports, 0);
    for h in 0..n_hosts {
        b.attach_host(NodeId::from(h), sw, h);
    }
    let topo = b.build();
    let tables = Rc::new(RouteTables::build(&topo));
    let stats = Rc::new(RefCell::new(SwitchStats::default()));

    let mut engine = Engine::new();
    let to_switch: Vec<_> = (0..cfg.ports)
        .map(|_| engine.add_link(1, cfg.staging_flits))
        .collect();
    let to_host: Vec<_> = (0..cfg.ports).map(|_| engine.add_link(1, 4)).collect();

    let switch = CentralBufferSwitch::new(sw, cfg.clone(), tables, stats.clone());
    engine.add_component(Box::new(switch), to_switch.clone(), to_host.clone());

    let mut expected = 0usize;
    let sinks: Vec<Rc<Cell<usize>>> = (0..n_hosts).map(|_| Rc::new(Cell::new(0))).collect();
    for h in 0..n_hosts {
        let mut queue = VecDeque::new();
        for p in 0..2 + rng.below(3) {
            let src = NodeId::from(h);
            let payload = 1 + rng.below(24) as u16;
            let pkt = if rng.chance(0.6) {
                let k = 1 + rng.below(n_hosts - 1);
                let dests = rng.dest_set(n_hosts, k, src);
                expected += dests.count() * (payload as usize + 2);
                PacketBuilder::multicast(src, dests, payload)
            } else {
                let dst = rng.other_node(n_hosts, src);
                expected += payload as usize + 2;
                PacketBuilder::unicast(src, dst, payload, n_hosts)
            };
            queue.push_back(Rc::new(pkt.id(PacketId((h * 100 + p) as u64 + 1)).build()));
        }
        engine.add_component(
            Box::new(Source { queue, cur: None }),
            vec![],
            vec![to_switch[h]],
        );
        engine.add_component(
            Box::new(SlowSink {
                flits: sinks[h].clone(),
                delay: rng.below(4) as u64,
                pending: VecDeque::new(),
            }),
            vec![to_host[h]],
            vec![],
        );
    }

    engine.run_for(4_000);
    engine.flush();
    let delivered: usize = sinks.iter().map(|s| s.get()).sum();
    assert_eq!(delivered, expected, "world failed to drain");
    (stats.take(), cfg.cq_chunks)
}

/// Live `CentralBufferSwitch` on random contended worlds: every world
/// drains (asserted in [`run_cb_case`]) and gives every chunk back to the
/// pool by quiescence.
#[test]
fn live_central_buffer_drains_without_leaking_chunks() {
    let root = SimRng::new(0xC05E_u64 ^ 0xA9);
    let mut waited = 0u64;
    for case in 0..24u64 {
        let mut rng = root.fork(case);
        let (stats, cq_chunks) = run_cb_case(&mut rng);
        assert_eq!(
            stats.cq_free_now, cq_chunks,
            "case {case}: chunks leaked at quiescence"
        );
        waited += stats.reservation_wait_cycles;
    }
    assert!(waited > 0, "worlds never contended for the central queue");
}

/// Random walks of reservations and releases: every chunk is always
/// used, free or held by a waiter.
#[test]
fn cq_walks_conserve_chunks() {
    let root = SimRng::new(0x5E_11A6);
    for case in 0..64u64 {
        let mut rng = root.fork(case);
        let reserve = rng.below(4);
        let capacity = 2 * reserve + 1 + rng.below(12);
        let mut cq = CqState::new(capacity, reserve);
        for op in 0..200 {
            if rng.chance(0.6) || cq.used() == 0 {
                let input = rng.below(4);
                let need = 1 + rng.below(capacity);
                cq.try_reserve(input, need, rng.chance(0.5));
            } else {
                cq.release_chunk();
            }
            assert_eq!(
                cq.used() + cq.free() + cq.waiter_held(),
                capacity,
                "case {case} op {op}: chunk conservation"
            );
        }
    }
}

/// Random walks of the shared writer: absorption may come before the
/// fan-out decision, and branch readers release chunks while later flits
/// are written. A fresh chunk is demanded exactly at chunk boundaries,
/// exactly the last reader of a chunk frees it, and every chunk is freed
/// once.
#[test]
fn repl_walks_free_every_chunk_once() {
    let root = SimRng::new(0x2E_71);
    for case in 0..128u64 {
        let mut rng = root.fork(case);
        let chunk_flits = 1 + rng.below(8) as u16;
        let total = 1 + rng.below(32) as u16;
        let n_branches = 1 + rng.below(4);
        let decide_at = rng.below(usize::from(total) + 1) as u16;
        let mut w = ReplState::new(total, chunk_flits);
        let mut decided = false;
        let mut released: Vec<usize> = Vec::new();
        let mut freed = 0usize;
        for op in 0.. {
            let releasable: Vec<usize> = if decided {
                (0..w.refs.len()).filter(|&c| w.refs[c] > 0).collect()
            } else {
                Vec::new()
            };
            if !decided && w.written >= decide_at {
                decided = true;
                w.set_branches(n_branches);
            } else if w.written < total && (releasable.is_empty() || rng.chance(0.5)) {
                assert_eq!(
                    w.needs_chunk(),
                    w.written.is_multiple_of(chunk_flits),
                    "case {case} op {op}: chunk demand at flit {}",
                    w.written
                );
                w.write_flit();
                released.resize(w.refs.len(), 0);
            } else if !releasable.is_empty() {
                let c = releasable[rng.below(releasable.len())];
                released[c] += 1;
                let last = w.release(c);
                assert_eq!(
                    last,
                    released[c] == n_branches,
                    "case {case} op {op}: release of chunk {c}"
                );
                freed += usize::from(last);
            } else {
                break;
            }
        }
        assert!(!w.needs_chunk(), "case {case}: fully written");
        let n_chunks = usize::from(total.div_ceil(chunk_flits));
        assert_eq!(w.refs.len(), n_chunks, "case {case}: chunks allocated");
        assert_eq!(freed, n_chunks, "case {case}: every chunk freed once");
        assert!(w.refs.iter().all(|&r| r == 0), "case {case}: refs left");
    }
}

/// Random asynchronous and lock-step walks of an input-buffered head:
/// grants, reads and recycles in random order. The walk finishes the
/// worm; each read reports exactly the branches it finished; the
/// recycled credits return exactly the packet.
#[test]
fn ib_walks_finish_the_worm_and_return_every_credit() {
    let root = SimRng::new(0x1B_A6);
    for case in 0..128u64 {
        let mut rng = root.fork(case);
        let total = 1 + rng.below(24) as u16;
        let n_branches = 1 + rng.below(4);
        let lockstep = rng.chance(0.5);
        let mut h = IbHeadState::new(total, (0..n_branches).map(|b| 2 * b + 1));
        let mut credits = 0u16;
        for op in 0.. {
            let branches = &h.branches;
            let ungranted: Vec<usize> = (0..n_branches)
                .filter(|&b| !branches[b].granted && !branches[b].done)
                .collect();
            let readable: Vec<usize> = (0..n_branches)
                .filter(|&b| branches[b].granted && !branches[b].done)
                .collect();
            if rng.chance(0.25) {
                credits += h.recycle();
            } else if !ungranted.is_empty() && (readable.is_empty() || rng.chance(0.4)) {
                h.grant(ungranted[rng.below(ungranted.len())]);
            } else if lockstep && readable.len() == n_branches {
                let done = h.read_lockstep();
                let finished: Vec<usize> = h
                    .branches
                    .iter()
                    .filter(|b| b.read == total)
                    .map(|b| b.port)
                    .collect();
                assert_eq!(done, finished, "case {case} op {op}: lock-step done");
            } else if !lockstep && !readable.is_empty() {
                let b = readable[rng.below(readable.len())];
                let finished = h.read_flit(b);
                assert_eq!(
                    finished,
                    h.branches[b].read == total,
                    "case {case} op {op}: branch {b} done"
                );
            } else if h.all_done() {
                break;
            } else {
                credits += h.recycle();
            }
            assert!(h.min_read() <= total, "case {case} op {op}");
        }
        credits += h.recycle();
        assert_eq!(
            credits, total,
            "case {case}: credit ledger must return exactly the packet"
        );
    }
}

/// The replicated-read path of the live world: multicasts in
/// [`run_cb_case`] replicate inside the switch, so the drain and leak
/// checks of [`live_central_buffer_drains_without_leaking_chunks`] cover
/// chunks freed by the slowest of several branches. This case pins that
/// the random worlds do exercise replication (otherwise the live test
/// proves less than it claims).
#[test]
fn random_worlds_exercise_replication() {
    let mut rng = SimRng::new(0xC05E_u64 ^ 0xA9).fork(0);
    let (stats, _) = run_cb_case(&mut rng);
    assert!(
        stats.packets_replicated > 0,
        "no packet ever fanned out to more than one output"
    );
}
