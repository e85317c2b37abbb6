//! Agreement between the extracted pure transition cores
//! (`switches::semantics`) and the live switches that now call them.
//!
//! Three layers, all randomized (hand-rolled property tests over
//! `netsim::rng::SimRng` — the container has no proptest, and the seeded
//! generator keeps every failure reproducible from its case number):
//!
//! * **live drain** — a real `CentralBufferSwitch` runs random contended
//!   traffic through a small central queue; every flit must be delivered
//!   and every chunk must be back in the pool at quiescence. The switch
//!   accounts chunks only through `CqState`, whose fields only `cq_apply`
//!   and `CqState::new` write, so the layers below pin the transition
//!   body the switch runs.
//! * **wrapper agreement** — the mutating wrappers the switches call
//!   (`CqState::try_reserve`/`release_chunk`, `IbHeadState::grant`/
//!   `read_flit`/`read_lockstep`/`recycle`, `ReplState` ops) must remain
//!   exactly the pure step applied to a clone, for random single-step
//!   inputs from random reachable states. Today they delegate by
//!   construction; this pins the equivalence against later "optimization"
//!   of either side.
//! * **in-place agreement** — folding random legal event sequences through
//!   the in-place transition bodies (`cq_apply`, `repl_apply`, `ib_apply`)
//!   and through the pure clone-and-step functions the model checker uses
//!   must give equal states and equal effects after every event.

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
use switches::semantics::{cq_apply, ib_apply, repl_apply};
use switches::semantics::{cq_step, ib_step, repl_step};
use switches::semantics::{CqEffect, CqEvent, IbEffect, IbEvent, ReplEvent};
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

/// `CqState`'s mutating wrappers vs [`cq_step`] on a random walk of
/// single-step inputs: identical resulting state, matching effect.
#[test]
fn cq_wrappers_agree_with_pure_step() {
    let root = SimRng::new(0x5E_11A6);
    for case in 0..64u64 {
        let mut rng = root.fork(case);
        let reserve = rng.below(4);
        let capacity = 2 * reserve + 1 + rng.below(12);
        let mut wrapped = CqState::new(capacity, reserve);
        let mut stepped = wrapped.clone();
        for op in 0..200 {
            if rng.chance(0.6) {
                let input = rng.below(4);
                let need = 1 + rng.below(capacity);
                let descending = rng.chance(0.5);
                let granted = wrapped.try_reserve(input, need, descending);
                let (next, effect) = cq_step(
                    &stepped,
                    CqEvent::Reserve {
                        input,
                        need,
                        descending,
                    },
                );
                stepped = next;
                assert_eq!(granted, effect == CqEffect::Granted, "case {case} op {op}");
            } else {
                if wrapped.used() == 0 {
                    continue; // nothing allocated: Release would underflow
                }
                wrapped.release_chunk();
                let (next, effect) = cq_step(&stepped, CqEvent::Release);
                stepped = next;
                assert_eq!(effect, CqEffect::Released, "case {case} op {op}");
            }
            assert_eq!(wrapped, stepped, "case {case} op {op}: states diverged");
            assert_eq!(
                wrapped.used() + wrapped.free() + wrapped.waiter_held(),
                capacity,
                "case {case} op {op}: chunk conservation"
            );
        }
    }
}

/// `IbHeadState`'s mutating wrappers vs [`ib_step`] on random legal
/// single-step inputs, with the credit ledger checked throughout.
#[test]
fn ib_wrappers_agree_with_pure_step() {
    let root = SimRng::new(0x1B_A6);
    for case in 0..64u64 {
        let mut rng = root.fork(case);
        let total = 1 + rng.below(24) as u16;
        let n_branches = 1 + rng.below(4);
        let ports: Vec<usize> = (0..n_branches).collect();
        let lockstep = rng.chance(0.5);
        let mut wrapped = IbHeadState::new(total, ports.iter().copied());
        let mut stepped = wrapped.clone();
        let mut credits_seen = 0u16;

        loop {
            // Pick a random legal event from the current state.
            let ungranted: Vec<usize> = (0..n_branches)
                .filter(|&b| !wrapped.branches[b].granted && !wrapped.branches[b].done)
                .collect();
            let readable: Vec<usize> = (0..n_branches)
                .filter(|&b| wrapped.branches[b].granted && !wrapped.branches[b].done)
                .collect();
            let all_granted_equal = readable.len() == n_branches
                && readable
                    .iter()
                    .all(|&b| wrapped.branches[b].read == wrapped.branches[0].read);

            if !ungranted.is_empty() && (readable.is_empty() || rng.chance(0.4)) {
                let b = ungranted[rng.below(ungranted.len())];
                wrapped.grant(b);
                let (next, effect) = ib_step(&stepped, IbEvent::Grant { branch: b });
                stepped = next;
                assert_eq!(effect, IbEffect::None, "case {case}: grant effect");
            } else if lockstep && all_granted_equal {
                let done = wrapped.read_lockstep();
                let (next, effect) = ib_step(&stepped, IbEvent::ReadLockStep);
                stepped = next;
                match effect {
                    IbEffect::BranchesDone(d) => assert_eq!(d, done, "case {case}"),
                    IbEffect::None => assert!(done.is_empty(), "case {case}"),
                    e => panic!("case {case}: unexpected lockstep effect {e:?}"),
                }
            } else if !readable.is_empty() {
                let b = readable[rng.below(readable.len())];
                let finished = wrapped.read_flit(b);
                let (next, effect) = ib_step(&stepped, IbEvent::ReadFlit { branch: b });
                stepped = next;
                match effect {
                    IbEffect::BranchesDone(d) => {
                        assert_eq!(d, vec![b], "case {case}");
                        assert!(finished, "case {case}");
                    }
                    IbEffect::None => assert!(!finished, "case {case}"),
                    e => panic!("case {case}: unexpected read effect {e:?}"),
                }
            } else {
                break; // every branch done
            }

            // Recycle whatever the min-read frontier has freed so far.
            let freed = wrapped.recycle();
            let (next, effect) = ib_step(&stepped, IbEvent::Recycle);
            stepped = next;
            assert_eq!(effect, IbEffect::Credits(freed), "case {case}: recycle");
            credits_seen += freed;

            assert_eq!(wrapped, stepped, "case {case}: states diverged");
            assert!(wrapped.min_read() <= total, "case {case}");
        }
        assert!(wrapped.all_done(), "case {case}: walk must finish the worm");
        credits_seen += wrapped.recycle();
        assert_eq!(
            credits_seen, total,
            "case {case}: credit ledger must return exactly the packet"
        );
    }
}

/// `ReplState`'s mutating wrappers vs [`repl_step`] on random legal
/// single-step inputs: write-side chunk demand and refcounted release.
#[test]
fn repl_wrappers_agree_with_pure_step() {
    let root = SimRng::new(0x2E_71);
    for case in 0..64u64 {
        let mut rng = root.fork(case);
        let chunk_flits = 1 + rng.below(8) as u16;
        let total = 1 + rng.below(32) as u16;
        let n_branches = 1 + rng.below(4);
        let mut wrapped = ReplState::new(total, chunk_flits);
        let mut stepped = wrapped.clone();

        wrapped.set_branches(n_branches);
        let (next, _) = repl_step(&stepped, ReplEvent::SetBranches(n_branches));
        stepped = next;
        assert_eq!(wrapped, stepped, "case {case}: set_branches");

        while wrapped.written < total {
            assert_eq!(
                wrapped.needs_chunk(),
                wrapped.written.is_multiple_of(chunk_flits),
                "case {case}: chunk demand at flit {}",
                wrapped.written
            );
            wrapped.write_flit();
            let (next, _) = repl_step(&stepped, ReplEvent::WriteFlit);
            stepped = next;
            assert_eq!(wrapped, stepped, "case {case}: write diverged");
        }

        // Release every chunk from every branch in random order; exactly
        // the last reference to each chunk must report it freed.
        let n_chunks = wrapped.refs.len();
        let mut order: Vec<usize> = (0..n_chunks)
            .flat_map(|c| std::iter::repeat_n(c, n_branches))
            .collect();
        rng.shuffle(&mut order);
        let mut freed = 0usize;
        for (i, &chunk) in order.iter().enumerate() {
            let last = wrapped.release(chunk);
            let (next, effect) = repl_step(&stepped, ReplEvent::ReleaseChunk(chunk));
            stepped = next;
            assert_eq!(
                effect == switches::semantics::ReplEffect::ChunkFreed,
                last,
                "case {case} release {i}"
            );
            assert_eq!(wrapped, stepped, "case {case} release {i}");
            freed += usize::from(last);
        }
        assert_eq!(freed, n_chunks, "case {case}: every chunk freed once");
    }
}

/// `*_apply` in place vs `*_step` on a clone, folded over random legal
/// event sequences of all three machines: equal state and equal effect
/// after every event.
#[test]
fn in_place_apply_agrees_with_pure_step() {
    let root = SimRng::new(0xA9_9017);
    for case in 0..128u64 {
        let mut rng = root.fork(case);

        // Central-queue accounting.
        let reserve = rng.below(4);
        let capacity = 2 * reserve + 1 + rng.below(12);
        let mut applied = CqState::new(capacity, reserve);
        let mut stepped = applied.clone();
        for op in 0..200 {
            let event = if rng.chance(0.6) || applied.used() == 0 {
                CqEvent::Reserve {
                    input: rng.below(4),
                    need: 1 + rng.below(capacity),
                    descending: rng.chance(0.5),
                }
            } else {
                CqEvent::Release
            };
            let effect = cq_apply(&mut applied, event);
            let (next, expected) = cq_step(&stepped, event);
            stepped = next;
            assert_eq!(effect, expected, "cq case {case} op {op}: {event:?}");
            assert_eq!(applied, stepped, "cq case {case} op {op}: {event:?}");
        }

        // Shared writer: absorption may precede the routing decision, and
        // branch readers release chunks while later flits are written.
        let chunk_flits = 1 + rng.below(8) as u16;
        let total = 1 + rng.below(32) as u16;
        let n_branches = 1 + rng.below(4);
        let decide_at = rng.below(usize::from(total) + 1) as u16;
        let mut applied = ReplState::new(total, chunk_flits);
        let mut stepped = applied.clone();
        let mut decided = false;
        for op in 0.. {
            let releasable: Vec<usize> = if decided {
                (0..applied.refs.len())
                    .filter(|&c| applied.refs[c] > 0)
                    .collect()
            } else {
                Vec::new()
            };
            let writable = applied.written < total;
            let event = if !decided && applied.written >= decide_at {
                decided = true;
                ReplEvent::SetBranches(n_branches)
            } else if writable && (releasable.is_empty() || rng.chance(0.5)) {
                ReplEvent::WriteFlit
            } else if !releasable.is_empty() {
                ReplEvent::ReleaseChunk(releasable[rng.below(releasable.len())])
            } else {
                break;
            };
            let effect = repl_apply(&mut applied, event);
            let (next, expected) = repl_step(&stepped, event);
            stepped = next;
            assert_eq!(effect, expected, "repl case {case} op {op}: {event:?}");
            assert_eq!(applied, stepped, "repl case {case} op {op}: {event:?}");
        }
        assert!(applied.refs.iter().all(|&r| r == 0), "repl case {case}");

        // Input-buffered head: grants, asynchronous or lock-step reads, and
        // recycles in random order.
        let total = 1 + rng.below(24) as u16;
        let n_branches = 1 + rng.below(4);
        let lockstep = rng.chance(0.5);
        let mut applied = IbHeadState::new(total, (0..n_branches).map(|b| 2 * b + 1));
        let mut stepped = applied.clone();
        for op in 0.. {
            let branches = &applied.branches;
            let ungranted: Vec<usize> = (0..n_branches)
                .filter(|&b| !branches[b].granted && !branches[b].done)
                .collect();
            let readable: Vec<usize> = (0..n_branches)
                .filter(|&b| branches[b].granted && !branches[b].done)
                .collect();
            let lockstep_ready = readable.len() == n_branches
                && readable
                    .iter()
                    .all(|&b| branches[b].read == branches[0].read);
            let event = if rng.chance(0.25) {
                IbEvent::Recycle
            } else if !ungranted.is_empty() && (readable.is_empty() || rng.chance(0.4)) {
                IbEvent::Grant {
                    branch: ungranted[rng.below(ungranted.len())],
                }
            } else if lockstep && lockstep_ready {
                IbEvent::ReadLockStep
            } else if !lockstep && !readable.is_empty() {
                IbEvent::ReadFlit {
                    branch: readable[rng.below(readable.len())],
                }
            } else if applied.all_done() {
                break;
            } else {
                IbEvent::Recycle
            };
            let effect = ib_apply(&mut applied, event);
            let (next, expected) = ib_step(&stepped, event);
            stepped = next;
            assert_eq!(effect, expected, "ib case {case} op {op}: {event:?}");
            assert_eq!(applied, stepped, "ib case {case} op {op}: {event:?}");
        }
        ib_apply(&mut applied, IbEvent::Recycle);
        assert_eq!(applied.freed, total, "ib case {case}: every flit recycled");
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
