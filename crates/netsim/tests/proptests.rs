//! Property-based tests for the netsim substrate: destination-set algebra,
//! packetization, and link flow-control invariants.
//!
//! The cases are driven by hand-rolled seeded loops over [`SimRng`] streams
//! rather than an external property-testing crate, so the sampled inputs are
//! bit-for-bit reproducible from the constants below. On failure, the case
//! index is in the panic message; re-run with that seed to shrink by hand.

use netsim::destset::DestSet;
use netsim::fault::FaultPlan;
use netsim::flit::Flit;
use netsim::header::{PortMask, RoutingHeader};
use netsim::ids::{LinkId, MessageId, NodeId};
use netsim::link::Link;
use netsim::message::{Message, MessageKind};
use netsim::packet::{packetize, PacketBuilder, PacketIdGen};
use netsim::rng::SimRng;

const N: usize = 96; // non-power-of-two universe to stress word boundaries
const CASES: u64 = 64;

/// One deterministic generator per (test, case) pair.
fn case_rng(test: u64, case: u64) -> SimRng {
    SimRng::new(0x9672_0000 ^ test).fork(case)
}

/// Random subset of `0..n`, possibly empty.
fn random_destset(r: &mut SimRng, n: usize) -> DestSet {
    let size = r.below(n);
    let mut s = DestSet::empty(n);
    for _ in 0..size {
        s.insert(NodeId::from(r.below(n)));
    }
    s
}

#[test]
fn destset_union_commutes() {
    for case in 0..CASES {
        let mut r = case_rng(1, case);
        let a = random_destset(&mut r, N);
        let b = random_destset(&mut r, N);
        assert_eq!(a.or(&b), b.or(&a), "case {case}");
    }
}

#[test]
fn destset_intersection_commutes() {
    for case in 0..CASES {
        let mut r = case_rng(2, case);
        let a = random_destset(&mut r, N);
        let b = random_destset(&mut r, N);
        assert_eq!(a.and(&b), b.and(&a), "case {case}");
    }
}

#[test]
fn destset_minus_partitions() {
    for case in 0..CASES {
        let mut r = case_rng(3, case);
        let a = random_destset(&mut r, N);
        let b = random_destset(&mut r, N);
        // a = (a\b) ∪ (a∩b), disjointly.
        let diff = a.minus(&b);
        let inter = a.and(&b);
        assert!(
            !diff.intersects(&inter) || diff.is_empty() || inter.is_empty(),
            "case {case}"
        );
        assert_eq!(diff.or(&inter), a.clone(), "case {case}");
        assert_eq!(diff.count() + inter.count(), a.count(), "case {case}");
    }
}

#[test]
fn destset_iter_roundtrip() {
    for case in 0..CASES {
        let mut r = case_rng(4, case);
        let a = random_destset(&mut r, N);
        let rebuilt = DestSet::from_nodes(N, a.iter());
        assert_eq!(rebuilt, a.clone(), "case {case}");
        // Iteration is strictly ascending.
        let ids: Vec<u32> = a.iter().map(|n| n.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "case {case}");
    }
}

#[test]
fn destset_subset_laws() {
    for case in 0..CASES {
        let mut r = case_rng(5, case);
        let a = random_destset(&mut r, N);
        let b = random_destset(&mut r, N);
        assert!(a.and(&b).is_subset_of(&a), "case {case}");
        assert!(a.is_subset_of(&a.or(&b)), "case {case}");
        assert_eq!(a.intersects(&b), !a.and(&b).is_empty(), "case {case}");
    }
}

#[test]
fn portmask_roundtrip() {
    for case in 0..CASES {
        let mut r = case_rng(6, case);
        let mut ports = std::collections::BTreeSet::new();
        for _ in 0..r.below(16) {
            ports.insert(r.below(16));
        }
        let mask = PortMask::from_ports(ports.iter().copied());
        assert_eq!(mask.count(), ports.len(), "case {case}");
        let back: std::collections::BTreeSet<usize> = mask.iter().collect();
        assert_eq!(back, ports, "case {case}");
    }
}

#[test]
fn bitstring_restrict_shrinks() {
    for case in 0..CASES {
        let mut r = case_rng(7, case);
        let a = random_destset(&mut r, N);
        let b = random_destset(&mut r, N);
        let h = RoutingHeader::bitstring(a.clone());
        match h.restrict_to(&b) {
            RoutingHeader::BitString { dests } => {
                assert!(dests.is_subset_of(&a), "case {case}");
                assert!(dests.is_subset_of(&b), "case {case}");
                assert_eq!(dests, a.and(&b), "case {case}");
            }
            other => panic!("case {case}: unexpected header {other:?}"),
        }
    }
}

#[test]
fn packetize_preserves_payload() {
    for case in 0..CASES {
        let mut r = case_rng(8, case);
        let payload = r.below(2000) as u16;
        let max = 1 + r.below(255) as u16;
        let src = r.below(16) as u32;
        let dst = r.below(16) as u32;
        let msg = Message::new(
            MessageId(1),
            NodeId(src),
            MessageKind::Unicast(NodeId(dst)),
            payload,
            0,
        );
        let mut ids = PacketIdGen::new();
        let pkts = packetize(&msg, max, 16, 8, &mut ids);
        let total: u32 = pkts.iter().map(|p| u32::from(p.payload_flits())).sum();
        assert_eq!(total, u32::from(payload), "case {case}");
        assert!(pkts.iter().all(|p| p.payload_flits() <= max), "case {case}");
        // Sequence numbers are contiguous and sized consistently.
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(usize::from(p.seq()), i, "case {case}");
            assert_eq!(usize::from(p.n_packets()), pkts.len(), "case {case}");
        }
        assert!(pkts.last().unwrap().is_last(), "case {case}");
        // Ids unique.
        let mut seen: Vec<_> = pkts.iter().map(|p| p.id()).collect();
        seen.dedup();
        assert_eq!(seen.len(), pkts.len(), "case {case}");
    }
}

/// Link invariants under an arbitrary receiver schedule: flits arrive
/// in order, exactly once, never before their delay, and all credits
/// come back.
#[test]
fn link_flow_control_invariants() {
    for case in 0..CASES {
        let mut r = case_rng(9, case);
        let delay = 1 + r.below(4) as u32;
        let credits = 1 + r.below(7) as u32;
        let recv_pattern: Vec<bool> = (0..10 + r.below(190)).map(|_| r.chance(0.5)).collect();

        let mut link = Link::new(delay, credits);
        let pkt = std::rc::Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(1), 60, 16).build());
        let total = pkt.total_flits();
        let mut sent = 0u16;
        let mut received = 0u16;
        let mut outstanding_credits = 0u32;
        for (now, &recv_now) in recv_pattern.iter().enumerate() {
            let now = now as u64;
            link.begin_cycle(now);
            if sent < total && link.can_send(now) {
                link.send(now, Flit::new(pkt.clone(), sent));
                sent += 1;
                outstanding_credits += 1;
            }
            if recv_now {
                if let Some(f) = link.recv(now) {
                    assert_eq!(f.idx(), received, "case {case}: in-order delivery");
                    received += 1;
                    link.return_credit(now);
                    outstanding_credits -= 1;
                }
            }
        }
        // Drain: consume everything left.
        let start = recv_pattern.len() as u64;
        // With a window of one credit a flit's slot recycles only after a
        // full round trip (2·delay + epsilon cycles).
        for extra in 0..(u64::from(total) * (2 * u64::from(delay) + 4) + 40) {
            let now = start + extra;
            link.begin_cycle(now);
            if sent < total && link.can_send(now) {
                link.send(now, Flit::new(pkt.clone(), sent));
                sent += 1;
                outstanding_credits += 1;
            }
            if let Some(f) = link.recv(now) {
                assert_eq!(f.idx(), received, "case {case}");
                received += 1;
                link.return_credit(now);
                outstanding_credits -= 1;
            }
        }
        assert_eq!(sent, total, "case {case}: everything sent");
        assert_eq!(
            received, total,
            "case {case}: everything received exactly once"
        );
        assert_eq!(outstanding_credits, 0, "case {case}");
        assert_eq!(link.in_flight(), 0, "case {case}");
        // All credits returned to the sender after propagation.
        assert_eq!(link.credits(start + 10_000), credits, "case {case}");
    }
}

/// Credits fold lazily and travel back in runs, and neither is
/// observable: a link the engine never ticks, returning each cycle's freed
/// slots with one `return_credits(n)`, and a link whose credits fold
/// eagerly every cycle, returning the same slots with `n` calls of
/// `return_credit`, agree on `credits`, `can_send`, `in_flight`,
/// `next_arrival` and the fault counters at every cycle under the same
/// random schedule. The receiver holds what it takes and frees a random
/// share of its held slots each cycle, so several credits return in one
/// cycle. Odd cases install the same fault plan (drops, corruption,
/// outages, credit leaks) on both links; those links need `begin_cycle`
/// every cycle either way, so the lazy one gets exactly that and no fold.
/// Even cases also check both against a model of the window: every
/// returned credit arrives exactly `delay` cycles after its return.
#[test]
fn lazy_credit_fold_matches_eager_fold() {
    for case in 0..CASES {
        let mut r = case_rng(10, case);
        let delay = 1 + r.below(4) as u32;
        let credits = 1 + r.below(7) as u32;
        let mut lazy = Link::new(delay, credits);
        let mut eager = Link::new(delay, credits);
        if case % 2 == 1 {
            let plan = FaultPlan {
                flit_drop: 0.02,
                flit_corrupt: 0.05,
                down_every: 40,
                down_len: 7,
                credit_leak: 0.05,
                ..FaultPlan::none(case)
            };
            lazy.install_faults(plan.for_link(LinkId::from(3usize)));
            eager.install_faults(plan.for_link(LinkId::from(3usize)));
        }
        let pkt = std::rc::Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(1), 4, 16).build());
        let mut next = 0u16;
        let mut held = 0u32;
        // Fault-free model: credits spent, and each return's arrival cycle.
        let (mut spent, mut returned) = (0u32, Vec::new());
        for now in 0..400u64 {
            if lazy.needs_begin_cycle() {
                lazy.begin_cycle(now);
            }
            eager.fold_credits(now);
            eager.begin_cycle(now);
            let at = format!("case {case}, delay {delay}, cycle {now}");
            assert_eq!(lazy.credits(now), eager.credits(now), "{at}");
            assert_eq!(lazy.can_send(now), eager.can_send(now), "{at}");
            assert_eq!(lazy.in_flight(), eager.in_flight(), "{at}");
            assert_eq!(lazy.next_arrival(), eager.next_arrival(), "{at}");
            assert_eq!(lazy.fault_counters(), eager.fault_counters(), "{at}");
            if case % 2 == 0 {
                let arrived = returned.iter().filter(|&&a| a <= now).count() as u32;
                assert_eq!(lazy.credits(now), credits + arrived - spent, "{at}: model");
            }
            if r.chance(0.7) && eager.can_send(now) {
                lazy.send(now, Flit::new(pkt.clone(), next));
                eager.send(now, Flit::new(pkt.clone(), next));
                spent += 1;
                next = (next + 1) % pkt.total_flits();
                assert_eq!(lazy.credits(now), eager.credits(now), "{at}, after send");
                assert!(!lazy.can_send(now), "{at}: one send per cycle");
            }
            if r.chance(0.6) {
                let got = (lazy.recv(now), eager.recv(now));
                assert_eq!(
                    got.0.as_ref().map(|f| (f.idx(), f.corrupted())),
                    got.1.as_ref().map(|f| (f.idx(), f.corrupted())),
                    "{at}"
                );
                held += u32::from(got.0.is_some());
            }
            let freed = if r.chance(0.4) {
                r.below(held as usize + 1) as u32
            } else {
                0
            };
            held -= freed;
            returned.extend((0..freed).map(|_| now + u64::from(delay)));
            lazy.return_credits(now, freed);
            for _ in 0..freed {
                eager.return_credit(now);
            }
            assert_eq!(
                lazy.fault_counters(),
                eager.fault_counters(),
                "{at}, after return"
            );
            lazy.audit_credit_conservation();
            eager.audit_credit_conservation();
        }
    }
}
