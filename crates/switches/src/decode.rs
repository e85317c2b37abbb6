//! Header decode shared by both switch architectures.
//!
//! Turning an arriving worm's header into a set of `(output port,
//! branch-rewritten packet)` pairs is identical for the central-buffer and
//! input-buffer switches — only *where* the replicated flits are buffered
//! differs. This module implements that decode for all three encodings,
//! plus the small clock that models header-serialization latency (the
//! decision is available `route_delay` cycles after the last header flit
//! arrives) and the corruption mark a stored worm copy carries.

use crate::config::UpSelect;
use mintopo::route::{pick_deterministic, ReplicatePolicy, SwitchTable, UnicastRoute};
use netsim::flit::Flit;
use netsim::header::RoutingHeader;
use netsim::ids::PacketId;
use netsim::packet::Packet;
use netsim::Cycle;
use std::rc::Rc;

/// Records when each packet's final header flit arrived at this input.
///
/// An input holds only the few packets its staging buffer or FIFO fits,
/// so a short vector scanned linearly beats hashing the packet id.
#[derive(Debug, Default)]
pub(crate) struct HeaderClock {
    done: Vec<(PacketId, Cycle)>,
}

impl HeaderClock {
    /// Notes a flit arrival; remembers the cycle the header completed.
    pub(crate) fn on_arrival(&mut self, flit: &Flit, now: Cycle) {
        if flit.idx() + 1 == flit.packet().header_flits() {
            let id = flit.packet().id();
            match self.done.iter_mut().find(|(p, _)| *p == id) {
                Some(entry) => entry.1 = now,
                None => self.done.push((id, now)),
            }
        }
    }

    /// Cycle at which the packet's header finished arriving, if known.
    pub(crate) fn done_at(&self, id: PacketId) -> Option<Cycle> {
        self.done.iter().find(|(p, _)| *p == id).map(|&(_, t)| t)
    }

    /// Drops bookkeeping for a finished packet.
    pub(crate) fn forget(&mut self, id: PacketId) {
        if let Some(pos) = self.done.iter().position(|(p, _)| *p == id) {
            self.done.swap_remove(pos);
        }
    }
}

/// Corruption mark of a worm a switch stores and later re-emits flit by
/// flit: the index of the first stored flit that arrived marked corrupt.
/// Every flit re-emitted from that index on carries the mark, so a corrupt
/// wire image survives the store-and-rebuild of the central queue and the
/// input FIFOs the way it survives the bypass, which forwards the flit
/// itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CorruptMark(u16);

impl Default for CorruptMark {
    fn default() -> Self {
        CorruptMark(u16::MAX)
    }
}

impl CorruptMark {
    /// Notes one stored flit of the worm.
    pub(crate) fn note(&mut self, flit: &Flit) {
        if flit.corrupted() {
            self.0 = self.0.min(flit.idx());
        }
    }

    /// Rebuilds flit `idx` of `pkt` for transmission, marked corrupt if the
    /// stored flit at `idx` or an earlier one was.
    pub(crate) fn flit(self, pkt: Rc<Packet>, idx: u16) -> Flit {
        let mut flit = Flit::new(pkt, idx);
        if idx >= self.0 {
            flit.mark_corrupt();
        }
        flit
    }
}

/// Resolves the output branches of a packet at a switch.
///
/// `metric(port)` supplies the adaptive congestion estimate (lower is
/// better) used to pick among up-port candidates when `up_select` is
/// [`UpSelect::Adaptive`]; ties and the deterministic mode fall back to a
/// stateless flow hash so a given flow keeps one path.
///
/// Returns `(port, packet-for-that-branch)` pairs. Bit-string branches get
/// their headers restricted by the port's reachability string (the header
/// rewrite of paper §4); multiport branches get the residual mask list.
///
/// # Panics
///
/// Panics if a multiport worm has run out of masks (malformed plan), or the
/// routing tables cannot cover a destination (disconnected topology).
pub(crate) fn resolve_branches(
    pkt: &Rc<Packet>,
    table: &SwitchTable,
    policy: ReplicatePolicy,
    up_select: UpSelect,
    metric: impl Fn(usize) -> u64,
) -> Vec<(usize, Rc<Packet>)> {
    let salt = pkt.id().0;
    let pick = |cands: &[usize]| -> usize {
        match up_select {
            UpSelect::Deterministic => pick_deterministic(cands, salt),
            UpSelect::Adaptive => {
                let best = cands.iter().map(|&p| metric(p)).min().expect("candidates");
                let tied: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&p| metric(p) == best)
                    .collect();
                pick_deterministic(&tied, salt)
            }
        }
    };
    match pkt.header() {
        RoutingHeader::Unicast { dest } => match table.route_unicast(*dest) {
            UnicastRoute::Down(p) => vec![(p, pkt.clone())],
            UnicastRoute::Up(cands) => vec![(pick(&cands), pkt.clone())],
        },
        RoutingHeader::BitString { dests } => {
            let route = table.route_bitstring(dests, policy);
            let mut out: Vec<(usize, Rc<Packet>)> = route
                .down
                .iter()
                .map(|(p, set)| {
                    (
                        *p,
                        Rc::new(pkt.with_header(RoutingHeader::BitString { dests: set.clone() })),
                    )
                })
                .collect();
            if let Some((cands, set)) = route.up {
                let p = pick(&cands);
                out.push((
                    p,
                    Rc::new(pkt.with_header(RoutingHeader::BitString { dests: set })),
                ));
            }
            out
        }
        RoutingHeader::Multiport { .. } => {
            let (mask, rest) = pkt
                .header()
                .advance_multiport()
                .expect("multiport worm ran out of masks");
            let residual = Rc::new(pkt.with_header(rest));
            mask.iter().map(|p| (p, residual.clone())).collect()
        }
        RoutingHeader::BarrierGather { .. } => {
            unreachable!("barrier gathers are combined at the switch, never routed")
        }
    }
}

/// Statically round-trips one reachability bit-string through this
/// switch's *actual* decode path and checks the branch headers it
/// produces are consistent with the routing tables.
///
/// `mintopo::reach` produces the per-port reachability strings and
/// `switches` consumes them through `resolve_branches`; the two crates
/// agree only by convention. This lint makes the convention checkable: a
/// synthetic bit-string worm carrying `dests` is decoded at `table`, and
/// every resulting branch must (a) still be a bit-string header, (b) land
/// on a port the tables classify as usable, (c) stay within a down port's
/// reachability string, and (d) partition `dests` exactly — every
/// destination on exactly one branch.
///
/// Returns the `(port, residual set)` branches on success, or a
/// description of the first inconsistency.
///
/// # Errors
///
/// Returns `Err` when the decoded branches violate any of the conditions
/// above — i.e. when the reach strings and the decode logic disagree.
pub fn verify_bitstring_roundtrip(
    table: &SwitchTable,
    dests: &netsim::destset::DestSet,
    policy: ReplicatePolicy,
) -> Result<Vec<(usize, netsim::destset::DestSet)>, String> {
    use mintopo::reach::PortClass;
    use netsim::destset::DestSet;
    use netsim::packet::PacketBuilder;

    if dests.is_empty() {
        return Err("empty destination set".to_string());
    }
    let src = netsim::ids::NodeId(0);
    let pkt = Rc::new(PacketBuilder::multicast(src, dests.clone(), 4).build());
    let branches = resolve_branches(&pkt, table, policy, UpSelect::Deterministic, |_| 0);
    if branches.is_empty() {
        return Err(format!("decode produced no branches for {dests:?}"));
    }
    let mut covered = DestSet::empty(dests.universe());
    let mut out = Vec::with_capacity(branches.len());
    for (port, bp) in &branches {
        let set = match bp.header() {
            RoutingHeader::BitString { dests } => dests.clone(),
            other => {
                return Err(format!(
                    "branch on port {port} decoded to non-bit-string header {other:?}"
                ))
            }
        };
        if set.is_empty() {
            return Err(format!("branch on port {port} carries an empty set"));
        }
        let info = table.port(*port);
        match info.class {
            PortClass::Down => {
                if !set.is_subset_of(&info.reach) {
                    return Err(format!(
                        "branch on down port {port} carries {set:?} outside its \
                         reachability string {:?}",
                        info.reach
                    ));
                }
            }
            PortClass::Up => {
                if !set.is_subset_of(dests) {
                    return Err(format!(
                        "up branch on port {port} carries {set:?} not within the \
                         original set {dests:?}"
                    ));
                }
            }
            PortClass::Unused => {
                return Err(format!("branch routed onto unused port {port}"));
            }
        }
        if covered.intersects(&set) {
            return Err(format!(
                "branch on port {port} duplicates destinations already covered \
                 ({:?} ∩ {set:?})",
                covered
            ));
        }
        covered.union_with(&set);
        out.push((*port, set));
    }
    if &covered != dests {
        return Err(format!(
            "branches cover {covered:?} but the worm carried {dests:?}"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintopo::route::RouteTables;
    use mintopo::topology::TopologyBuilder;
    use netsim::destset::DestSet;
    use netsim::header::PortMask;
    use netsim::ids::{NodeId, SwitchId};
    use netsim::packet::PacketBuilder;

    fn tables() -> RouteTables {
        // Leaf s0 (hosts 0,1), leaf s1 (hosts 2,3), roots s2 and s3.
        let mut b = TopologyBuilder::new(4);
        let s0 = b.add_switch(4, 1);
        let s1 = b.add_switch(4, 1);
        let s2 = b.add_switch(4, 0);
        let s3 = b.add_switch(4, 0);
        for h in 0..2 {
            b.attach_host(NodeId(h), s0, h as usize);
            b.attach_host(NodeId(h + 2), s1, h as usize);
        }
        b.connect(s0, 2, s2, 0);
        b.connect(s0, 3, s3, 0);
        b.connect(s1, 2, s2, 1);
        b.connect(s1, 3, s3, 1);
        RouteTables::build(&b.build())
    }

    #[test]
    fn header_clock_marks_completion() {
        let pkt = Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(3), 4, 4).build());
        let mut clock = HeaderClock::default();
        clock.on_arrival(&Flit::new(pkt.clone(), 0), 10);
        assert_eq!(clock.done_at(pkt.id()), None, "header not complete yet");
        clock.on_arrival(&Flit::new(pkt.clone(), 1), 11);
        assert_eq!(clock.done_at(pkt.id()), Some(11));
        clock.forget(pkt.id());
        assert_eq!(clock.done_at(pkt.id()), None);
    }

    #[test]
    fn unicast_down_branch() {
        let t = tables();
        let pkt = Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(1), 4, 4).build());
        let branches = resolve_branches(
            &pkt,
            t.table(SwitchId(0)),
            ReplicatePolicy::ReturnOnly,
            UpSelect::Deterministic,
            |_| 0,
        );
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].0, 1);
    }

    #[test]
    fn adaptive_prefers_low_metric_up_port() {
        let t = tables();
        let pkt = Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(3), 4, 4).build());
        // Port 2 congested, port 3 free -> adaptive must pick 3.
        let branches = resolve_branches(
            &pkt,
            t.table(SwitchId(0)),
            ReplicatePolicy::ReturnOnly,
            UpSelect::Adaptive,
            |p| if p == 2 { 100 } else { 0 },
        );
        assert_eq!(branches[0].0, 3);
    }

    #[test]
    fn bitstring_branches_get_restricted_headers() {
        let t = tables();
        let dests = DestSet::from_nodes(4, [0, 1, 3].map(NodeId));
        let pkt = Rc::new(PacketBuilder::multicast(NodeId(2), dests, 8).build());
        // At root s2 everything is below: three host-port branches via leafs.
        let branches = resolve_branches(
            &pkt,
            t.table(SwitchId(2)),
            ReplicatePolicy::ReturnOnly,
            UpSelect::Deterministic,
            |_| 0,
        );
        assert_eq!(branches.len(), 2, "one per leaf switch");
        for (_, bp) in &branches {
            match bp.header() {
                RoutingHeader::BitString { dests } => assert!(!dests.is_empty()),
                other => panic!("unexpected {other:?}"),
            }
        }
        let covered: usize = branches
            .iter()
            .map(|(_, bp)| bp.header().dest_count().unwrap())
            .sum();
        assert_eq!(covered, 3);
    }

    #[test]
    fn return_only_multicast_goes_up_whole() {
        let t = tables();
        let dests = DestSet::from_nodes(4, [1, 2].map(NodeId));
        let pkt = Rc::new(PacketBuilder::multicast(NodeId(0), dests.clone(), 8).build());
        let branches = resolve_branches(
            &pkt,
            t.table(SwitchId(0)),
            ReplicatePolicy::ReturnOnly,
            UpSelect::Deterministic,
            |_| 0,
        );
        assert_eq!(branches.len(), 1, "no early branching under ReturnOnly");
        assert_eq!(branches[0].1.header().dest_count(), Some(2));
    }

    #[test]
    fn roundtrip_accepts_consistent_tables() {
        let t = tables();
        for sw in 0..4 {
            let table = t.table(SwitchId(sw));
            for policy in [
                ReplicatePolicy::ReturnOnly,
                ReplicatePolicy::ForwardAndReturn,
            ] {
                let dests = DestSet::from_nodes(4, [0, 2, 3].map(NodeId));
                let branches = verify_bitstring_roundtrip(table, &dests, policy)
                    .unwrap_or_else(|e| panic!("switch {sw}, {policy:?}: {e}"));
                let total: usize = branches.iter().map(|(_, s)| s.count()).sum();
                assert_eq!(total, 3);
            }
        }
    }

    #[test]
    fn roundtrip_rejects_empty_set() {
        let t = tables();
        let err = verify_bitstring_roundtrip(
            t.table(SwitchId(0)),
            &DestSet::empty(4),
            ReplicatePolicy::ReturnOnly,
        )
        .unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn multiport_fans_out_and_consumes_mask() {
        let t = tables();
        let header = RoutingHeader::Multiport {
            masks: vec![PortMask::from_ports([0, 1]), PortMask::single(0)],
        };
        let pkt = Rc::new(PacketBuilder::new(NodeId(2), header, 8, 4).build());
        let branches = resolve_branches(
            &pkt,
            t.table(SwitchId(2)),
            ReplicatePolicy::ReturnOnly,
            UpSelect::Deterministic,
            |_| 0,
        );
        assert_eq!(branches.len(), 2);
        for (_, bp) in &branches {
            match bp.header() {
                RoutingHeader::Multiport { masks } => assert_eq!(masks.len(), 1),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
