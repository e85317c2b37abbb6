//! k-ary n-tree (bidirectional MIN / fat-tree) generator.
//!
//! This is the topology class the paper evaluates: `N = k^n` processors,
//! `n` stages of `k^(n-1)` switches, each switch with `k` down ports and
//! `k` up ports (the SP2-style 8-port switch is a 4-ary tree node). Host
//! `h` hangs off stage-0 switch `h / k` at down port `h mod k`; the up
//! ports of the top stage are unused.

use crate::lca;
use crate::topology::{Topology, TopologyBuilder};
use netsim::destset::DestSet;
use netsim::ids::{NodeId, SwitchId};

/// A k-ary n-tree topology with digit/LCA helpers.
#[derive(Debug, Clone)]
pub struct KaryTree {
    k: usize,
    n: usize,
    topo: Topology,
}

impl KaryTree {
    /// Builds the k-ary n-tree with `k^n` hosts.
    ///
    /// Switch ports `0..k` are down ports, `k..2k` are up ports. The
    /// inter-stage wiring is the standard k-ary n-tree pattern: up port `u`
    /// of stage-`s` switch `w` connects to stage-`s+1` switch `w` with digit
    /// `s` replaced by `u`, arriving at that switch's down port `w_s`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, `n < 1`, or the system exceeds 1 Mi hosts.
    pub fn new(k: usize, n: usize) -> Self {
        assert!(k >= 2, "arity must be at least 2");
        assert!(n >= 1, "need at least one stage");
        let n_hosts = k.checked_pow(n as u32).expect("system size overflow");
        assert!(n_hosts <= 1 << 20, "system size {n_hosts} too large");
        let per_stage = n_hosts / k; // k^(n-1)
        let mut b = TopologyBuilder::new(n_hosts);

        // Stage s switches get depth n-1-s (roots at depth 0).
        let mut ids = vec![vec![SwitchId(0); per_stage]; n];
        for (s, stage_ids) in ids.iter_mut().enumerate() {
            for w in stage_ids.iter_mut() {
                *w = b.add_switch(2 * k, (n - 1 - s) as u32);
            }
        }

        // Hosts at stage 0.
        for h in 0..n_hosts {
            b.attach_host(NodeId::from(h), ids[0][h / k], h % k);
        }

        // Inter-stage wiring.
        for s in 0..n.saturating_sub(1) {
            for w in 0..per_stage {
                let digits = lca::to_digits(w, k, n - 1);
                for u in 0..k {
                    let mut upper = digits.clone();
                    upper[s] = u;
                    let upper_idx = lca::from_digits(&upper, k);
                    // Lower up port u <-> upper down port digits[s].
                    b.connect(ids[s][w], k + u, ids[s + 1][upper_idx], digits[s]);
                }
            }
        }

        KaryTree {
            k,
            n,
            topo: b.build(),
        }
    }

    /// Switch arity `k` (down-port count; the switch has `2k` ports).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stages `n`.
    pub fn stages(&self) -> usize {
        self.n
    }

    /// Number of hosts `k^n`.
    pub fn n_hosts(&self) -> usize {
        self.topo.n_hosts()
    }

    /// Switches per stage, `k^(n-1)`.
    pub fn switches_per_stage(&self) -> usize {
        self.topo.n_hosts() / self.k
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Consumes the tree, returning the topology.
    pub fn into_topology(self) -> Topology {
        self.topo
    }

    /// Id of the switch at `(stage, index)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn switch_at(&self, stage: usize, index: usize) -> SwitchId {
        assert!(stage < self.n, "stage {stage} out of range");
        assert!(index < self.switches_per_stage(), "index out of range");
        SwitchId::from(stage * self.switches_per_stage() + index)
    }

    /// Stage of a switch.
    pub fn stage_of(&self, sw: SwitchId) -> usize {
        sw.index() / self.switches_per_stage()
    }

    /// LCA stage of two distinct hosts (see [`lca::lca_stage`]).
    pub fn lca_stage(&self, a: NodeId, b: NodeId) -> usize {
        lca::lca_stage(a, b, self.k, self.n)
    }

    /// Stage a multicast from `src` to `dests` must climb to.
    pub fn lca_stage_set(&self, src: NodeId, dests: &DestSet) -> usize {
        lca::lca_stage_set(src, dests, self.k, self.n)
    }

    /// Link hops of a unicast route, including both host cables.
    pub fn unicast_hops(&self, src: NodeId, dst: NodeId) -> usize {
        lca::unicast_hops(src, dst, self.k, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{pick_deterministic, RouteTables, UnicastRoute};
    use crate::topology::Attach;

    /// Walks a unicast route through the tables, returning switch hops.
    fn walk(tables: &RouteTables, topo: &Topology, src: NodeId, dst: NodeId) -> usize {
        let (mut sw, _) = topo.host_inject(src);
        let mut hops = 0;
        loop {
            hops += 1;
            assert!(hops < 64, "routing loop from {src} to {dst}");
            match tables.table(sw).route_unicast(dst) {
                UnicastRoute::Down(p) => match topo.attach(sw, p) {
                    Attach::Host(h) => {
                        assert_eq!(h, dst, "delivered to wrong host");
                        return hops;
                    }
                    Attach::Switch(next, _) => sw = next,
                    Attach::Unused => panic!("routed into unused port"),
                },
                UnicastRoute::Up(cands) => {
                    match topo.attach(sw, pick_deterministic(&cands, dst.index() as u64)) {
                        Attach::Switch(next, _) => sw = next,
                        other => panic!("up port leads to {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn sizes_4ary_3tree() {
        let t = KaryTree::new(4, 3);
        assert_eq!(t.n_hosts(), 64);
        assert_eq!(t.switches_per_stage(), 16);
        assert_eq!(t.topology().n_switches(), 48);
        assert_eq!(t.topology().ports(t.switch_at(0, 0)), 8);
    }

    #[test]
    fn host_attachment() {
        let t = KaryTree::new(4, 2);
        let topo = t.topology();
        assert_eq!(topo.host_inject(NodeId(5)), (t.switch_at(0, 1), 1));
        assert_eq!(topo.attach(t.switch_at(0, 1), 1), Attach::Host(NodeId(5)));
    }

    #[test]
    fn top_stage_up_ports_unused() {
        let t = KaryTree::new(2, 3);
        let topo = t.topology();
        let top = t.switch_at(2, 0);
        for u in 2..4 {
            assert_eq!(topo.attach(top, u), Attach::Unused);
        }
    }

    #[test]
    fn every_pair_routes_with_expected_hops() {
        let t = KaryTree::new(2, 3); // 8 hosts, small enough for all pairs
        let tables = RouteTables::build(t.topology());
        for src in 0..8u32 {
            for dst in 0..8u32 {
                if src == dst {
                    continue;
                }
                let hops = walk(&tables, t.topology(), NodeId(src), NodeId(dst));
                // Switch hops = 2*lca_stage + 1.
                let expected = 2 * t.lca_stage(NodeId(src), NodeId(dst)) + 1;
                assert_eq!(hops, expected, "src {src} dst {dst}");
            }
        }
    }

    #[test]
    fn every_pair_routes_4ary() {
        let t = KaryTree::new(4, 3);
        let tables = RouteTables::build(t.topology());
        // Spot-check a deterministic pseudo-random subset of pairs.
        for i in 0..64u32 {
            let src = NodeId(i);
            let dst = NodeId((i * 37 + 11) % 64);
            if src == dst {
                continue;
            }
            let hops = walk(&tables, t.topology(), src, dst);
            assert_eq!(hops, 2 * t.lca_stage(src, dst) + 1);
        }
    }

    #[test]
    fn stage0_down_reaches_are_singletons() {
        let t = KaryTree::new(4, 2);
        let tables = RouteTables::build(t.topology());
        let table = tables.table(t.switch_at(0, 2));
        for p in 0..4 {
            assert_eq!(table.port(p).reach.count(), 1);
        }
        assert_eq!(table.down_union().count(), 4);
        assert_eq!(table.up_ports(), &[4, 5, 6, 7]);
    }

    #[test]
    fn top_stage_covers_everything() {
        let t = KaryTree::new(4, 3);
        let tables = RouteTables::build(t.topology());
        for i in 0..t.switches_per_stage() {
            let table = tables.table(t.switch_at(2, i));
            assert_eq!(table.down_union().count(), 64);
            assert!(table.up_ports().is_empty());
        }
    }

    #[test]
    fn stage_of_inverts_switch_at() {
        let t = KaryTree::new(4, 3);
        for s in 0..3 {
            for i in [0, 5, 15] {
                assert_eq!(t.stage_of(t.switch_at(s, i)), s);
            }
        }
    }
}
