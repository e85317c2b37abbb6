//! Hierarchical compressed destination sets for the analysis path.
//!
//! The paper's reachability strings are dense `N`-bit vectors — right for
//! switch hardware, wrong for static analysis of ROADMAP item-2 fabrics:
//! at 64K endpoints a single fabric's tables hold gigabytes of mostly
//! contiguous bits. On a k-ary n-tree every per-port reach set is one
//! contiguous host interval (see
//! [`mintopo::karytree::KaryTree::down_port_interval`]), so this module
//! stores destination sets as sorted disjoint half-open **runs** and keeps
//! every analysis operation O(runs) instead of O(N).
//!
//! [`RunSet`] is exact — [`RunSet::from_dense`]/[`RunSet::to_dense`]
//! round-trip bit for bit, which the property tests enforce on random
//! sets — and [`CompactTables`] mirrors `mintopo::reach`'s dense table
//! builders (including the masked rebuild used by reroutes) over the
//! compressed encoding, plus an O(1)-per-port symbolic builder for the
//! k-ary n-tree family that never materializes a dense string at all.

use mintopo::karytree::KaryTree;
use mintopo::reach::PortClass;
use mintopo::route::RouteTables;
use mintopo::topology::{Attach, Topology};
use netsim::destset::DestSet;
use netsim::ids::{NodeId, SwitchId};

/// A destination set over hosts `0..universe`, stored as sorted, disjoint,
/// non-adjacent half-open runs `[start, end)`.
///
/// The normalized representation makes structural equality set equality,
/// so `RunSet` derives `PartialEq`/`Eq`/`Hash` directly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunSet {
    len: usize,
    runs: Vec<(u32, u32)>,
}

impl RunSet {
    /// The empty set over `len` hosts.
    pub fn empty(len: usize) -> Self {
        RunSet {
            len,
            runs: Vec::new(),
        }
    }

    /// The full set over `len` hosts.
    pub fn full(len: usize) -> Self {
        RunSet::interval(len, 0, len)
    }

    /// The singleton `{node}` over `len` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the universe.
    pub fn singleton(len: usize, node: NodeId) -> Self {
        RunSet::interval(len, node.index(), node.index() + 1)
    }

    /// The half-open interval `[lo, hi)` over `len` hosts (empty when
    /// `lo >= hi`).
    ///
    /// # Panics
    ///
    /// Panics if `hi > len`.
    pub fn interval(len: usize, lo: usize, hi: usize) -> Self {
        assert!(hi <= len, "interval [{lo}, {hi}) exceeds universe {len}");
        let runs = if lo < hi {
            vec![(lo as u32, hi as u32)]
        } else {
            Vec::new()
        };
        RunSet { len, runs }
    }

    /// Exact compression of a dense bit-string: consecutive set bits
    /// coalesce into one run.
    pub fn from_dense(dense: &DestSet) -> Self {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for node in dense.iter() {
            let i = node.index() as u32;
            match runs.last_mut() {
                Some((_, end)) if *end == i => *end = i + 1,
                _ => runs.push((i, i + 1)),
            }
        }
        RunSet {
            len: dense.universe(),
            runs,
        }
    }

    /// Exact expansion back to the dense bit-string encoding.
    pub fn to_dense(&self) -> DestSet {
        let mut d = DestSet::empty(self.len);
        for &(lo, hi) in &self.runs {
            for i in lo..hi {
                d.insert(NodeId(i));
            }
        }
        d
    }

    /// Number of addressable hosts (the dense string length `N`).
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Number of runs in the compressed representation.
    pub fn n_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of hosts in the set.
    pub fn count(&self) -> usize {
        self.runs.iter().map(|&(lo, hi)| (hi - lo) as usize).sum()
    }

    /// `true` when no host is in the set.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// `true` when `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index() as u32;
        self.runs
            .binary_search_by(|&(lo, hi)| {
                if i < lo {
                    std::cmp::Ordering::Greater
                } else if i >= hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// `true` when the two sets share at least one host.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ (mirrors the dense encoding).
    pub fn intersects(&self, other: &RunSet) -> bool {
        self.check_universe(other);
        let (mut a, mut b) = (self.runs.iter().peekable(), other.runs.iter().peekable());
        while let (Some(&&(alo, ahi)), Some(&&(blo, bhi))) = (a.peek(), b.peek()) {
            if alo < bhi && blo < ahi {
                return true;
            }
            if ahi <= bhi {
                a.next();
            } else {
                b.next();
            }
        }
        false
    }

    /// `true` when every host of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ (mirrors the dense encoding).
    pub fn is_subset_of(&self, other: &RunSet) -> bool {
        self.check_universe(other);
        let mut b = other.runs.iter().peekable();
        'outer: for &(alo, ahi) in &self.runs {
            while let Some(&&(blo, bhi)) = b.peek() {
                if bhi <= alo {
                    b.next();
                    continue;
                }
                if blo <= alo && ahi <= bhi {
                    continue 'outer;
                }
                return false;
            }
            return false;
        }
        true
    }

    /// Adds every host of `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ (mirrors the dense encoding).
    pub fn union_with(&mut self, other: &RunSet) {
        self.check_universe(other);
        if other.runs.is_empty() {
            return;
        }
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.runs.len() + other.runs.len());
        let (mut a, mut b) = (self.runs.iter().peekable(), other.runs.iter().peekable());
        let push = |merged: &mut Vec<(u32, u32)>, (lo, hi): (u32, u32)| match merged.last_mut() {
            Some((_, end)) if *end >= lo => *end = (*end).max(hi),
            _ => merged.push((lo, hi)),
        };
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(&&ra), Some(&&rb)) => {
                    if ra.0 <= rb.0 {
                        a.next();
                        ra
                    } else {
                        b.next();
                        rb
                    }
                }
                (Some(&&ra), None) => {
                    a.next();
                    ra
                }
                (None, Some(&&rb)) => {
                    b.next();
                    rb
                }
                (None, None) => break,
            };
            push(&mut merged, next);
        }
        self.runs = merged;
    }

    /// The hosts *not* in the set: the complement over the universe.
    pub fn complement(&self) -> RunSet {
        let mut runs = Vec::with_capacity(self.runs.len() + 1);
        let mut cursor = 0u32;
        for &(lo, hi) in &self.runs {
            if cursor < lo {
                runs.push((cursor, lo));
            }
            cursor = hi;
        }
        if (cursor as usize) < self.len {
            runs.push((cursor, self.len as u32));
        }
        RunSet {
            len: self.len,
            runs,
        }
    }

    /// Iterates the hosts of the set in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.runs.iter().flat_map(|&(lo, hi)| (lo..hi).map(NodeId))
    }

    fn check_universe(&self, other: &RunSet) {
        assert_eq!(
            self.len, other.len,
            "destination-set universe mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

/// Classification and compressed reach set of one output port: the
/// run-encoded mirror of [`mintopo::reach::PortInfo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactPort {
    /// Routing role.
    pub class: PortClass,
    /// Hosts reachable through this port, run-encoded.
    pub reach: RunSet,
}

/// One switch's compressed routing metadata: per-port reach sets plus the
/// cached union of the down-port sets (the LCA-completion test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactTable {
    ports: Vec<CompactPort>,
    down_union: RunSet,
}

impl CompactTable {
    /// Builds a table from per-port entries, caching the down-union.
    pub fn from_ports(ports: Vec<CompactPort>, universe: usize) -> Self {
        let mut down_union = RunSet::empty(universe);
        for p in &ports {
            if p.class == PortClass::Down {
                down_union.union_with(&p.reach);
            }
        }
        CompactTable { ports, down_union }
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.ports.len()
    }

    /// Entry for port `p`.
    pub fn port(&self, p: usize) -> &CompactPort {
        &self.ports[p]
    }

    /// Union of all down-port reach sets.
    pub fn down_union(&self) -> &RunSet {
        &self.down_union
    }
}

/// Compressed routing tables for a whole fabric: the analysis-path mirror
/// of [`mintopo::route::RouteTables`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactTables {
    tables: Vec<CompactTable>,
    n_hosts: usize,
}

impl CompactTables {
    /// Exact compression of dense route tables — every reach string is
    /// run-encoded, classes and port order preserved.
    pub fn from_dense(tables: &RouteTables) -> Self {
        let n = tables.n_hosts();
        let compact = (0..tables.n_switches())
            .map(|s| {
                let t = tables.table(SwitchId::from(s));
                CompactTable::from_ports(
                    (0..t.n_ports())
                        .map(|p| {
                            let info = t.port(p);
                            CompactPort {
                                class: info.class,
                                reach: RunSet::from_dense(&info.reach),
                            }
                        })
                        .collect(),
                    n,
                )
            })
            .collect();
        CompactTables {
            tables: compact,
            n_hosts: n,
        }
    }

    /// Derives compressed tables from an arbitrary topology: the
    /// run-encoded mirror of [`mintopo::reach::build_port_info`] (one
    /// deepest-first pass; up ports optimistically reach every host).
    pub fn build(topo: &Topology) -> Self {
        CompactTables::build_inner(topo, &[], false)
    }

    /// Derives compressed tables with dead directed output ports masked
    /// out and **exact** up-port reach sets: the run-encoded mirror of
    /// [`mintopo::reach::build_port_info_masked`].
    pub fn build_masked(topo: &Topology, dead: &[(SwitchId, usize)]) -> Self {
        CompactTables::build_inner(topo, dead, true)
    }

    fn build_inner(topo: &Topology, dead: &[(SwitchId, usize)], exact_up: bool) -> Self {
        let n = topo.n_hosts();
        let n_sw = topo.n_switches();
        let dead: std::collections::BTreeSet<(usize, usize)> =
            dead.iter().map(|&(sw, p)| (sw.index(), p)).collect();

        let mut eject_at = vec![Vec::new(); n_sw];
        for h in 0..n {
            let node = NodeId::from(h);
            let (sw, port) = topo.host_eject(node);
            eject_at[sw.index()].push((port, node));
        }

        // Downward pass, deepest-first: every down-neighbor's cone is
        // already known (down-hops strictly increase (depth, id)).
        let mut down_order: Vec<usize> = (0..n_sw).collect();
        down_order.sort_by_key(|&s| {
            (
                std::cmp::Reverse(topo.depth(SwitchId::from(s))),
                std::cmp::Reverse(s),
            )
        });

        let mut cone: Vec<RunSet> = vec![RunSet::empty(n); n_sw];
        let mut info: Vec<Vec<CompactPort>> = (0..n_sw)
            .map(|s| {
                (0..topo.ports(SwitchId::from(s)))
                    .map(|_| CompactPort {
                        class: PortClass::Unused,
                        reach: RunSet::empty(n),
                    })
                    .collect()
            })
            .collect();

        for &s in &down_order {
            let sw = SwitchId::from(s);
            let mut my_cone = RunSet::empty(n);
            for (port, node) in &eject_at[s] {
                if dead.contains(&(s, *port)) {
                    continue;
                }
                let reach = RunSet::singleton(n, *node);
                my_cone.union_with(&reach);
                info[s][*port] = CompactPort {
                    class: PortClass::Down,
                    reach,
                };
            }
            for (port, slot) in info[s].iter_mut().enumerate() {
                if dead.contains(&(s, port)) {
                    continue;
                }
                match topo.attach(sw, port) {
                    Attach::Switch(other, _) if topo.is_down_hop(sw, port) => {
                        let reach = cone[other.index()].clone();
                        my_cone.union_with(&reach);
                        *slot = CompactPort {
                            class: PortClass::Down,
                            reach,
                        };
                    }
                    Attach::Switch(..) => {
                        *slot = CompactPort {
                            class: PortClass::Up,
                            reach: if exact_up {
                                RunSet::empty(n) // exact reach from the up pass
                            } else {
                                RunSet::full(n)
                            },
                        };
                    }
                    Attach::Host(_) | Attach::Unused => {}
                }
            }
            cone[s] = my_cone;
        }

        if exact_up {
            // Upward pass, shallowest-first: R(s) = cone(s) ∪ ⋃ R(up-nbrs).
            let mut up_order: Vec<usize> = (0..n_sw).collect();
            up_order.sort_by_key(|&s| (topo.depth(SwitchId::from(s)), s));
            let mut up_reach: Vec<RunSet> = vec![RunSet::empty(n); n_sw];
            for &s in &up_order {
                let sw = SwitchId::from(s);
                let mut r = cone[s].clone();
                for (port, slot) in info[s].iter_mut().enumerate() {
                    if slot.class != PortClass::Up {
                        continue;
                    }
                    if let Attach::Switch(other, _) = topo.attach(sw, port) {
                        let reach = up_reach[other.index()].clone();
                        r.union_with(&reach);
                        slot.reach = reach;
                    }
                }
                up_reach[s] = r;
            }
        }

        CompactTables {
            tables: info
                .into_iter()
                .map(|ports| CompactTable::from_ports(ports, n))
                .collect(),
            n_hosts: n,
        }
    }

    /// Symbolic builder for the k-ary n-tree family: every reach set is a
    /// single closed-form interval
    /// ([`KaryTree::down_port_interval`]), so the whole fabric's tables
    /// cost O(switches · ports) with no per-host work — this is what lets
    /// the certificate checker touch 64K-endpoint fabrics where a dense
    /// string per port would need gigabytes.
    pub fn for_karytree(tree: &KaryTree) -> Self {
        let n = tree.n_hosts();
        let k = tree.k();
        let stages = tree.stages();
        let per_stage = tree.switches_per_stage();
        let mut tables = Vec::with_capacity(stages * per_stage);
        for stage in 0..stages {
            for idx in 0..per_stage {
                let mut ports = Vec::with_capacity(2 * k);
                for p in 0..k {
                    let (lo, hi) = tree.down_port_interval(stage, idx, p);
                    ports.push(CompactPort {
                        class: PortClass::Down,
                        reach: RunSet::interval(n, lo, hi),
                    });
                }
                for _ in 0..k {
                    ports.push(if stage + 1 < stages {
                        CompactPort {
                            class: PortClass::Up,
                            reach: RunSet::full(n),
                        }
                    } else {
                        CompactPort {
                            class: PortClass::Unused,
                            reach: RunSet::empty(n),
                        }
                    });
                }
                tables.push(CompactTable::from_ports(ports, n));
            }
        }
        CompactTables { tables, n_hosts: n }
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.n_hosts
    }

    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.tables.len()
    }

    /// Compressed table of switch `sw`.
    pub fn table(&self, sw: SwitchId) -> &CompactTable {
        &self.tables[sw.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(len: usize, bits: &[usize]) -> RunSet {
        RunSet::from_dense(&DestSet::from_nodes(
            len,
            bits.iter().map(|&b| NodeId::from(b)),
        ))
    }

    #[test]
    fn dense_roundtrip_is_exact() {
        for bits in [
            &[][..],
            &[0usize],
            &[7],
            &[0, 1, 2],
            &[1, 3, 5],
            &[0, 1, 5, 6, 7],
        ] {
            let d = DestSet::from_nodes(8, bits.iter().map(|&b| NodeId::from(b)));
            let r = RunSet::from_dense(&d);
            assert_eq!(r.to_dense(), d, "{bits:?}");
            assert_eq!(r.count(), d.count());
            assert_eq!(r.is_empty(), d.is_empty());
        }
    }

    #[test]
    fn runs_coalesce_adjacent_bits() {
        let r = rs(10, &[2, 3, 4, 7, 8]);
        assert_eq!(r.n_runs(), 2);
        assert_eq!(RunSet::full(10).n_runs(), 1);
        assert_eq!(RunSet::empty(10).n_runs(), 0);
    }

    #[test]
    fn contains_matches_dense() {
        let r = rs(16, &[0, 3, 4, 5, 9, 15]);
        let d = r.to_dense();
        for h in 0..16usize {
            assert_eq!(
                r.contains(NodeId::from(h)),
                d.contains(NodeId::from(h)),
                "{h}"
            );
        }
    }

    #[test]
    fn set_algebra_matches_dense() {
        let sets = [
            rs(12, &[]),
            rs(12, &[0, 1, 2]),
            rs(12, &[2, 3, 4]),
            rs(12, &[5, 7, 9, 11]),
            RunSet::full(12),
        ];
        for a in &sets {
            for b in &sets {
                let (da, db) = (a.to_dense(), b.to_dense());
                assert_eq!(a.intersects(b), da.intersects(&db), "{a:?} ∩ {b:?}");
                assert_eq!(a.is_subset_of(b), da.is_subset_of(&db), "{a:?} ⊆ {b:?}");
                let mut u = a.clone();
                u.union_with(b);
                let mut du = da.clone();
                du.union_with(&db);
                assert_eq!(u.to_dense(), du, "{a:?} ∪ {b:?}");
            }
        }
    }

    #[test]
    fn complement_partitions_the_universe() {
        for r in [rs(9, &[]), rs(9, &[0, 4, 5, 8]), RunSet::full(9)] {
            let c = r.complement();
            assert!(!r.intersects(&c) || r.is_empty() || c.is_empty());
            let mut all = r.clone();
            all.union_with(&c);
            assert_eq!(all, RunSet::full(9), "{r:?}");
        }
    }

    #[test]
    fn equality_is_set_equality() {
        assert_eq!(rs(8, &[1, 2, 3]), RunSet::interval(8, 1, 4));
        assert_ne!(rs(8, &[1, 2]), rs(8, &[1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let _ = RunSet::full(4).intersects(&RunSet::full(8));
    }

    /// The three compact builders agree with the dense ones, table for
    /// table, on a real tree.
    #[test]
    fn compact_builders_mirror_dense() {
        let tree = KaryTree::new(3, 2);
        let topo = tree.topology();
        let dense = RouteTables::build(topo);
        for compact in [
            CompactTables::from_dense(&dense),
            CompactTables::build(topo),
            CompactTables::for_karytree(&tree),
        ] {
            assert_eq!(compact.n_switches(), dense.n_switches());
            for s in 0..dense.n_switches() {
                let (ct, dt) = (
                    compact.table(SwitchId::from(s)),
                    dense.table(SwitchId::from(s)),
                );
                assert_eq!(ct.n_ports(), dt.n_ports(), "switch {s}");
                assert_eq!(ct.down_union().to_dense(), *dt.down_union(), "switch {s}");
                for p in 0..dt.n_ports() {
                    assert_eq!(ct.port(p).class, dt.port(p).class, "switch {s} port {p}");
                    assert_eq!(
                        ct.port(p).reach.to_dense(),
                        dt.port(p).reach,
                        "switch {s} port {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_compact_build_mirrors_dense_masked() {
        let tree = KaryTree::new(2, 3);
        let topo = tree.topology();
        let dead = [(tree.switch_at(0, 0), 2), (tree.switch_at(1, 0), 0)];
        let dense = RouteTables::build_masked(topo, &dead);
        let compact = CompactTables::build_masked(topo, &dead);
        for s in 0..dense.n_switches() {
            let (ct, dt) = (
                compact.table(SwitchId::from(s)),
                dense.table(SwitchId::from(s)),
            );
            for p in 0..dt.n_ports() {
                assert_eq!(ct.port(p).class, dt.port(p).class, "switch {s} port {p}");
                assert_eq!(
                    ct.port(p).reach.to_dense(),
                    dt.port(p).reach,
                    "switch {s} port {p}"
                );
            }
        }
    }

    #[test]
    fn karytree_reaches_are_single_runs() {
        let tree = KaryTree::new(4, 3);
        let compact = CompactTables::for_karytree(&tree);
        for s in 0..compact.n_switches() {
            let t = compact.table(SwitchId::from(s));
            for p in 0..t.n_ports() {
                assert!(t.port(p).reach.n_runs() <= 1, "switch {s} port {p}");
            }
            assert!(t.down_union().n_runs() <= 1, "switch {s}");
        }
    }
}
