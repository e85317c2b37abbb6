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
//! [`RunSet`] is exact — [`RunSet::from_dense`] keeps every bit, which
//! the unit tests enforce on random sets — and [`CompactTables`] holds
//! either an exact compression of dense route tables or the O(1)-per-port
//! symbolic tables of the k-ary n-tree family, which never materialize a
//! dense string at all.

use mintopo::karytree::KaryTree;
use mintopo::reach::PortClass;
use mintopo::route::RouteTables;
use netsim::destset::DestSet;
use netsim::ids::SwitchId;

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

    /// `true` when no host is in the set.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
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
    use netsim::ids::NodeId;
    use netsim::rng::SimRng;

    fn rs(len: usize, bits: &[usize]) -> RunSet {
        RunSet::from_dense(&DestSet::from_nodes(
            len,
            bits.iter().map(|&b| NodeId::from(b)),
        ))
    }

    /// Expands the runs back to the dense bit-string encoding.
    fn dense(r: &RunSet) -> DestSet {
        DestSet::from_nodes(
            r.len,
            r.runs.iter().flat_map(|&(lo, hi)| (lo..hi).map(NodeId)),
        )
    }

    /// The runs are sorted, disjoint, non-adjacent and inside the universe.
    fn assert_normalized(r: &RunSet) {
        for w in r.runs.windows(2) {
            assert!(w[0].1 < w[1].0, "{r:?}");
        }
        for &(lo, hi) in &r.runs {
            assert!(lo < hi && hi as usize <= r.len, "{r:?}");
        }
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
            assert_normalized(&r);
            assert_eq!(dense(&r), d, "{bits:?}");
            assert_eq!(r.is_empty(), d.is_empty());
        }
    }

    /// Run-length compression of random dense strings is exact: every set
    /// round-trips `dense → runs → dense` bit-identically, in normalized
    /// runs, never more runs than members.
    #[test]
    fn random_dense_sets_compress_exactly() {
        for case in 0..24 {
            let mut r = SimRng::new(0xA11A_5EED ^ 7).fork(case);
            let hosts = 2 + r.below(400);
            let src = NodeId(r.below(hosts) as u32);
            let size = 1 + r.below(hosts - 1);
            let d = r.dest_set(hosts, size, src);
            let runs = RunSet::from_dense(&d);
            assert_normalized(&runs);
            assert_eq!(dense(&runs), d, "case {case} ({hosts} hosts)");
            assert!(runs.runs.len() <= d.count(), "case {case}");
        }
        // The degenerate shapes the sampler can't hit.
        for hosts in [1usize, 2, 64, 65] {
            assert_eq!(dense(&RunSet::empty(hosts)).count(), 0);
            let full = RunSet::full(hosts);
            assert_eq!(dense(&full).count(), hosts);
            assert_eq!(full.runs.len(), 1, "consecutive bits coalesce to one run");
        }
    }

    #[test]
    fn runs_coalesce_adjacent_bits() {
        let r = rs(10, &[2, 3, 4, 7, 8]);
        assert_eq!(r.runs.len(), 2);
        assert_eq!(RunSet::full(10).runs.len(), 1);
        assert_eq!(RunSet::empty(10).runs.len(), 0);
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
                let (da, db) = (dense(a), dense(b));
                assert_eq!(a.intersects(b), da.intersects(&db), "{a:?} ∩ {b:?}");
                let mut u = a.clone();
                u.union_with(b);
                assert_normalized(&u);
                let mut du = da.clone();
                du.union_with(&db);
                assert_eq!(dense(&u), du, "{a:?} ∪ {b:?}");
            }
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

    /// Both compact builders agree with the dense tables, table for
    /// table, on a real tree.
    #[test]
    fn compact_builders_mirror_dense() {
        let tree = KaryTree::new(3, 2);
        let dense_tables = RouteTables::build(tree.topology());
        for compact in [
            CompactTables::from_dense(&dense_tables),
            CompactTables::for_karytree(&tree),
        ] {
            assert_eq!(compact.n_switches(), dense_tables.n_switches());
            for s in 0..dense_tables.n_switches() {
                let (ct, dt) = (
                    compact.table(SwitchId::from(s)),
                    dense_tables.table(SwitchId::from(s)),
                );
                assert_eq!(ct.n_ports(), dt.n_ports(), "switch {s}");
                assert_eq!(dense(ct.down_union()), *dt.down_union(), "switch {s}");
                for p in 0..dt.n_ports() {
                    assert_eq!(ct.port(p).class, dt.port(p).class, "switch {s} port {p}");
                    assert_eq!(
                        dense(&ct.port(p).reach),
                        dt.port(p).reach,
                        "switch {s} port {p}"
                    );
                }
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
                assert!(t.port(p).reach.runs.len() <= 1, "switch {s} port {p}");
            }
            assert!(t.down_union().runs.len() <= 1, "switch {s}");
        }
    }
}
