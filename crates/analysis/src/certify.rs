//! Topology-parametric deadlock-freedom certificates.
//!
//! The explicit analyzer ([`crate::analyze_fabric`]) proves the paper's
//! §3 up*/down* argument by *enumerating* the channel-dependency graph and
//! running Tarjan over it; it is the deadlock gate of config validation
//! and of the reroute vet. This module checks the same property a second,
//! independent way, with a local argument instead of a global one, and
//! over compressed tables, so it also reaches fabrics (the 64K symbolic
//! tier) where dense route tables cannot be built at all. A
//! [`Certificate`] assigns every channel a **rank** derived from
//! the layered up*/down* order, and the checker verifies, per route-table
//! entry, that every dependency the routing function can induce strictly
//! descends that rank. Strict descent makes the dependency relation a
//! strict partial order, so the CDG is acyclic — no cycle enumeration
//! needed, and the check is O(routes) with O(channels) memory.
//!
//! The rank construction mirrors [`mintopo::topology::Topology::is_down_hop`]'s
//! strict total order on switches. With `ord(sw)` the position of `sw` in
//! ascending `(depth, id)` order and `S` the switch count:
//!
//! * an output port that is a **down-hop** (or a host ejection cable) gets
//!   rank `S - ord(sw)` — descending worms sink deeper, rank shrinks;
//! * an output port that is an **up-hop** gets rank `S + 1 + ord(sw)` —
//!   ascending worms climb shallower, rank shrinks, and every up rank
//!   exceeds every down rank so the one-way up→down transition descends;
//! * a dangling table entry (attach `Unused`) gets rank `0`: a sink;
//! * an **injection** channel gets rank `2S + 2`, above everything.
//!
//! The generator is topology-parametric: for the k-ary n-tree family the
//! rule is the closed form [`RankRule::KaryStages`] (no per-switch data at
//! all); for arbitrary topologies it is an explicit ord table. Generator
//! and checker are deliberately split — the checker trusts nothing but
//! rank descent, so *any* valid rank assignment proves acyclicity.
//!
//! On acceptance the checker reports the same coverage counters the
//! explicit analyzer would — every channel is its own SCC in an acyclic
//! graph — which is what makes byte-identical verdicts at paper scale a
//! testable contract. On rejection it names the violating dependency and
//! closes a concrete channel chain through it when one exists within a
//! bounded search.

use crate::cdg::{Channel, Dependency, ShapeClass};
use crate::destset::{CompactTables, RunSet};
use crate::report::{ConfigReport, CycleReport};
use mintopo::karytree::KaryTree;
use mintopo::reach::PortClass;
use mintopo::topology::{Attach, Topology};
use netsim::ids::SwitchId;

/// Nodes the counterexample search will visit before giving up and
/// reporting the bare violating edge instead of a closed cycle.
const CYCLE_SEARCH_CAP: usize = 10_000;

/// Rank-violation errors rendered in full before the rest are summarized.
const MAX_REPORTED_VIOLATIONS: usize = 4;

/// How switch ranks are derived from switch ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankRule {
    /// Closed form for the k-ary n-tree family: stage-major ids, stage `s`
    /// at depth `n-1-s`, so `ord = (n-1-stage) * k^(n-1) + index`.
    KaryStages {
        /// Arity (down-port count per switch).
        k: usize,
        /// Number of stages.
        n: usize,
    },
    /// Explicit per-switch order positions (ascending `(depth, id)`).
    Explicit {
        /// `ord[s]` = rank position of switch `s`.
        ord: Vec<u32>,
    },
}

/// A serializable deadlock-freedom certificate for one fabric shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    n_hosts: usize,
    n_switches: usize,
    rule: RankRule,
}

/// Everything the checker learned from one pass over the tables.
#[derive(Debug, Clone)]
pub struct CertifyOutcome {
    /// Channels enumerated (identical to the explicit CDG's node count).
    pub channels: usize,
    /// Dependency edges checked (identical to the explicit CDG's edge
    /// count — the checker visits each exactly once).
    pub dependencies: usize,
    /// Rank-descent violations, in enumeration order.
    pub violations: Vec<RankViolation>,
    /// Set when the certificate does not fit the fabric at all.
    pub mismatch: Option<String>,
}

/// One dependency that fails to descend the certificate rank.
#[derive(Debug, Clone)]
pub struct RankViolation {
    /// `switch: held -> requested (shape)` label of the offending edge.
    pub edge: String,
    /// Rank of the held channel.
    pub from_rank: u64,
    /// Rank of the requested channel (`>= from_rank`).
    pub to_rank: u64,
    /// A concrete channel chain through the edge: a closed dependency
    /// cycle when the bounded search finds one, otherwise just the edge's
    /// two channels.
    pub chain: CycleReport,
    /// `true` when `chain` is a closed cycle.
    pub cycle_closed: bool,
}

impl Certificate {
    /// Closed-form certificate for a k-ary n-tree.
    pub fn for_karytree(tree: &KaryTree) -> Self {
        Certificate {
            n_hosts: tree.n_hosts(),
            n_switches: tree.topology().n_switches(),
            rule: RankRule::KaryStages {
                k: tree.k(),
                n: tree.stages(),
            },
        }
    }

    /// Explicit certificate for an arbitrary topology: switches ordered by
    /// ascending `(depth, id)` — exactly the strict total order
    /// [`Topology::is_down_hop`] is defined over, so honest up*/down*
    /// tables always descend it.
    pub fn for_topology(topo: &Topology) -> Self {
        let mut by_order: Vec<usize> = (0..topo.n_switches()).collect();
        by_order.sort_by_key(|&s| (topo.depth(SwitchId::from(s)), s));
        let mut ord = vec![0u32; topo.n_switches()];
        for (pos, &s) in by_order.iter().enumerate() {
            ord[s] = pos as u32;
        }
        Certificate {
            n_hosts: topo.n_hosts(),
            n_switches: topo.n_switches(),
            rule: RankRule::Explicit { ord },
        }
    }

    /// Number of hosts the certificate was generated for.
    pub fn n_hosts(&self) -> usize {
        self.n_hosts
    }

    /// Number of switches the certificate was generated for.
    pub fn n_switches(&self) -> usize {
        self.n_switches
    }

    /// The rank rule.
    pub fn rule(&self) -> &RankRule {
        &self.rule
    }

    /// Position of `sw` in the ascending `(depth, id)` switch order.
    pub fn ord(&self, sw: SwitchId) -> u64 {
        match &self.rule {
            RankRule::KaryStages { k, n } => {
                let per_stage = (self.n_hosts / k) as u64; // k^(n-1)
                let stage = sw.index() as u64 / per_stage;
                let index = sw.index() as u64 % per_stage;
                (*n as u64 - 1 - stage) * per_stage + index
            }
            RankRule::Explicit { ord } => ord[sw.index()] as u64,
        }
    }

    /// Rank of one channel (see the module docs for the construction).
    pub fn rank(&self, topo: &Topology, ch: Channel) -> u64 {
        let s = self.n_switches as u64;
        match ch {
            Channel::Inject { .. } => 2 * s + 2,
            Channel::SwitchOut { sw, port } => match topo.attach(sw, port) {
                Attach::Unused => 0,
                Attach::Host(_) => s - self.ord(sw),
                Attach::Switch(..) => {
                    if topo.is_down_hop(sw, port) {
                        s - self.ord(sw)
                    } else {
                        s + 1 + self.ord(sw)
                    }
                }
            },
        }
    }

    /// Checks every dependency the routing function can induce from
    /// `tables` for strict rank descent. One pass, O(routes) work,
    /// O(channels) memory — no dependency edge is ever stored.
    pub fn check(&self, topo: &Topology, tables: &CompactTables) -> CertifyOutcome {
        if self.n_hosts != tables.n_hosts() || self.n_switches != tables.n_switches() {
            return CertifyOutcome {
                channels: 0,
                dependencies: 0,
                violations: Vec::new(),
                mismatch: Some(format!(
                    "certificate is for {} hosts / {} switches, fabric has {} / {}",
                    self.n_hosts,
                    self.n_switches,
                    tables.n_hosts(),
                    tables.n_switches()
                )),
            };
        }

        let enumerator = DepEnumerator::new(topo, tables);
        let mut checked = 0usize;
        let mut violations = Vec::new();
        for from in 0..enumerator.channels.len() {
            enumerator.for_each_dep(from, |dep| {
                checked += 1;
                let from_rank = self.rank(topo, enumerator.channels[dep.from]);
                let to_rank = self.rank(topo, enumerator.channels[dep.to]);
                if to_rank >= from_rank {
                    let (chain, cycle_closed) = enumerator.close_chain(&dep);
                    violations.push(RankViolation {
                        edge: dep.describe(&enumerator.channels),
                        from_rank,
                        to_rank,
                        chain,
                        cycle_closed,
                    });
                }
            });
        }
        CertifyOutcome {
            channels: enumerator.channels.len(),
            dependencies: checked,
            violations,
            mismatch: None,
        }
    }
}

/// On-demand dependency enumeration over compressed tables, mirroring
/// [`crate::cdg::build_cdg`]'s channel ordering and feasibility rules
/// exactly — same channels, same edges, same order — so the checker's
/// coverage counters match the explicit analyzer's.
struct DepEnumerator<'a> {
    topo: &'a Topology,
    tables: &'a CompactTables,
    channels: Vec<Channel>,
    /// `(switch, out port) -> channel index`, `usize::MAX` for unused.
    out_index: Vec<Vec<usize>>,
    full: RunSet,
}

impl<'a> DepEnumerator<'a> {
    fn new(topo: &'a Topology, tables: &'a CompactTables) -> Self {
        let mut channels: Vec<Channel> = Vec::new();
        let mut out_index: Vec<Vec<usize>> = Vec::with_capacity(topo.n_switches());
        for s in 0..topo.n_switches() {
            let sw = SwitchId::from(s);
            let table = tables.table(sw);
            let mut row = vec![usize::MAX; topo.ports(sw)];
            for (port, slot) in row.iter_mut().enumerate() {
                if table.port(port).class != PortClass::Unused {
                    *slot = channels.len();
                    channels.push(Channel::SwitchOut { sw, port });
                }
            }
            out_index.push(row);
        }
        for h in 0..topo.n_hosts() {
            let host = netsim::ids::NodeId::from(h);
            let (sw, port) = topo.host_inject(host);
            channels.push(Channel::Inject { host, sw, port });
        }
        DepEnumerator {
            topo,
            tables,
            channels,
            out_index,
            full: RunSet::full(tables.n_hosts()),
        }
    }

    /// Calls `f` for every feasible dependency out of channel `from`, in
    /// the same order the explicit CDG builder would emit them.
    fn for_each_dep<F: FnMut(Dependency)>(&self, from: usize, mut f: F) {
        let (at, out_of, reach_in) = match self.channels[from] {
            Channel::Inject { sw, .. } => (sw, usize::MAX, None),
            Channel::SwitchOut { sw, port } => match self.topo.attach(sw, port) {
                Attach::Host(_) | Attach::Unused => return, // sink
                Attach::Switch(next, _) => {
                    if self.topo.is_down_hop(sw, port) {
                        (next, port, Some(&self.tables.table(sw).port(port).reach))
                    } else {
                        (next, port, None)
                    }
                }
            },
        };
        let shape = if reach_in.is_some() {
            ShapeClass::Descending
        } else {
            ShapeClass::Ascending
        };
        let table = self.tables.table(at);
        let may_ascend = shape == ShapeClass::Ascending && table.down_union() != &self.full;
        for (onto, &to) in self.out_index[at.index()].iter().enumerate() {
            if to == usize::MAX {
                continue;
            }
            let info = table.port(onto);
            let feasible = match info.class {
                PortClass::Down => match reach_in {
                    Some(r) => info.reach.intersects(r),
                    None => !info.reach.is_empty(),
                },
                PortClass::Up => may_ascend,
                PortClass::Unused => false,
            };
            if feasible {
                f(Dependency {
                    from,
                    to,
                    at,
                    out_of,
                    onto,
                    shape,
                });
            }
        }
    }

    /// Tries to close a dependency cycle through a violating edge with a
    /// bounded DFS from its head back to its tail. Returns the channel
    /// chain (closed cycle when found, otherwise just the edge itself) and
    /// whether it closed.
    fn close_chain(&self, violating: &Dependency) -> (CycleReport, bool) {
        use std::collections::HashMap;
        // parent[c] = edge that discovered channel c.
        let mut parent: HashMap<usize, Dependency> = HashMap::new();
        let mut stack = vec![violating.to];
        parent.insert(violating.to, *violating);
        let mut visited = 0usize;
        let mut found = false;
        'search: while let Some(c) = stack.pop() {
            visited += 1;
            if visited > CYCLE_SEARCH_CAP {
                break;
            }
            let mut hits = Vec::new();
            self.for_each_dep(c, |d| hits.push(d));
            for d in hits {
                if d.to == violating.from {
                    parent.insert(d.to, d);
                    found = true;
                    break 'search;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(d.to) {
                    e.insert(d);
                    stack.push(d.to);
                }
            }
        }
        if !found {
            return (
                CycleReport {
                    channels: vec![
                        self.channels[violating.from].describe(),
                        self.channels[violating.to].describe(),
                    ],
                    edges: vec![violating.describe(&self.channels)],
                },
                false,
            );
        }
        // Walk parents back from `violating.from` to reconstruct the cycle.
        let mut edges_rev = Vec::new();
        let mut cursor = violating.from;
        loop {
            let d = parent[&cursor];
            edges_rev.push(d);
            cursor = d.from;
            if cursor == violating.from {
                break;
            }
        }
        edges_rev.reverse();
        let channels = edges_rev
            .iter()
            .map(|d| self.channels[d.from].describe())
            .collect();
        let edges = edges_rev
            .iter()
            .map(|d| d.describe(&self.channels))
            .collect();
        (CycleReport { channels, edges }, true)
    }
}

/// Runs the certificate check over compressed tables, appending findings
/// and coverage counters to `report` — the certificate-side analog of
/// [`crate::analyze_fabric`]'s CDG + SCC half.
///
/// On acceptance the counters are exactly what the explicit analyzer
/// reports (strict descent ⟹ acyclic ⟹ every channel its own SCC).
pub fn certify_fabric(
    cert: &Certificate,
    topo: &Topology,
    tables: &CompactTables,
    report: &mut ConfigReport,
) {
    let out = cert.check(topo, tables);
    if let Some(m) = out.mismatch {
        report.error("certificate-mismatch", m);
        return;
    }
    report.stats.channels = out.channels;
    report.stats.dependencies = out.dependencies;
    if out.violations.is_empty() {
        report.stats.sccs = out.channels;
        return;
    }
    let total = out.violations.len();
    for v in out.violations.into_iter().take(MAX_REPORTED_VIOLATIONS) {
        let how = if v.cycle_closed {
            format!(
                "closing the dependency cycle {}",
                v.chain.channels.join(" -> ")
            )
        } else {
            "no closed cycle found within the search bound, but acyclicity \
             is no longer certified"
                .to_string()
        };
        report.error(
            "rank-violation",
            format!(
                "dependency fails to descend the up*/down* channel rank \
                 ({} -> {}): {} — {how}",
                v.from_rank, v.to_rank, v.edge
            ),
        );
        report.cycles.push(v.chain);
    }
    if total > MAX_REPORTED_VIOLATIONS {
        report.error(
            "rank-violation",
            format!(
                "{} further rank violation(s) suppressed",
                total - MAX_REPORTED_VIOLATIONS
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_fabric, roundtrip, vet_reroute};
    use mintopo::route::{ReplicatePolicy, RouteTables};
    use mintopo::topology::TopologyBuilder;
    use netsim::ids::NodeId;

    fn karytree_cert_and_tables(k: usize, n: usize) -> (KaryTree, Certificate, CompactTables) {
        let tree = KaryTree::new(k, n);
        let cert = Certificate::for_karytree(&tree);
        let compact = CompactTables::for_karytree(&tree);
        (tree, cert, compact)
    }

    #[test]
    fn karytree_certificates_verify_clean() {
        for (k, n) in [(2, 2), (2, 3), (4, 2), (4, 3), (3, 3)] {
            let (tree, cert, compact) = karytree_cert_and_tables(k, n);
            let out = cert.check(tree.topology(), &compact);
            assert!(out.mismatch.is_none());
            assert!(
                out.violations.is_empty(),
                "k={k} n={n}: {:?}",
                out.violations
            );
            assert!(out.channels > 0);
            assert!(out.dependencies > 0);
        }
    }

    #[test]
    fn checker_counters_match_explicit_cdg() {
        for (k, n) in [(2, 3), (4, 3)] {
            let (tree, cert, compact) = karytree_cert_and_tables(k, n);
            let dense = RouteTables::build(tree.topology());
            let g = crate::build_cdg(tree.topology(), &dense);
            let out = cert.check(tree.topology(), &compact);
            assert_eq!(out.channels, g.channels.len(), "k={k} n={n}");
            assert_eq!(out.dependencies, g.n_dependencies(), "k={k} n={n}");
        }
    }

    #[test]
    fn certified_verdict_renders_byte_identical_to_explicit() {
        let tree = KaryTree::new(4, 3);
        let dense = RouteTables::build(tree.topology());

        let mut explicit = ConfigReport::new();
        analyze_fabric(
            tree.topology(),
            &dense,
            ReplicatePolicy::ReturnOnly,
            &mut explicit,
        );

        let cert = Certificate::for_karytree(&tree);
        let compact = CompactTables::from_dense(&dense);
        let mut certified = ConfigReport::new();
        certify_fabric(&cert, tree.topology(), &compact, &mut certified);
        roundtrip::lint_roundtrips(&dense, ReplicatePolicy::ReturnOnly, &mut certified);

        assert!(explicit.is_clean(), "{:?}", explicit.diagnostics);
        assert!(certified.is_clean(), "{:?}", certified.diagnostics);
        assert_eq!(explicit.render_human(), certified.render_human());
        assert_eq!(explicit.render_json(), certified.render_json());
    }

    #[test]
    fn explicit_rule_matches_family_rule_on_karytree() {
        let tree = KaryTree::new(3, 3);
        let family = Certificate::for_karytree(&tree);
        let general = Certificate::for_topology(tree.topology());
        for s in 0..tree.topology().n_switches() {
            assert_eq!(
                family.ord(SwitchId::from(s)),
                general.ord(SwitchId::from(s)),
                "switch {s}"
            );
        }
    }

    #[test]
    fn mismatched_certificate_is_reported_not_panicked() {
        let (tree, _, compact) = karytree_cert_and_tables(2, 2);
        let other = Certificate::for_karytree(&KaryTree::new(2, 3));
        let mut report = ConfigReport::new();
        certify_fabric(&other, tree.topology(), &compact, &mut report);
        assert!(report.errors().any(|d| d.code == "certificate-mismatch"));
    }

    /// The crossed-Down pathology from the explicit analyzer's test suite:
    /// the certificate checker must reject it too, with a concrete closed
    /// channel chain.
    #[test]
    fn rank_violating_candidate_rejected_with_channel_chain() {
        use mintopo::reach::{PortClass, PortInfo};
        use mintopo::route::SwitchTable;
        use netsim::destset::DestSet;

        let mut b = TopologyBuilder::new(2);
        let a = b.add_switch(2, 1);
        let c = b.add_switch(2, 1);
        b.attach_host(NodeId(0), a, 1);
        b.attach_host(NodeId(1), c, 1);
        b.connect(a, 0, c, 0);
        let topo = b.build();

        let full = DestSet::full(2);
        let mk = |own: u32| {
            SwitchTable::from_ports(
                vec![
                    PortInfo {
                        class: PortClass::Down,
                        reach: full.clone(),
                    },
                    PortInfo {
                        class: PortClass::Down,
                        reach: DestSet::singleton(2, NodeId(own)),
                    },
                ],
                2,
            )
        };
        let candidate = RouteTables::from_tables(vec![mk(0), mk(1)], 2);

        let cert = Certificate::for_topology(&topo);
        let mut report = ConfigReport::new();
        certify_fabric(
            &cert,
            &topo,
            &CompactTables::from_dense(&candidate),
            &mut report,
        );
        assert!(
            report.errors().any(|d| d.code == "rank-violation"),
            "{:?}",
            report.diagnostics
        );
        // Concrete channel-chain counterexample: the closed 2-cycle through
        // both switch output channels, same channels the explicit analyzer
        // names.
        assert!(!report.cycles.is_empty());
        let chain = report.cycles[0].channels.join(" ");
        assert!(chain.contains("s0.out0"), "{chain}");
        assert!(chain.contains("s1.out0"), "{chain}");
        assert!(!report.cycles[0].edges.is_empty());

        // And the explicit gate agrees on the verdict.
        assert!(vet_reroute(&topo, &candidate, ReplicatePolicy::ReturnOnly).is_err());
    }

    /// The certificate over a masked rebuild's compressed tables reaches
    /// the explicit CDG's verdict and counters on the same tables.
    #[test]
    fn certificate_agrees_with_explicit_cdg_on_masked_rebuilds() {
        let tree = KaryTree::new(2, 3);
        let topo = tree.topology();
        let cert = Certificate::for_karytree(&tree);
        // A healthy rebuild and a couple of masked ones.
        let masks: Vec<Vec<(SwitchId, usize)>> = vec![
            vec![],
            vec![(tree.switch_at(0, 0), 2), (tree.switch_at(1, 0), 0)],
            vec![(tree.switch_at(1, 1), 2), (tree.switch_at(2, 1), 0)],
        ];
        for dead in masks {
            let candidate = RouteTables::build_masked(topo, &dead);
            let mut explicit = ConfigReport::new();
            analyze_fabric(topo, &candidate, ReplicatePolicy::ReturnOnly, &mut explicit);
            let mut certified = ConfigReport::new();
            certify_fabric(
                &cert,
                topo,
                &CompactTables::from_dense(&candidate),
                &mut certified,
            );
            assert!(
                !explicit.errors().any(|d| d.code == "cdg-cycle"),
                "{dead:?}: {:?}",
                explicit.diagnostics
            );
            assert!(
                !certified.has_errors(),
                "{dead:?}: {:?}",
                certified.diagnostics
            );
            assert_eq!(
                certified.stats.channels, explicit.stats.channels,
                "{dead:?}"
            );
            assert_eq!(
                certified.stats.dependencies, explicit.stats.dependencies,
                "{dead:?}"
            );
            assert_eq!(certified.stats.sccs, explicit.stats.sccs, "{dead:?}");
        }
    }
}
