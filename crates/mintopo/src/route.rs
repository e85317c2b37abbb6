//! Table-driven routing for unicast worms and multidestination worms.
//!
//! A [`SwitchTable`] holds one switch's port classification and reachability
//! strings and answers two questions:
//!
//! * [`SwitchTable::route_unicast`] — which output port does a unicast worm
//!   take? *Down* if the destination is below this switch, otherwise any
//!   *up* port (the caller — the switch — picks among candidates
//!   deterministically or adaptively, the choice the paper leaves open).
//! * [`SwitchTable::route_bitstring`] — how does a bit-string
//!   multidestination worm replicate here? If every remaining destination
//!   is reachable downward, the worm has reached the LCA stage and fans out
//!   over the down ports, each branch's header restricted by the port's
//!   reachability string. Otherwise it continues upward — carrying either
//!   the full set ([`ReplicatePolicy::ReturnOnly`], replicate only on the
//!   way back, as in the companion TR \[27\]) or just the uncovered remainder
//!   while the covered part branches off immediately
//!   ([`ReplicatePolicy::ForwardAndReturn`]).

use crate::reach::{build_port_info_masked, PortClass, PortInfo};
use crate::topology::Topology;
use netsim::destset::DestSet;
use netsim::ids::{NodeId, SwitchId};

/// When a multidestination worm may begin replicating (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicatePolicy {
    /// Travel to the LCA stage first, then cover all destinations on the
    /// way back down (single worm, no forward-path branching).
    #[default]
    ReturnOnly,
    /// Branch downward to already-covered destinations while the remainder
    /// continues upward.
    ForwardAndReturn,
}

/// Routing decision for a unicast worm at one switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnicastRoute {
    /// Take this down port.
    Down(usize),
    /// Take one of these up ports (caller chooses).
    Up(Vec<usize>),
}

/// Replication decision for a bit-string multidestination worm at one
/// switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McastRoute {
    /// Downward branches: `(output port, residual destination set)`. The
    /// residual sets are pairwise disjoint and cover exactly the
    /// destinations this switch resolves downward.
    pub down: Vec<(usize, DestSet)>,
    /// Upward continuation: candidate up ports and the destination set the
    /// up-branch must still cover. `None` once the LCA stage is reached.
    pub up: Option<(Vec<usize>, DestSet)>,
}

impl McastRoute {
    /// Total number of branches (down branches plus the up branch).
    pub fn fanout(&self) -> usize {
        self.down.len() + usize::from(self.up.is_some())
    }
}

/// One switch's routing/reachability table.
#[derive(Debug, Clone)]
pub struct SwitchTable {
    ports: Vec<PortInfo>,
    down_union: DestSet,
    up_ports: Vec<usize>,
}

impl SwitchTable {
    /// Builds a table directly from per-port classifications.
    ///
    /// Normal construction goes through [`RouteTables::build`] /
    /// [`RouteTables::build_masked`]; this constructor exists for synthetic
    /// tables — reroute candidates under test, or deliberately pathological
    /// tables exercising the deadlock analyzer's rejection path.
    pub fn from_ports(ports: Vec<PortInfo>, universe: usize) -> Self {
        Self::new(ports, universe)
    }

    fn new(ports: Vec<PortInfo>, universe: usize) -> Self {
        let mut down_union = DestSet::empty(universe);
        let mut up_ports = Vec::new();
        for (p, info) in ports.iter().enumerate() {
            match info.class {
                PortClass::Down => down_union.union_with(&info.reach),
                PortClass::Up => up_ports.push(p),
                PortClass::Unused => {}
            }
        }
        SwitchTable {
            ports,
            down_union,
            up_ports,
        }
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.ports.len()
    }

    /// Classification and reachability of port `p`.
    pub fn port(&self, p: usize) -> &PortInfo {
        &self.ports[p]
    }

    /// Union of all down-port reachability strings.
    pub fn down_union(&self) -> &DestSet {
        &self.down_union
    }

    /// The up ports, in ascending order.
    pub fn up_ports(&self) -> &[usize] {
        &self.up_ports
    }

    /// Up ports whose reachability string covers all of `set`.
    ///
    /// With tables from [`RouteTables::build`] every up port reaches every
    /// host, so this returns all up ports; with masked tables
    /// ([`RouteTables::build_masked`]) it filters out up ports that lead
    /// into regions cut off by dead links.
    fn up_covering(&self, set: &DestSet) -> Vec<usize> {
        self.up_ports
            .iter()
            .copied()
            .filter(|&p| set.is_subset_of(&self.ports[p].reach))
            .collect()
    }

    /// Routes a unicast worm, or `None` if no surviving port leads to the
    /// destination (possible only on masked tables with a partitioned
    /// fabric).
    pub fn try_route_unicast(&self, dest: NodeId) -> Option<UnicastRoute> {
        for (p, info) in self.ports.iter().enumerate() {
            if info.class == PortClass::Down && info.reach.contains(dest) {
                return Some(UnicastRoute::Down(p));
            }
        }
        let cands: Vec<usize> = self
            .up_ports
            .iter()
            .copied()
            .filter(|&p| self.ports[p].reach.contains(dest))
            .collect();
        if cands.is_empty() {
            None
        } else {
            Some(UnicastRoute::Up(cands))
        }
    }

    /// Routes a unicast worm.
    ///
    /// # Panics
    ///
    /// Panics if the destination is neither below this switch nor behind a
    /// surviving up port — that would mean the (masked) topology is not
    /// fully connected.
    pub fn route_unicast(&self, dest: NodeId) -> UnicastRoute {
        self.try_route_unicast(dest).unwrap_or_else(|| {
            panic!("destination {dest} unreachable: no covering down port and no up port")
        })
    }

    /// Routes / replicates a bit-string worm, or `Err` with the residual
    /// subset this switch cannot forward — no down port covers it and no
    /// surviving up port's reach contains the set the up branch would have
    /// to carry. The error set is what a degradation planner peels out of
    /// the worm ([`plan_mcast_coverage`]).
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty (a programming error, not a fault).
    pub fn try_route_bitstring(
        &self,
        dests: &DestSet,
        policy: ReplicatePolicy,
    ) -> Result<McastRoute, DestSet> {
        assert!(!dests.is_empty(), "multicast worm with empty residual set");
        let uncovered = dests.minus(&self.down_union);
        if !uncovered.is_empty() && policy == ReplicatePolicy::ReturnOnly {
            // ReturnOnly carries the *whole* set up, so the up port must
            // cover all of it; peeling just the locally-uncovered part
            // leaves a set this switch can resolve downward.
            let cands = self.up_covering(dests);
            if cands.is_empty() {
                return Err(uncovered);
            }
            return Ok(McastRoute {
                down: Vec::new(),
                up: Some((cands, dests.clone())),
            });
        }
        let mut remaining = dests.and(&self.down_union);
        let mut down = Vec::new();
        for (p, info) in self.ports.iter().enumerate() {
            if remaining.is_empty() {
                break;
            }
            if info.class == PortClass::Down {
                let take = remaining.and(&info.reach);
                if !take.is_empty() {
                    remaining.subtract(&take);
                    down.push((p, take));
                }
            }
        }
        debug_assert!(remaining.is_empty());
        let up = if uncovered.is_empty() {
            None
        } else {
            let cands = self.up_covering(&uncovered);
            if cands.is_empty() {
                return Err(uncovered);
            }
            Some((cands, uncovered))
        };
        Ok(McastRoute { down, up })
    }

    /// Routes / replicates a bit-string multidestination worm carrying the
    /// residual destination set `dests`.
    ///
    /// Destinations covered by several down ports (possible in irregular
    /// networks) are assigned to the lowest-numbered covering port, keeping
    /// the branch sets disjoint so each destination receives exactly one
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty, or if some destination is uncoverable
    /// (disconnected topology).
    pub fn route_bitstring(&self, dests: &DestSet, policy: ReplicatePolicy) -> McastRoute {
        self.try_route_bitstring(dests, policy)
            .unwrap_or_else(|bad| {
                panic!("destinations {bad:?} unreachable and no up port covers them")
            })
    }
}

/// All switches' tables for one topology.
#[derive(Debug, Clone)]
pub struct RouteTables {
    tables: Vec<SwitchTable>,
    n_hosts: usize,
}

impl RouteTables {
    /// Derives routing tables from a healthy topology: [`build_masked`]
    /// with no dead port.
    ///
    /// [`build_masked`]: RouteTables::build_masked
    pub fn build(topo: &Topology) -> Self {
        RouteTables::build_masked(topo, &[])
    }

    /// Derives routing tables with dead directed output ports masked out.
    ///
    /// Dead ports become unusable, downward cones shrink past the failures,
    /// and up ports carry **exact** reachability strings (see
    /// [`build_port_info_masked`]) so routing never ascends into a cut-off
    /// region.
    pub fn build_masked(topo: &Topology, dead: &[(SwitchId, usize)]) -> Self {
        let infos = build_port_info_masked(topo, dead);
        let n_hosts = topo.n_hosts();
        RouteTables {
            tables: infos
                .into_iter()
                .map(|ports| SwitchTable::new(ports, n_hosts))
                .collect(),
            n_hosts,
        }
    }

    /// Assembles tables from individually constructed [`SwitchTable`]s.
    ///
    /// For synthetic candidates (deadlock-analyzer rejection tests); normal
    /// construction goes through [`RouteTables::build`] /
    /// [`RouteTables::build_masked`].
    pub fn from_tables(tables: Vec<SwitchTable>, n_hosts: usize) -> Self {
        RouteTables { tables, n_hosts }
    }

    /// The table of switch `sw`.
    pub fn table(&self, sw: SwitchId) -> &SwitchTable {
        &self.tables[sw.index()]
    }

    /// System size `N`.
    pub fn n_hosts(&self) -> usize {
        self.n_hosts
    }

    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.tables.len()
    }
}

/// Deterministic pick among up-port candidates: a stateless hash of `salt`
/// (e.g. the destination id) spreads different flows over different ports
/// while keeping each flow on one path.
pub fn pick_deterministic(candidates: &[usize], salt: u64) -> usize {
    assert!(!candidates.is_empty(), "no up-port candidates");
    let mut z = salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    candidates[(z % candidates.len() as u64) as usize]
}

/// Why a route trace failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A switch had no surviving port for this residual set. The set is
    /// what a degradation planner must peel out and serve another way
    /// (software unicast over surviving paths).
    Unroutable(DestSet),
    /// Structural failure — hop bound exceeded, misdelivery, a route into
    /// an unused port. Indicates broken tables, not a peelable outage.
    Malformed(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Unroutable(set) => write!(f, "unroutable destinations {set:?}"),
            TraceError::Malformed(msg) => f.write_str(msg),
        }
    }
}

/// Traces the unicast route from `src` to `dst` through the tables without
/// simulating time, resolving up-port choices deterministically. Fallible
/// variant of [`trace_unicast`]: an unreachable destination (masked tables,
/// partitioned fabric) comes back as [`TraceError::Unroutable`] instead of
/// panicking.
pub fn try_trace_unicast(
    tables: &RouteTables,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
) -> Result<Vec<SwitchId>, TraceError> {
    use crate::topology::Attach;
    let (mut sw, _) = topo.host_inject(src);
    let mut path = Vec::new();
    loop {
        path.push(sw);
        if path.len() > max_hops {
            return Err(TraceError::Malformed(format!(
                "route {src}->{dst} exceeded {max_hops} hops"
            )));
        }
        let Some(route) = tables.table(sw).try_route_unicast(dst) else {
            return Err(TraceError::Unroutable(DestSet::singleton(
                tables.n_hosts(),
                dst,
            )));
        };
        match route {
            UnicastRoute::Down(p) => match topo.attach(sw, p) {
                Attach::Host(h) if h == dst => return Ok(path),
                Attach::Host(h) => {
                    return Err(TraceError::Malformed(format!(
                        "delivered to {h}, wanted {dst}"
                    )))
                }
                Attach::Switch(next, _) => sw = next,
                Attach::Unused => {
                    return Err(TraceError::Malformed("routed into unused port".to_string()))
                }
            },
            UnicastRoute::Up(cands) => {
                let p = pick_deterministic(&cands, dst.index() as u64);
                match topo.attach(sw, p) {
                    Attach::Switch(next, _) => sw = next,
                    other => {
                        return Err(TraceError::Malformed(format!("up port leads to {other:?}")))
                    }
                }
            }
        }
    }
}

/// Traces the unicast route from `src` to `dst` through the tables without
/// simulating time, resolving up-port choices deterministically.
///
/// Returns the sequence of switches visited.
///
/// # Errors
///
/// Returns a description of the failure if the route exceeds `max_hops`
/// switches or ends at the wrong host.
///
/// # Panics
///
/// Panics if the destination is unreachable (disconnected topology); use
/// [`try_trace_unicast`] to get that case as an error instead.
pub fn trace_unicast(
    tables: &RouteTables,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
) -> Result<Vec<SwitchId>, String> {
    match try_trace_unicast(tables, topo, src, dst, max_hops) {
        Ok(path) => Ok(path),
        Err(TraceError::Malformed(msg)) => Err(msg),
        Err(TraceError::Unroutable(_)) => {
            panic!("destination {dst} unreachable: no covering down port and no up port")
        }
    }
}

/// Result of tracing a multidestination worm's replication tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McastTrace {
    /// Hosts that received a copy.
    pub delivered: DestSet,
    /// Number of link traversals the replication tree used (worm branches,
    /// not per-flit).
    pub branch_hops: usize,
    /// Deepest switch count along any root-to-leaf branch path.
    pub depth: usize,
}

/// Traces a bit-string multidestination worm's replication tree without
/// simulating time. Fallible variant of [`trace_bitstring`]: a residual set
/// no switch can forward (masked tables) comes back as
/// [`TraceError::Unroutable`] carrying the peelable subset.
pub fn try_trace_bitstring(
    tables: &RouteTables,
    topo: &Topology,
    src: NodeId,
    dests: &DestSet,
    policy: ReplicatePolicy,
    max_hops: usize,
) -> Result<McastTrace, TraceError> {
    use crate::topology::Attach;
    let (start, _) = topo.host_inject(src);
    let mut delivered = DestSet::empty(topo.n_hosts());
    let mut branch_hops = 0usize;
    let mut depth = 0usize;
    let mut queue = vec![(start, dests.clone(), 1usize)];
    while let Some((sw, residual, d)) = queue.pop() {
        if d > max_hops {
            return Err(TraceError::Malformed(format!(
                "branch exceeded {max_hops} hops"
            )));
        }
        depth = depth.max(d);
        let route = tables
            .table(sw)
            .try_route_bitstring(&residual, policy)
            .map_err(TraceError::Unroutable)?;
        for (p, set) in &route.down {
            branch_hops += 1;
            match topo.attach(sw, *p) {
                Attach::Host(h) => {
                    if set.count() != 1 || !set.contains(h) {
                        return Err(TraceError::Malformed(format!(
                            "host port {h} got residual {set:?}"
                        )));
                    }
                    if !delivered.insert(h) {
                        return Err(TraceError::Malformed(format!("duplicate delivery to {h}")));
                    }
                }
                Attach::Switch(next, _) => queue.push((next, set.clone(), d + 1)),
                Attach::Unused => {
                    return Err(TraceError::Malformed(
                        "replicated into unused port".to_string(),
                    ))
                }
            }
        }
        if let Some((cands, set)) = &route.up {
            branch_hops += 1;
            let p = pick_deterministic(cands, set.first().map_or(0, |n| n.index() as u64));
            match topo.attach(sw, p) {
                Attach::Switch(next, _) => queue.push((next, set.clone(), d + 1)),
                other => return Err(TraceError::Malformed(format!("up port leads to {other:?}"))),
            }
        }
    }
    Ok(McastTrace {
        delivered,
        branch_hops,
        depth,
    })
}

/// Traces a bit-string multidestination worm's replication tree without
/// simulating time.
///
/// # Errors
///
/// Returns a description of the failure if any branch exceeds `max_hops`
/// switches or a destination would receive a duplicate copy.
///
/// # Panics
///
/// Panics if some destination subset is uncoverable (disconnected
/// topology); use [`try_trace_bitstring`] to get that case as an error.
pub fn trace_bitstring(
    tables: &RouteTables,
    topo: &Topology,
    src: NodeId,
    dests: &DestSet,
    policy: ReplicatePolicy,
    max_hops: usize,
) -> Result<McastTrace, String> {
    match try_trace_bitstring(tables, topo, src, dests, policy, max_hops) {
        Ok(trace) => Ok(trace),
        Err(TraceError::Malformed(msg)) => Err(msg),
        Err(TraceError::Unroutable(bad)) => {
            panic!("destinations {bad:?} unreachable and no up port covers them")
        }
    }
}

/// How one multicast is served on a (possibly degraded) fabric: the part a
/// single multidestination worm can still cover, and the part that must be
/// peeled out and served by software unicast over surviving paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McastPlan {
    /// Destinations one bit-string worm covers (may be empty).
    pub worm: DestSet,
    /// Destinations no worm from `src` can reach; the degraded mode serves
    /// these with binomial-tree unicast (may be empty on a healthy fabric).
    pub peeled: DestSet,
}

/// Plans multicast coverage on masked tables by greedy peeling: trace the
/// worm, and whenever a switch reports an unroutable residual subset, peel
/// that subset out and retry with the remainder. Terminates because every
/// peel strictly shrinks the worm set.
///
/// Peeled destinations are *worm*-unreachable but often still
/// unicast-reachable (unicasts may take up/down paths per-destination that
/// a single worm cannot combine); the caller checks with
/// [`try_trace_unicast`].
///
/// # Errors
///
/// Returns a description of the failure on structurally broken tables
/// (hop-bound or misdelivery failures).
pub fn plan_mcast_coverage(
    tables: &RouteTables,
    topo: &Topology,
    src: NodeId,
    dests: &DestSet,
    policy: ReplicatePolicy,
    max_hops: usize,
) -> Result<McastPlan, String> {
    let mut worm = dests.clone();
    let mut peeled = DestSet::empty(tables.n_hosts());
    while !worm.is_empty() {
        match try_trace_bitstring(tables, topo, src, &worm, policy, max_hops) {
            Ok(trace) => {
                debug_assert_eq!(trace.delivered, worm);
                break;
            }
            Err(TraceError::Unroutable(bad)) => {
                let cut = bad.and(&worm);
                if cut.is_empty() {
                    return Err(format!(
                        "unroutable set {bad:?} disjoint from residual worm {worm:?}"
                    ));
                }
                worm.subtract(&cut);
                peeled.union_with(&cut);
            }
            Err(TraceError::Malformed(msg)) => return Err(msg),
        }
    }
    Ok(McastPlan { worm, peeled })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    /// Two leaf switches under a root; two hosts per leaf.
    fn tables() -> RouteTables {
        let mut b = TopologyBuilder::new(4);
        let s0 = b.add_switch(4, 1);
        let s1 = b.add_switch(4, 1);
        let s2 = b.add_switch(4, 0);
        for h in 0..2 {
            b.attach_host(NodeId(h), s0, h as usize);
            b.attach_host(NodeId(h + 2), s1, h as usize);
        }
        b.connect(s0, 3, s2, 0);
        b.connect(s1, 3, s2, 1);
        RouteTables::build(&b.build())
    }

    #[test]
    fn unicast_down_and_up() {
        let t = tables();
        let leaf = t.table(SwitchId(0));
        assert_eq!(leaf.route_unicast(NodeId(1)), UnicastRoute::Down(1));
        assert_eq!(leaf.route_unicast(NodeId(3)), UnicastRoute::Up(vec![3]));
        let root = t.table(SwitchId(2));
        assert_eq!(root.route_unicast(NodeId(3)), UnicastRoute::Down(1));
    }

    #[test]
    fn mcast_at_lca_fans_out_disjointly() {
        let t = tables();
        let root = t.table(SwitchId(2));
        let dests = DestSet::from_nodes(4, [0, 1, 3].map(NodeId));
        let r = root.route_bitstring(&dests, ReplicatePolicy::ReturnOnly);
        assert!(r.up.is_none(), "root covers everything downward");
        assert_eq!(r.fanout(), 2);
        let total: usize = r.down.iter().map(|(_, d)| d.count()).sum();
        assert_eq!(total, 3);
        // Branch sets disjoint.
        assert!(!r.down[0].1.intersects(&r.down[1].1));
    }

    #[test]
    fn return_only_carries_everything_up() {
        let t = tables();
        let leaf = t.table(SwitchId(0));
        // h0 is below, h2 is not: under ReturnOnly the whole set goes up.
        let dests = DestSet::from_nodes(4, [0, 2].map(NodeId));
        let r = leaf.route_bitstring(&dests, ReplicatePolicy::ReturnOnly);
        assert!(r.down.is_empty());
        let (cands, up_set) = r.up.expect("must go up");
        assert_eq!(cands, vec![3]);
        assert_eq!(up_set, dests);
    }

    #[test]
    fn forward_and_return_splits_early() {
        let t = tables();
        let leaf = t.table(SwitchId(0));
        let dests = DestSet::from_nodes(4, [0, 2].map(NodeId));
        let r = leaf.route_bitstring(&dests, ReplicatePolicy::ForwardAndReturn);
        assert_eq!(r.down, vec![(0, DestSet::singleton(4, NodeId(0)))]);
        let (_, up_set) = r.up.expect("remainder goes up");
        assert_eq!(up_set, DestSet::singleton(4, NodeId(2)));
    }

    #[test]
    fn covered_set_never_goes_up_under_either_policy() {
        let t = tables();
        let leaf = t.table(SwitchId(0));
        let dests = DestSet::from_nodes(4, [0, 1].map(NodeId));
        for policy in [
            ReplicatePolicy::ReturnOnly,
            ReplicatePolicy::ForwardAndReturn,
        ] {
            let r = leaf.route_bitstring(&dests, policy);
            assert!(r.up.is_none());
            assert_eq!(r.down.len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "empty residual set")]
    fn empty_mcast_panics() {
        let t = tables();
        let _ = t
            .table(SwitchId(0))
            .route_bitstring(&DestSet::empty(4), ReplicatePolicy::ReturnOnly);
    }

    #[test]
    fn trace_unicast_walks_the_tree() {
        let mut b = TopologyBuilder::new(4);
        let s0 = b.add_switch(4, 1);
        let s1 = b.add_switch(4, 1);
        let s2 = b.add_switch(4, 0);
        for h in 0..2 {
            b.attach_host(NodeId(h), s0, h as usize);
            b.attach_host(NodeId(h + 2), s1, h as usize);
        }
        b.connect(s0, 3, s2, 0);
        b.connect(s1, 3, s2, 1);
        let topo = b.build();
        let t = RouteTables::build(&topo);
        let path = trace_unicast(&t, &topo, NodeId(0), NodeId(3), 16).expect("routes");
        assert_eq!(path, vec![SwitchId(0), SwitchId(2), SwitchId(1)]);
        let same_leaf = trace_unicast(&t, &topo, NodeId(0), NodeId(1), 16).expect("routes");
        assert_eq!(same_leaf, vec![SwitchId(0)]);
    }

    #[test]
    fn trace_bitstring_covers_exactly_the_set() {
        let mut b = TopologyBuilder::new(4);
        let s0 = b.add_switch(4, 1);
        let s1 = b.add_switch(4, 1);
        let s2 = b.add_switch(4, 0);
        for h in 0..2 {
            b.attach_host(NodeId(h), s0, h as usize);
            b.attach_host(NodeId(h + 2), s1, h as usize);
        }
        b.connect(s0, 3, s2, 0);
        b.connect(s1, 3, s2, 1);
        let topo = b.build();
        let t = RouteTables::build(&topo);
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        for policy in [
            ReplicatePolicy::ReturnOnly,
            ReplicatePolicy::ForwardAndReturn,
        ] {
            let trace =
                trace_bitstring(&t, &topo, NodeId(0), &dests, policy, 16).expect("replicates");
            assert_eq!(trace.delivered, dests, "policy {policy:?}");
            assert!(trace.branch_hops >= 4);
        }
        // ForwardAndReturn delivers the local branch earlier (shallower tree
        // for destinations under the source's own leaf switch).
        let fr = trace_bitstring(
            &t,
            &topo,
            NodeId(0),
            &dests,
            ReplicatePolicy::ForwardAndReturn,
            16,
        )
        .unwrap();
        let ro = trace_bitstring(
            &t,
            &topo,
            NodeId(0),
            &dests,
            ReplicatePolicy::ReturnOnly,
            16,
        )
        .unwrap();
        assert!(fr.branch_hops <= ro.branch_hops);
    }

    /// Two leaf switches under two roots; every leaf has an up port to each
    /// root. s0=0, s1=1, r0=2, r1=3; s0 ports: h0, h1, ->r0, ->r1.
    fn two_root_net() -> Topology {
        let mut b = TopologyBuilder::new(4);
        let s0 = b.add_switch(4, 1);
        let s1 = b.add_switch(4, 1);
        let r0 = b.add_switch(2, 0);
        let r1 = b.add_switch(2, 0);
        b.attach_host(NodeId(0), s0, 0);
        b.attach_host(NodeId(1), s0, 1);
        b.attach_host(NodeId(2), s1, 0);
        b.attach_host(NodeId(3), s1, 1);
        b.connect(s0, 2, r0, 0);
        b.connect(s0, 3, r1, 0);
        b.connect(s1, 2, r0, 1);
        b.connect(s1, 3, r1, 1);
        b.build()
    }

    #[test]
    fn masked_reroute_takes_the_surviving_root() {
        let topo = two_root_net();
        // Kill s0's up link to r0: unicasts out of s0 must use r1.
        let t = RouteTables::build_masked(&topo, &[(SwitchId(0), 2)]);
        let path = trace_unicast(&t, &topo, NodeId(0), NodeId(2), 16).expect("routes");
        assert_eq!(path, vec![SwitchId(0), SwitchId(3), SwitchId(1)]);
    }

    #[test]
    fn dead_root_down_link_filters_up_candidates() {
        let topo = two_root_net();
        // Kill r0 -> s1: climbing to r0 can no longer reach h2/h3.
        let t = RouteTables::build_masked(&topo, &[(SwitchId(2), 1)]);
        let leaf = t.table(SwitchId(0));
        assert_eq!(
            leaf.try_route_unicast(NodeId(2)),
            Some(UnicastRoute::Up(vec![3])),
            "only the port toward the healthy root survives filtering"
        );
        // A worm for {h1, h2} must also pick an up port covering both.
        let dests = DestSet::from_nodes(4, [1, 2].map(NodeId));
        let r = leaf
            .try_route_bitstring(&dests, ReplicatePolicy::ReturnOnly)
            .expect("routable via r1");
        assert_eq!(r.up, Some((vec![3], dests)));
    }

    #[test]
    fn crossed_dead_links_peel_worm_but_keep_unicast() {
        let topo = two_root_net();
        // r0 can't descend to s1, r1 can't descend to s0: no single worm
        // from h0 covers both subtrees, but every unicast still routes.
        let t = RouteTables::build_masked(&topo, &[(SwitchId(2), 1), (SwitchId(3), 0)]);
        let dests = DestSet::from_nodes(4, [1, 2].map(NodeId));
        let plan = plan_mcast_coverage(
            &t,
            &topo,
            NodeId(0),
            &dests,
            ReplicatePolicy::ReturnOnly,
            16,
        )
        .expect("plans");
        assert_eq!(plan.worm, DestSet::singleton(4, NodeId(1)));
        assert_eq!(plan.peeled, DestSet::singleton(4, NodeId(2)));
        // The peeled destination is still unicast-reachable (via r1, which
        // can descend to s1 even though it cannot serve a worm from s0's
        // whole destination set).
        let path = try_trace_unicast(&t, &topo, NodeId(0), NodeId(2), 16).expect("unicast works");
        assert_eq!(path, vec![SwitchId(0), SwitchId(3), SwitchId(1)]);
    }

    #[test]
    fn fully_severed_subtree_reports_unroutable() {
        let topo = two_root_net();
        // Both roots lose their down link to s1: h2/h3 are cut off from s0.
        let t = RouteTables::build_masked(&topo, &[(SwitchId(2), 1), (SwitchId(3), 1)]);
        assert_eq!(
            try_trace_unicast(&t, &topo, NodeId(0), NodeId(2), 16),
            Err(TraceError::Unroutable(DestSet::singleton(4, NodeId(2))))
        );
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        let plan = plan_mcast_coverage(
            &t,
            &topo,
            NodeId(0),
            &dests,
            ReplicatePolicy::ReturnOnly,
            16,
        )
        .expect("plans");
        assert_eq!(plan.worm, DestSet::singleton(4, NodeId(1)));
        assert_eq!(plan.peeled, DestSet::from_nodes(4, [2, 3].map(NodeId)));
        // Intra-subtree traffic on the cut-off side still works.
        let path = try_trace_unicast(&t, &topo, NodeId(2), NodeId(3), 16).expect("local");
        assert_eq!(path, vec![SwitchId(1)]);
    }

    #[test]
    fn healthy_plan_peels_nothing() {
        let topo = two_root_net();
        let t = RouteTables::build_masked(&topo, &[]);
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        for policy in [
            ReplicatePolicy::ReturnOnly,
            ReplicatePolicy::ForwardAndReturn,
        ] {
            let plan = plan_mcast_coverage(&t, &topo, NodeId(0), &dests, policy, 16).unwrap();
            assert_eq!(plan.worm, dests);
            assert!(plan.peeled.is_empty());
        }
    }

    #[test]
    fn from_ports_builds_usable_synthetic_tables() {
        use crate::reach::{PortClass, PortInfo};
        let table = SwitchTable::from_ports(
            vec![
                PortInfo {
                    class: PortClass::Down,
                    reach: DestSet::singleton(2, NodeId(0)),
                },
                PortInfo {
                    class: PortClass::Down,
                    reach: DestSet::singleton(2, NodeId(1)),
                },
            ],
            2,
        );
        assert_eq!(table.down_union(), &DestSet::full(2));
        let t = RouteTables::from_tables(vec![table], 2);
        assert_eq!(t.n_switches(), 1);
        assert_eq!(
            t.table(SwitchId(0)).route_unicast(NodeId(1)),
            UnicastRoute::Down(1)
        );
    }

    #[test]
    fn deterministic_pick_is_stable_and_in_range() {
        let cands = [2usize, 5, 7];
        for salt in 0..100u64 {
            let a = pick_deterministic(&cands, salt);
            let b = pick_deterministic(&cands, salt);
            assert_eq!(a, b);
            assert!(cands.contains(&a));
        }
        // Different salts spread over multiple candidates.
        let picks: std::collections::HashSet<_> =
            (0..100u64).map(|s| pick_deterministic(&cands, s)).collect();
        assert!(picks.len() > 1);
    }
}
