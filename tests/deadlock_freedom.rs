//! Deadlock-freedom under saturating randomized traffic.
//!
//! The paper's central claim about implementability is that asynchronous
//! replication is deadlock-free as long as every switch guarantees an
//! accepted packet can be completely buffered. These tests drive every
//! architecture far past saturation and assert the watchdog never fires
//! and the network always drains once sources stop.
//!
//! The static half of that claim is an acyclic channel-dependency graph
//! (CDG). The second part of this file checks the graph against the
//! routes it abstracts, with a walk that shares no rule with
//! `mdw_analysis::cdg` (DESIGN.md §16).

use mdw_analysis::{build_cdg, Channel, ChannelGraph};
use mdworm::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::sim::{run_experiment, RunConfig};
use mdworm::workload::TrafficSpec;
use mintopo::irregular::Irregular;
use mintopo::reach::PortClass;
use mintopo::route::{
    plan_mcast_coverage, try_trace_unicast, ReplicatePolicy, RouteTables, TraceError, UnicastRoute,
};
use mintopo::topology::{Attach, Topology};
use mintopo::unimin::UniMin;
use mintopo::KaryTree;
use netsim::destset::DestSet;
use netsim::ids::{NodeId, SwitchId};
use netsim::rng::SimRng;
use std::collections::HashSet;

fn assert_clean(cfg: SystemConfig, spec: TrafficSpec, tag: &str) {
    let run = RunConfig {
        warmup: 500,
        measure: 5_000,
        drain_max: 400_000,
        watchdog_grace: 30_000,
        faults: None,
        outages: Vec::new(),
    };
    let out = run_experiment(&cfg, &spec, &run);
    assert!(!out.deadlocked, "{tag}: watchdog fired");
    assert_eq!(out.leftover, 0, "{tag}: {} messages stuck", out.leftover);
}

fn combos() -> Vec<(SwitchArch, McastImpl, &'static str)> {
    vec![
        (SwitchArch::CentralBuffer, McastImpl::HwBitString, "CB-HW"),
        (SwitchArch::InputBuffered, McastImpl::HwBitString, "IB-HW"),
        (SwitchArch::CentralBuffer, McastImpl::SwBinomial, "SW-CB"),
        (SwitchArch::CentralBuffer, McastImpl::HwMultiport, "CB-MP"),
    ]
}

#[test]
fn overload_multicast_16_hosts() {
    for (arch, mcast, tag) in combos() {
        let cfg = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 2 },
            arch,
            mcast,
            ..SystemConfig::default()
        };
        // Offered load 1.5: 50% beyond ejection capacity.
        assert_clean(cfg, TrafficSpec::multiple_multicast(1.5, 8, 64), tag);
    }
}

#[test]
fn overload_bimodal_16_hosts() {
    for (arch, mcast, tag) in combos() {
        let cfg = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 2 },
            arch,
            mcast,
            ..SystemConfig::default()
        };
        assert_clean(cfg, TrafficSpec::bimodal(1.2, 0.3, 6, 48), tag);
    }
}

#[test]
fn overload_unicast_both_arches() {
    for (arch, tag) in [
        (SwitchArch::CentralBuffer, "CB"),
        (SwitchArch::InputBuffered, "IB"),
    ] {
        let cfg = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 2 },
            arch,
            ..SystemConfig::default()
        };
        assert_clean(cfg, TrafficSpec::unicast(1.5, 64), tag);
    }
}

#[test]
fn overload_with_tiny_central_queue() {
    // Stress the reservation machinery: the central queue barely exceeds
    // two max packets.
    let mut cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 },
        ..SystemConfig::default()
    };
    cfg.switch.cq_chunks = 34;
    assert_clean(
        cfg,
        TrafficSpec::multiple_multicast(1.2, 8, 64),
        "CB-tinyCQ",
    );
}

#[test]
fn overload_broadcastish_degree() {
    // Near-broadcast multicasts maximize fan-out pressure.
    for (arch, mcast, tag) in combos() {
        let cfg = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 2 },
            arch,
            mcast,
            ..SystemConfig::default()
        };
        assert_clean(cfg, TrafficSpec::multiple_multicast(1.2, 15, 32), tag);
    }
}

#[test]
fn overload_unimin() {
    for arch in [SwitchArch::CentralBuffer, SwitchArch::InputBuffered] {
        let cfg = SystemConfig {
            topology: TopologyKind::UniMin { k: 4, n: 2 },
            arch,
            ..SystemConfig::default()
        };
        assert_clean(cfg, TrafficSpec::multiple_multicast(1.2, 8, 48), "unimin");
    }
}

#[test]
fn overload_irregular() {
    for arch in [SwitchArch::CentralBuffer, SwitchArch::InputBuffered] {
        let cfg = SystemConfig {
            topology: TopologyKind::Irregular {
                switches: 6,
                ports: 8,
                hosts: 12,
                extra_links: 3,
                seed: 3,
            },
            arch,
            ..SystemConfig::default()
        };
        assert_clean(cfg, TrafficSpec::bimodal(1.2, 0.25, 6, 48), "irregular");
    }
}

#[test]
fn overload_64_hosts_all_schemes() {
    for (arch, mcast, tag) in combos() {
        let cfg = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 3 },
            arch,
            mcast,
            ..SystemConfig::default()
        };
        assert_clean(cfg, TrafficSpec::multiple_multicast(1.1, 16, 64), tag);
    }
}

// ---------------------------------------------------------------------
// The CDG against the routes it abstracts.
//
// `build_cdg` states the dependency rules by worm shape class. The walk
// below states none of them: it pushes worms hop by hop through the
// production routing function, the calls `switches::resolve_branches`
// makes, takes every up candidate an adaptive choice could take, and
// records each (held channel -> requested channel) pair it sees. Every
// pair must be a CDG edge (soundness); CDG edges no worm takes are
// counted (tightness).
// ---------------------------------------------------------------------

const POLICIES: [ReplicatePolicy; 2] = [
    ReplicatePolicy::ReturnOnly,
    ReplicatePolicy::ForwardAndReturn,
];

/// Destination sets per source on fabrics past 8 hosts.
const SAMPLED_SETS: usize = 256;

/// Hop-by-hop walk of every worm through one fabric's routing function.
struct RouteWalk<'a> {
    topo: &'a Topology,
    tables: &'a RouteTables,
    /// CDG node of each switch output channel (`usize::MAX` for none).
    out: Vec<Vec<usize>>,
    /// CDG node of each host's injection channel.
    inject: Vec<usize>,
    /// Every (held, requested) channel pair a worm took.
    pairs: HashSet<(usize, usize)>,
    /// Worm states already walked: the held channel and the header
    /// (for a multicast also the policy, `true` for `ReturnOnly`). The
    /// pairs a worm goes on to create depend on nothing else.
    seen_unicast: HashSet<(usize, NodeId)>,
    seen_mcast: HashSet<(usize, DestSet, bool)>,
}

impl<'a> RouteWalk<'a> {
    fn new(topo: &'a Topology, tables: &'a RouteTables, graph: &ChannelGraph) -> Self {
        let mut out: Vec<Vec<usize>> = (0..topo.n_switches())
            .map(|s| vec![usize::MAX; topo.ports(SwitchId::from(s))])
            .collect();
        let mut inject = vec![usize::MAX; topo.n_hosts()];
        for (i, ch) in graph.channels.iter().enumerate() {
            match *ch {
                Channel::SwitchOut { sw, port } => out[sw.index()][port] = i,
                Channel::Inject { host, .. } => inject[host.index()] = i,
            }
        }
        RouteWalk {
            topo,
            tables,
            out,
            inject,
            pairs: HashSet::new(),
            seen_unicast: HashSet::new(),
            seen_mcast: HashSet::new(),
        }
    }

    /// The worm holding `held` at `sw` takes output `port`: records the
    /// pair, and returns the new held channel and the switch it lands on
    /// (`None` when it ejects).
    fn hop(&mut self, held: usize, sw: SwitchId, port: usize) -> Option<(usize, SwitchId)> {
        let requested = self.out[sw.index()][port];
        assert_ne!(
            requested,
            usize::MAX,
            "{sw} routed onto port {port}, no channel"
        );
        self.pairs.insert((held, requested));
        match self.topo.attach(sw, port) {
            Attach::Switch(next, _) => Some((requested, next)),
            Attach::Host(_) => None,
            Attach::Unused => panic!("{sw} routed onto unused port {port}"),
        }
    }

    /// Every path a unicast worm from `src` to `dst` can take.
    fn unicast(&mut self, src: NodeId, dst: NodeId) {
        let (sw, _) = self.topo.host_inject(src);
        let mut stack = vec![(self.inject[src.index()], sw)];
        while let Some((held, sw)) = stack.pop() {
            if !self.seen_unicast.insert((held, dst)) {
                continue;
            }
            let ports = match self.tables.table(sw).try_route_unicast(dst) {
                Some(UnicastRoute::Down(p)) => vec![p],
                Some(UnicastRoute::Up(cands)) => cands,
                None => panic!("{src} -> {dst}: an up choice stranded the worm at {sw}"),
            };
            for p in ports {
                stack.extend(self.hop(held, sw, p));
            }
        }
    }

    /// Every replication tree of a bit-string worm from `src` to `dests`.
    fn multicast(&mut self, src: NodeId, dests: DestSet, policy: ReplicatePolicy) {
        let (sw, _) = self.topo.host_inject(src);
        let tag = policy == ReplicatePolicy::ReturnOnly;
        let mut stack = vec![(self.inject[src.index()], sw, dests)];
        while let Some((held, sw, set)) = stack.pop() {
            if !self.seen_mcast.insert((held, set.clone(), tag)) {
                continue;
            }
            let route = self
                .tables
                .table(sw)
                .try_route_bitstring(&set, policy)
                .unwrap_or_else(|bad| {
                    panic!("{src} -> {set:?}: an up choice stranded {bad:?} at {sw}")
                });
            for (p, branch) in route.down {
                if let Some((ch, next)) = self.hop(held, sw, p) {
                    stack.push((ch, next, branch));
                }
            }
            if let Some((cands, up)) = route.up {
                for p in cands {
                    if let Some((ch, next)) = self.hop(held, sw, p) {
                        stack.push((ch, next, up.clone()));
                    }
                }
            }
        }
    }
}

/// Destination sets a source's worms are walked with: every non-empty set
/// up to 8 hosts; past that, `SAMPLED_SETS` random sets, each confined
/// to a random aligned block of 4, 8 or 16 hosts (a uniform sample
/// almost never lands inside one subtree).
fn dest_sets(n: usize, rng: &mut SimRng) -> Vec<DestSet> {
    let set = |bits: u64, lo: usize| {
        DestSet::from_nodes(
            n,
            (0..64)
                .filter(|b| bits >> b & 1 == 1)
                .map(|b| NodeId::from(lo + b)),
        )
    };
    if n <= 8 {
        return (1..1u64 << n).map(|bits| set(bits, 0)).collect();
    }
    let blocks: Vec<usize> = [4, 8, 16].into_iter().filter(|&b| b <= n).collect();
    (0..SAMPLED_SETS)
        .map(|_| {
            let b = blocks[rng.below(blocks.len())];
            let lo = rng.below(n / b) * b;
            set(1 + rng.below((1 << b) - 1) as u64, lo)
        })
        .collect()
}

/// What the walk found on one fabric.
#[derive(Debug)]
struct Coverage {
    /// Walked pairs that are not CDG edges, labeled.
    unsound: Vec<String>,
    /// CDG edges no walked worm took.
    unwitnessed: usize,
}

/// Walks every unicast (including to the source itself) and every
/// multicast `plan_mcast_coverage` would send as a worm, under both
/// replication policies, and compares the pairs with `build_cdg`.
fn walk_fabric(topo: &Topology, tables: &RouteTables) -> Coverage {
    let graph = build_cdg(topo, tables);
    let mut walk = RouteWalk::new(topo, tables, &graph);
    let n = topo.n_hosts();
    let max_hops = 2 * topo.n_switches() + 2;
    for s in 0..n {
        let src = NodeId::from(s);
        for d in 0..n {
            let dst = NodeId::from(d);
            match try_trace_unicast(tables, topo, src, dst, max_hops) {
                Ok(_) => walk.unicast(src, dst),
                Err(TraceError::Unroutable(_)) => {}
                Err(TraceError::Malformed(e)) => panic!("{src} -> {dst}: {e}"),
            }
        }
        let sets = dest_sets(n, &mut SimRng::new(1).fork(s as u64));
        for policy in POLICIES {
            for dests in &sets {
                let plan = plan_mcast_coverage(tables, topo, src, dests, policy, max_hops)
                    .unwrap_or_else(|e| panic!("{src} -> {dests:?}: {e}"));
                if !plan.worm.is_empty() {
                    walk.multicast(src, plan.worm, policy);
                }
            }
        }
    }
    let edges: HashSet<(usize, usize)> = (0..graph.channels.len())
        .flat_map(|from| graph.adj[from].iter().map(move |&to| (from, to)))
        .collect();
    let mut unsound: Vec<String> = walk
        .pairs
        .iter()
        .filter(|pair| !edges.contains(pair))
        .map(|&(from, to)| {
            format!(
                "{} -> {}",
                graph.channels[from].describe(),
                graph.channels[to].describe()
            )
        })
        .collect();
    unsound.sort();
    Coverage {
        unsound,
        unwitnessed: edges.difference(&walk.pairs).count(),
    }
}

/// The same fabric with its first up cable (lowest switch id, then
/// lowest port) dead in both directions.
fn masked(topo: &Topology) -> RouteTables {
    let healthy = RouteTables::build(topo);
    let (sw, port) = (0..topo.n_switches())
        .map(SwitchId::from)
        .find_map(|sw| {
            let table = healthy.table(sw);
            (0..table.n_ports())
                .find(|&p| table.port(p).class == PortClass::Up)
                .map(|p| (sw, p))
        })
        .expect("a fabric with an up cable");
    let Attach::Switch(peer, peer_port) = topo.attach(sw, port) else {
        panic!("up port {sw}.p{port} is not a switch cable");
    };
    RouteTables::build_masked(topo, &[(sw, port), (peer, peer_port)])
}

/// Each walked fabric with the CDG edges no worm takes on it, healthy
/// and masked. Healthy k-ary trees leave none. The rest (DESIGN.md §16):
/// a U-Min's backward channels face a shallower stage, so they class as
/// up channels, but no worm ever takes one; an irregular net's down port
/// whose hosts a lower-numbered down port also reaches is never chosen;
/// a masked tree's up cable, or parent, that adds no host to the cone a
/// worm left is never used, because a worm ascends only with a
/// destination outside that cone.
fn walked_fabrics() -> Vec<(String, Topology, usize, usize)> {
    let mut fabrics = Vec::new();
    for (k, n, masked) in [(2, 2, 5), (2, 3, 1), (4, 2, 0), (2, 4, 1)] {
        let topo = KaryTree::new(k, n).into_topology();
        fabrics.push((format!("{k}-ary {n}-tree"), topo, 0, masked));
    }
    for (k, n, healthy, masked) in [
        (2, 2, 8, 5),
        (2, 3, 48, 43),
        (4, 2, 64, 57),
        (2, 4, 160, 155),
    ] {
        let topo = UniMin::new(k, n).into_topology();
        fabrics.push((format!("U-Min {k}^{n}"), topo, healthy, masked));
    }
    for (seed, healthy, masked) in [(1, 7, 0), (2, 8, 7), (3, 7, 7), (4, 7, 0), (5, 7, 0)] {
        let topo = Irregular::new(4, 8, 8, 1, seed)
            .expect("valid irregular shape")
            .into_topology();
        fabrics.push((format!("irregular seed {seed}"), topo, healthy, masked));
    }
    fabrics
}

/// `build_cdg` holds every dependency the routing function creates on
/// every walked fabric, healthy and masked, and leaves exactly the
/// pinned number of edges unwitnessed.
#[test]
fn the_cdg_holds_every_walked_route() {
    let mut failures = Vec::new();
    for (name, topo, healthy, masked_edges) in walked_fabrics() {
        for (state, tables, want) in [
            ("healthy", RouteTables::build(&topo), healthy),
            ("masked", masked(&topo), masked_edges),
        ] {
            let got = walk_fabric(&topo, &tables);
            if !got.unsound.is_empty() {
                failures.push(format!(
                    "{name} ({state}): {} walked pairs are not CDG edges: {:?}",
                    got.unsound.len(),
                    got.unsound
                ));
            }
            if got.unwitnessed != want {
                failures.push(format!(
                    "{name} ({state}): {} unwitnessed CDG edges, pinned {want}",
                    got.unwitnessed
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
