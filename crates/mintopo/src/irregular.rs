//! Irregular switch networks (networks of workstations) with up*/down*
//! routing.
//!
//! The paper notes (§2) that its schemes apply to irregular switch-based
//! systems, where deadlock-free routing is conventionally obtained by
//! imposing a spanning tree and classifying every link as *up* (toward the
//! root) or *down* (Autonet's up*/down* rule: a legal path is zero or more
//! up-hops followed by zero or more down-hops). Our table-driven router
//! implements exactly that discipline: descend as soon as all remaining
//! destinations are in the downward cone, ascend otherwise.

use crate::topology::{Topology, TopologyBuilder, MAX_SWITCH_PORTS};
use netsim::ids::{NodeId, SwitchId};
use netsim::rng::SimRng;

/// Bound on the switch and host counts of a generated network.
const MAX_SIZE: usize = 1 << 20;

/// A randomly generated connected irregular switch network.
#[derive(Debug, Clone)]
pub struct Irregular {
    topo: Topology,
}

impl Irregular {
    /// Generates a random connected network.
    ///
    /// * `n_switches` switches with `ports` ports each,
    /// * `n_hosts` hosts attached round-robin,
    /// * a random spanning tree plus up to `extra_links` additional random
    ///   links (parallel links allowed, self-links not),
    /// * switch depths assigned by BFS from switch 0 (the up*/down* root).
    ///
    /// The same `seed` always yields the same network.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`Irregular::check_shape`] does.
    pub fn new(
        n_switches: usize,
        ports: usize,
        n_hosts: usize,
        extra_links: usize,
        seed: u64,
    ) -> Result<Self, String> {
        Self::check_shape(n_switches, ports, n_hosts)?;
        let mut rng = SimRng::new(seed);
        let mut b = TopologyBuilder::new(n_hosts);
        // Depths are assigned after we know the final graph; build with 0
        // and rebuild below.
        let mut next_free: Vec<usize> = vec![0; n_switches];
        let switches: Vec<SwitchId> = (0..n_switches).map(|_| b.add_switch(ports, 0)).collect();

        // Hosts round-robin.
        for h in 0..n_hosts {
            let s = h % n_switches;
            b.attach_host(NodeId::from(h), switches[s], next_free[s]);
            next_free[s] += 1;
        }

        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n_switches];
        let link = |b: &mut TopologyBuilder,
                    next_free: &mut Vec<usize>,
                    adjacency: &mut Vec<Vec<usize>>,
                    x: usize,
                    y: usize| {
            b.connect(switches[x], next_free[x], switches[y], next_free[y]);
            next_free[x] += 1;
            next_free[y] += 1;
            adjacency[x].push(y);
            adjacency[y].push(x);
        };

        // Random spanning tree: attach each switch to a random earlier one
        // that still has a free port.
        for i in 1..n_switches {
            let candidates: Vec<usize> = (0..i).filter(|&j| next_free[j] < ports).collect();
            assert!(
                !candidates.is_empty() && next_free[i] < ports,
                "check_shape admitted an unbuildable shape"
            );
            let parent = candidates[rng.below(candidates.len())];
            link(&mut b, &mut next_free, &mut adjacency, i, parent);
        }

        // Extra random links.
        let mut added = 0;
        let mut attempts = 0;
        while added < extra_links && attempts < extra_links * 20 + 20 {
            attempts += 1;
            let free: Vec<usize> = (0..n_switches).filter(|&j| next_free[j] < ports).collect();
            if free.len() < 2 {
                break;
            }
            let x = free[rng.below(free.len())];
            let y = free[rng.below(free.len())];
            if x == y {
                continue;
            }
            link(&mut b, &mut next_free, &mut adjacency, x, y);
            added += 1;
        }

        // BFS depths from switch 0.
        let mut depth = vec![u32::MAX; n_switches];
        let mut queue = std::collections::VecDeque::new();
        depth[0] = 0;
        queue.push_back(0usize);
        while let Some(s) = queue.pop_front() {
            for &t in &adjacency[s] {
                if depth[t] == u32::MAX {
                    depth[t] = depth[s] + 1;
                    queue.push_back(t);
                }
            }
        }
        assert!(
            depth.iter().all(|&d| d != u32::MAX),
            "generated network is disconnected"
        );

        // Rebuild with correct depths (the builder fixes depth at
        // add_switch time). Replaying the construction is cheap and keeps
        // the builder API simple.
        let topo0 = b.build();
        let mut b2 = TopologyBuilder::new(n_hosts);
        for &d in depth.iter().take(n_switches) {
            b2.add_switch(ports, d);
        }
        for h in 0..n_hosts {
            let node = NodeId::from(h);
            let (sw, port) = topo0.host_inject(node);
            b2.attach_host(node, sw, port);
        }
        for conn in topo0.connections() {
            use crate::topology::End;
            if let (End::SwitchPort(a, ap), End::SwitchPort(bsw, bp)) = (conn.a, conn.b) {
                b2.connect(a, ap, bsw, bp);
            }
        }
        Ok(Irregular { topo: b2.build() })
    }

    /// Checks, without building anything, that [`Irregular::new`] can
    /// build a network of this shape for every seed.
    ///
    /// # Errors
    ///
    /// Fails when there is no switch or no host, when a count exceeds
    /// 2^20, when `ports` is outside `1..=16`, or when the ports left after
    /// the hosts cannot hold a spanning tree.
    pub fn check_shape(n_switches: usize, ports: usize, n_hosts: usize) -> Result<(), String> {
        if n_switches == 0 {
            return Err("need at least one switch".to_string());
        }
        if n_hosts == 0 {
            return Err("need at least one host".to_string());
        }
        if n_switches.max(n_hosts) > MAX_SIZE {
            return Err(format!("at most {MAX_SIZE} switches and hosts"));
        }
        if !(1..=MAX_SWITCH_PORTS).contains(&ports) {
            return Err(format!(
                "switch ports must be in 1..={MAX_SWITCH_PORTS}, got {ports}"
            ));
        }
        // Hosts go round-robin, then each switch i >= 1 links to an earlier
        // switch with a free port. A link takes one port on each side, so
        // the free ports left among switches 0..i do not depend on which
        // parents the seed picks.
        let budget = || format!("not enough ports for {n_hosts} hosts and a spanning tree");
        let mut spare = 0;
        for i in 0..n_switches {
            let hosts = n_hosts / n_switches + usize::from(i < n_hosts % n_switches);
            let free = ports.checked_sub(hosts).ok_or_else(budget)?;
            spare = match i {
                0 => free,
                _ if free == 0 || spare == 0 => return Err(budget()),
                _ => spare + free - 2,
            };
        }
        Ok(())
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Consumes the network, returning the topology.
    pub fn into_topology(self) -> Topology {
        self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{trace_bitstring, trace_unicast, ReplicatePolicy, RouteTables};

    #[test]
    fn generation_is_deterministic() {
        let a = Irregular::new(8, 8, 16, 4, 42).unwrap();
        let b = Irregular::new(8, 8, 16, 4, 42).unwrap();
        assert_eq!(a.topology().connections(), b.topology().connections());
        let c = Irregular::new(8, 8, 16, 4, 43).unwrap();
        assert_ne!(a.topology().connections(), c.topology().connections());
    }

    #[test]
    fn all_pairs_route() {
        for seed in [1u64, 7, 99] {
            let net = Irregular::new(6, 8, 12, 3, seed).unwrap();
            let tables = RouteTables::build(net.topology());
            for src in 0..12u32 {
                for dst in 0..12u32 {
                    if src == dst {
                        continue;
                    }
                    trace_unicast(&tables, net.topology(), NodeId(src), NodeId(dst), 32)
                        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                }
            }
        }
    }

    #[test]
    fn multicast_covers_exactly_under_both_policies() {
        for seed in [3u64, 11] {
            let net = Irregular::new(6, 8, 12, 3, seed).unwrap();
            let tables = RouteTables::build(net.topology());
            let mut rng = SimRng::new(seed * 17);
            for _ in 0..20 {
                let src = NodeId::from(rng.below(12));
                let k = 1 + rng.below(8);
                let dests = rng.dest_set(12, k, src);
                for policy in [
                    ReplicatePolicy::ReturnOnly,
                    ReplicatePolicy::ForwardAndReturn,
                ] {
                    let trace = trace_bitstring(&tables, net.topology(), src, &dests, policy, 32)
                        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                    assert_eq!(trace.delivered, dests);
                }
            }
        }
    }

    #[test]
    fn infeasible_shapes_are_errors() {
        for (switches, ports, hosts, want) in [
            (4, 2, 8, "not enough ports"),
            (0, 8, 8, "at least one switch"),
            (2, 8, 0, "at least one host"),
            (1, 2, 3, "not enough ports"),
            (3, 3, 5, "not enough ports"),
            (usize::MAX, 8, 8, "at most"),
            (2, 8, 1 << 21, "at most"),
            (4, 17, 8, "switch ports"),
            (4, 0, 8, "switch ports"),
        ] {
            let err = Irregular::new(switches, ports, hosts, 0, 1).unwrap_err();
            assert!(err.contains(want), "{switches}/{ports}/{hosts}: {err}");
        }
    }

    /// Every shape the check admits builds, whatever the seed.
    #[test]
    fn admitted_shapes_build() {
        let mut admitted = 0;
        for switches in 1..7 {
            for ports in 1..7 {
                for hosts in 1..16 {
                    if Irregular::check_shape(switches, ports, hosts).is_err() {
                        continue;
                    }
                    admitted += 1;
                    for seed in 0..8 {
                        let net = Irregular::new(switches, ports, hosts, 3, seed).unwrap();
                        assert_eq!(net.topology().n_switches(), switches);
                    }
                }
            }
        }
        assert!(admitted > 100, "{admitted}");
    }
}
