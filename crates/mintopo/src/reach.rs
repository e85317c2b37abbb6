//! Per-output-port reachability strings and port classification.
//!
//! The paper's bit-string decode requires each switch to know, for every
//! output port, the set of processors reachable through it — an `N`-bit
//! string per port. This module derives those strings from the topology:
//!
//! * a **down** port's reachability is the set of hosts reachable using
//!   down-hops only (for trees this is the subtree; for irregular networks
//!   it is the up*/down*-legal downward cone),
//! * an **up** port reaches the hosts a climb through it can still
//!   descend to — every host on a healthy fabric (one can always climb to
//!   a common ancestor in the topologies considered), fewer once dead
//!   ports are masked,
//! * ports with nothing useful behind them (unconnected, or a host's
//!   injection-only cable in a unidirectional MIN) are **unused**.

use crate::topology::{Attach, Topology};
use netsim::destset::DestSet;
use netsim::ids::SwitchId;

/// Routing role of a switch output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortClass {
    /// Leads toward hosts; has a meaningful reachability string.
    Down,
    /// Leads toward the roots; reaches every host.
    Up,
    /// Never carries output traffic.
    Unused,
}

/// Classification and reachability string of one output port.
#[derive(Debug, Clone)]
pub struct PortInfo {
    /// Routing role.
    pub class: PortClass,
    /// Hosts reachable through this port (the paper's reachability string).
    pub reach: DestSet,
}

/// Computes [`PortInfo`] for every `(switch, port)` of the topology, with
/// a set of dead *directed* output ports masked out (empty for the healthy
/// fabric) and with **exact** up-port reachability strings.
///
/// `dead` lists `(switch, output port)` pairs that must carry no traffic;
/// a failed bidirectional cable contributes one entry per direction.
/// Masked ports become [`PortClass::Unused`]. Down-hops strictly increase
/// the `(depth, switch id)` order (see [`Topology::is_down_hop`]), so the
/// downward cones are evaluated in one pass over the surviving subgraph,
/// deepest switch first. Each up port's string is the exact set of hosts
/// reachable by climbing through it and then descending along surviving
/// links:
///
/// `R(s) = cone(s) ∪ ⋃ R(up-neighbors of s)`, up port toward `q` → `R(q)`.
///
/// Up-hops strictly decrease the `(depth, id)` order, so `R` is evaluated
/// in one pass over switches sorted shallowest-first. On a healthy fabric
/// every up port reaches all hosts; under masking the exact strings let
/// [`crate::route::SwitchTable`] reject up ports that lead into cut-off
/// regions instead of wedging a worm against a dead link.
#[allow(clippy::needless_range_loop)] // port loop indexes parallel structures
pub fn build_port_info_masked(topo: &Topology, dead: &[(SwitchId, usize)]) -> Vec<Vec<PortInfo>> {
    let n = topo.n_hosts();
    let n_sw = topo.n_switches();
    let dead: std::collections::BTreeSet<(usize, usize)> =
        dead.iter().map(|&(sw, p)| (sw.index(), p)).collect();

    let mut eject_at = vec![Vec::new(); n_sw];
    for h in 0..n {
        let node = netsim::ids::NodeId::from(h);
        let (sw, port) = topo.host_eject(node);
        eject_at[sw.index()].push((port, node));
    }

    // Downward pass, deepest-first, skipping dead ports so cut-off
    // subtrees drop out of every cone above the failure.
    let mut down_order: Vec<usize> = (0..n_sw).collect();
    down_order.sort_by_key(|&s| {
        (
            std::cmp::Reverse(topo.depth(SwitchId::from(s))),
            std::cmp::Reverse(s),
        )
    });

    let mut cone: Vec<DestSet> = vec![DestSet::empty(n); n_sw];
    let mut info: Vec<Vec<PortInfo>> = (0..n_sw)
        .map(|s| {
            let ports = topo.ports(SwitchId::from(s));
            (0..ports)
                .map(|_| PortInfo {
                    class: PortClass::Unused,
                    reach: DestSet::empty(n),
                })
                .collect()
        })
        .collect();

    for &s in &down_order {
        let sw = SwitchId::from(s);
        let mut my_cone = DestSet::empty(n);
        for (port, node) in &eject_at[s] {
            if dead.contains(&(s, *port)) {
                continue; // severed ejection cable: host unreachable here
            }
            my_cone.insert(*node);
            info[s][*port] = PortInfo {
                class: PortClass::Down,
                reach: DestSet::singleton(n, *node),
            };
        }
        for port in 0..topo.ports(sw) {
            if dead.contains(&(s, port)) {
                continue;
            }
            match topo.attach(sw, port) {
                Attach::Switch(other, _) if topo.is_down_hop(sw, port) => {
                    let reach = cone[other.index()].clone();
                    my_cone.union_with(&reach);
                    info[s][port] = PortInfo {
                        class: PortClass::Down,
                        reach,
                    };
                }
                Attach::Switch(..) => {
                    // Classified now; exact reach filled by the up pass.
                    info[s][port] = PortInfo {
                        class: PortClass::Up,
                        reach: DestSet::empty(n),
                    };
                }
                Attach::Host(_) | Attach::Unused => {
                    // Host ports were handled via eject_at (injection-only
                    // host cables stay Unused); unconnected ports stay
                    // Unused.
                }
            }
        }
        cone[s] = my_cone;
    }

    // Upward pass, shallowest-first: every up-neighbor of a switch has a
    // strictly smaller (depth, id), so its R is already final.
    let mut up_order: Vec<usize> = (0..n_sw).collect();
    up_order.sort_by_key(|&s| (topo.depth(SwitchId::from(s)), s));
    let mut up_reach: Vec<DestSet> = vec![DestSet::empty(n); n_sw];
    for &s in &up_order {
        let sw = SwitchId::from(s);
        let mut r = cone[s].clone();
        for port in 0..topo.ports(sw) {
            if info[s][port].class != PortClass::Up {
                continue;
            }
            if let Attach::Switch(other, _) = topo.attach(sw, port) {
                let reach = up_reach[other.index()].clone();
                r.union_with(&reach);
                info[s][port].reach = reach;
            }
        }
        up_reach[s] = r;
    }

    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use netsim::ids::NodeId;

    /// h0,h1 under s0 (depth 1); h2,h3 under s1 (depth 1); s2 root (depth 0).
    fn small_tree() -> Topology {
        let mut b = TopologyBuilder::new(4);
        let s0 = b.add_switch(4, 1);
        let s1 = b.add_switch(4, 1);
        let s2 = b.add_switch(4, 0);
        b.attach_host(NodeId(0), s0, 0);
        b.attach_host(NodeId(1), s0, 1);
        b.attach_host(NodeId(2), s1, 0);
        b.attach_host(NodeId(3), s1, 1);
        b.connect(s0, 3, s2, 0);
        b.connect(s1, 3, s2, 1);
        b.build()
    }

    #[test]
    fn leaf_switch_ports() {
        let t = small_tree();
        let info = build_port_info_masked(&t, &[]);
        // s0 port 0 reaches exactly h0.
        assert_eq!(info[0][0].class, PortClass::Down);
        assert_eq!(info[0][0].reach, DestSet::singleton(4, NodeId(0)));
        // s0 port 3 is up and reaches everything.
        assert_eq!(info[0][3].class, PortClass::Up);
        assert_eq!(info[0][3].reach, DestSet::full(4));
        // s0 port 2 is unconnected.
        assert_eq!(info[0][2].class, PortClass::Unused);
    }

    #[test]
    fn root_switch_sees_both_subtrees() {
        let t = small_tree();
        let info = build_port_info_masked(&t, &[]);
        assert_eq!(info[2][0].class, PortClass::Down);
        assert_eq!(info[2][0].reach, DestSet::from_nodes(4, [0, 1].map(NodeId)));
        assert_eq!(info[2][1].reach, DestSet::from_nodes(4, [2, 3].map(NodeId)));
        // Root's down reaches are disjoint and cover all hosts.
        let union = info[2][0].reach.or(&info[2][1].reach);
        assert_eq!(union, DestSet::full(4));
        assert!(!info[2][0].reach.intersects(&info[2][1].reach));
    }

    /// Two leaf switches under two roots: every leaf has an up port to each
    /// root, giving the path diversity a reroute needs.
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

    /// On a healthy fabric every up port reaches all hosts: k-ary trees,
    /// U-Mins and irregular up*/down* networks alike.
    #[test]
    fn healthy_up_ports_reach_all_hosts() {
        use crate::irregular::Irregular;
        use crate::karytree::KaryTree;
        use crate::unimin::UniMin;

        let mut fabrics = vec![small_tree(), two_root_net()];
        for (k, n) in [(2, 1), (2, 3), (3, 2), (4, 2)] {
            fabrics.push(KaryTree::new(k, n).topology().clone());
            fabrics.push(UniMin::new(k, n).topology().clone());
        }
        for seed in 0..4 {
            for (switches, hosts, extra) in [(4, 8, 0), (6, 12, 3), (10, 24, 2)] {
                let net = Irregular::new(switches, 8, hosts, extra, seed).unwrap();
                fabrics.push(net.topology().clone());
            }
        }
        let mut up_ports = 0;
        for topo in &fabrics {
            let info = build_port_info_masked(topo, &[]);
            let full = DestSet::full(topo.n_hosts());
            for (s, ports) in info.iter().enumerate() {
                for (p, port) in ports.iter().enumerate() {
                    if port.class == PortClass::Up {
                        assert_eq!(port.reach, full, "sw {s} port {p}");
                        up_ports += 1;
                    }
                }
            }
        }
        assert!(up_ports > 100, "{up_ports}");
    }

    #[test]
    fn dead_directed_port_becomes_unused() {
        let t = two_root_net();
        // Kill s0's up link toward r0 (directed: s0 out only).
        let info = build_port_info_masked(&t, &[(SwitchId(0), 2)]);
        assert_eq!(info[0][2].class, PortClass::Unused);
        // The reverse direction (r0 -> s0) is unaffected.
        assert_eq!(info[2][0].class, PortClass::Down);
        assert_eq!(info[2][0].reach, DestSet::from_nodes(4, [0, 1].map(NodeId)));
        // The sibling up port still reaches everything.
        assert_eq!(info[0][3].class, PortClass::Up);
        assert_eq!(info[0][3].reach, DestSet::full(4));
    }

    #[test]
    fn dead_root_down_link_shrinks_up_reach_exactly() {
        let t = two_root_net();
        // Kill r0 -> s1: r0 can no longer descend to the right subtree.
        let info = build_port_info_masked(&t, &[(SwitchId(2), 1)]);
        assert_eq!(info[2][1].class, PortClass::Unused);
        // s0's up port to r0 now reaches only r0's surviving cone.
        assert_eq!(info[0][2].class, PortClass::Up);
        assert_eq!(info[0][2].reach, DestSet::from_nodes(4, [0, 1].map(NodeId)));
        // s0's up port to the healthy root still reaches every host.
        assert_eq!(info[0][3].reach, DestSet::full(4));
        // s1's up port to r0 also shrinks (climbing to r0 only re-reaches
        // what r0 can still cover).
        assert_eq!(info[1][2].reach, DestSet::from_nodes(4, [0, 1].map(NodeId)));
    }

    #[test]
    fn injection_only_host_cable_is_unused() {
        // Unidirectional style: host 0 injects at s0, ejects at s1.
        let mut b = TopologyBuilder::new(1);
        let s0 = b.add_switch(2, 0);
        let s1 = b.add_switch(2, 1);
        b.connect(s0, 1, s1, 0);
        b.attach_host_inject(NodeId(0), s0, 0);
        b.set_host_eject(NodeId(0), s1, 1);
        let t = b.build();
        let info = build_port_info_masked(&t, &[]);
        assert_eq!(info[0][0].class, PortClass::Unused, "inject-only cable");
        assert_eq!(info[1][1].class, PortClass::Down, "ejection cable");
        // s0's forward port (down, since s1 is deeper) reaches h0.
        assert_eq!(info[0][1].class, PortClass::Down);
        assert!(info[0][1].reach.contains(NodeId(0)));
    }
}
