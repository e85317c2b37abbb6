//! Channel-dependency graph construction.
//!
//! A *channel* is a directed physical link a worm can hold: a host's
//! injection cable into its switch, or a switch output port's cable
//! (toward another switch, or toward a host for ejection). A worm holding
//! channel `c1` *depends on* channel `c2` when the routing function can
//! extend the worm from the switch at the head of `c1` onto `c2` — the
//! worm then occupies both at once, and a cycle of such dependencies is
//! the classic Dally–Seitz deadlock condition.
//!
//! Dependencies are enumerated by *shape class* rather than by individual
//! worm, which keeps the graph polynomial while staying a sound
//! over-approximation of every source/destination-set the LCA routing
//! function ([`mintopo::route::SwitchTable::route_bitstring`]) can
//! produce:
//!
//! * a worm arriving on a **descending** channel extends onto every
//!   non-empty down port of the landing switch, never back up (the
//!   up*/down* invariant). Its residual set is confined to the sending
//!   port's reachability string, but that string is the landing switch's
//!   whole downward cone, which every non-empty down port meets, so the
//!   bound restricts nothing;
//! * a worm arriving **ascending** (or injected by a host) may carry any
//!   residual set, so it can extend onto every non-empty down port, and
//!   onto the up ports as well unless this switch's down-union already
//!   covers the full system (then the LCA stage is provably reached and
//!   the routing function never continues upward).
//!
//! For a valid up*/down* topology the ascending phase strictly decreases
//! `(depth, id)` and the descending phase strictly increases it, so the
//! resulting graph is acyclic — running Tarjan over it is the machine
//! check of that argument, and catches malformed topologies where the
//! invariant is broken.

use mintopo::reach::PortClass;
use mintopo::route::RouteTables;
use mintopo::topology::{Attach, Topology};
use netsim::destset::DestSet;
use netsim::ids::{NodeId, SwitchId};

/// One directed physical channel of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Host `host`'s injection cable into `sw` at input `port`.
    Inject {
        /// Injecting host.
        host: NodeId,
        /// Switch the cable lands on.
        sw: SwitchId,
        /// Input port on that switch.
        port: usize,
    },
    /// Output channel of `sw` at `port` (fabric cable or host ejection).
    SwitchOut {
        /// Sending switch.
        sw: SwitchId,
        /// Output port.
        port: usize,
    },
}

impl Channel {
    /// Human-readable channel name used in cycle reports.
    pub fn describe(&self) -> String {
        match self {
            Channel::Inject { host, sw, port } => {
                format!("inject {host} -> {sw}.p{port}")
            }
            Channel::SwitchOut { sw, port } => format!("{sw}.out{port}"),
        }
    }
}

/// Which routing phase induces a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    /// The worm is still climbing toward (or just reached) its LCA stage;
    /// its residual destination set is unconstrained.
    Ascending,
    /// The worm is fanning out below its LCA; its residual set is confined
    /// to the reach string of the channel it arrived on.
    Descending,
}

impl ShapeClass {
    fn label(self) -> &'static str {
        match self {
            ShapeClass::Ascending => "ascending",
            ShapeClass::Descending => "descending",
        }
    }
}

/// One dependency edge, with the switch and ports that induce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dependency {
    /// Held channel (CDG node index).
    pub from: usize,
    /// Requested channel (CDG node index).
    pub to: usize,
    /// Switch where the extension happens.
    pub at: SwitchId,
    /// Output port of the requested channel on `at`.
    pub onto: usize,
    /// Worm shape class that induces this edge.
    pub shape: ShapeClass,
}

impl Dependency {
    /// `switch / held -> requested (shape)` label for reports.
    pub fn describe(&self, channels: &[Channel]) -> String {
        format!(
            "{}: {} -> {} ({} worm)",
            self.at,
            channels[self.from].describe(),
            channels[self.to].describe(),
            self.shape.label()
        )
    }
}

/// The channel-dependency graph of one fabric. Each edge is stored once,
/// as a successor index; [`ChannelGraph::dependency`] rebuilds its label
/// from the topology when a report needs it.
#[derive(Debug, Clone)]
pub struct ChannelGraph {
    /// All channels; index = CDG node id.
    pub channels: Vec<Channel>,
    /// Successor lists over channel indices (sorted, each edge once).
    pub adj: Vec<Vec<usize>>,
}

impl ChannelGraph {
    /// Number of dependency edges.
    pub fn n_dependencies(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// The labeled edge `from -> to`: the switch the held channel lands on,
    /// the ports involved and the worm shape class that induces it.
    ///
    /// # Panics
    ///
    /// Panics if `from` is a sink (an ejection channel) or `to` is not an
    /// output channel of the switch `from` lands on.
    pub fn dependency(&self, topo: &Topology, from: usize, to: usize) -> Dependency {
        let (at, descends) =
            landing(topo, self.channels[from]).expect("a sink channel has no edges");
        let Channel::SwitchOut { sw, port: onto } = self.channels[to] else {
            panic!("an edge always requests a switch output channel");
        };
        assert_eq!(sw, at, "edge {from} -> {to} leaves the landing switch");
        Dependency {
            from,
            to,
            at,
            onto,
            shape: shape_of(descends),
        }
    }
}

/// Where a held channel lands, and whether the arrival descends. `None`
/// for an ejection or unconnected channel — the host always drains it,
/// so it is a sink.
fn landing(topo: &Topology, ch: Channel) -> Option<(SwitchId, bool)> {
    match ch {
        Channel::Inject { sw, .. } => Some((sw, false)),
        Channel::SwitchOut { sw, port } => match topo.attach(sw, port) {
            Attach::Host(_) | Attach::Unused => None,
            Attach::Switch(next, _) => Some((next, topo.is_down_hop(sw, port))),
        },
    }
}

fn shape_of(descends: bool) -> ShapeClass {
    if descends {
        ShapeClass::Descending
    } else {
        ShapeClass::Ascending
    }
}

/// Builds the channel-dependency graph induced by the LCA routing function
/// over every worm shape class.
pub fn build_cdg(topo: &Topology, tables: &RouteTables) -> ChannelGraph {
    let mut channels: Vec<Channel> = Vec::new();
    // (switch, out port) -> channel index, for edge targets.
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
        let host = NodeId::from(h);
        let (sw, port) = topo.host_inject(host);
        channels.push(Channel::Inject { host, sw, port });
    }

    let full = DestSet::full(tables.n_hosts());
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); channels.len()];
    for (&ch, succ) in channels.iter().zip(adj.iter_mut()) {
        // Where does this channel land, and does it descend? Ejection
        // channels are sinks — the host always drains them.
        let Some((at, descends)) = landing(topo, ch) else {
            continue;
        };
        let table = tables.table(at);
        let may_ascend = !descends && table.down_union() != &full;
        // Output channels of one switch have increasing indices, so each
        // list comes out sorted, with each edge once.
        for (onto, &to) in out_index[at.index()].iter().enumerate() {
            let info = table.port(onto);
            let feasible = match info.class {
                PortClass::Down => !info.reach.is_empty(),
                // Only an ascending worm whose residual may be uncovered
                // here continues upward.
                PortClass::Up => may_ascend,
                PortClass::Unused => false,
            };
            if feasible {
                succ.push(to);
            }
        }
    }

    ChannelGraph { channels, adj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::{scc_is_cyclic, tarjan_sccs};
    use mintopo::topology::TopologyBuilder;

    /// h0,h1 under s0; h2,h3 under s1; s2 root.
    fn small_tree() -> Topology {
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
        b.build()
    }

    #[test]
    fn tree_cdg_is_acyclic() {
        let topo = small_tree();
        let tables = RouteTables::build(&topo);
        let g = build_cdg(&topo, &tables);
        assert!(!g.channels.is_empty());
        assert!(g.n_dependencies() > 0);
        let sccs = tarjan_sccs(g.channels.len(), &g.adj);
        assert!(
            sccs.iter().all(|s| !scc_is_cyclic(&g.adj, s)),
            "up*/down* tree CDG must be acyclic"
        );
    }

    #[test]
    fn injection_depends_on_local_eject_and_uplink() {
        let topo = small_tree();
        let tables = RouteTables::build(&topo);
        let g = build_cdg(&topo, &tables);
        // Host 0 injects at s0; it must be able to extend onto s0's eject
        // ports (down) and onto the uplink (s0 does not cover the system).
        let inj = g
            .channels
            .iter()
            .position(|c| matches!(c, Channel::Inject { host, .. } if *host == NodeId(0)))
            .expect("inject channel for h0");
        let targets: Vec<&Channel> = g.adj[inj].iter().map(|&i| &g.channels[i]).collect();
        assert!(targets.iter().any(
            |c| matches!(c, Channel::SwitchOut { sw, port } if sw.index() == 0 && *port == 3)
        ));
        assert!(targets.iter().any(
            |c| matches!(c, Channel::SwitchOut { sw, port } if sw.index() == 0 && *port == 0)
        ));
    }

    /// Every edge of `g`, labeled.
    fn deps(g: &ChannelGraph, topo: &Topology) -> Vec<Dependency> {
        (0..g.channels.len())
            .flat_map(|from| g.adj[from].iter().map(move |&to| (from, to)))
            .map(|(from, to)| g.dependency(topo, from, to))
            .collect()
    }

    #[test]
    fn descending_channels_never_depend_upward() {
        let topo = small_tree();
        let tables = RouteTables::build(&topo);
        let g = build_cdg(&topo, &tables);
        for d in &deps(&g, &topo) {
            if d.shape == ShapeClass::Descending {
                let onto = tables.table(d.at).port(d.onto).class;
                assert_eq!(onto, PortClass::Down, "descending edge must stay down");
            }
        }
    }

    /// h0,h1 under s0, whose port 2 climbs to a root s1 that reaches them
    /// only through s0: s0 covers every host downward and still has an up
    /// port.
    fn covering_switch_with_uplink() -> Topology {
        let mut b = TopologyBuilder::new(2);
        let s0 = b.add_switch(3, 1);
        let s1 = b.add_switch(1, 0);
        for h in 0..2 {
            b.attach_host(NodeId(h), s0, h as usize);
        }
        b.connect(s0, 2, s1, 0);
        b.build()
    }

    #[test]
    fn root_switch_has_no_up_dependencies() {
        // A switch whose down ports cover the whole system never sends a
        // worm up: no edge may target an up port there. In the small tree
        // only the root covers everything, and it has no up port; the
        // second fabric's covering switch has one.
        for topo in [small_tree(), covering_switch_with_uplink()] {
            let tables = RouteTables::build(&topo);
            let g = build_cdg(&topo, &tables);
            let full = DestSet::full(topo.n_hosts());
            for d in &deps(&g, &topo) {
                if tables.table(d.at).port(d.onto).class == PortClass::Up {
                    assert_ne!(
                        tables.table(d.at).down_union(),
                        &full,
                        "LCA-complete switch must not ascend"
                    );
                }
            }
        }
        let tables = RouteTables::build(&covering_switch_with_uplink());
        let s0 = tables.table(SwitchId(0));
        assert_eq!(s0.port(2).class, PortClass::Up);
        assert_eq!(s0.down_union(), &DestSet::full(2));
    }

    #[test]
    fn edge_labels_name_switch_and_ports() {
        let topo = small_tree();
        let tables = RouteTables::build(&topo);
        let g = build_cdg(&topo, &tables);
        let d = &deps(&g, &topo)[0];
        let label = d.describe(&g.channels);
        assert!(label.contains("->"), "{label}");
        assert!(label.contains("worm"), "{label}");
    }
}
