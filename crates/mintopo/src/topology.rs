//! Generic switch-network topology description.
//!
//! A [`Topology`] is a set of switches with numbered ports, bidirectional
//! connections between switch ports, and host attachments. Generators
//! ([`crate::karytree`], [`crate::unimin`], [`crate::irregular`]) produce
//! validated topologies plus the per-switch *depth* used to classify ports
//! as up (toward the roots) or down (toward the hosts).

use netsim::ids::{NodeId, SwitchId};
use std::fmt;

/// Most ports a switch may have.
pub const MAX_SWITCH_PORTS: usize = 16;

/// What sits on the far side of a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// A host NIC.
    Host(NodeId),
    /// Another switch's port.
    Switch(SwitchId, usize),
    /// Nothing (e.g. the unused up ports of top-stage switches).
    Unused,
}

/// One endpoint of a bidirectional connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// A host NIC.
    Host(NodeId),
    /// A switch port.
    SwitchPort(SwitchId, usize),
}

/// A bidirectional connection between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connection {
    /// First endpoint.
    pub a: End,
    /// Second endpoint.
    pub b: End,
}

/// A validated switch-network topology.
#[derive(Debug, Clone)]
pub struct Topology {
    n_hosts: usize,
    switch_ports: Vec<usize>,
    attach: Vec<Vec<Attach>>,
    host_inject: Vec<(SwitchId, usize)>,
    host_eject: Vec<(SwitchId, usize)>,
    depth: Vec<u32>,
}

impl Topology {
    /// Number of hosts (the system size `N`).
    pub fn n_hosts(&self) -> usize {
        self.n_hosts
    }

    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.switch_ports.len()
    }

    /// Number of ports on switch `sw`.
    pub fn ports(&self, sw: SwitchId) -> usize {
        self.switch_ports[sw.index()]
    }

    /// What is attached at `(sw, port)`.
    pub fn attach(&self, sw: SwitchId, port: usize) -> Attach {
        self.attach[sw.index()][port]
    }

    /// The switch port that receives host `h`'s injected traffic.
    pub fn host_inject(&self, h: NodeId) -> (SwitchId, usize) {
        self.host_inject[h.index()]
    }

    /// The switch port that delivers traffic to host `h`.
    pub fn host_eject(&self, h: NodeId) -> (SwitchId, usize) {
        self.host_eject[h.index()]
    }

    /// Depth of switch `sw`: 0 at the roots (top stage), increasing toward
    /// the hosts. Used to orient links as up/down.
    pub fn depth(&self, sw: SwitchId) -> u32 {
        self.depth[sw.index()]
    }

    /// Returns `true` if the directed hop from `sw` out of `port` heads
    /// *down* (away from the roots), per the (depth, id) ordering that makes
    /// down-hops acyclic: deeper first, larger id as a tie-break.
    pub fn is_down_hop(&self, sw: SwitchId, port: usize) -> bool {
        match self.attach(sw, port) {
            Attach::Host(_) => true,
            Attach::Unused => false,
            Attach::Switch(other, _) => {
                let (d1, d2) = (self.depth(sw), self.depth(other));
                d2 > d1 || (d2 == d1 && other.index() > sw.index())
            }
        }
    }

    /// Enumerates every bidirectional connection exactly once.
    pub fn connections(&self) -> Vec<Connection> {
        let mut out = Vec::new();
        for sw in 0..self.n_switches() {
            let sw_id = SwitchId::from(sw);
            for port in 0..self.ports(sw_id) {
                match self.attach(sw_id, port) {
                    Attach::Host(h) => {
                        // Emit host connections only from the inject side so
                        // a host that injects and ejects at different
                        // switches (unidirectional MINs) appears twice —
                        // once per physical cable.
                        out.push(Connection {
                            a: End::Host(h),
                            b: End::SwitchPort(sw_id, port),
                        });
                    }
                    Attach::Switch(other, oport) => {
                        if (sw_id.index(), port) < (other.index(), oport) {
                            out.push(Connection {
                                a: End::SwitchPort(sw_id, port),
                                b: End::SwitchPort(other, oport),
                            });
                        }
                    }
                    Attach::Unused => {}
                }
            }
        }
        out
    }
}

/// Incremental builder for [`Topology`] (C-BUILDER).
///
/// ```
/// use mintopo::topology::TopologyBuilder;
/// use netsim::ids::NodeId;
///
/// // Two hosts on one 4-port switch.
/// let mut b = TopologyBuilder::new(2);
/// let sw = b.add_switch(4, 0);
/// b.attach_host(NodeId(0), sw, 0);
/// b.attach_host(NodeId(1), sw, 1);
/// let topo = b.build();
/// assert_eq!(topo.n_switches(), 1);
/// assert_eq!(topo.host_eject(NodeId(1)), (sw, 1));
/// ```
#[derive(Debug)]
pub struct TopologyBuilder {
    n_hosts: usize,
    switch_ports: Vec<usize>,
    attach: Vec<Vec<Attach>>,
    host_inject: Vec<Option<(SwitchId, usize)>>,
    host_eject: Vec<Option<(SwitchId, usize)>>,
    depth: Vec<u32>,
}

impl TopologyBuilder {
    /// Starts a topology for `n_hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `n_hosts == 0`.
    pub fn new(n_hosts: usize) -> Self {
        assert!(n_hosts > 0, "topology needs at least one host");
        TopologyBuilder {
            n_hosts,
            switch_ports: Vec::new(),
            attach: Vec::new(),
            host_inject: vec![None; n_hosts],
            host_eject: vec![None; n_hosts],
            depth: Vec::new(),
        }
    }

    /// Adds a switch with `ports` ports at the given `depth` (0 = root).
    pub fn add_switch(&mut self, ports: usize, depth: u32) -> SwitchId {
        assert!(
            (1..=MAX_SWITCH_PORTS).contains(&ports),
            "switch ports must be in 1..={MAX_SWITCH_PORTS}"
        );
        let id = SwitchId::from(self.switch_ports.len());
        self.switch_ports.push(ports);
        self.attach.push(vec![Attach::Unused; ports]);
        self.depth.push(depth);
        id
    }

    /// Connects two switch ports bidirectionally.
    ///
    /// # Panics
    ///
    /// Panics if either port is already in use or out of range.
    pub fn connect(&mut self, a: SwitchId, ap: usize, b: SwitchId, bp: usize) {
        assert!(
            self.attach[a.index()][ap] == Attach::Unused,
            "port {a}.{ap} already used"
        );
        assert!(
            self.attach[b.index()][bp] == Attach::Unused,
            "port {b}.{bp} already used"
        );
        assert!(!(a == b && ap == bp), "cannot connect a port to itself");
        self.attach[a.index()][ap] = Attach::Switch(b, bp);
        self.attach[b.index()][bp] = Attach::Switch(a, ap);
    }

    /// Attaches host `h` at `(sw, port)` for both injection and ejection
    /// (the bidirectional-topology case).
    ///
    /// # Panics
    ///
    /// Panics if the port is in use or the host is already attached.
    pub fn attach_host(&mut self, h: NodeId, sw: SwitchId, port: usize) {
        self.attach_host_inject(h, sw, port);
        self.set_host_eject(h, sw, port);
    }

    /// Attaches host `h`'s *injection* side at `(sw, port)` (unidirectional
    /// MINs inject and eject at different switches).
    ///
    /// # Panics
    ///
    /// Panics if the port is in use or the host already injects somewhere.
    pub fn attach_host_inject(&mut self, h: NodeId, sw: SwitchId, port: usize) {
        assert!(
            self.attach[sw.index()][port] == Attach::Unused,
            "port {sw}.{port} already used"
        );
        assert!(
            self.host_inject[h.index()].is_none(),
            "host {h} already injects somewhere"
        );
        self.attach[sw.index()][port] = Attach::Host(h);
        self.host_inject[h.index()] = Some((sw, port));
    }

    /// Attaches host `h`'s *ejection* side at `(sw, port)`.
    ///
    /// The port may carry the host attach mark already (bidirectional case)
    /// or be fresh (unidirectional case).
    ///
    /// # Panics
    ///
    /// Panics if the host already ejects somewhere, or the port is occupied
    /// by something other than this host.
    pub fn set_host_eject(&mut self, h: NodeId, sw: SwitchId, port: usize) {
        assert!(
            self.host_eject[h.index()].is_none(),
            "host {h} already ejects somewhere"
        );
        match self.attach[sw.index()][port] {
            Attach::Unused => self.attach[sw.index()][port] = Attach::Host(h),
            Attach::Host(existing) if existing == h => {}
            other => panic!("port {sw}.{port} already used by {other:?}"),
        }
        self.host_eject[h.index()] = Some((sw, port));
    }

    /// Validates and freezes the topology.
    ///
    /// # Panics
    ///
    /// Panics if any host lacks an injection or ejection attachment, or if
    /// switch-switch connections are asymmetric (cannot happen through this
    /// builder's API, but is checked anyway).
    pub fn build(mut self) -> Topology {
        let host_inject: Vec<_> = self
            .host_inject
            .iter()
            .enumerate()
            .map(|(h, a)| a.unwrap_or_else(|| panic!("host n{h} has no injection attachment")))
            .collect();
        let host_eject: Vec<_> = self
            .host_eject
            .iter()
            .enumerate()
            .map(|(h, a)| a.unwrap_or_else(|| panic!("host n{h} has no ejection attachment")))
            .collect();
        // Symmetry check.
        for (s, ports) in self.attach.iter().enumerate() {
            for (p, att) in ports.iter().enumerate() {
                if let Attach::Switch(o, op) = att {
                    assert_eq!(
                        self.attach[o.index()][*op],
                        Attach::Switch(SwitchId::from(s), p),
                        "asymmetric connection at s{s}.{p}"
                    );
                }
            }
        }
        // The per-switch vectors grew by pushing, and a built topology
        // lives as long as the fabric that shares it: keep no spare
        // capacity.
        self.switch_ports.shrink_to_fit();
        self.attach.shrink_to_fit();
        self.depth.shrink_to_fit();
        Topology {
            n_hosts: self.n_hosts,
            switch_ports: self.switch_ports,
            attach: self.attach,
            host_inject,
            host_eject,
            depth: self.depth,
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Topology({} hosts, {} switches, {} connections)",
            self.n_hosts,
            self.n_switches(),
            self.connections().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch_topo() -> Topology {
        // h0,h1 on sw0; h2 on sw1; sw0.3 <-> sw1.3. sw0 deeper than sw1.
        let mut b = TopologyBuilder::new(3);
        let s0 = b.add_switch(4, 1);
        let s1 = b.add_switch(4, 0);
        b.attach_host(NodeId(0), s0, 0);
        b.attach_host(NodeId(1), s0, 1);
        b.attach_host(NodeId(2), s1, 0);
        b.connect(s0, 3, s1, 3);
        b.build()
    }

    #[test]
    fn builder_round_trip() {
        let t = two_switch_topo();
        assert_eq!(t.n_hosts(), 3);
        assert_eq!(t.n_switches(), 2);
        assert_eq!(t.ports(SwitchId(0)), 4);
        assert_eq!(t.attach(SwitchId(0), 0), Attach::Host(NodeId(0)));
        assert_eq!(t.attach(SwitchId(0), 3), Attach::Switch(SwitchId(1), 3));
        assert_eq!(t.attach(SwitchId(1), 3), Attach::Switch(SwitchId(0), 3));
        assert_eq!(t.attach(SwitchId(0), 2), Attach::Unused);
        assert_eq!(t.host_inject(NodeId(2)), (SwitchId(1), 0));
        assert_eq!(t.host_eject(NodeId(2)), (SwitchId(1), 0));
    }

    #[test]
    fn down_hop_orientation() {
        let t = two_switch_topo();
        // s0 (depth 1) -> s1 (depth 0) is up; reverse is down.
        assert!(!t.is_down_hop(SwitchId(0), 3));
        assert!(t.is_down_hop(SwitchId(1), 3));
        // Host hops are always down; unused ports never.
        assert!(t.is_down_hop(SwitchId(0), 0));
        assert!(!t.is_down_hop(SwitchId(0), 2));
    }

    #[test]
    fn connections_enumerated_once() {
        let t = two_switch_topo();
        let conns = t.connections();
        assert_eq!(conns.len(), 4); // 3 host links + 1 switch link
        let sw_links = conns
            .iter()
            .filter(|c| matches!(c.a, End::SwitchPort(..)) && matches!(c.b, End::SwitchPort(..)))
            .count();
        assert_eq!(sw_links, 1);
    }

    #[test]
    #[should_panic(expected = "already used")]
    fn double_port_use_panics() {
        let mut b = TopologyBuilder::new(1);
        let s0 = b.add_switch(2, 0);
        b.attach_host(NodeId(0), s0, 0);
        let s1 = b.add_switch(2, 0);
        b.connect(s0, 0, s1, 0);
    }

    #[test]
    #[should_panic(expected = "no injection attachment")]
    fn unattached_host_panics() {
        let mut b = TopologyBuilder::new(2);
        let s0 = b.add_switch(4, 0);
        b.attach_host(NodeId(0), s0, 0);
        let _ = b.build();
    }

    #[test]
    fn split_inject_eject() {
        // Unidirectional style: inject at s0, eject at s1.
        let mut b = TopologyBuilder::new(1);
        let s0 = b.add_switch(2, 1);
        let s1 = b.add_switch(2, 0);
        b.connect(s0, 1, s1, 0);
        b.attach_host_inject(NodeId(0), s0, 0);
        b.set_host_eject(NodeId(0), s1, 1);
        let t = b.build();
        assert_eq!(t.host_inject(NodeId(0)), (SwitchId(0), 0));
        assert_eq!(t.host_eject(NodeId(0)), (SwitchId(1), 1));
        // Two host cables in the connection list.
        let host_links = t
            .connections()
            .iter()
            .filter(|c| matches!(c.a, End::Host(_)))
            .count();
        assert_eq!(host_links, 2);
    }
}
