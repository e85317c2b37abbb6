//! Instantiates a complete simulated system: topology → links → switches →
//! hosts, wired into a [`netsim::engine::Engine`].

use crate::config::{fabric, kary_tree, Fabric, McastImpl, SwitchArch, SystemConfig};
use collectives::traffic::DeliveryHook;
use collectives::{FabricMode, Host, HostConfig, HostShared, McastScheme, TrafficSource};
use mintopo::route::RouteTables;
use mintopo::topology::{End, Topology};
use netsim::engine::Engine;
use netsim::ids::{LinkId, NodeId, SwitchId};
use netsim::stats::DeliveryTracker;
use std::cell::RefCell;
use std::rc::Rc;
use switches::{CentralBufferSwitch, InputBufferedSwitch, SwitchConfig, SwitchCtl, SwitchStats};

/// Link ids grouped by role, for utilization accounting.
#[derive(Debug, Default, Clone)]
pub struct LinkMap {
    /// Host → switch injection links.
    pub inject: Vec<LinkId>,
    /// Switch → host ejection links.
    pub eject: Vec<LinkId>,
    /// Switch ↔ switch fabric links (both directions).
    pub fabric: Vec<LinkId>,
}

/// Mean per-link utilization (flits per cycle) over a run, by link role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkUtilization {
    /// Host injection links.
    pub inject: f64,
    /// Host ejection links — the capacity bound every multicast scheme
    /// shares.
    pub eject: f64,
    /// Inter-switch fabric links.
    pub fabric: f64,
    /// The single busiest link of any role.
    pub max_link: f64,
}

/// A fully wired system ready to run.
pub struct System {
    /// The simulation engine (all components registered).
    pub engine: Engine,
    /// Shared host bookkeeping (tracker, coordinators, id generators).
    pub shared: HostShared,
    /// Per-switch statistics handles, indexed by switch id.
    pub switch_stats: Vec<Rc<RefCell<SwitchStats>>>,
    /// The configuration the system was built from.
    pub config: SystemConfig,
    /// The topology (for inspection).
    pub topology: Rc<Topology>,
    /// Links grouped by role.
    pub links: LinkMap,
    /// Per switch, per port: the link feeding that input port. Used by
    /// deadlock forensics to translate "waiting on output port p" into a
    /// link-level wait-for edge.
    pub sw_in: Vec<Vec<LinkId>>,
    /// Per switch, per port: the link driven by that output port.
    pub sw_out: Vec<Vec<LinkId>>,
    /// Per-switch out-of-band control cells (purge / table swap), indexed
    /// by switch id. Held by the fault-response orchestrator.
    pub switch_ctls: Vec<Rc<SwitchCtl>>,
    /// Shared injection-gate / degradation cell every host watches.
    pub fabric_mode: Rc<FabricMode>,
    /// The routing tables currently active in the switches. The
    /// fault-response orchestrator replaces this handle when a masked
    /// reroute is installed.
    pub tables: Rc<RouteTables>,
}

impl System {
    /// Convenience accessor for the delivery tracker.
    pub fn tracker(&self) -> Rc<RefCell<DeliveryTracker>> {
        self.shared.tracker.clone()
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.topology.n_hosts()
    }

    /// Mean link utilization since cycle 0 (flits per link per cycle).
    ///
    /// Returns all-zero before the first cycle.
    pub fn link_utilization(&self) -> LinkUtilization {
        let cycles = self.engine.now().max(1) as f64;
        let mean = |ids: &[LinkId]| -> f64 {
            if ids.is_empty() {
                return 0.0;
            }
            let total: u64 = ids.iter().map(|&l| self.engine.link_total_flits(l)).sum();
            total as f64 / cycles / ids.len() as f64
        };
        let max_link = self
            .links
            .inject
            .iter()
            .chain(&self.links.eject)
            .chain(&self.links.fabric)
            .map(|&l| self.engine.link_total_flits(l) as f64 / cycles)
            .fold(0.0, f64::max);
        LinkUtilization {
            inject: mean(&self.links.inject),
            eject: mean(&self.links.eject),
            fabric: mean(&self.links.fabric),
            max_link,
        }
    }
}

/// Builds a complete system.
///
/// `sources` supplies one [`TrafficSource`] per host (index = node id);
/// `hook` is an optional delivery observer installed on every host.
///
/// The topology and route tables come from the thread's fabric table,
/// which validation's fabric pass filled (DESIGN.md §8): every system a
/// thread builds on one fabric shares them, and a repeat builds neither.
///
/// # Panics
///
/// Panics if `sources.len()` differs from the host count or the
/// configuration fails [`SystemConfig::validate`].
pub fn build_system(
    config: SystemConfig,
    sources: Vec<Box<dyn TrafficSource>>,
    hook: Option<Rc<RefCell<dyn DeliveryHook>>>,
) -> System {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid system config: {e}"));
    let Fabric { topology, tables } = fabric(config.topology);
    assert_eq!(
        sources.len(),
        topology.n_hosts(),
        "need exactly one traffic source per host"
    );
    let swcfg = config.effective_switch();
    let mut engine = Engine::new();

    // Credit window of a link terminating at a switch input depends on the
    // architecture: CB exposes the staging FIFO, IB the input buffer.
    let switch_in_credits = match config.arch {
        SwitchArch::CentralBuffer => swcfg.staging_flits,
        SwitchArch::InputBuffered => swcfg.input_buf_flits,
    };

    // Per switch port: incoming and outgoing link ids.
    let n_sw = topology.n_switches();
    let mut sw_in: Vec<Vec<Option<LinkId>>> = (0..n_sw)
        .map(|s| vec![None; topology.ports(SwitchId::from(s))])
        .collect();
    let mut sw_out: Vec<Vec<Option<LinkId>>> = sw_in.clone();
    // Per host: injection (host→switch) and ejection (switch→host) links.
    let mut host_inject: Vec<Option<LinkId>> = vec![None; topology.n_hosts()];
    let mut host_eject: Vec<Option<LinkId>> = vec![None; topology.n_hosts()];

    let mut links = LinkMap::default();
    for conn in topology.connections() {
        match (conn.a, conn.b) {
            (End::SwitchPort(a, ap), End::SwitchPort(b, bp)) => {
                let l_ab = engine.add_link(config.link_delay, switch_in_credits);
                let l_ba = engine.add_link(config.link_delay, switch_in_credits);
                links.fabric.push(l_ab);
                links.fabric.push(l_ba);
                sw_out[a.index()][ap] = Some(l_ab);
                sw_in[b.index()][bp] = Some(l_ab);
                sw_out[b.index()][bp] = Some(l_ba);
                sw_in[a.index()][ap] = Some(l_ba);
            }
            (End::Host(h), End::SwitchPort(s, p)) | (End::SwitchPort(s, p), End::Host(h)) => {
                if topology.host_inject(h) == (s, p) {
                    let l = engine.add_link(config.link_delay, switch_in_credits);
                    host_inject[h.index()] = Some(l);
                    sw_in[s.index()][p] = Some(l);
                    links.inject.push(l);
                }
                if topology.host_eject(h) == (s, p) {
                    let l = engine.add_link(config.link_delay, config.host_eject_credits);
                    host_eject[h.index()] = Some(l);
                    sw_out[s.index()][p] = Some(l);
                    links.eject.push(l);
                }
            }
            (End::Host(_), End::Host(_)) => unreachable!("hosts never connect directly"),
        }
    }

    // Fill unused port slots with dangling links so bindings stay dense.
    let dangling = |engine: &mut Engine, slot: &mut Option<LinkId>| {
        if slot.is_none() {
            *slot = Some(engine.add_link(1, 1));
        }
    };
    for s in 0..n_sw {
        for p in 0..topology.ports(SwitchId::from(s)) {
            dangling(&mut engine, &mut sw_in[s][p]);
            dangling(&mut engine, &mut sw_out[s][p]);
        }
    }

    // Switches.
    let combining_plan = if config.barrier_combining {
        Some(mintopo::combining::plan_combining(&topology, &tables))
    } else {
        None
    };
    let mut switch_stats = Vec::with_capacity(n_sw);
    let mut switch_ctls = Vec::with_capacity(n_sw);
    for s in 0..n_sw {
        let id = SwitchId::from(s);
        let stats = Rc::new(RefCell::new(SwitchStats::default()));
        switch_stats.push(stats.clone());
        let ctl = SwitchCtl::with_epoch_changes(engine.epoch_changes());
        switch_ctls.push(ctl.clone());
        let cfg = SwitchConfig {
            ports: topology.ports(id),
            ..swcfg.clone()
        };
        let inputs: Vec<LinkId> = sw_in[s].iter().map(|l| l.expect("dense")).collect();
        let outputs: Vec<LinkId> = sw_out[s].iter().map(|l| l.expect("dense")).collect();
        match config.arch {
            SwitchArch::CentralBuffer => {
                let mut switch = CentralBufferSwitch::new(id, cfg, tables.clone(), stats);
                switch.set_ctl(ctl);
                if let Some(plan) = &combining_plan {
                    let expected = plan.expected[s];
                    if expected > 0 {
                        switch.enable_barrier_combining(
                            expected,
                            topology.n_hosts(),
                            config.bits_per_flit,
                        );
                    }
                }
                engine.add_component(Box::new(switch), inputs, outputs);
            }
            SwitchArch::InputBuffered => {
                let mut switch = InputBufferedSwitch::new(id, cfg, tables.clone(), stats);
                switch.set_ctl(ctl);
                engine.add_component(Box::new(switch), inputs, outputs);
            }
        }
    }

    // Hosts.
    let shared = HostShared::new(topology.n_hosts());
    let fabric_mode = FabricMode::new();
    let scheme = match config.mcast {
        McastImpl::HwBitString => McastScheme::HardwareBitString,
        McastImpl::HwMultiport => McastScheme::HardwareMultiport(
            kary_tree(config.topology).expect("validated: tree topology"),
        ),
        McastImpl::SwBinomial => McastScheme::SoftwareBinomial,
    };
    for (h, source) in sources.into_iter().enumerate() {
        let node = NodeId::from(h);
        let hcfg = HostConfig {
            node,
            n_hosts: topology.n_hosts(),
            bits_per_flit: config.bits_per_flit,
            max_packet_flits: swcfg.max_packet_flits,
            send_overhead: config.send_overhead,
            recv_overhead: config.recv_overhead,
            scheme: scheme.clone(),
            recovery: config.recovery.clone(),
        };
        let mut host = Host::new(hcfg, shared.clone(), source);
        host.set_fabric_mode(fabric_mode.clone());
        if let Some(hook) = &hook {
            host.set_hook(hook.clone());
        }
        engine.add_component(
            Box::new(host),
            vec![host_eject[h].expect("every host ejects somewhere")],
            vec![host_inject[h].expect("every host injects somewhere")],
        );
    }

    let dense = |m: Vec<Vec<Option<LinkId>>>| -> Vec<Vec<LinkId>> {
        m.into_iter()
            .map(|v| v.into_iter().map(|l| l.expect("dense")).collect())
            .collect()
    };
    System {
        engine,
        shared,
        switch_stats,
        config,
        topology,
        links,
        sw_in: dense(sw_in),
        sw_out: dense(sw_out),
        switch_ctls,
        fabric_mode,
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyKind;
    use collectives::{MessageSpec, ScheduledSource, SilentSource};
    use netsim::destset::DestSet;
    use netsim::message::MessageKind;

    fn silent_sources(n: usize) -> Vec<Box<dyn TrafficSource>> {
        (0..n)
            .map(|_| Box::new(SilentSource) as Box<dyn TrafficSource>)
            .collect()
    }

    #[test]
    fn builds_default_64() {
        let sys = build_system(SystemConfig::default(), silent_sources(64), None);
        assert_eq!(sys.n_hosts(), 64);
        assert_eq!(sys.switch_stats.len(), 48);
    }

    #[test]
    fn quiet_system_stays_quiet() {
        let mut sys = build_system(SystemConfig::default(), silent_sources(64), None);
        sys.engine.run_for(200);
        assert_eq!(sys.engine.total_flit_moves(), 0);
        assert_eq!(sys.tracker().borrow().outstanding(), 0);
    }

    fn one_message_world(cfg: SystemConfig, src: usize, spec: MessageSpec) -> System {
        let n = cfg.n_hosts();
        let mut sources = silent_sources(n);
        sources[src] = Box::new(ScheduledSource::new(vec![(1, spec)]));
        build_system(cfg, sources, None)
    }

    #[test]
    fn unicast_crosses_the_tree() {
        // Host 0 -> host 63 must climb to the top stage.
        let mut sys = one_message_world(
            SystemConfig::default(),
            0,
            MessageSpec {
                kind: MessageKind::Unicast(NodeId(63)),
                payload_flits: 64,
            },
        );
        sys.engine.run_for(2000);
        let t = sys.tracker();
        let t = t.borrow();
        assert_eq!(t.completed_unicasts(), 1);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn multicast_crosses_the_tree_cb() {
        let dests = DestSet::from_nodes(64, [1, 17, 42, 63].map(NodeId));
        let mut sys = one_message_world(
            SystemConfig::default(),
            0,
            MessageSpec {
                kind: MessageKind::Multicast(dests),
                payload_flits: 64,
            },
        );
        sys.engine.run_for(3000);
        let t = sys.tracker();
        let t = t.borrow();
        assert_eq!(t.completed_mcasts(), 1);
        assert_eq!(t.deliveries(), 4);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn multicast_crosses_the_tree_ib() {
        let dests = DestSet::from_nodes(64, [1, 17, 42, 63].map(NodeId));
        let cfg = SystemConfig {
            arch: SwitchArch::InputBuffered,
            ..SystemConfig::default()
        };
        let mut sys = one_message_world(
            cfg,
            0,
            MessageSpec {
                kind: MessageKind::Multicast(dests),
                payload_flits: 64,
            },
        );
        sys.engine.run_for(3000);
        let t = sys.tracker();
        let t = t.borrow();
        assert_eq!(t.completed_mcasts(), 1);
        assert_eq!(t.outstanding(), 0);
    }

    /// A flit corrupted on the source's injection link keeps its mark
    /// through the switches that store the worm and rebuild it flit by
    /// flit: a CB multicast through the central queue and an IB worm
    /// through the input FIFOs both fail the receivers' checksum.
    #[test]
    fn corruption_survives_stored_copies() {
        use collectives::RecoveryConfig;
        use netsim::fault::FaultPlan;
        for arch in [SwitchArch::CentralBuffer, SwitchArch::InputBuffered] {
            let cfg = SystemConfig {
                arch,
                recovery: Some(RecoveryConfig::default()),
                ..SystemConfig::default()
            };
            let dests = DestSet::from_nodes(64, [1, 17, 42, 63].map(NodeId));
            let mut sys = one_message_world(
                cfg,
                0,
                MessageSpec {
                    kind: MessageKind::Multicast(dests),
                    payload_flits: 64,
                },
            );
            let (sw, port) = sys.topology.host_inject(NodeId(0));
            let inject = sys.sw_in[sw.index()][port];
            let certain = FaultPlan {
                flit_corrupt: 1.0,
                ..FaultPlan::none(1)
            };
            sys.engine.install_link_faults(inject, &certain);
            sys.engine.run_for(1500);
            assert!(sys.engine.fault_counters().flits_corrupted > 0, "{arch:?}");
            let discards = sys.shared.recovery.borrow().counters.corrupt_discards;
            assert_eq!(discards, 4, "{arch:?}: every receiver discards the worm");
            assert_eq!(sys.tracker().borrow().deliveries(), 0, "{arch:?}");
        }
    }

    #[test]
    fn software_multicast_forwards_through_hosts() {
        let dests = DestSet::from_nodes(64, (1..16).map(|i| NodeId(i * 4)));
        let cfg = SystemConfig {
            mcast: McastImpl::SwBinomial,
            ..SystemConfig::default()
        };
        let mut sys = one_message_world(
            cfg,
            0,
            MessageSpec {
                kind: MessageKind::Multicast(dests),
                payload_flits: 64,
            },
        );
        sys.engine.run_for(10_000);
        let t = sys.tracker();
        let t = t.borrow();
        assert_eq!(t.completed_mcasts(), 1);
        assert_eq!(t.deliveries(), 15);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn multiport_multicast_on_tree() {
        let dests = DestSet::from_nodes(64, [3, 12, 33, 50, 63].map(NodeId));
        let cfg = SystemConfig {
            mcast: McastImpl::HwMultiport,
            ..SystemConfig::default()
        };
        let mut sys = one_message_world(
            cfg,
            0,
            MessageSpec {
                kind: MessageKind::Multicast(dests),
                payload_flits: 64,
            },
        );
        sys.engine.run_for(5000);
        let t = sys.tracker();
        let t = t.borrow();
        assert_eq!(t.completed_mcasts(), 1);
        assert_eq!(t.deliveries(), 5);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn unimin_unicast_and_multicast() {
        let cfg = SystemConfig {
            topology: TopologyKind::UniMin { k: 4, n: 3 },
            ..SystemConfig::default()
        };
        let dests = DestSet::from_nodes(64, [5, 20, 55].map(NodeId));
        let mut sys = one_message_world(
            cfg,
            2,
            MessageSpec {
                kind: MessageKind::Multicast(dests),
                payload_flits: 32,
            },
        );
        sys.engine.run_for(3000);
        let t = sys.tracker();
        let t = t.borrow();
        assert_eq!(t.completed_mcasts(), 1);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn irregular_multicast() {
        let cfg = SystemConfig {
            topology: TopologyKind::Irregular {
                switches: 8,
                ports: 8,
                hosts: 16,
                extra_links: 4,
                seed: 7,
            },
            ..SystemConfig::default()
        };
        let dests = DestSet::from_nodes(16, [1, 7, 13].map(NodeId));
        let mut sys = one_message_world(
            cfg,
            0,
            MessageSpec {
                kind: MessageKind::Multicast(dests),
                payload_flits: 32,
            },
        );
        sys.engine.run_for(3000);
        let t = sys.tracker();
        let t = t.borrow();
        assert_eq!(t.completed_mcasts(), 1);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn link_utilization_reflects_delivery() {
        // One 64-flit unicast to host 63: its ejection link alone carries
        // ~66 flits; every role's mean utilization is tiny but non-zero.
        let mut sys = one_message_world(
            SystemConfig::default(),
            0,
            MessageSpec {
                kind: MessageKind::Unicast(NodeId(63)),
                payload_flits: 64,
            },
        );
        sys.engine.run_for(2000);
        let u = sys.link_utilization();
        assert!(u.inject > 0.0 && u.eject > 0.0 && u.fabric > 0.0);
        assert!(u.max_link > u.eject, "one hot link dominates the mean");
        // 66 flits over ~2000 cycles on 64 eject links.
        let expected = 66.0 / 2000.0 / 64.0;
        assert!((u.eject - expected).abs() / expected < 0.2, "{u:?}");
    }

    #[test]
    #[should_panic(expected = "one traffic source per host")]
    fn source_count_checked() {
        let _ = build_system(SystemConfig::default(), silent_sources(3), None);
    }
}
