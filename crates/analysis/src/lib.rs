//! # mdw-analysis — static deadlock-freedom & protocol-invariant analysis
//!
//! The paper's key correctness claim is *static*: multidestination worms
//! are deadlock-free iff a packet accepted for transmission can
//! eventually be completely buffered — a condition that depends only on
//! topology, routing function, switch architecture, and buffer sizing.
//! The runtime watchdog (DESIGN.md §7) detects a deadlock *after* the
//! fabric wedges; this crate rejects unsafe configurations *before a
//! single cycle runs*:
//!
//! 1. [`cdg`] enumerates the channel-dependency graph induced by the LCA
//!    routing function over every worm shape class, reusing
//!    `mintopo::route`/`mintopo::reach`;
//! 2. [`scc`] runs iterative Tarjan cycle detection over it — a
//!    dependency cycle is reported with the switches, ports, and worm
//!    shapes that induce it;
//! 3. [`checks`] applies the paper's buffer-sufficiency condition per
//!    switch architecture (central-queue chunk capacity vs. maximum worm
//!    length; input-FIFO depth and the asynchronous-replication
//!    constraint);
//! 4. [`roundtrip`] cross-validates header encoding: reachability
//!    bit-strings from `mintopo::reach` must round-trip through the
//!    production decode in `switches`.
//!
//! Everything lands in one [`report::ConfigReport`] — errors for provably
//! unsafe configurations, warnings for workload-dependent hazards — which
//! `core` surfaces from `SystemConfig` validation and the `mdw-lint` CLI
//! renders as human-readable text or JSON.
#![deny(unreachable_pub, missing_debug_implementations, missing_docs)]

pub mod cdg;
pub mod checks;
mod compose;
pub mod json;
pub mod model;
pub mod report;
pub mod roundtrip;
pub mod scc;
pub mod timing;

pub use cdg::{build_cdg, Channel, ChannelGraph, Dependency, ShapeClass};
pub use checks::{switch_sizing, ArchClass};
pub use json::Json;
pub use model::{
    check_model, check_model_opts, CheckOutcome, ModelBounds, ModelMode, ModelOptions, ModelStats,
    TraceOp, TraceStep, Violation,
};
pub use report::{AnalysisStats, ConfigReport, CycleReport, Diagnostic, Severity};
pub use roundtrip::lint_roundtrips;
pub use scc::tarjan_sccs;
pub use timing::{Samples, VetStats};

use mintopo::route::{ReplicatePolicy, RouteTables};
use mintopo::topology::Topology;

/// Runs the fabric-level analyses — CDG construction + SCC cycle
/// detection, and the header round-trip lint — appending findings and
/// coverage counters to `report`.
///
/// Switch-sizing checks ([`switch_sizing`]) are separate because they
/// need only a `SwitchConfig`, not a built topology; callers typically
/// run them first and skip the fabric pass when sizing is already broken.
pub fn analyze_fabric(
    topo: &Topology,
    tables: &RouteTables,
    policy: ReplicatePolicy,
    report: &mut ConfigReport,
) {
    let graph = build_cdg(topo, tables);
    report.stats.channels = graph.channels.len();
    report.stats.dependencies = graph.n_dependencies();

    let sccs = scc::tarjan_sccs(graph.channels.len(), &graph.adj);
    report.stats.sccs = sccs.len();
    for component in &sccs {
        if !scc::scc_is_cyclic(&graph.adj, component) {
            continue;
        }
        let cycle = scc::cycle_in_scc(&graph.adj, component);
        let channels: Vec<String> = cycle
            .iter()
            .map(|&c| graph.channels[c].describe())
            .collect();
        // The cycle's edges, labeled in edge-enumeration order (by held
        // channel).
        let mut steps: Vec<(usize, usize)> = (0..cycle.len())
            .map(|i| (cycle[i], cycle[(i + 1) % cycle.len()]))
            .collect();
        steps.sort_unstable();
        let edges: Vec<String> = steps
            .into_iter()
            .map(|(from, to)| graph.dependency(topo, from, to).describe(&graph.channels))
            .collect();
        report.error(
            "cdg-cycle",
            format!(
                "channel-dependency cycle through {} channel(s): {} — worms can \
                 each hold a channel while waiting on the next, forever",
                cycle.len(),
                channels.join(" -> ")
            ),
        );
        report.cycles.push(CycleReport { channels, edges });
    }

    roundtrip::lint_roundtrips(tables, policy, report);
}

/// Activation gate for online reroute candidates (DESIGN.md §10): runs the
/// full fabric analysis — CDG construction + Tarjan cycle detection and the
/// header round-trip lint — over the *candidate* tables and accepts only a
/// report free of errors.
///
/// An honest masked rebuild (`RouteTables::build_masked`) cannot introduce
/// a dependency cycle: masking only removes channels and shrinks reach
/// strings, while the up/down orientation comes from the topology, which a
/// link failure does not change. The gate still runs unconditionally —
/// reroute candidates may come from other sources (incremental table
/// patches, operator overrides, bugs), and the static check costs
/// microseconds next to the fabric quiesce it guards.
///
/// # Errors
///
/// Returns the full report when any error-severity finding exists; the
/// caller must stay on the old tables and degrade instead of activating.
pub fn vet_reroute(
    topo: &Topology,
    candidate: &RouteTables,
    policy: ReplicatePolicy,
) -> Result<AnalysisStats, Box<ConfigReport>> {
    let mut report = ConfigReport::new();
    check_live_switches(topo, candidate, &mut report);
    check_full_reachability(topo, candidate, &mut report);
    analyze_fabric(topo, candidate, policy, &mut report);
    if report.has_errors() {
        Err(Box::new(report))
    } else {
        Ok(report.stats)
    }
}

/// Rejects candidate tables that strand a live switch: one with a host
/// still attached but whose masked reach strings are empty on *every*
/// port. Such a table set induces no channels at that switch, so the
/// channel-dependency graph is vacuously acyclic and the CDG pass alone
/// would wave the candidate through — yet the attached host's first
/// injected worm has nowhere to route and wedges the input forever.
fn check_live_switches(topo: &Topology, candidate: &RouteTables, report: &mut ConfigReport) {
    use mintopo::topology::Attach;
    use netsim::ids::SwitchId;
    for s in 0..topo.n_switches() {
        let sw = SwitchId(s as u32);
        let hosts: Vec<u32> = (0..topo.ports(sw))
            .filter_map(|p| match topo.attach(sw, p) {
                Attach::Host(h) => Some(h.0),
                _ => None,
            })
            .collect();
        if hosts.is_empty() {
            continue; // transit switch fully masked off — legitimately dark
        }
        let table = candidate.table(sw);
        let routable = (0..table.n_ports()).any(|p| !table.port(p).reach.is_empty());
        if !routable {
            report.error(
                "unreachable-switch",
                format!(
                    "switch {s} still has {} attached host(s) ({}) but every port's \
                     reach string is empty — the CDG is vacuously acyclic there, yet \
                     any worm injected at the switch can never be routed",
                    hosts.len(),
                    hosts
                        .iter()
                        .map(|h| format!("h{h}"))
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            );
        }
    }
}

/// Rejects candidate tables that partition the fabric: a switch with
/// hosts attached from which some destination cannot be reached on any
/// surviving port. Such tables pass the CDG pass — fewer channels, still
/// acyclic — yet a host can inject a worm to *any* destination, and the
/// first one addressed to the cut-off host has no output port and wedges
/// (or, for unicast, panics the router). Transit switches are exempt:
/// masked reach strings already keep worms they cannot forward from ever
/// being routed to them. The correct response to a partitioning mask is
/// to stay on the old tables and degrade, so the gate must say no.
///
/// `try_route_unicast` finds a port for a destination iff some down-class
/// port's reach string (host ejection ports included) or some up port's
/// contains it, so the unroutable destinations are the complement of the
/// union of those strings: one pass over the switch's ports, not one
/// probe per host.
fn check_full_reachability(topo: &Topology, candidate: &RouteTables, report: &mut ConfigReport) {
    use mintopo::topology::Attach;
    use netsim::destset::DestSet;
    use netsim::ids::SwitchId;
    for s in 0..topo.n_switches() {
        let sw = SwitchId(s as u32);
        let table = candidate.table(sw);
        let has_hosts = (0..topo.ports(sw)).any(|p| matches!(topo.attach(sw, p), Attach::Host(_)));
        let live = (0..table.n_ports()).any(|p| !table.port(p).reach.is_empty());
        if !has_hosts || !live {
            continue; // transit switch, or fully dark: check_live_switches owns the latter
        }
        let mut routable = table.down_union().clone();
        for &p in table.up_ports() {
            routable.union_with(&table.port(p).reach);
        }
        let missing = DestSet::full(routable.universe()).minus(&routable);
        if !missing.is_empty() {
            report.error(
                "unreachable-destination",
                unreachable_destination_message(s, missing.iter().map(|h| h.index())),
            );
        }
    }
}

/// The `unreachable-destination` message for switch `s` and its
/// unroutable hosts, in ascending order.
fn unreachable_destination_message(s: usize, missing: impl Iterator<Item = usize>) -> String {
    let missing: Vec<String> = missing.map(|h| format!("h{h}")).collect();
    format!(
        "switch {s} cannot route to {} host(s) ({}) under the candidate \
         tables — the masked fabric is partitioned; the first worm \
         addressed there would have no output port",
        missing.len(),
        missing.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintopo::topology::TopologyBuilder;
    use netsim::ids::NodeId;

    #[test]
    fn valid_tree_fabric_analyzes_clean() {
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
        let tables = RouteTables::build(&topo);
        let mut report = ConfigReport::new();
        analyze_fabric(&topo, &tables, ReplicatePolicy::ReturnOnly, &mut report);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.cycles.is_empty());
        assert!(report.stats.channels > 0);
        assert!(report.stats.dependencies > 0);
        assert!(report.stats.roundtrips > 0);
    }

    /// Two leaves under two roots — the path diversity a reroute needs.
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
    fn honest_masked_reroute_passes_the_gate() {
        use netsim::ids::SwitchId;
        let topo = two_root_net();
        // Kill both directions of the s0 <-> r0 cable and rebuild.
        let candidate = RouteTables::build_masked(&topo, &[(SwitchId(0), 2), (SwitchId(2), 0)]);
        let stats = vet_reroute(&topo, &candidate, ReplicatePolicy::ReturnOnly)
            .expect("masked rebuild must be deadlock-free");
        assert!(stats.channels > 0);
        assert!(stats.dependencies > 0);
    }

    #[test]
    fn partitioning_masked_reroute_is_rejected() {
        use netsim::ids::SwitchId;
        let topo = two_root_net();
        // Kill both of s0's up links: h0/h1 still inject at s0 but can no
        // longer reach h2/h3 anywhere — the gate must refuse the tables.
        let candidate = RouteTables::build_masked(
            &topo,
            &[
                (SwitchId(0), 2),
                (SwitchId(2), 0),
                (SwitchId(0), 3),
                (SwitchId(3), 0),
            ],
        );
        let report = vet_reroute(&topo, &candidate, ReplicatePolicy::ReturnOnly)
            .expect_err("a partitioning mask must be rejected");
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "unreachable-destination"),
            "{report:?}"
        );
    }

    /// The reference `check_full_reachability`: one `try_route_unicast`
    /// probe per host at every live host-attached switch.
    fn check_full_reachability_probe(
        topo: &Topology,
        candidate: &RouteTables,
        report: &mut ConfigReport,
    ) {
        use mintopo::topology::Attach;
        use netsim::ids::SwitchId;
        for s in 0..topo.n_switches() {
            let sw = SwitchId(s as u32);
            let table = candidate.table(sw);
            let has_hosts =
                (0..topo.ports(sw)).any(|p| matches!(topo.attach(sw, p), Attach::Host(_)));
            let live = (0..table.n_ports()).any(|p| !table.port(p).reach.is_empty());
            if !has_hosts || !live {
                continue;
            }
            let missing: Vec<usize> = (0..topo.n_hosts())
                .filter(|&h| table.try_route_unicast(NodeId(h as u32)).is_none())
                .collect();
            if !missing.is_empty() {
                report.error(
                    "unreachable-destination",
                    unreachable_destination_message(s, missing.into_iter()),
                );
            }
        }
    }

    /// The reach-string union gives the per-host probe's diagnostics byte
    /// for byte on seeded random masks of k-ary trees and irregular
    /// fabrics, from one dead cable up to masks that partition the fabric.
    #[test]
    fn reachability_union_matches_the_per_host_probe() {
        use mintopo::irregular::Irregular;
        use mintopo::karytree::KaryTree;
        use mintopo::topology::Attach;
        use netsim::ids::SwitchId;
        use netsim::rng::SimRng;

        let fabrics: Vec<Topology> = [(2, 3), (4, 2), (4, 3), (3, 3)]
            .into_iter()
            .map(|(k, n)| KaryTree::new(k, n).topology().clone())
            .chain((0..6).map(|seed| {
                Irregular::new(8, 8, 16, 4, seed)
                    .expect("valid irregular shape")
                    .into_topology()
            }))
            .collect();
        let mut rng = SimRng::new(0x5EED_2EAC);
        let (mut partitioned, mut connected) = (0, 0);
        for topo in &fabrics {
            // Both directions of every switch-to-switch cable.
            let cables: Vec<[(SwitchId, usize); 2]> = (0..topo.n_switches())
                .flat_map(|s| {
                    let sw = SwitchId(s as u32);
                    (0..topo.ports(sw)).filter_map(move |p| match topo.attach(sw, p) {
                        Attach::Switch(other, q) if (sw, p) < (other, q) => {
                            Some([(sw, p), (other, q)])
                        }
                        _ => None,
                    })
                })
                .collect();
            for round in 0..24 {
                let cuts = 1 + round % cables.len().min(8);
                let dead: Vec<(SwitchId, usize)> = (0..cuts)
                    .flat_map(|_| cables[rng.below(cables.len())])
                    .collect();
                let candidate = RouteTables::build_masked(topo, &dead);
                let mut union = ConfigReport::new();
                check_full_reachability(topo, &candidate, &mut union);
                let mut probe = ConfigReport::new();
                check_full_reachability_probe(topo, &candidate, &mut probe);
                assert_eq!(union.render_json(), probe.render_json(), "{dead:?}");
                if union.has_errors() {
                    partitioned += 1;
                } else {
                    connected += 1;
                }
            }
        }
        assert!(
            partitioned > 20 && connected > 20,
            "{partitioned}/{connected}"
        );
    }

    #[test]
    fn cyclic_reroute_candidate_is_rejected() {
        use mintopo::reach::{PortClass, PortInfo};
        use mintopo::route::SwitchTable;
        use netsim::destset::DestSet;

        // Two switches at the same depth, cross-connected, one host each.
        let mut b = TopologyBuilder::new(2);
        let a = b.add_switch(2, 1);
        let c = b.add_switch(2, 1);
        b.attach_host(NodeId(0), a, 1);
        b.attach_host(NodeId(1), c, 1);
        b.connect(a, 0, c, 0);
        let topo = b.build();

        // Pathological candidate: *both* tables classify the shared cable
        // as Down with full reach — the "each side believes the other is
        // deeper" bug an incremental reroute patch could introduce. A worm
        // held on a.out0 can extend onto c.out0 and vice versa: a 2-cycle.
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

        let report = vet_reroute(&topo, &candidate, ReplicatePolicy::ReturnOnly)
            .expect_err("crossed-down candidate must be rejected");
        assert!(
            report.errors().any(|d| d.code == "cdg-cycle"),
            "{:?}",
            report.diagnostics
        );
        assert!(!report.cycles.is_empty());
        // The cycle names both switch output channels.
        let channels = report.cycles[0].channels.join(" ");
        assert!(channels.contains("out0"), "{channels}");
    }

    /// The cycle report's text, pinned byte for byte: a three-switch ring
    /// whose candidate tables send a full-reach worm around it, in an
    /// order (s0 -> s2 -> s1) that differs from the held channels' order,
    /// so the edges come out sorted by held channel, not along the cycle.
    #[test]
    fn cycle_report_labels_are_pinned() {
        use mintopo::reach::{PortClass, PortInfo};
        use mintopo::route::SwitchTable;
        use netsim::destset::DestSet;

        let mut b = TopologyBuilder::new(3);
        let s: Vec<_> = (0..3).map(|_| b.add_switch(3, 1)).collect();
        for (i, &sw) in s.iter().enumerate() {
            b.attach_host(NodeId(i as u32), sw, 2);
            b.connect(sw, 0, s[(i + 2) % 3], 1);
        }
        let topo = b.build();
        let port = |class, reach| PortInfo { class, reach };
        let mk = |own: u32| {
            SwitchTable::from_ports(
                vec![
                    port(PortClass::Down, DestSet::full(3)),
                    port(PortClass::Unused, DestSet::empty(3)),
                    port(PortClass::Down, DestSet::singleton(3, NodeId(own))),
                ],
                3,
            )
        };
        let candidate = RouteTables::from_tables(vec![mk(0), mk(1), mk(2)], 3);
        let mut report = ConfigReport::new();
        analyze_fabric(&topo, &candidate, ReplicatePolicy::ReturnOnly, &mut report);
        let golden = r#"{
  "clean": false,
  "errors": 1,
  "warnings": 0,
  "stats": {"channels": 9, "dependencies": 12, "sccs": 7, "roundtrips": 6},
  "diagnostics": [
    {"code": "cdg-cycle", "severity": "error", "message": "channel-dependency cycle through 3 channel(s): s0.out0 -> s2.out0 -> s1.out0 — worms can each hold a channel while waiting on the next, forever"}
  ],
  "cycles": [
    {"channels": ["s0.out0", "s2.out0", "s1.out0"], "edges": ["s2: s0.out0 -> s2.out0 (descending worm)", "s0: s1.out0 -> s0.out0 (ascending worm)", "s1: s2.out0 -> s1.out0 (ascending worm)"]}
  ]
}
"#;
        assert_eq!(report.render_json(), golden);
    }

    #[test]
    fn stranded_live_switch_is_rejected_despite_acyclic_cdg() {
        use mintopo::reach::PortInfo;
        use mintopo::route::SwitchTable;
        use netsim::destset::DestSet;
        use netsim::ids::SwitchId;

        let topo = two_root_net();
        // Candidate that over-masks: every port of leaf s1 has an empty
        // reach string, as if all its cables (and even its own hosts)
        // were masked — but hosts h2/h3 are still attached in the
        // topology and still inject there. With no channels at s1 the
        // CDG is vacuously acyclic, so only the liveness check can
        // catch this.
        let honest = RouteTables::build(&topo);
        let empty = DestSet::empty(4);
        let dark = SwitchTable::from_ports(
            (0..4)
                .map(|p| PortInfo {
                    class: honest.table(SwitchId(1)).port(p).class,
                    reach: empty.clone(),
                })
                .collect(),
            4,
        );
        let tables: Vec<SwitchTable> = (0..topo.n_switches())
            .map(|s| {
                if s == 1 {
                    dark.clone()
                } else {
                    honest.table(SwitchId(s as u32)).clone()
                }
            })
            .collect();
        let candidate = RouteTables::from_tables(tables, 4);

        let report = vet_reroute(&topo, &candidate, ReplicatePolicy::ReturnOnly)
            .expect_err("stranded live switch must be rejected");
        let diag = report
            .errors()
            .find(|d| d.code == "unreachable-switch")
            .unwrap_or_else(|| panic!("missing unreachable-switch: {:?}", report.diagnostics));
        assert!(diag.message.contains("switch 1"), "{}", diag.message);
        assert!(diag.message.contains("h2"), "{}", diag.message);
        // And no spurious cdg-cycle: the failure mode is exactly that
        // the CDG pass alone sees nothing wrong.
        assert!(report.cycles.is_empty());
    }
}
