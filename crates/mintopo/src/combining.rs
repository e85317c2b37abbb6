//! Planning for switch-combining barrier gathers (the hardware-barrier
//! extension of the paper's §9 outlook \[34\]).
//!
//! Every host injects a dataless gather worm; each switch *combines* the
//! gathers arriving from below and forwards one merged gather through its
//! first up port; the unique switch where everything converges (the
//! combining root) answers with a broadcast release worm. This module
//! computes, per switch, how many gather arrivals to expect, and verifies
//! that the first-up-port forest really converges on a single root.

use crate::route::RouteTables;
use crate::topology::{Attach, Topology};
use netsim::ids::{NodeId, SwitchId};

/// Per-switch gather-combining plan.
#[derive(Debug, Clone)]
pub struct CombiningPlan {
    /// Gather arrivals each switch must combine before forwarding
    /// (0 = the switch is not on the combining tree).
    pub expected: Vec<usize>,
    /// The switch that emits the release broadcast.
    pub root: SwitchId,
}

/// Computes the combining plan for a topology.
///
/// # Panics
///
/// Panics if the first-up-port forest does not converge on exactly one
/// root (e.g. unidirectional MINs, where no switch has up ports), since
/// the combining protocol would then deadlock.
pub fn plan_combining(topo: &Topology, tables: &RouteTables) -> CombiningPlan {
    let n_sw = topo.n_switches();
    let mut expected = vec![0usize; n_sw];

    // Hosts contribute a gather at their injection switch.
    for h in 0..topo.n_hosts() {
        let (sw, _) = topo.host_inject(NodeId::from(h));
        expected[sw.index()] += 1;
    }

    // Deepest-first: once a switch's contributors are known, its merged
    // gather contributes one arrival at its first-up-port parent.
    let mut order: Vec<usize> = (0..n_sw).collect();
    order.sort_by_key(|&s| {
        (
            std::cmp::Reverse(topo.depth(SwitchId::from(s))),
            std::cmp::Reverse(s),
        )
    });
    let mut roots = Vec::new();
    for &s in &order {
        if expected[s] == 0 {
            continue;
        }
        let sw = SwitchId::from(s);
        match tables.table(sw).up_ports().first() {
            Some(&up) => match topo.attach(sw, up) {
                Attach::Switch(parent, _) => expected[parent.index()] += 1,
                other => panic!("up port of {sw} leads to {other:?}"),
            },
            None => roots.push(sw),
        }
    }
    assert_eq!(
        roots.len(),
        1,
        "combining requires a unique root; found {roots:?} — \
         this topology does not support switch-combining barriers"
    );
    CombiningPlan {
        expected,
        root: roots[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irregular::Irregular;
    use crate::karytree::KaryTree;
    use crate::unimin::UniMin;

    #[test]
    fn karytree_plan_converges_on_one_top_switch() {
        let tree = KaryTree::new(4, 3);
        let tables = RouteTables::build(tree.topology());
        let plan = plan_combining(tree.topology(), &tables);
        // Leaves expect 4 host gathers each.
        for i in 0..16 {
            assert_eq!(plan.expected[tree.switch_at(0, i).index()], 4);
        }
        // The root is a top-stage switch expecting 4 merged gathers.
        assert_eq!(tree.stage_of(plan.root), 2);
        assert_eq!(plan.expected[plan.root.index()], 4);
        // Total arrivals = hosts + one per forwarding switch.
        let total: usize = plan.expected.iter().sum();
        let forwarding = plan.expected.iter().filter(|&&e| e > 0).count() - 1;
        assert_eq!(total, 64 + forwarding);
    }

    #[test]
    fn irregular_plan_converges() {
        let net = Irregular::new(6, 8, 12, 3, 11).unwrap();
        let tables = RouteTables::build(net.topology());
        let plan = plan_combining(net.topology(), &tables);
        assert!(plan.expected[plan.root.index()] > 0);
        let total: usize = plan.expected.iter().sum();
        assert!(total >= 12, "every host contributes");
    }

    #[test]
    #[should_panic(expected = "unique root")]
    fn unimin_is_rejected() {
        let min = UniMin::new(2, 2);
        let tables = RouteTables::build(min.topology());
        let _ = plan_combining(min.topology(), &tables);
    }
}
