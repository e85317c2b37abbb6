//! Header-encoding cross-validation between `mintopo::reach` and the
//! switch decode path.
//!
//! The reach module derives an `N`-bit reachability string per output
//! port; the switch decode consumes those strings to rewrite bit-string
//! worm headers at each hop. Nothing but convention keeps the two in
//! agreement, so this lint decodes a family of representative destination
//! shapes at every switch — through
//! [`switches::verify_bitstring_roundtrip`], i.e. the *production* decode
//! path, not a re-implementation — and reports any switch/port whose
//! branch headers fail to partition the destination set.

use crate::report::ConfigReport;
use mintopo::reach::PortClass;
use mintopo::route::{ReplicatePolicy, RouteTables};
use netsim::destset::DestSet;
use netsim::ids::SwitchId;

/// Destination-set shapes exercised per switch: the widest sets the
/// switch can legally see, each down port's own reachability string, and
/// the pairwise union of neighboring down-port strings (the cross-subtree
/// shape that forces a fan-out).
///
/// A worm either resolves entirely into the down cones (widest such
/// shape: the down-union) or ascends through *one* up port — and under
/// `ReturnOnly` an ascending worm carries its whole destination set, so
/// the widest legal ascending shape is that port's reach string alone.
/// On tables from [`RouteTables::build`] every up port reaches every
/// host and the ascending shapes collapse to the full destination set;
/// on masked tables ([`RouteTables::build_masked`]) the exact reach
/// strings keep the shapes inside what the degraded routing can actually
/// cover, so legitimate coverage holes are not reported as decode
/// failures. A switch without up ports (a root, or an interior stage of
/// a unidirectional MIN) only ever sees residuals inside its down-union.
fn shapes_for(tables: &RouteTables, sw: SwitchId) -> Vec<DestSet> {
    let table = tables.table(sw);
    let down_union = table.down_union();
    let mut shapes: Vec<DestSet> = Vec::new();
    let push = |shapes: &mut Vec<DestSet>, s: DestSet| {
        if !s.is_empty() && !shapes.contains(&s) {
            shapes.push(s);
        }
    };
    push(&mut shapes, down_union.clone());
    for &u in table.up_ports() {
        push(&mut shapes, table.port(u).reach.clone());
    }
    let down_reaches: Vec<&DestSet> = (0..table.n_ports())
        .filter_map(|p| {
            let info = table.port(p);
            (info.class == PortClass::Down && !info.reach.is_empty()).then_some(&info.reach)
        })
        .collect();
    for r in &down_reaches {
        push(&mut shapes, (*r).clone());
    }
    for pair in down_reaches.windows(2) {
        push(&mut shapes, pair[0].or(pair[1]));
    }
    shapes
}

/// Round-trips every representative shape through every switch's decode
/// under `policy`, appending an error per inconsistency and counting the
/// checks in `report.stats.roundtrips`.
pub fn lint_roundtrips(tables: &RouteTables, policy: ReplicatePolicy, report: &mut ConfigReport) {
    for s in 0..tables.n_switches() {
        let sw = SwitchId::from(s);
        let table = tables.table(sw);
        for dests in shapes_for(tables, sw) {
            report.stats.roundtrips += 1;
            if let Err(e) = switches::verify_bitstring_roundtrip(table, &dests, policy) {
                report.error(
                    "header-roundtrip-mismatch",
                    format!("{sw}: reach string fails to round-trip through decode: {e}"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintopo::topology::TopologyBuilder;
    use netsim::ids::NodeId;

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
    fn consistent_tables_lint_clean_under_both_policies() {
        let t = tables();
        for policy in [
            ReplicatePolicy::ReturnOnly,
            ReplicatePolicy::ForwardAndReturn,
        ] {
            let mut r = ConfigReport::new();
            lint_roundtrips(&t, policy, &mut r);
            assert!(r.is_clean(), "{policy:?}: {:?}", r.diagnostics);
            assert!(r.stats.roundtrips > 0, "lint must actually check shapes");
        }
    }

    #[test]
    fn shapes_cover_full_set_and_subtrees() {
        let t = tables();
        let shapes = shapes_for(&t, SwitchId(2));
        assert!(shapes.contains(&DestSet::full(4)));
        // Root's two subtree strings and their union.
        assert!(shapes.contains(&DestSet::from_nodes(4, [0, 1].map(NodeId))));
        assert!(shapes.contains(&DestSet::from_nodes(4, [2, 3].map(NodeId))));
        // Shapes are deduplicated: the two subtree strings plus their
        // union (= the root's full down-union) make three distinct sets.
        assert!(shapes.len() >= 3);
    }
}
