//! Property-based tests for topology generation and routing invariants
//! across all three topology classes.
//!
//! Driven by hand-rolled seeded case loops over [`SimRng`] streams (no
//! external property-testing crate), so sampled inputs are reproducible
//! from the constants below.

use mintopo::irregular::Irregular;
use mintopo::karytree::KaryTree;
use mintopo::route::{trace_bitstring, trace_unicast, ReplicatePolicy, RouteTables};
use mintopo::unimin::UniMin;
use netsim::destset::DestSet;
use netsim::ids::NodeId;
use netsim::rng::SimRng;

const CASES: u64 = 32;

fn case_rng(test: u64, case: u64) -> SimRng {
    SimRng::new(0x3070_0000 ^ test).fork(case)
}

/// Samples tree parameters (k, n) from the small shapes the suite covers.
fn karytree_params(r: &mut SimRng) -> (usize, usize) {
    match r.below(7) {
        0 => (2, 4), // 16 hosts, 4 stages
        i => (2 + (i - 1) % 3, 2 + (i - 1) / 3),
    }
}

/// Non-empty random destination set over `0..hosts` excluding `src`.
fn random_dests(r: &mut SimRng, hosts: usize, src: NodeId, max: usize) -> DestSet {
    let k = 1 + r.below(max.min(hosts - 1));
    r.dest_set(hosts, k, src)
}

/// Unicast routing on any k-ary n-tree reaches the destination in
/// exactly `2·lca_stage + 1` switch hops, for a random pair.
#[test]
fn karytree_unicast_hops_match_lca() {
    for case in 0..CASES {
        let mut r = case_rng(1, case);
        let (k, n) = karytree_params(&mut r);
        let tree = KaryTree::new(k, n);
        let hosts = tree.n_hosts();
        let tables = RouteTables::build(tree.topology());
        let src = NodeId(r.below(hosts) as u32);
        let dst = r.other_node(hosts, src);
        let path = trace_unicast(&tables, tree.topology(), src, dst, 64).unwrap();
        assert_eq!(
            path.len(),
            2 * tree.lca_stage(src, dst) + 1,
            "case {case} (k={k}, n={n})"
        );
    }
}

/// Bit-string replication on any k-ary n-tree covers exactly the set
/// under both policies, and ForwardAndReturn never uses more branch
/// hops than ReturnOnly.
#[test]
fn karytree_multicast_covers_exactly() {
    for case in 0..CASES {
        let mut r = case_rng(2, case);
        let (k, n) = karytree_params(&mut r);
        let tree = KaryTree::new(k, n);
        let hosts = tree.n_hosts();
        let src = NodeId(r.below(hosts) as u32);
        let dests = random_dests(&mut r, hosts, src, 19);
        let tables = RouteTables::build(tree.topology());
        let ro = trace_bitstring(
            &tables,
            tree.topology(),
            src,
            &dests,
            ReplicatePolicy::ReturnOnly,
            64,
        )
        .unwrap();
        let fr = trace_bitstring(
            &tables,
            tree.topology(),
            src,
            &dests,
            ReplicatePolicy::ForwardAndReturn,
            64,
        )
        .unwrap();
        assert_eq!(&ro.delivered, &dests, "case {case}");
        assert_eq!(&fr.delivered, &dests, "case {case}");
        assert!(fr.branch_hops <= ro.branch_hops, "case {case}");
    }
}

/// Every unicast in a butterfly crosses exactly `n` switches.
#[test]
fn unimin_paths_cross_all_stages() {
    for case in 0..CASES {
        let mut r = case_rng(3, case);
        let k = 2 + r.below(3);
        let n = 2 + r.below(2);
        let min = UniMin::new(k, n);
        let hosts = min.n_hosts();
        let tables = RouteTables::build(min.topology());
        let src = NodeId(r.below(hosts) as u32);
        let dst = NodeId(r.below(hosts) as u32);
        let path = trace_unicast(&tables, min.topology(), src, dst, 16).unwrap();
        assert_eq!(path.len(), n, "case {case} (k={k}, n={n})");
    }
}

/// Random irregular networks route all pairs and replicate multicasts
/// exactly once per destination.
#[test]
fn irregular_routes_and_replicates() {
    for case in 0..CASES {
        let mut r = case_rng(4, case);
        let seed = r.below(500) as u64;
        let net = Irregular::new(6, 8, 12, 3, seed).unwrap();
        let tables = RouteTables::build(net.topology());
        let src = NodeId(r.below(12) as u32);
        let dests = random_dests(&mut r, 12, src, 7);
        for d in dests.iter() {
            trace_unicast(&tables, net.topology(), src, d, 32).unwrap();
        }
        for policy in [
            ReplicatePolicy::ReturnOnly,
            ReplicatePolicy::ForwardAndReturn,
        ] {
            let trace = trace_bitstring(&tables, net.topology(), src, &dests, policy, 32).unwrap();
            assert_eq!(&trace.delivered, &dests, "case {case} (seed {seed})");
        }
    }
}

/// Down-port reachability strings of any switch in a k-ary tree are
/// pairwise disjoint, and every host is reachable from every switch.
#[test]
fn karytree_reach_strings_are_sound() {
    use mintopo::reach::PortClass;
    for case in 0..CASES {
        let mut r = case_rng(5, case);
        let (k, n) = karytree_params(&mut r);
        let tree = KaryTree::new(k, n);
        let tables = RouteTables::build(tree.topology());
        let sw = netsim::ids::SwitchId::from(r.below(tree.topology().n_switches()));
        let table = tables.table(sw);
        let mut seen = DestSet::empty(tree.n_hosts());
        for p in 0..table.n_ports() {
            let info = table.port(p);
            if info.class == PortClass::Down {
                assert!(
                    !seen.intersects(&info.reach),
                    "case {case}: overlapping down reach"
                );
                seen.union_with(&info.reach);
            }
        }
        // Down union plus up coverage spans the system.
        if table.up_ports().is_empty() {
            assert_eq!(
                seen.count(),
                tree.n_hosts(),
                "case {case}: top stage covers all"
            );
        } else {
            assert!(seen.count() < tree.n_hosts(), "case {case}");
        }
    }
}
