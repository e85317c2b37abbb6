//! Property tests for the header-encoding cross-validation: every reach
//! bit-string the routing layer can emit must decode losslessly through
//! the production switch decode path, across random topology shapes and
//! random destination sets.
//!
//! Driven by hand-rolled seeded case loops over [`SimRng`] streams (no
//! external property-testing crate), matching the `mintopo` and `netsim`
//! proptest suites.

use mdw_analysis::{analyze_fabric, lint_roundtrips, ConfigReport};
use mintopo::irregular::Irregular;
use mintopo::karytree::KaryTree;
use mintopo::route::{ReplicatePolicy, RouteTables};
use mintopo::unimin::UniMin;
use netsim::ids::{NodeId, SwitchId};
use netsim::rng::SimRng;
use switches::verify_bitstring_roundtrip;

const CASES: u64 = 24;
const POLICIES: [ReplicatePolicy; 2] = [
    ReplicatePolicy::ReturnOnly,
    ReplicatePolicy::ForwardAndReturn,
];

fn case_rng(test: u64, case: u64) -> SimRng {
    SimRng::new(0xA11A_5EED ^ test).fork(case)
}

/// Samples tree parameters (k, n) from the small shapes the suite covers.
fn karytree_params(r: &mut SimRng) -> (usize, usize) {
    match r.below(7) {
        0 => (2, 4), // 16 hosts, 4 stages
        i => (2 + (i - 1) % 3, 2 + (i - 1) / 3),
    }
}

/// Random destination sets at random switches of random k-ary trees
/// round-trip through decode under both replication policies: the
/// resolved branches cover exactly the requested set, once each, on
/// ports the reachability strings justify. Every switch of a
/// bidirectional tree can route any set (interior switches escape
/// upward), so the probe is unconstrained.
#[test]
fn karytree_reach_strings_decode_losslessly() {
    for case in 0..CASES {
        let mut r = case_rng(1, case);
        let (k, n) = karytree_params(&mut r);
        let tree = KaryTree::new(k, n);
        let hosts = tree.n_hosts();
        let tables = RouteTables::build(tree.topology());
        for _ in 0..4 {
            let sw = SwitchId::from(r.below(tree.topology().n_switches()));
            let src = NodeId(r.below(hosts) as u32);
            let size = 1 + r.below(hosts.min(17) - 1);
            let dests = r.dest_set(hosts, size, src);
            for policy in POLICIES {
                verify_bitstring_roundtrip(tables.table(sw), &dests, policy).unwrap_or_else(|e| {
                    panic!("case {case} (k={k}, n={n}, sw={sw:?}, {policy:?}): {e}")
                });
            }
        }
    }
}

/// The analyzer's own shape enumeration (`lint_roundtrips`) comes back
/// clean over random shapes of all three topology classes, and actually
/// exercised at least one probe per switch.
#[test]
fn lint_roundtrips_clean_on_random_topologies() {
    for case in 0..CASES {
        let mut r = case_rng(2, case);
        let (k, n) = karytree_params(&mut r);
        let seed = r.below(500) as u64;
        let tables = [
            RouteTables::build(KaryTree::new(k, n).topology()),
            RouteTables::build(UniMin::new(2 + (k % 3), 2 + (n % 2)).topology()),
            RouteTables::build(Irregular::new(6, 8, 12, 3, seed).unwrap().topology()),
        ];
        for tables in &tables {
            for policy in POLICIES {
                let mut report = ConfigReport::new();
                lint_roundtrips(tables, policy, &mut report);
                assert!(report.is_clean(), "case {case}: {:?}", report.diagnostics);
                assert!(report.stats.roundtrips > 0, "case {case}");
            }
        }
    }
}

/// Randomly generated tree fabrics + worm sets: compositional mode
/// reaches the oracle's verdict and violation kind for both
/// architectures, with synchronous replication off and on.
#[test]
fn random_scenarios_agree_between_oracle_and_compositional_checker() {
    for case in 0..CASES {
        let mut r = case_rng(6, case);
        let seed = r.below(1 << 30) as u64;
        let checked = mdw_analysis::model::testkit::random_scenario_probe(seed);
        assert!(checked > 0, "case {case}");
    }
}

/// The full fabric pass — CDG + SCC + round-trips — finds no cycle in
/// any random k-ary tree: up*/down* LCA routing is provably
/// deadlock-free, and the analyzer must agree on every instance.
#[test]
fn random_karytree_cdgs_are_acyclic() {
    for case in 0..CASES {
        let mut r = case_rng(3, case);
        let (k, n) = karytree_params(&mut r);
        let tree = KaryTree::new(k, n);
        let tables = RouteTables::build(tree.topology());
        for policy in POLICIES {
            let mut report = ConfigReport::new();
            analyze_fabric(tree.topology(), &tables, policy, &mut report);
            assert!(
                report.is_clean(),
                "case {case} (k={k}, n={n}): {:?}",
                report.diagnostics
            );
            assert!(report.cycles.is_empty(), "case {case}");
            assert_eq!(
                report.stats.sccs, report.stats.channels,
                "case {case}: acyclic graphs have only singleton SCCs"
            );
        }
    }
}
