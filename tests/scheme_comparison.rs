//! Qualitative reproduction checks: the orderings the paper reports must
//! hold in the simulator (not the absolute numbers — the shapes).

use mdworm::cfgtext::RunSpec;
use mdworm::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::experiments::{
    e10_single_multicast, run_barrier, single_multicast_latency, spec_rows, BIMODAL, SCHEMES,
    SWEEP_BASE,
};
use mdworm::sim::{run_experiment, RunConfig};
use mdworm::workload::TrafficSpec;

fn base64() -> SystemConfig {
    SystemConfig::default() // 64 processors, 4-ary 3-tree
}

#[test]
fn single_multicast_hardware_beats_software_increasingly_with_degree() {
    let rows = e10_single_multicast(&base64(), &[4, 16, 63], 64);
    let ratio = |d: usize| {
        rows.iter()
            .find(|r| r.scheme == "SW-CB" && r.degree == d)
            .expect("row exists")
            .ratio_vs_cbhw
    };
    assert!(ratio(4) > 1.3, "degree 4 ratio {}", ratio(4));
    assert!(ratio(16) > 2.0, "degree 16 ratio {}", ratio(16));
    assert!(ratio(63) > 2.5, "degree 63 ratio {}", ratio(63));
    // The ratio grows with the degree (log-phases vs single phase).
    assert!(ratio(63) > ratio(4));
}

#[test]
fn multicast_latency_ordering_under_load() {
    // At a moderate multiple-multicast load the paper's ordering holds:
    // CB-HW < IB-HW and CB-HW < SW-CB.
    let run = RunConfig {
        warmup: 2_000,
        measure: 10_000,
        ..RunConfig::default()
    };
    let spec = TrafficSpec::multiple_multicast(0.6, 16, 64);
    let lat = |arch: SwitchArch, mcast: McastImpl| {
        let cfg = SystemConfig {
            arch,
            mcast,
            ..base64()
        };
        let out = run_experiment(&cfg, &spec, &run);
        assert!(!out.deadlocked);
        out.mcast_last.mean
    };
    let cb = lat(SwitchArch::CentralBuffer, McastImpl::HwBitString);
    let ib = lat(SwitchArch::InputBuffered, McastImpl::HwBitString);
    let sw = lat(SwitchArch::CentralBuffer, McastImpl::SwBinomial);
    assert!(cb < ib, "CB-HW {cb} must beat IB-HW {ib}");
    assert!(cb < sw, "CB-HW {cb} must beat SW-CB {sw}");
}

#[test]
fn bimodal_background_unicast_suffers_least_under_cb_hardware() {
    // The abstract's headline: hardware multicast on the central buffer
    // affects background unicast traffic less than software multicast.
    let run = RunConfig {
        warmup: 2_000,
        measure: 10_000,
        ..RunConfig::default()
    };
    // E4/E5's rows at load 0.5: the bimodal base on the 64-host fabric,
    // and the same unicast background without the multicast share.
    let base = RunSpec {
        run,
        ..RunSpec::default()
    }
    .with(&format!("{SWEEP_BASE}{BIMODAL}"))
    .expect("parses");
    let load = 0.5;
    let rows = spec_rows(
        &base,
        vec![
            ("CB-HW", format!("{}traffic.load = {load}", SCHEMES[0].1)),
            ("SW-CB", format!("{}traffic.load = {load}", SCHEMES[2].1)),
            (
                "CB-none",
                format!(
                    "{}traffic.mcast_fraction = 0\ntraffic.load = {}",
                    SCHEMES[0].1,
                    load * (1.0 - base.traffic.mcast_fraction)
                ),
            ),
        ],
    );
    let uni = |scheme: &str| {
        rows.iter()
            .find(|(label, _)| *label == scheme)
            .expect("row exists")
            .1
            .unicast
            .mean
    };
    let cb_hw = uni("CB-HW");
    let sw = uni("SW-CB");
    let reference = uni("CB-none");
    assert!(
        cb_hw < sw,
        "background unicast under CB-HW ({cb_hw}) must beat SW ({sw})"
    );
    // Hardware multicast stays close to the no-multicast reference: within
    // 35% where software is much further off.
    assert!(
        cb_hw < reference * 1.35,
        "CB-HW {cb_hw} vs reference {reference}"
    );
}

#[test]
fn multiport_on_clustered_set_sits_between_bitstring_and_software() {
    // Hosts 16..32 form a complete level-1 subtree — a product set the
    // multiport encoding covers with a single worm. On such sets it should
    // sit between the single-phase bit-string worm and software multicast.
    use mdworm::experiments::single_multicast_latency_to;
    use netsim::destset::DestSet;
    use netsim::ids::NodeId;
    let cluster = DestSet::from_nodes(64, (16..32).map(NodeId));
    let lat = |mcast: McastImpl| {
        single_multicast_latency_to(&SystemConfig { mcast, ..base64() }, cluster.clone(), 64)
    };
    let bit = lat(McastImpl::HwBitString);
    let multi = lat(McastImpl::HwMultiport);
    let sw = lat(McastImpl::SwBinomial);
    assert!(bit <= multi, "bit-string {bit} vs multiport {multi}");
    assert!(multi < sw, "multiport {multi} vs software {sw}");
}

#[test]
fn multiport_on_scattered_sets_pays_many_phases() {
    // The flip side (and the reason the paper prefers bit-string encoding):
    // a scattered destination set is not a product set, so the multiport
    // planner must send many worms, each paying a send overhead.
    let bit = single_multicast_latency(
        &SystemConfig {
            mcast: McastImpl::HwBitString,
            ..base64()
        },
        16,
        64,
    );
    let multi = single_multicast_latency(
        &SystemConfig {
            mcast: McastImpl::HwMultiport,
            ..base64()
        },
        16,
        64,
    );
    assert!(
        multi > bit * 2,
        "scattered 16-dest set: multiport {multi} should cost well over bit-string {bit}"
    );
}

#[test]
fn barrier_hardware_release_beats_software_release() {
    let cfg16 = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 },
        ..SystemConfig::default()
    };
    let (rounds_hw, hw) = run_barrier(
        &SystemConfig {
            mcast: McastImpl::HwBitString,
            ..cfg16.clone()
        },
        5,
    );
    let (rounds_sw, sw) = run_barrier(
        &SystemConfig {
            mcast: McastImpl::SwBinomial,
            ..cfg16
        },
        5,
    );
    assert_eq!(rounds_hw, 5);
    assert_eq!(rounds_sw, 5);
    assert!(hw < sw, "hardware barrier {hw} vs software {sw}");
}

#[test]
fn input_buffer_hol_blocking_shows_in_unicast_tail_latency() {
    // Pure unicast at high load: the input-buffered switch suffers
    // head-of-line blocking that the central buffer avoids.
    let run = RunConfig {
        warmup: 2_000,
        measure: 10_000,
        ..RunConfig::default()
    };
    let spec = TrafficSpec::unicast(0.7, 64);
    let p95 = |arch: SwitchArch| {
        let cfg = SystemConfig { arch, ..base64() };
        run_experiment(&cfg, &spec, &run).unicast.p95
    };
    let cb = p95(SwitchArch::CentralBuffer);
    let ib = p95(SwitchArch::InputBuffered);
    assert!(cb < ib, "CB p95 {cb} must beat IB p95 {ib} at high load");
}
