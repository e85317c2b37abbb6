//! The full E1..E19 table suite as data: every experiment rendered to
//! markdown + CSV strings, with no file IO.
//!
//! The `figures` binary writes these tables to `results/`; the bench mode
//! (`figures --bench`) renders the suite twice — serial and parallel — and
//! compares the strings byte-for-byte to prove the parallel sweep harness
//! changes nothing but wall-clock time.

use crate::{Axis, Scale};
use mdworm::cfgtext::RunSpec;
use mdworm::experiments::{self as exp, AblationRow, BimodalRow, FaultRow, SweepRow, SCHEMES};
use mdworm::report::{csv, markdown_table, TableRow};
use mdworm::{SystemConfig, TopologyKind};
use std::time::Instant;

/// One rendered result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// File stem (`results/<name>.{md,csv}`).
    pub name: &'static str,
    /// Human-readable heading.
    pub title: &'static str,
    /// GitHub-flavored markdown rendering.
    pub md: String,
    /// CSV rendering.
    pub csv: String,
}

fn table<T: TableRow>(name: &'static str, title: &'static str, rows: &[T]) -> Table {
    Table {
        name,
        title,
        md: markdown_table(rows),
        csv: csv(rows),
    }
}

/// Runs one experiment and renders its table, with the wall time in
/// seconds.
fn timed<T: TableRow>(
    name: &'static str,
    title: &'static str,
    rows: impl FnOnce() -> Vec<T>,
) -> (Table, f64) {
    let t = Instant::now();
    let rows = rows();
    (table(name, title, &rows), t.elapsed().as_secs_f64())
}

/// Renders every experiment selected by `exp_filter` (`"all"` or an
/// experiment id like `"e2"`) at the given scale.
///
/// Runs fan out over the sweep worker pool configured through
/// [`mdworm::sweep::set_jobs`] (`figures --jobs N`); table contents are
/// identical for every pool size.
pub fn run_suite(base: &SystemConfig, scale: Scale, exp_filter: &str) -> Vec<Table> {
    run_suite_timed(base, scale, exp_filter)
        .into_iter()
        .map(|(t, _)| t)
        .collect()
}

/// [`run_suite`], pairing each table with the wall time its experiment
/// took, in seconds.
pub fn run_suite_timed(base: &SystemConfig, scale: Scale, exp_filter: &str) -> Vec<(Table, f64)> {
    let run = scale.run();
    let want = |e: &str| exp_filter == "all" || exp_filter == e;
    let sweep_base = RunSpec {
        system: base.clone(),
        run: run.clone(),
        ..RunSpec::default()
    }
    .with(&scale.sweep_spec())
    .expect("the sweep base parses");
    let sweep = |axis: Axis| exp::spec_sweep(&sweep_base, axis.x_name(), &axis.points(scale));
    let over_sweep_base = |lines: &str| sweep_base.with(lines).expect("the table base parses");
    let len = sweep_base.traffic.mcast_len;
    let mut tables = Vec::new();

    if want("e1") {
        tables.push(timed("e1_parameters", "E1: simulation parameters", || {
            exp::e1_parameters(base, &run)
        }));
    }
    if want("e2") || want("e3") {
        tables.push(timed(
            "e2_e3_multiple_multicast",
            "E2+E3: multiple multicast — latency & throughput vs offered load (64 procs, degree 16, 64 flits)",
            || sweep(Axis::Load),
        ));
    }
    if want("e4") || want("e5") {
        tables.push(timed(
            "e4_e5_bimodal",
            "E4+E5: bimodal traffic — background unicast & multicast latency vs load (10% multicast, degree 16)",
            || {
                let base = over_sweep_base(exp::BIMODAL);
                let loads: Vec<_> = scale
                    .bimodal_loads()
                    .into_iter()
                    .map(|load| (load, format!("traffic.load = {load}\n")))
                    .collect();
                let mut rows = exp::scheme_rows(&SCHEMES, &loads);
                // `{}` round-trips the f64, so the reference offers exactly
                // the unicast share of each load.
                let unicast_share = 1.0 - base.traffic.mcast_fraction;
                for &(load, _) in &loads {
                    let lines = format!(
                        "{}traffic.mcast_fraction = 0\ntraffic.load = {}\n",
                        SCHEMES[0].1,
                        load * unicast_share
                    );
                    rows.push((("CB-none", load), lines));
                }
                exp::spec_rows(&base, rows)
                    .iter()
                    .map(|((label, load), o)| BimodalRow::from_outcome(label, *load, o))
                    .collect::<Vec<_>>()
            },
        ));
    }
    if want("e6") {
        tables.push(timed(
            "e6_degree",
            "E6: multicast latency vs degree (load 0.4, 64 flits)",
            || sweep(Axis::Degree),
        ));
    }
    if want("e7") {
        tables.push(timed(
            "e7_msglen",
            "E7: multicast latency vs message length (load 0.4, degree 16)",
            || sweep(Axis::Len),
        ));
    }
    if want("e8") {
        tables.push(timed(
            "e8_syssize",
            "E8: multicast latency vs system size (4-ary trees, degree N/4, load 0.4)",
            || {
                // E8 lists each size's three schemes together.
                let mut rows = sweep(Axis::Size);
                rows.sort_by(|a, b| a.x.total_cmp(&b.x));
                rows
            },
        ));
    }
    if want("e9") {
        tables.push(timed(
            "e9_ablations",
            "E9: central-buffer design ablations (bimodal load 0.4)",
            || {
                let base = over_sweep_base(&format!("{}{}", exp::BIMODAL, SCHEMES[0].1));
                let rows = exp::ABLATIONS
                    .iter()
                    .map(|&(v, lines)| (v, lines.to_string()));
                exp::spec_rows(&base, rows.collect())
                    .iter()
                    .map(|(variant, o)| AblationRow::from_outcome(variant, o))
                    .collect::<Vec<_>>()
            },
        ));
    }
    if want("e10") {
        tables.push(timed(
            "e10_single_multicast",
            "E10: single multicast on an idle network — latency vs degree",
            || exp::e10_single_multicast(base, &scale.degrees(), len),
        ));
    }
    if want("e11") {
        tables.push(timed(
            "e11_barrier",
            "E11: barrier rounds — hardware vs software release",
            || exp::e11_barrier(base, &scale.barrier_stages(), scale.barrier_rounds()),
        ));
    }
    if want("e12") {
        tables.push(timed(
            "e12_hotspot",
            "E12 (extension): hot-spot unicast traffic — latency vs hot-spot fraction (load 0.2)",
            || exp::e12_hotspot(base, &run, 0.2, &scale.hotspot_fractions(), len),
        ));
    }
    if want("e13") {
        tables.push(timed(
            "e13_allreduce",
            "E13 (extension): all-reduce rounds — hardware vs software broadcast phase",
            || exp::e13_allreduce(base, &scale.barrier_stages(), scale.barrier_rounds()),
        ));
    }
    if want("e14") {
        tables.push(timed(
            "e14_combining_barrier",
            "E14 (extension): switch-combining barrier vs host-level barrier protocols",
            || exp::e14_combining_barrier(base, &scale.barrier_stages(), scale.barrier_rounds()),
        ));
    }
    if want("e15") {
        tables.push(timed(
            "e15_patterns",
            "E15 (extension): permutation unicast patterns at load 0.5 — CB vs IB",
            || {
                let base = over_sweep_base("traffic.mcast_fraction = 0\ntraffic.load = 0.5\n");
                let mut rows = Vec::new();
                for (pi, (name, pattern)) in exp::PATTERNS.iter().enumerate() {
                    for (label, arch) in [("CB", SCHEMES[0].1), ("IB", SCHEMES[1].1)] {
                        rows.push(((format!("{label}/{name}"), pi), format!("{arch}{pattern}")));
                    }
                }
                exp::spec_rows(&base, rows)
                    .iter()
                    .map(|((scheme, pi), o)| {
                        SweepRow::from_outcome(scheme, "pattern", *pi as f64, o)
                    })
                    .collect::<Vec<_>>()
            },
        ));
    }
    if want("e16") {
        tables.push(timed(
            "e16_fault_sweep",
            "E16 (robustness extension): degradation vs per-flit drop rate with end-to-end recovery (load 0.2)",
            || {
                let base = over_sweep_base("traffic.load = 0.2\nrecovery = on\n");
                // The seed goes in every row: on a base without a drop rate
                // the spec keeps no fault plan to carry it.
                let seed = base.system.seed ^ 0xE16;
                let rates: Vec<_> = scale
                    .drop_rates()
                    .into_iter()
                    .map(|r| (r, format!("fault.seed = {seed}\nfault.drop_rate = {r}\n")))
                    .collect();
                exp::spec_rows(&base, exp::scheme_rows(&SCHEMES[..2], &rates))
                    .iter()
                    .map(|((label, rate), o)| FaultRow::from_outcome(label, *rate, o))
                    .collect::<Vec<_>>()
            },
        ));
    }
    if want("e17") {
        // The four-phase outage script runs on a 2-stage tree so that a
        // crossed root cut can defeat every single-worm covering.
        let e17_base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 2 },
            ..base.clone()
        };
        tables.push(timed(
            "e17_fault_response",
            "E17 (robustness extension): online fault response — healthy / rerouted / degraded / healed phases (16 procs, load 0.04)",
            || exp::e17_fault_response(&e17_base, scale.fault_phase_len(), 0.04, 4, 16),
        ));
    }
    if want("e18") {
        // Same 2-stage tree as E17; the storm needs a crossed cut plus a
        // spare fabric link to flap.
        let e18_base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 2 },
            ..base.clone()
        };
        tables.push(timed(
            "e18_fault_storm",
            "E18 (robustness extension): fault storm under the resident control plane — overlapping cuts + flapping link, with flap damping, retry backoff, degradation ladder, and p50/p99 detect→install latency (16 procs, load 0.04)",
            || exp::e18_fault_storm(&e18_base, scale.fault_phase_len(), 0.04, 4, 16),
        ));
    }
    if want("e19") {
        // Smallest multi-root tree: the sweep re-runs the full experiment
        // once per (protocol boundary × tear variant), so the fabric and
        // the load stay deliberately tiny.
        let e19_base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 2, n: 2 },
            ..base.clone()
        };
        tables.push(timed(
            "e19_crash_storm",
            "E19 (crash tolerance): deterministic responder crash at every protocol boundary of a seeded outage storm, clean and with a torn journal tail — recovered runs must match the uncrashed oracle byte-for-byte with zero torn installs (4 procs, load 0.02)",
            || exp::e19_crash_storm(&e19_base, scale.crash_phase_len(), 0.02, 2, 8),
        ));
    }
    tables
}
