//! Every row of the spec tables (E2/E3, E4/E5, E6, E7, E8, E9, E15 and
//! E16) is a runnable spec: the sweep base, its table's lines and its
//! row's lines. Parsed with the parser `simulate` uses and run, the
//! cheapest checked-in full-scale row of each table renders to its CSV
//! line byte for byte.

use mdw_bench::{Axis, Scale};
use mdworm::cfgtext::parse_spec;
use mdworm::experiments::{
    AblationRow, BimodalRow, FaultRow, SweepRow, ABLATIONS, BIMODAL, PATTERNS, SCHEMES,
};
use mdworm::report::{csv, f, TableRow};
use mdworm::sim::{run_experiment, RunOutcome};
use mdworm::SystemConfig;

/// Runs `text` and asserts that `render` makes the checked-in row of
/// `table` that starts with `cells`.
fn assert_reruns<T: TableRow>(
    table: &str,
    cells: &str,
    text: &str,
    render: impl Fn(&RunOutcome) -> T,
) {
    let spec = parse_spec(text).unwrap_or_else(|e| panic!("{table}: {e}\n{text}"));
    spec.check()
        .unwrap_or_else(|e| panic!("{table}: {e}\n{text}"));
    let out = run_experiment(&spec.system, &spec.traffic, &spec.run);
    let rendered = csv(&[render(&out)]);
    let rendered = rendered.lines().nth(1).expect("one row");

    let path = format!("{}/../../results/{table}.csv", env!("CARGO_MANIFEST_DIR"));
    let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let row = checked_in
        .lines()
        .find(|l| l.starts_with(cells))
        .unwrap_or_else(|| panic!("{table}: no `{cells}` row"));
    assert_eq!(rendered, row, "{table}: the row of\n{text}");
}

#[test]
fn cheapest_full_scale_rows_rerun_from_their_specs() {
    // One light row per table: few messages or few hosts.
    for (table, axis, x) in [
        ("e2_e3_multiple_multicast", Axis::Load, 0.1),
        ("e6_degree", Axis::Degree, 63.0),
        ("e7_msglen", Axis::Len, 512.0),
        ("e8_syssize", Axis::Size, 16.0),
    ] {
        let (scheme, scheme_lines) = SCHEMES[0];
        let points = axis.points(Scale::Full);
        let (_, point_lines) = points
            .iter()
            .find(|p| p.0 == x)
            .unwrap_or_else(|| panic!("{table}: no point {x}"));
        let text = format!("{}{scheme_lines}{point_lines}", Scale::Full.sweep_spec());
        let cells = format!("{scheme},{},{},", axis.x_name(), f(x));
        assert_reruns(table, &cells, &text, |o| {
            SweepRow::from_outcome(scheme, axis.x_name(), x, o)
        });
    }
}

#[test]
fn cheapest_full_scale_rows_of_the_fixed_point_tables_rerun_from_their_specs() {
    let base = Scale::Full.sweep_spec();
    let cb_hw = SCHEMES[0].1;

    // E4/E5's multicast-free reference at load 0.1 offers the unicast
    // share 0.1 * (1 - 0.1), which `{}` prints as the f64 it is.
    let text = format!(
        "{base}{BIMODAL}{cb_hw}traffic.mcast_fraction = 0\ntraffic.load = 0.09000000000000001\n"
    );
    assert_reruns("e4_e5_bimodal", "CB-none,0.1000,", &text, |o| {
        BimodalRow::from_outcome("CB-none", 0.1, o)
    });

    let (variant, lines) = ABLATIONS[7];
    assert_eq!(variant, "CB chunk size 4 flits");
    let text = format!("{base}{BIMODAL}{cb_hw}{lines}\n");
    assert_reruns("e9_ablations", &format!("{variant},"), &text, |o| {
        AblationRow::from_outcome(variant, o)
    });

    let (name, pattern) = PATTERNS[3];
    let text = format!("{base}traffic.mcast_fraction = 0\ntraffic.load = 0.5\n{cb_hw}{pattern}");
    let scheme = format!("CB/{name}");
    assert_reruns(
        "e15_patterns",
        &format!("{scheme},pattern,3.0,"),
        &text,
        |o| SweepRow::from_outcome(&scheme, "pattern", 3.0, o),
    );

    let seed = SystemConfig::default().seed ^ 0xE16;
    let text = format!(
        "{base}traffic.load = 0.2\nrecovery = on\n{cb_hw}fault.seed = {seed}\nfault.drop_rate = 0.00001\n"
    );
    assert_reruns("e16_fault_sweep", "CB-HW,1e-5,", &text, |o| {
        FaultRow::from_outcome("CB-HW", 1e-5, o)
    });
}
