//! Every row of the E2/E3, E6, E7 and E8 tables is a runnable spec: the
//! sweep base, its scheme's lines and its point's lines. Parsed with the
//! parser `simulate` uses and run, the cheapest checked-in full-scale row
//! of each table renders to its CSV line byte for byte.

use mdw_bench::{Axis, Scale};
use mdworm::cfgtext::parse_spec;
use mdworm::experiments::{SweepRow, SCHEMES};
use mdworm::report::{csv, f};
use mdworm::sim::run_experiment;

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
        let spec = parse_spec(&text).unwrap_or_else(|e| panic!("{table}: {e}\n{text}"));

        let out = run_experiment(&spec.system, &spec.traffic, &spec.run);
        let rendered = csv(&[SweepRow::from_outcome(scheme, axis.x_name(), x, &out)]);
        let rendered = rendered.lines().nth(1).expect("one row");

        let path = format!("{}/../../results/{table}.csv", env!("CARGO_MANIFEST_DIR"));
        let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let cells = format!("{scheme},{},{},", axis.x_name(), f(x));
        let row = checked_in
            .lines()
            .find(|l| l.starts_with(&cells))
            .unwrap_or_else(|| panic!("{table}: no `{cells}` row"));
        assert_eq!(rendered, row, "{table}: the row of\n{text}");
    }
}
