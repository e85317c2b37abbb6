//! The "Summary of claim checks" of EXPERIMENTS.md as predicates over the
//! checked-in `results/*.csv` tables. A regenerated table that breaks a
//! claim fails here instead of silently contradicting the prose.

/// One checked-in CSV table: its header and its comma-split rows.
struct Table {
    name: &'static str,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn load(name: &'static str) -> Table {
        let path = format!("{}/results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut lines = text
            .lines()
            .map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>());
        let header = lines.next().unwrap_or_else(|| panic!("{path}: empty"));
        Table {
            name,
            header,
            rows: lines.collect(),
        }
    }

    fn col(&self, column: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == column)
            .unwrap_or_else(|| panic!("{}: no column `{column}`", self.name))
    }

    /// `(x, value)` for every row of `scheme`, in file order.
    fn series(&self, scheme: &str, x: &str, value: &str) -> Vec<(f64, f64)> {
        let (s, xi, vi) = (self.col("scheme"), self.col(x), self.col(value));
        let num = |v: &str| -> f64 {
            v.parse()
                .unwrap_or_else(|_| panic!("{}: `{v}` is not a number", self.name))
        };
        let rows: Vec<_> = self
            .rows
            .iter()
            .filter(|r| r[s] == scheme)
            .map(|r| (num(&r[xi]), num(&r[vi])))
            .collect();
        assert!(!rows.is_empty(), "{}: no `{scheme}` rows", self.name);
        rows
    }

    /// `(x, a, b)`: `value` of schemes `a` and `b` at each common `x`.
    fn pair(&self, a: &str, b: &str, x: &str, value: &str) -> Vec<(f64, f64, f64)> {
        let (sa, sb) = (self.series(a, x, value), self.series(b, x, value));
        let xs = |s: &[(f64, f64)]| s.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(xs(&sa), xs(&sb), "{}: {a} and {b} rows differ", self.name);
        sa.iter().zip(&sb).map(|(p, q)| (p.0, p.1, q.1)).collect()
    }
}

/// The four sweep tables with the shared `scheme,x_name,x,mcast_mean,…`
/// layout.
const SWEEPS: [&str; 4] = [
    "e2_e3_multiple_multicast",
    "e6_degree",
    "e7_msglen",
    "e8_syssize",
];

/// E8: CB-HW beats IB-HW at every system size, and at N = 256 IB-HW
/// falls behind software multicast on central-buffer switches.
#[test]
fn e8_central_buffer_wins_at_every_size_and_ib_loses_to_software_at_256() {
    let t = Table::load("e8_syssize");
    for (n, cb, ib) in t.pair("CB-HW", "IB-HW", "x", "mcast_mean") {
        assert!(cb < ib, "N={n}: CB-HW {cb} vs IB-HW {ib}");
    }
    let at_256 = |scheme| {
        let s = t.series(scheme, "x", "mcast_mean");
        s.iter().find(|r| r.0 == 256.0).expect("N = 256 row").1
    };
    let (ib, sw) = (at_256("IB-HW"), at_256("SW-CB"));
    assert!(ib > sw, "N=256: IB-HW {ib} vs SW-CB {sw}");
}

/// E10: the software / hardware single-multicast latency ratio grows
/// strictly with degree and crosses 4× between d = 32 and d = 63.
#[test]
fn e10_software_ratio_grows_with_degree_and_crosses_4_after_32() {
    let t = Table::load("e10_single_multicast");
    let ratios: Vec<(f64, f64)> = t
        .pair("SW-CB", "CB-HW", "degree", "latency")
        .into_iter()
        .map(|(d, sw, cb)| (d, sw / cb))
        .collect();
    for w in ratios.windows(2) {
        assert!(w[0].1 < w[1].1, "ratio not increasing: {w:?}");
    }
    let at = |d: f64| ratios.iter().find(|r| r.0 == d).expect("degree row").1;
    assert!(at(32.0) < 4.0, "d=32 ratio {}", at(32.0));
    assert!(at(63.0) > 4.0, "d=63 ratio {}", at(63.0));
}

/// E4: hardware multicast on central-buffer switches keeps background
/// unicast within 10% of the multicast-free reference up to load 0.7;
/// software multicast inflates it by more than 10% at loads 0.3–0.7.
#[test]
fn e4_hardware_multicast_barely_slows_unicast_and_software_does() {
    let t = Table::load("e4_e5_bimodal");
    for (load, hw, none) in t.pair("CB-HW", "CB-none", "load", "unicast_mean") {
        if load <= 0.7 {
            assert!(
                hw <= 1.10 * none,
                "load {load}: CB-HW {hw} vs CB-none {none}"
            );
        }
    }
    for (load, sw, none) in t.pair("SW-CB", "CB-none", "load", "unicast_mean") {
        if [0.3, 0.5, 0.7].contains(&load) {
            assert!(
                sw > 1.10 * none,
                "load {load}: SW-CB {sw} vs CB-none {none}"
            );
        }
    }
}

/// E2/E6/E7/E8: CB-HW multicast beats software multicast in every row.
#[test]
fn hardware_multicast_beats_software_in_every_sweep_row() {
    for name in SWEEPS {
        let t = Table::load(name);
        for (x, cb, sw) in t.pair("CB-HW", "SW-CB", "x", "mcast_mean") {
            assert!(cb < sw, "{name} x={x}: CB-HW {cb} vs SW-CB {sw}");
        }
    }
}

/// E2/E6/E7/E8: CB-HW multicast is no slower than IB-HW in every row
/// except two near-ties, where the uncontended input buffer's shorter
/// idle path shows (E10): E2 at load 0.1 (195 vs 192) and E6 at
/// d = 63 (211 vs 208).
#[test]
fn central_buffer_matches_or_beats_input_buffer_except_two_named_rows() {
    let mut exceptions = Vec::new();
    for name in SWEEPS {
        let t = Table::load(name);
        for (x, cb, ib) in t.pair("CB-HW", "IB-HW", "x", "mcast_mean") {
            if cb > ib {
                exceptions.push((name, x, cb, ib));
            }
        }
    }
    assert_eq!(
        exceptions,
        [
            ("e2_e3_multiple_multicast", 0.1, 195.0, 192.0),
            ("e6_degree", 63.0, 211.0, 208.0),
        ]
    );
}

/// E2 at load 0.4, E6 at degree 16, E7 at 64 flits and E8 at N = 64 are
/// one run, the sweeps' shared base spec: each scheme's row is the same in
/// all four tables apart from `x_name` and `x`.
#[test]
fn the_four_sweeps_share_their_base_point() {
    for scheme in ["CB-HW", "IB-HW", "SW-CB"] {
        let rows: Vec<(&str, Vec<String>)> = SWEEPS
            .into_iter()
            .zip([0.4, 16.0, 64.0, 64.0])
            .map(|(name, x)| {
                let t = Table::load(name);
                let (s, xn, xi) = (t.col("scheme"), t.col("x_name"), t.col("x"));
                let row = t
                    .rows
                    .iter()
                    .find(|r| r[s] == scheme && r[xi].parse::<f64>() == Ok(x))
                    .unwrap_or_else(|| panic!("{name}: no {scheme} row at x = {x}"));
                let rest = row
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != xn && i != xi)
                    .map(|(_, cell)| cell.clone())
                    .collect();
                (name, rest)
            })
            .collect();
        for (name, row) in &rows[1..] {
            assert_eq!(row, &rows[0].1, "{scheme}: {name} vs {}", rows[0].0);
        }
    }
}

/// `value` rounded to one decimal, the precision the prose quotes.
fn one_decimal(value: f64) -> f64 {
    (value * 10.0).round() / 10.0
}

/// E11: the hardware release beats the software release at every N, by
/// 1.3–2.5×, and the ratio shrinks with N as the gather phase takes over.
#[test]
fn e11_hardware_release_wins_by_1_3_to_2_5_and_the_gap_narrows_with_n() {
    let t = Table::load("e11_barrier");
    let ratios: Vec<(f64, f64)> = t
        .pair("SW release", "HW release", "n", "mean_latency")
        .into_iter()
        .map(|(n, sw, hw)| {
            assert!(hw < sw, "N={n}: HW {hw} vs SW {sw}");
            (n, sw / hw)
        })
        .collect();
    for &(n, r) in &ratios {
        assert!(
            (1.3..=2.5).contains(&one_decimal(r)),
            "N={n}: SW/HW ratio {r:.3}"
        );
    }
    for w in ratios.windows(2) {
        assert!(w[0].1 > w[1].1, "ratio not shrinking: {w:?}");
    }
}

/// E13: every all-reduce round produced the correct sum, and the
/// worm-based broadcast wins 1.4–1.7× end to end at every N.
#[test]
fn e13_allreduce_is_correct_and_hardware_broadcast_wins_by_1_4_to_1_7() {
    let t = Table::load("e13_allreduce");
    let ok = t.col("result_ok");
    for row in &t.rows {
        assert_eq!(row[ok], "true", "{row:?}");
    }
    for (n, sw, hw) in t.pair("SW broadcast", "HW broadcast", "n", "mean_latency") {
        let speedup = one_decimal(sw / hw);
        assert!(
            (1.4..=1.7).contains(&speedup),
            "N={n}: SW {sw} / HW {hw} = {speedup}"
        );
    }
}

/// E14: switch combining beats the host-gather hardware barrier, which
/// beats the software one, at every N; combining's advantage over the
/// hardware barrier is 2.1–4.1× and grows with N.
#[test]
fn e14_combining_beats_both_host_barriers_and_its_lead_grows_with_n() {
    let t = Table::load("e14_combining_barrier");
    let (comb, hw, sw) = (
        "switch-combining",
        "host gather + HW release",
        "host gather + SW release",
    );
    for (n, h, s) in t.pair(hw, sw, "n", "mean_latency") {
        assert!(h < s, "N={n}: HW {h} vs SW {s}");
    }
    let ratios: Vec<(f64, f64)> = t
        .pair(hw, comb, "n", "mean_latency")
        .into_iter()
        .map(|(n, h, c)| {
            assert!(c < h, "N={n}: combining {c} vs HW {h}");
            (n, h / c)
        })
        .collect();
    for &(n, r) in &ratios {
        assert!(
            (2.1..=4.1).contains(&one_decimal(r)),
            "N={n}: HW/combining ratio {r:.3}"
        );
    }
    for w in ratios.windows(2) {
        assert!(w[0].1 < w[1].1, "ratio not growing: {w:?}");
    }
}
