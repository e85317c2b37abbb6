//! Bimodal traffic: a unicast background with a 10% multicast share.
//!
//! Reproduces the abstract's headline claim: "under bimodal traffic the
//! central-buffer-based hardware multicast implementation affects
//! background unicast traffic less adversely compared to a software-based
//! multicast implementation". Watch the `unicast_mean` column: SW-CB turns
//! each multicast into ~d full-length unicasts, and the background feels
//! it.
//!
//! ```text
//! cargo run --release --example bimodal_traffic
//! ```

use mdworm::cfgtext::parse_spec;
use mdworm::experiments::{scheme_rows, spec_rows, BimodalRow, BIMODAL, SCHEMES, SWEEP_BASE};
use mdworm::report::markdown_table;

fn main() {
    // E4/E5's spec over a shorter window: each row adds its scheme's lines
    // and its load.
    let base = parse_spec(&format!(
        "{SWEEP_BASE}{BIMODAL}run.warmup = 2000\nrun.measure = 12000\n"
    ))
    .expect("the example spec parses");
    let loads = [0.05, 0.15, 0.30].map(|load| (load, format!("traffic.load = {load}\n")));
    let mut rows = scheme_rows(&SCHEMES, &loads);
    // The reference offers only the unicast share of each load.
    let unicast_share = 1.0 - base.traffic.mcast_fraction;
    for (load, _) in &loads {
        let lines = format!(
            "{}traffic.mcast_fraction = 0\ntraffic.load = {}\n",
            SCHEMES[0].1,
            load * unicast_share
        );
        rows.push((("CB-none", *load), lines));
    }
    let rows: Vec<BimodalRow> = spec_rows(&base, rows)
        .iter()
        .map(|((label, load), o)| BimodalRow::from_outcome(label, *load, o))
        .collect();
    println!("# Bimodal traffic: 90% unicast / 10% multicast (degree 16), 64-flit messages\n");
    println!("{}", markdown_table(&rows));
    println!(
        "\nCB-none is the reference with the multicast share removed. The gap\n\
         between a scheme's unicast_mean and CB-none's is the damage that\n\
         scheme's multicasts inflict on the background traffic."
    );
}
