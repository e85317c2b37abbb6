//! Quickstart: build the paper's default 64-processor system, run a light
//! multiple-multicast workload on all three schemes, and print a result
//! table.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mdworm::cfgtext::parse_spec;
use mdworm::experiments::{e1_parameters, spec_sweep};
use mdworm::report::markdown_table;

fn main() {
    // The default system and multiple-multicast workload (degree 16, 64
    // flits) over a shortened window.
    let spec = parse_spec("run.warmup = 2000\nrun.measure = 10000").expect("valid spec");

    println!("# Simulation parameters (paper defaults)\n");
    println!(
        "{}",
        markdown_table(&e1_parameters(&spec.system, &spec.run))
    );

    println!("\n# Multiple multicast: 64 processors, degree 16, 64-flit messages\n");
    let points = [0.05, 0.15, 0.30].map(|l| (l, format!("traffic.load = {l}")));
    let rows = spec_sweep(&spec, "load", &points);
    println!("{}", markdown_table(&rows));
    println!(
        "\nCB-HW is the paper's central-buffer hardware multicast, IB-HW the\n\
         input-buffer alternative, SW-CB the U-Min software baseline. Lower\n\
         multicast latency and higher throughput is better; the central\n\
         buffer should win across the board."
    );
}
