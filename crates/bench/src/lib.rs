//! Shared scales and parameter sets for the evaluation harness.
//!
//! Every evaluation axis of the paper has a *full* parameter set (the
//! tables `figures` regenerates into `results/` and EXPERIMENTS.md
//! quotes) and a *quick* set (what `figures --bench` times per table, and
//! CI's smoke sweeps, in seconds rather than minutes).

use mdworm::experiments::SWEEP_BASE;
use mdworm::sim::RunConfig;
use mdworm::SystemConfig;

pub mod perf;
pub mod suite;

/// How much work to spend per experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full measurement windows and sweeps (the recorded results).
    Full,
    /// Shrunk windows and sweeps for smoke benchmarking.
    Quick,
}

impl Scale {
    /// Parses `"full"` / `"quick"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "quick" => Some(Scale::Quick),
            _ => None,
        }
    }

    /// The run-length configuration for this scale.
    pub fn run(self) -> RunConfig {
        match self {
            Scale::Full => RunConfig {
                warmup: 5_000,
                measure: 40_000,
                drain_max: 300_000,
                watchdog_grace: 30_000,
                faults: None,
                outages: Vec::new(),
            },
            Scale::Quick => RunConfig {
                warmup: 1_000,
                measure: 5_000,
                drain_max: 80_000,
                watchdog_grace: 20_000,
                faults: None,
                outages: Vec::new(),
            },
        }
    }

    /// The spec every row of the eight spec tables (E2/E3, E4/E5, E6, E7,
    /// E8, E9, E15 and E16) starts from: [`SWEEP_BASE`] over this scale's
    /// run window.
    pub fn sweep_spec(self) -> String {
        let run = self.run();
        format!(
            "{SWEEP_BASE}run.warmup = {}\nrun.measure = {}\n",
            run.warmup, run.measure
        )
    }

    /// Offered-load sweep for E4/E5.
    pub fn bimodal_loads(self) -> Vec<f64> {
        match self {
            Scale::Full => vec![0.1, 0.3, 0.5, 0.7, 0.9],
            Scale::Quick => vec![0.3],
        }
    }

    /// Degree sweep for E6 / E10 (64-processor system).
    pub fn degrees(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![2, 4, 8, 16, 32, 63],
            Scale::Quick => vec![4, 16],
        }
    }

    /// Tree stages for E11 (barrier).
    pub fn barrier_stages(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![2, 3, 4],
            Scale::Quick => vec![2],
        }
    }

    /// Barrier rounds for E11.
    pub fn barrier_rounds(self) -> u64 {
        match self {
            Scale::Full => 10,
            Scale::Quick => 3,
        }
    }

    /// Hot-spot fractions for E12.
    pub fn hotspot_fractions(self) -> Vec<f64> {
        match self {
            Scale::Full => vec![0.0, 0.02, 0.05, 0.08],
            Scale::Quick => vec![0.0, 0.05],
        }
    }

    /// Per-flit drop rates for the E16 fault-degradation sweep.
    pub fn drop_rates(self) -> Vec<f64> {
        match self {
            Scale::Full => vec![0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3],
            Scale::Quick => vec![0.0, 1e-4, 1e-3],
        }
    }

    /// Per-phase window length for the E17 fault-response timeline
    /// (healthy / rerouted / degraded / healed) and the E18 storm script.
    pub fn fault_phase_len(self) -> u64 {
        match self {
            Scale::Full => 8_000,
            Scale::Quick => 2_500,
        }
    }

    /// Per-phase window length for the E19 crash-sweep storm script. The
    /// sweep re-runs the whole experiment once per protocol boundary, so
    /// the phase stays short at both scales; it must still clear the
    /// responder's debounce + drain-wait + purge budget (~600 cycles at
    /// defaults) or every episode goes stale before the install window.
    pub fn crash_phase_len(self) -> u64 {
        match self {
            Scale::Full => 800,
            Scale::Quick => 400,
        }
    }
}

/// The swept key of E2/E3, E6, E7 and E8, each one table over
/// [`Scale::sweep_spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// E2/E3: offered load.
    Load,
    /// E6: multicast degree.
    Degree,
    /// E7: message length.
    Len,
    /// E8: system size, 4-ary trees of 2–4 stages with degree N/4.
    Size,
}

impl Axis {
    /// The table's `x_name` column.
    pub fn x_name(self) -> &'static str {
        match self {
            Axis::Load => "load",
            Axis::Degree => "degree",
            Axis::Len => "len",
            Axis::Size => "N",
        }
    }

    /// Each point at `scale`: its `x` and the spec lines that differ from
    /// the sweep base.
    pub fn points(self, scale: Scale) -> Vec<(f64, String)> {
        let full = scale == Scale::Full;
        let (key, xs): (_, Vec<f64>) = match self {
            Axis::Load if full => (
                "traffic.load",
                vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            ),
            Axis::Load => ("traffic.load", vec![0.2, 0.6]),
            Axis::Degree => (
                "traffic.degree",
                scale.degrees().iter().map(|&d| d as f64).collect(),
            ),
            Axis::Len if full => ("traffic.len", vec![16.0, 32.0, 64.0, 128.0, 256.0, 512.0]),
            Axis::Len => ("traffic.len", vec![32.0, 128.0]),
            // 16, 64 and 256 hosts; the degree scales as N/4.
            Axis::Size => {
                let stages = if full { 2..=4 } else { 2..=2 };
                let size = |n| {
                    let hosts = 4usize.pow(n);
                    (
                        hosts as f64,
                        format!("stages = {n}\ntraffic.degree = {}\n", hosts / 4),
                    )
                };
                return stages.map(size).collect();
            }
        };
        xs.into_iter()
            .map(|x| (x, format!("{key} = {x}\n")))
            .collect()
    }
}

/// The paper's default 64-processor base system.
pub fn base_system() -> SystemConfig {
    SystemConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn sweep_base_is_the_default_workload() {
        let spec = mdworm::cfgtext::parse_spec(&Scale::Quick.sweep_spec()).expect("parses");
        assert_eq!(
            spec.traffic,
            mdworm::TrafficSpec::multiple_multicast(0.4, 16, 64)
        );
        assert_eq!(
            (spec.run.warmup, spec.run.measure),
            (Scale::Quick.run().warmup, Scale::Quick.run().measure)
        );
    }

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.run().measure < Scale::Full.run().measure);
        assert!(Axis::Load.points(Scale::Quick).len() < Axis::Load.points(Scale::Full).len());
    }
}
