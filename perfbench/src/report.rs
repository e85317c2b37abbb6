//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics of the untraced run: `(name, unit)`, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("build.route_tables_s", "s"),
    ("build.system_s", "s"),
    ("build.components", "count"),
    ("build.links", "count"),
    ("workload.make_sources_s", "s"),
    ("workload.poll_s", "s"),
    ("workload.messages", "count"),
    ("engine.run_s", "s"),
    ("engine.self_s", "s"),
    ("engine.cycles", "cycles"),
    ("engine.flit_moves", "count"),
    ("engine.ns_per_cycle", "ns"),
    ("engine.ns_per_flit_move", "ns"),
    ("engine.flush_s", "s"),
    ("switches.flits_sent", "count"),
    ("switches.bypass_flits", "count"),
    ("switches.packets_replicated", "count"),
    ("switches.branches_created", "count"),
    ("switches.reservation_wait_cycles", "cycles"),
    ("switches.cq_occupancy_mean", "chunks"),
    ("switches.ib_occupancy_mean", "flits"),
    ("switches.purged_flits", "count"),
    ("host.deliveries", "count"),
    ("host.hook_s", "s"),
    ("host.retransmits", "count"),
    ("respond.poll_s", "s"),
    ("respond.reroutes", "count"),
    ("respond.heals", "count"),
    ("respond.vet_memo_hits", "count"),
    ("respond.vet_memo_misses", "count"),
    ("respond.deep_memo_hits", "count"),
    ("respond.deep_memo_misses", "count"),
    ("chaos.boundaries", "count"),
    ("chaos.runs", "count"),
    ("chaos.oracle_run_s", "s"),
    ("chaos.injected_run_s", "s"),
    ("chaos.model_checks_per_run", "count"),
    ("chaos.recovery_p50_us", "us"),
    ("chaos.recovery_p90_us", "us"),
    ("journal.reopen_s", "s"),
    ("journal.records", "count"),
    ("analysis.model_check_s", "s"),
    ("analysis.model_states", "count"),
    ("analysis.vet_structural_ns", "ns"),
    ("analysis.vet_model_ns", "ns"),
    ("trace.untraced_cycles_per_s", "1/s"),
    ("trace.traced_cycles_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.reference_kernel_s", "s"),
    ("ops.traced", "count"),
];

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Interquartile mean: the mean of `v` without its lowest and highest
/// quarter (`len / 4` values each); 0 if empty. Over the handful of
/// operations one run holds it uses more of them than the median, and
/// it still ignores a host stall that slows one of them.
pub fn iqm(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Linearly interpolated `q`-quantile of `v`; 0 if empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (s.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Per-layer samples collected over the traced operations of one run.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Records one sample of metric `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The median of every metric's samples.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(k, v)| (*k, median(v))).collect()
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Values printed by name but outside the result line.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// A report with no metrics yet.
    pub fn new(attempted: u64, failures: Vec<String>) -> Self {
        Report {
            attempted,
            failed: failures.len() as u64,
            failures,
            metrics: BTreeMap::new(),
            extra: Vec::new(),
        }
    }

    /// Sets metric `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metric table this run reports: per-layer when traced.
    pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// One `name = value unit` line per metric of `table`, then the extra
    /// values.
    pub fn text(&self, trace: bool) -> String {
        let mut s = String::new();
        for &(name, unit) in Self::table(trace) {
            s.push_str(&format!("{name} = {} {unit}\n", self.value(name)));
        }
        for &(name, value, unit) in &self.extra {
            s.push_str(&format!("{name} = {value} {unit}\n"));
        }
        s
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the table, by name with its unit.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::table(trace)
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.value(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A metric's value as a JSON number (non-finite values print as 0).
    fn value(&self, name: &str) -> f64 {
        let v = *self
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iqm_drops_the_outer_quarters() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), 4.5);
        assert_eq!(iqm(&[2.0, 4.0, 9.0]), 5.0);
        assert_eq!(iqm(&[]), 0.0);
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
