//! Wall-clock accounting for the reroute admission-control path.
//!
//! The analyzer and model-check vets execute in **zero simulated cycles**
//! — from the fabric's point of view they are instantaneous, which keeps
//! runs deterministic. A resident control plane, however, budgets its
//! detect→vet→install pipeline in *wall* time: a vet that takes tens of
//! milliseconds on a big topology eats directly into the service's
//! latency budget. This module holds the vet-time totals ([`VetStats`],
//! filled by the fault responder around each vet) and the percentile
//! accumulator ([`Samples`]) that `mdw-routed` uses for its p50/p99
//! service metrics — for wall-clock nanoseconds here and for
//! cycle-domain detect→install latencies in `core`.
//!
//! Timing is *observability only*: durations are recorded beside the
//! verdicts, never branched on, so identical runs still produce
//! bit-identical simulation results.

use std::time::Duration;

/// An accumulator of `u64` latency samples with nearest-rank percentile
/// extraction. Unit-agnostic: the vet path records wall-clock
/// nanoseconds, the responder records cycle counts.
///
/// Optionally bounded ([`Samples::with_cap`]): once `cap` samples are
/// held each record evicts the oldest and bumps a drop counter, so a
/// resident service accumulating latencies for weeks holds steady-state
/// memory. Percentiles then describe the most recent `cap` episodes —
/// exactly the window an operator asks about — and the drop counter
/// keeps the total episode count auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Samples {
    values: Vec<u64>,
    cap: usize,
    dropped: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            values: Vec::new(),
            cap: usize::MAX,
            dropped: 0,
        }
    }
}

impl Samples {
    /// An empty, unbounded accumulator.
    pub fn new() -> Self {
        Samples::default()
    }

    /// An empty accumulator retaining at most `cap` samples (floor 1).
    pub fn with_cap(cap: usize) -> Self {
        Samples {
            cap: cap.max(1),
            ..Samples::default()
        }
    }

    /// Records one sample, evicting the oldest if the ring is full.
    pub fn record(&mut self, value: u64) {
        if self.values.len() == self.cap {
            self.values.remove(0);
            self.dropped += 1;
        }
        self.values.push(value);
    }

    /// Samples evicted to stay within the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Rebuilds an accumulator from snapshot state (crash recovery):
    /// the retained window plus the historical drop count.
    pub fn restore(cap: usize, values: &[u64], dropped: u64) -> Self {
        Samples {
            values: values.to_vec(),
            cap: cap.max(1),
            dropped,
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// Sum of all samples.
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`); 0 when empty. The
    /// nearest-rank definition always returns an *observed* sample, so
    /// p50/p99 readings correspond to real episodes rather than
    /// interpolated values.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Folds another accumulator's samples (and drop count) into this
    /// one, respecting this accumulator's own ring bound.
    pub fn merge(&mut self, other: &Samples) {
        self.dropped += other.dropped;
        for &v in &other.values {
            self.record(v);
        }
    }

    /// The raw samples, in record order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// Wall-clock totals of the two vet halves across a responder's lifetime.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VetStats {
    /// Per-invocation durations of the structural vet
    /// ([`crate::vet_reroute`] or [`crate::vet_reroute_certified`]), in
    /// nanoseconds.
    pub structural_ns: Samples,
    /// Per-invocation durations of the behavioral vet
    /// ([`crate::check_model_opts`]), in nanoseconds. With memoization this
    /// typically holds exactly one sample per run.
    pub model_ns: Samples,
}

impl VetStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        VetStats::default()
    }

    /// Total wall time spent in both vet halves.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.structural_ns.total() + self.model_ns.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = Samples::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            s.record(v);
        }
        assert_eq!(s.percentile(50.0), 50);
        assert_eq!(s.percentile(99.0), 100);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.percentile(0.0), 10);
        assert_eq!(s.max(), 100);
        assert_eq!(s.total(), 550);
        assert_eq!(s.count(), 10);
    }

    #[test]
    fn empty_samples_read_zero() {
        let s = Samples::new();
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = Samples::new();
        s.record(42);
        assert_eq!(s.percentile(1.0), 42);
        assert_eq!(s.percentile(50.0), 42);
        assert_eq!(s.percentile(99.0), 42);
    }

    #[test]
    fn capped_samples_evict_oldest_and_count_drops() {
        let mut s = Samples::with_cap(3);
        for v in [10, 20, 30, 40, 50] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.values(), &[30, 40, 50], "ring keeps the newest");
        assert_eq!(s.percentile(0.0), 30, "percentiles see only the window");

        // Merge respects the destination's bound and folds drop counts.
        let mut dst = Samples::with_cap(2);
        dst.record(1);
        dst.merge(&s);
        assert_eq!(dst.count(), 2);
        assert_eq!(dst.values(), &[40, 50]);
        assert_eq!(dst.dropped(), 2 + 2, "source drops + merge evictions");
    }

    #[test]
    fn merge_folds_samples() {
        let mut a = Samples::new();
        a.record(1);
        let mut b = Samples::new();
        b.record(2);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total(), 6);
    }
}
