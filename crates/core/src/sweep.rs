//! Parallel experiment sweeps: fan independent deterministic runs out over
//! a fixed-size worker pool.
//!
//! The evaluation is a large cross-product of *independent* runs — every
//! [`RunSpec`] builds its own engine, measures it, and returns a
//! [`RunOutcome`]. The simulator internals are deliberately
//! single-threaded (`Rc`/`RefCell` everywhere), so the fan-out happens
//! strictly **above** the engine:
//!
//! * only the plain-data job descriptions (all `Send`) cross into worker
//!   threads;
//! * each worker constructs, runs, and drops its engine entirely inside its
//!   own thread, so no `Rc` ever crosses a thread boundary (the compiler
//!   enforces this: `!Send` types cannot leave the closure);
//! * results come back tagged with their submission index and are returned
//!   in **submission order**, so tables and CSVs are bit-identical to a
//!   serial run regardless of worker count or scheduling.
//!
//! The pool size comes from [`jobs`]: an explicit [`set_jobs`] override
//! (e.g. the `figures --jobs N` flag), else the `MDWORM_JOBS` environment
//! variable, else [`std::thread::available_parallelism`] — clamped to the
//! host's CPU count, since oversubscribing a CPU-bound sweep only adds
//! overhead.

use crate::cfgtext::RunSpec;
use crate::sim::{run_experiment, RunOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker-count override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-pool size for all subsequent sweeps (0 clears the
/// override, falling back to `MDWORM_JOBS` / available parallelism).
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker-pool size sweeps use: [`set_jobs`] override, else the
/// `MDWORM_JOBS` environment variable, else available parallelism — in
/// every case clamped to the host's CPU count. Requesting more workers
/// than cores never helps a CPU-bound sweep: the extra threads just add
/// submission and contention overhead (measured as the `speedup: 0.888`
/// regression in `results/BENCH_sweep.json` on a 1-core host), and at an
/// effective count of 1 [`parallel_map`] skips the pool entirely.
pub fn jobs() -> usize {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    resolve_jobs(
        JOBS_OVERRIDE.load(Ordering::Relaxed),
        std::env::var("MDWORM_JOBS").ok().as_deref(),
    )
    .min(host_cpus)
}

/// Pure resolution logic behind [`jobs`], separated for testability.
fn resolve_jobs(override_n: usize, env: Option<&str>) -> usize {
    if override_n > 0 {
        return override_n;
    }
    if let Some(n) = env.and_then(|v| v.trim().parse::<usize>().ok()) {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over every job on a pool of `n_workers` scoped threads and
/// returns the results **in submission order**.
///
/// Jobs are handed out first-come-first-served, so long and short runs
/// load-balance naturally; the submission index travels with each result
/// and the output is re-sorted before returning. With `n_workers <= 1` (or
/// a single job) everything runs inline on the caller's thread — that path
/// is the serial reference the determinism tests compare against.
///
/// # Panics
///
/// Propagates the first worker panic after all threads have joined
/// (via [`std::thread::scope`]).
pub fn parallel_map<J, R, F>(jobs_list: Vec<J>, n_workers: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let n_workers = n_workers.clamp(1, jobs_list.len().max(1));
    if n_workers == 1 {
        return jobs_list.into_iter().map(f).collect();
    }
    let n_jobs = jobs_list.len();
    let queue = Mutex::new(jobs_list.into_iter().enumerate());
    let results = Mutex::new(Vec::with_capacity(n_jobs));
    std::thread::scope(|s| {
        for _ in 0..n_workers {
            s.spawn(|| loop {
                // Take the lock only to pull the next job; the engine run
                // itself happens lock-free on this worker's own state.
                let next = queue.lock().expect("job queue poisoned").next();
                let Some((i, job)) = next else { break };
                let r = f(job);
                results.lock().expect("result sink poisoned").push((i, r));
            });
        }
    });
    let mut tagged = results.into_inner().expect("result sink poisoned");
    debug_assert_eq!(tagged.len(), n_jobs);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

// The whole scheme rests on run specs and outcomes being Send while the
// engine internals are not; make the former a compile-time guarantee.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RunSpec>();
    assert_send::<RunOutcome>();
};

/// Runs every spec through [`run_experiment`] on `n_workers` threads,
/// returning outcomes in submission order.
pub fn run_sweep(specs: Vec<RunSpec>, n_workers: usize) -> Vec<RunOutcome> {
    parallel_map(specs, n_workers, |s| {
        run_experiment(&s.system, &s.traffic, &s.run)
    })
}

/// [`run_sweep`] with the pool size from [`jobs`].
pub fn run_sweep_auto(specs: Vec<RunSpec>) -> Vec<RunOutcome> {
    run_sweep(specs, jobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
    use crate::sim::RunConfig;
    use crate::workload::TrafficSpec;

    /// The pool tests below run their body this many times on fresh
    /// threads, so the OS scheduler interleaves the queue and result
    /// locks differently from run to run. That is a stress test, not a
    /// proof over every interleaving.
    const SCHEDULES: usize = 64;

    #[test]
    fn results_come_back_in_submission_order() {
        // Reverse-sized workloads so later (cheaper) jobs finish first.
        let jobs_list: Vec<u64> = (0..32).rev().collect();
        let out = parallel_map(jobs_list.clone(), 4, |ms| {
            std::thread::sleep(std::time::Duration::from_micros(ms * 10));
            ms
        });
        assert_eq!(out, jobs_list);
        // Workers take jobs first come, first served, and the reversed
        // spins make completion order fight submission order.
        for _ in 0..SCHEDULES {
            let jobs_list: Vec<usize> = (0..6).rev().collect();
            let out = parallel_map(jobs_list.clone(), 3, |spin| {
                for _ in 0..spin * 10 {
                    std::thread::yield_now();
                }
                spin
            });
            assert_eq!(out, jobs_list);
        }
    }

    /// Each job runs exactly once, and every result has landed by the
    /// time `parallel_map` returns.
    #[test]
    fn every_job_runs_exactly_once() {
        let n_jobs = 5;
        for _ in 0..SCHEDULES {
            let per_job: Vec<AtomicUsize> = (0..n_jobs).map(|_| AtomicUsize::new(0)).collect();
            let out = parallel_map((0..n_jobs).collect(), 2, |i: usize| {
                per_job[i].fetch_add(1, Ordering::SeqCst);
                i * 2
            });
            assert_eq!(out, (0..n_jobs).map(|i| i * 2).collect::<Vec<_>>());
            for (i, c) in per_job.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "job {i} ran exactly once");
            }
        }
    }

    /// Degenerate pool shapes do not wedge: more workers asked for than
    /// there are jobs (the pool shrinks to the job count, and a worker
    /// that finds the queue already drained must still exit), and an
    /// empty job list.
    #[test]
    fn surplus_workers_and_empty_queues_shut_down() {
        for _ in 0..SCHEDULES {
            assert_eq!(parallel_map(vec![7usize], 4, |x| x + 1), vec![8]);
            assert_eq!(parallel_map(vec![1, 2], 8, |x: u32| x * 3), vec![3, 6]);
            let none: Vec<usize> = parallel_map(Vec::new(), 4, |x: usize| x);
            assert!(none.is_empty());
        }
    }

    #[test]
    fn single_worker_runs_inline() {
        let out = parallel_map(vec![1, 2, 3], 1, |x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn jobs_resolution_precedence() {
        assert_eq!(resolve_jobs(3, Some("7")), 3, "override wins");
        assert_eq!(resolve_jobs(0, Some("7")), 7, "env var next");
        assert_eq!(resolve_jobs(0, Some(" 5 ")), 5, "env var is trimmed");
        let fallback = resolve_jobs(0, Some("garbage"));
        assert!(fallback >= 1, "bad env falls back to parallelism");
        assert_eq!(resolve_jobs(0, None), resolve_jobs(0, Some("0")));
    }

    #[test]
    fn jobs_clamps_to_host_cpus() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        set_jobs(host * 8);
        let effective = jobs();
        set_jobs(0);
        assert_eq!(effective, host, "oversubscribed --jobs must be clamped");
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let _ = parallel_map(vec![0u32, 1, 2, 3], 2, |x| {
            assert_ne!(x, 2, "worker exploded");
            x
        });
    }

    fn e2_style_jobs(seed: u64) -> Vec<RunSpec> {
        let base = SystemConfig {
            topology: TopologyKind::KaryTree { k: 2, n: 3 }, // 8 hosts
            seed,
            ..SystemConfig::default()
        };
        let mut jobs_list = Vec::new();
        for (arch, mcast) in [
            (SwitchArch::CentralBuffer, McastImpl::HwBitString),
            (SwitchArch::InputBuffered, McastImpl::HwBitString),
            (SwitchArch::CentralBuffer, McastImpl::SwBinomial),
        ] {
            for load in [0.03, 0.08] {
                jobs_list.push(RunSpec {
                    system: SystemConfig {
                        arch,
                        mcast,
                        ..base.clone()
                    },
                    traffic: TrafficSpec::multiple_multicast(load, 4, 16),
                    run: RunConfig::quick(),
                });
            }
        }
        jobs_list
    }

    /// The satellite determinism guarantee: the parallel sweep of an
    /// E2-style job list is outcome-identical to the serial path, for two
    /// seeds and pools of 1 and 4 workers.
    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        for seed in [SystemConfig::default().seed, 0xFEED_FACE] {
            let serial = run_sweep(e2_style_jobs(seed), 1);
            for workers in [1usize, 4] {
                let parallel = run_sweep(e2_style_jobs(seed), workers);
                assert_eq!(serial.len(), parallel.len());
                for (s, p) in serial.iter().zip(&parallel) {
                    assert_eq!(s.mcast_last, p.mcast_last, "seed {seed:#x}");
                    assert_eq!(s.mcast_avg, p.mcast_avg);
                    assert_eq!(s.unicast, p.unicast);
                    assert_eq!(s.throughput.to_bits(), p.throughput.to_bits());
                    assert_eq!(s.completed_mcasts, p.completed_mcasts);
                    assert_eq!(s.completed_unicasts, p.completed_unicasts);
                    assert_eq!(s.leftover, p.leftover);
                    assert_eq!(s.cycles, p.cycles);
                    assert_eq!(s.eject_utilization.to_bits(), p.eject_utilization.to_bits());
                }
            }
        }
    }
}
