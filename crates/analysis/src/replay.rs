//! Trace-conformance replay: a recorded simulator run re-driven through
//! the pure transition cores.
//!
//! The bounded model checker ([`crate::model`]) explores the *abstract*
//! machines in `switches::semantics`; this module closes the loop in the
//! other direction — a **refinement check** that the live switches
//! actually implement those machines. Each [`SemEvent`] recorded by a
//! `CentralBufferSwitch` carries both the transition *input* (who asked
//! for how many chunks, in which space class) and the *observable
//! outcome* (was the reservation granted, how many chunks were free
//! afterwards). Replay folds [`cq_step`] over the same inputs and demands
//! the same outcomes, event for event; any divergence means the simulator
//! and the model-checked semantics have drifted apart, and the trace
//! index pinpoints the first offending step.
//!
//! The `invariant-audit` feature runs this after every experiment
//! (`mdworm::sim::run_experiment`), so every CI simulation doubles as a
//! conformance test of the refactored step cores.

use crate::checks::ArchClass;
use crate::model::{self, ModelBounds, Violation};
use mintopo::route::ReplicatePolicy;
use netsim::trace::SemEvent;
use netsim::Cycle;
use std::collections::HashMap;
use switches::semantics::{cq_step, CqEffect, CqEvent, CqState};

/// The first point where a recorded trace and the abstract machine
/// disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// Index of the offending event in the recorded trace.
    pub index: usize,
    /// Simulation cycle the event was recorded at.
    pub cycle: Cycle,
    /// Raw id of the switch whose trace diverged.
    pub sw: u32,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl std::fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace event #{} (cycle {}, switch {}): {}",
            self.index, self.cycle, self.sw, self.detail
        )
    }
}

/// Coverage counters of a successful replay.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Total events replayed.
    pub events: usize,
    /// Distinct switches that produced events.
    pub switches: usize,
    /// Reservation attempts replayed.
    pub reserves: usize,
    /// Chunk releases replayed.
    pub releases: usize,
    /// Quiesce purges replayed.
    pub purges: usize,
}

/// Replays a recorded central-queue trace against the pure [`CqState`]
/// machine.
///
/// `capacity` and `reserve` must match the `cq_chunks` /
/// `cq_down_reserve()` of the switches that produced the trace (every
/// switch of a fabric shares them). Events from different switches may be
/// interleaved in one trace; each switch is folded independently.
///
/// # Errors
///
/// Returns the first [`ReplayMismatch`] — the earliest event whose
/// recorded outcome differs from what the abstract transition produces.
pub fn replay_cq_trace(
    events: &[(Cycle, SemEvent)],
    capacity: usize,
    reserve: usize,
) -> Result<ReplayReport, Box<ReplayMismatch>> {
    let mut states: HashMap<u32, CqState> = HashMap::new();
    let mut report = ReplayReport::default();
    for (index, (cycle, ev)) in events.iter().enumerate() {
        report.events += 1;
        let fail = |sw: u32, detail: String| {
            Box::new(ReplayMismatch {
                index,
                cycle: *cycle,
                sw,
                detail,
            })
        };
        match ev {
            SemEvent::CqReserve {
                sw,
                input,
                need,
                descending,
                granted,
                free_after,
            } => {
                report.reserves += 1;
                let st = states
                    .entry(*sw)
                    .or_insert_with(|| CqState::new(capacity, reserve));
                let (next, effect) = cq_step(
                    st,
                    CqEvent::Reserve {
                        input: *input,
                        need: *need,
                        descending: *descending,
                    },
                );
                let model_granted = matches!(effect, CqEffect::Granted);
                if model_granted != *granted {
                    return Err(fail(
                        *sw,
                        format!(
                            "reservation (input {input}, need {need}, descending \
                             {descending}) recorded granted={granted} but the \
                             model says granted={model_granted}"
                        ),
                    ));
                }
                if next.free() != *free_after {
                    return Err(fail(
                        *sw,
                        format!(
                            "reservation left {free_after} chunks free in the \
                             simulator but {} in the model",
                            next.free()
                        ),
                    ));
                }
                *st = next;
            }
            SemEvent::CqRelease { sw, free_after } => {
                report.releases += 1;
                let Some(st) = states.get_mut(sw) else {
                    return Err(fail(
                        *sw,
                        "chunk release before any reservation — the simulator \
                         freed a chunk the model never allocated"
                            .to_string(),
                    ));
                };
                let (next, _) = cq_step(st, CqEvent::Release);
                if next.free() != *free_after {
                    return Err(fail(
                        *sw,
                        format!(
                            "release left {free_after} chunks free in the \
                             simulator but {} in the model",
                            next.free()
                        ),
                    ));
                }
                *st = next;
            }
            SemEvent::CqPurge { sw } => {
                report.purges += 1;
                states.insert(*sw, CqState::new(capacity, reserve));
            }
        }
    }
    report.switches = states.len();
    Ok(report)
}

/// Outcome of a successful [`replay_model_violation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelReplay {
    /// Counterexample transitions re-executed against the rebuilt model.
    pub steps: usize,
    /// Report of the central-queue semantic-event replay, when the
    /// violation carried events (central-buffer scenarios).
    pub cq: Option<ReplayReport>,
}

/// Re-validates a model-checker counterexample end to end:
///
/// 1. rebuilds the violating scenario's plan (resolving compositional
///    `@s<switch>` sub-scenarios to the same per-switch decomposition)
///    and re-executes the trace transition by transition with the
///    explorer's successor relation, confirming every step is enabled
///    and the final state exhibits the claimed violation, so the shipped
///    trace is concrete and executable in whichever mode found it;
/// 2. when the violation carries [`SemEvent`]s, folds them through
///    [`replay_cq_trace`] so the counterexample's central-queue behavior
///    is also conformant with the pure machine the live switches run.
///
/// `arch`, `sync_replication`, `policy`, and `bounds` must match the
/// check that produced the violation.
///
/// # Errors
///
/// A description of the first divergence: a trace step that is not
/// enabled, a final state without the claimed violation, a violation
/// kind that carries no trace (`plan`, `state-bound`), or a
/// [`ReplayMismatch`] from the event replay.
pub fn replay_model_violation(
    arch: ArchClass,
    sync_replication: bool,
    policy: ReplicatePolicy,
    bounds: &ModelBounds,
    violation: &Violation,
) -> Result<ModelReplay, String> {
    let steps = model::reexecute_violation(arch, sync_replication, policy, bounds, violation)?;
    let cq = if violation.events.is_empty() {
        None
    } else {
        Some(
            replay_cq_trace(&violation.events, bounds.cq_chunks, bounds.cq_reserve)
                .map_err(|m| format!("counterexample event replay diverged: {m}"))?,
        )
    };
    Ok(ModelReplay { steps, cq })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reserve(sw: u32, input: usize, need: usize, granted: bool, free_after: usize) -> SemEvent {
        SemEvent::CqReserve {
            sw,
            input,
            need,
            descending: false,
            granted,
            free_after,
        }
    }

    #[test]
    fn faithful_trace_replays_clean() {
        // Capacity 8, reserve 2 => the ascending pool is 6 chunks. Input 1
        // cannot reserve 4 more: it sweeps the 2 chunks above the floor
        // into its accumulator, collects 2 releases, then is granted.
        let events = vec![
            (1, reserve(0, 0, 4, true, 4)),
            (2, reserve(0, 1, 4, false, 2)),
            (
                3,
                SemEvent::CqRelease {
                    sw: 0,
                    free_after: 2,
                },
            ), // fed to waiter
            (
                4,
                SemEvent::CqRelease {
                    sw: 0,
                    free_after: 2,
                },
            ),
            (5, reserve(0, 1, 4, true, 2)), // owner collects
            (6, SemEvent::CqPurge { sw: 0 }),
            (7, reserve(0, 0, 1, true, 7)),
        ];
        let report = replay_cq_trace(&events, 8, 2).expect("faithful trace");
        assert_eq!(report.events, 7);
        assert_eq!(report.reserves, 4);
        assert_eq!(report.releases, 2);
        assert_eq!(report.purges, 1);
        assert_eq!(report.switches, 1);
    }

    #[test]
    fn wrong_grant_is_caught() {
        // Claims a 7-chunk ascending grant with only 6 above the floor.
        let events = vec![(1, reserve(0, 0, 7, true, 1))];
        let err = replay_cq_trace(&events, 8, 2).expect_err("impossible grant");
        assert_eq!(err.index, 0);
        assert!(err.detail.contains("granted=false"), "{}", err.detail);
    }

    #[test]
    fn wrong_free_count_is_caught() {
        let events = vec![(1, reserve(0, 0, 4, true, 3))];
        let err = replay_cq_trace(&events, 8, 2).expect_err("free miscount");
        assert!(err.detail.contains("3 chunks free"), "{}", err.detail);
    }

    #[test]
    fn release_without_reservation_is_caught() {
        let events = vec![(
            9,
            SemEvent::CqRelease {
                sw: 3,
                free_after: 8,
            },
        )];
        let err = replay_cq_trace(&events, 8, 2).expect_err("phantom release");
        assert_eq!(err.sw, 3);
        assert!(err.detail.contains("never allocated"), "{}", err.detail);
    }

    #[test]
    fn switches_fold_independently() {
        let events = vec![
            (1, reserve(0, 0, 4, true, 4)),
            (1, reserve(1, 0, 6, true, 2)),
            (
                2,
                SemEvent::CqRelease {
                    sw: 1,
                    free_after: 3,
                },
            ),
        ];
        let report = replay_cq_trace(&events, 8, 2).expect("independent switches");
        assert_eq!(report.switches, 2);
    }
}
