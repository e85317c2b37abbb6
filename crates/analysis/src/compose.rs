//! Compositional (assume-guarantee) model checking (DESIGN.md §14).
//!
//! Instead of exploring a fabric's joint state space, [`check_scenario`]
//! decomposes a scenario plan per switch and checks each switch against
//! an **abstracted environment** whose behavior is bounded by the
//! chunk/credit interface invariants the exact checker establishes on
//! the two-switch fabrics:
//!
//! * **Upstream feed** — a parent visit on a neighboring switch delivers
//!   chunks *monotonically*: the cut-through fill of a visit only ever
//!   grows, one chunk at a time, up to the worm length, at any
//!   interleaving. The stub ([`Target`]-feeding `env_fed` visits plus the
//!   `EnvDeliver` transition) does exactly that, nondeterministically —
//!   covering every schedule a real neighbor could produce, including
//!   ones where it never delivers more (which is when local deadlocks
//!   must still be detectable).
//! * **Downstream acceptance** — a child switch eventually grants buffer
//!   space/credits for a stream crossing the link, and once granted the
//!   one-way flow-control state never revokes it (the head packet fits
//!   completely in its buffer — the paper's acceptance condition). The
//!   stub is the `env_ready` bit set by `EnvAccept`, required before a
//!   branch may advance into the environment.
//!
//! Both stub transitions are finite and strictly monotone, so the
//! sub-plan's state space stays a DAG and a per-switch deadlock,
//! conservation breach, or leak surfaces against *some* environment
//! schedule iff it can occur under a real neighbor obeying the
//! interface. The guarantee direction (each switch *provides* those
//! interface behaviors to its neighbors) is exactly what the exact
//! checker proves per architecture on the `pair-*` scenarios, once —
//! structurally identical sub-plans are deduplicated by signature and
//! proved a single time per scenario.

use crate::checks::ArchClass;
use crate::model::{
    run_plan, ModelBounds, Plan, PlanBranch, ScenarioStats, Target, Violation, Visit,
};
use std::collections::HashSet;

/// One switch of a decomposed scenario: the local plan with environment
/// stubs, and a structural signature for dedup.
pub(crate) struct SubPlan {
    /// Global switch index the sub-plan models (local index 0).
    pub(crate) sw: usize,
    /// The per-switch plan: all visits at `sw`, cross-switch branches
    /// replaced by [`Target::Env`] stubs, upstream feeds marked
    /// `env_fed`.
    pub(crate) plan: Plan,
    /// Structural signature: sub-plans with equal signatures are
    /// isomorphic and need only one proof.
    pub(crate) sig: Vec<u8>,
}

impl std::fmt::Debug for SubPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubPlan")
            .field("sw", &self.sw)
            .field("visits", &self.plan.visits.len())
            .finish()
    }
}

/// Decomposes a full scenario plan into one [`SubPlan`] per switch that
/// hosts at least one visit.
pub(crate) fn decompose(plan: &Plan) -> Vec<SubPlan> {
    let mut switches: Vec<usize> = plan.visits.iter().map(|v| v.sw).collect();
    switches.sort_unstable();
    switches.dedup();
    switches
        .into_iter()
        .map(|sw| {
            let mut local_of = vec![usize::MAX; plan.visits.len()];
            let locals: Vec<usize> = plan
                .visits
                .iter()
                .enumerate()
                .filter(|(_, v)| v.sw == sw)
                .map(|(i, _)| i)
                .collect();
            for (li, &gi) in locals.iter().enumerate() {
                local_of[gi] = li;
            }
            let mut env_slots = 0usize;
            let mut visits = Vec::with_capacity(locals.len());
            let mut sig = Vec::new();
            for &gi in &locals {
                let v = &plan.visits[gi];
                let env_fed = v.parent.is_some();
                let branches: Vec<PlanBranch> = v
                    .branches
                    .iter()
                    .map(|b| PlanBranch {
                        out_port: b.out_port,
                        target: match b.target {
                            Target::Host(h) => Target::Host(h),
                            // Cross-switch hop: one fresh one-way stub
                            // slot per crossing branch.
                            Target::Visit(_) | Target::Env(_) => {
                                let slot = env_slots;
                                env_slots += 1;
                                Target::Env(slot)
                            }
                        },
                    })
                    .collect();
                // Structural signature of the localized visit.
                sig.extend_from_slice(&(v.in_port as u32).to_le_bytes());
                sig.push(u8::from(v.descending));
                sig.push(u8::from(env_fed));
                sig.push(branches.len() as u8);
                for b in &branches {
                    sig.extend_from_slice(&(b.out_port as u32).to_le_bytes());
                    sig.push(match b.target {
                        Target::Host(_) => 0,
                        Target::Env(_) => 1,
                        Target::Visit(_) => unreachable!("just replaced"),
                    });
                }
                visits.push(Visit {
                    worm: v.worm,
                    sw: 0,
                    in_port: v.in_port,
                    descending: v.descending,
                    branches,
                    parent: None,
                    env_fed,
                });
            }
            let entries = visits
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.env_fed)
                .map(|(i, _)| i)
                .collect();
            SubPlan {
                sw,
                plan: Plan {
                    visits,
                    entries,
                    worm_desc: plan.worm_desc.clone(),
                    env_slots,
                },
                sig,
            }
        })
        .collect()
}

/// Checks every structurally distinct per-switch sub-plan of a scenario.
/// Sub-scenario names are `"{name}@s{switch}"`, so a violation pinpoints
/// the concrete switch whose local plan fails (and
/// [`crate::model::reexecute_violation`] can rebuild exactly that sub-plan).
pub(crate) fn check_scenario(
    name: &str,
    plan: &Plan,
    arch: ArchClass,
    sync: bool,
    bounds: &ModelBounds,
) -> Result<ScenarioStats, Box<Violation>> {
    let mut total = ScenarioStats::default();
    let mut proved: HashSet<Vec<u8>> = HashSet::new();
    for sub in decompose(plan) {
        if !proved.insert(sub.sig.clone()) {
            continue;
        }
        let sub_name = format!("{name}@s{}", sub.sw);
        let s = run_plan(&sub_name, &sub.plan, arch, sync, bounds)?;
        total.states += s.states;
        total.transitions += s.transitions;
    }
    Ok(total)
}
