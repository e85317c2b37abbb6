//! `mdw-model` — bounded model checking of the switch state machines.
//!
//! The CDG/SCC analyzer ([`crate::cdg`], [`crate::scc`]) proves an
//! *acyclic routing graph*, which rules out one class of deadlock but says
//! nothing about chunk-allocation races, credit underflow, or
//! replication stalls inside a switch. This module checks the *transition
//! system* instead: it explores every reachable state of small fabrics
//! under a fixed worm alphabet — unicast, ascending and descending
//! multidestination, and replicating worms — calling the **same state
//! methods the live switches run** ([`CqState`] for the central queue,
//! [`IbHeadState`] for input-buffered heads) on a clone of the state per
//! transition.
//!
//! Per explored state it verifies the safety invariants (chunk
//! conservation, no leak at quiescence, bounded replication fan-out), and
//! over the full reachability graph it verifies the paper's
//! *buffered-eventually* liveness condition via terminal-SCC analysis:
//! every terminal strongly connected component must be the singleton
//! all-delivered state. A violation comes with a **minimal counterexample
//! trace** (BFS order guarantees minimality in transitions).
//!
//! ## Abstraction
//!
//! States are explored at *chunk* granularity. A worm is a list of
//! `Visit`s — one per switch it crosses, precomputed by walking the real
//! `mintopo` routing tables — and each visit advances through
//! `Pending → (Waiting →) Stored → Done`. Cut-through is modeled by the
//! *fill* constraint: a branch can forward chunk `k` only after its
//! parent visit has forwarded chunk `k` into this switch. Central-buffer
//! admission debits the full reservation through
//! [`CqState::try_reserve`]; released chunks flow back through
//! [`CqState::release_chunk`], so the descending-reserve and
//! single-waiter-accumulator rules are checked exactly as implemented.
//! Input-buffered visits carry a live [`IbHeadState`] and advance through
//! its [`grant`](IbHeadState::grant) and [`read_flit`](IbHeadState::read_flit)
//! — or [`read_lockstep`](IbHeadState::read_lockstep), the
//! synchronous-replication variant whose crossed-grant deadlock the
//! checker finds with a 4-step counterexample.
//!
//! ## Modes (DESIGN.md §14)
//!
//! [`check_model`] is the *oracle*: a plain sequential BFS that stores
//! one state per concrete configuration, deduplicated by an injective
//! byte encoding. [`check_model_opts`] picks a [`ModelMode`]: `Exact`
//! runs the oracle, `Compositional` (the `compose` module) decomposes each
//! scenario per switch — cross-switch branches become one-way
//! environment stubs, upstream feeds become nondeterministic monotone
//! chunk sources, and each structurally distinct per-switch plan is
//! proved once — and `Auto` runs the oracle up to
//! [`ModelOptions::AUTO_EXACT_MAX_SWITCHES`] switches and compositional
//! mode beyond. Both paths share one explorer, so every counterexample
//! is a concrete trace that replays as is.

use crate::checks::ArchClass;
use mintopo::reach::PortClass;
use mintopo::route::{pick_deterministic, McastRoute, ReplicatePolicy, RouteTables, UnicastRoute};
use mintopo::topology::{Attach, Topology, TopologyBuilder};
use netsim::destset::DestSet;
use netsim::ids::{NodeId, SwitchId};
use std::collections::HashMap;
use std::collections::VecDeque;
use switches::semantics::{CqState, IbHeadState};

/// Exploration bounds of the checker.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelBounds {
    /// Largest fabric explored (scenarios with more switches are skipped).
    pub max_switches: usize,
    /// Worm length in central-queue chunks (1–4).
    pub worm_chunks: usize,
    /// Abstract central-queue capacity in chunks.
    pub cq_chunks: usize,
    /// Descending-traffic reserve of the abstract central queue.
    pub cq_reserve: usize,
    /// Hard cap on explored states per scenario.
    pub max_states: usize,
}

impl Default for ModelBounds {
    fn default() -> Self {
        ModelBounds {
            max_switches: 2,
            worm_chunks: 2,
            cq_chunks: 4,
            cq_reserve: 2,
            max_states: 400_000,
        }
    }
}

/// Which decomposition strategy a check uses (DESIGN.md §14).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelMode {
    /// Explore every scenario's joint state space exactly.
    Exact,
    /// Check each switch against an abstracted environment and prove each
    /// structurally distinct per-switch plan once.
    Compositional,
    /// Exact for small scenarios, compositional beyond
    /// [`ModelOptions::AUTO_EXACT_MAX_SWITCHES`] switches.
    #[default]
    Auto,
}

/// How a check explores, layered over [`ModelBounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelOptions {
    /// Exact, compositional, or size-driven automatic selection.
    pub mode: ModelMode,
    /// Unused: the checker always explores on the calling thread. Kept
    /// only because the benchmark package (`perfbench/src/traced.rs`)
    /// sets it and changes only together with the benchmark; ROADMAP
    /// item 3 lists its removal for the next benchmark change.
    pub jobs: usize,
}

impl ModelOptions {
    /// Largest scenario (in switches) `ModelMode::Auto` still checks
    /// exactly.
    pub const AUTO_EXACT_MAX_SWITCHES: usize = 4;

    /// The oracle: exact mode. [`check_model`] uses exactly these
    /// options.
    pub fn oracle() -> Self {
        ModelOptions {
            mode: ModelMode::Exact,
            jobs: 1,
        }
    }
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            mode: ModelMode::Auto,
            jobs: 1,
        }
    }
}

/// One transition of a counterexample trace, in structured form — enough
/// to re-execute the step against the model without parsing the label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A host injects the entry visit.
    Inject {
        /// Plan visit index.
        visit: usize,
    },
    /// A central-buffer head is presented to its downstream visit.
    Present {
        /// Plan visit index (the downstream visit woken up).
        visit: usize,
    },
    /// A waiting visit retries its full-packet central-queue reservation.
    Admit {
        /// Plan visit index.
        visit: usize,
    },
    /// One branch forwards one chunk.
    Advance {
        /// Plan visit index.
        visit: usize,
        /// Branch index within the visit.
        branch: usize,
    },
    /// An input-buffered branch wins its output-port arbitration.
    Grant {
        /// Plan visit index.
        visit: usize,
        /// Branch index within the visit.
        branch: usize,
    },
    /// Every branch forwards one chunk in lock-step (synchronous
    /// replication).
    AdvanceSync {
        /// Plan visit index.
        visit: usize,
    },
    /// The abstracted upstream environment delivers one chunk into an
    /// environment-fed visit (compositional mode only).
    EnvDeliver {
        /// Plan visit index.
        visit: usize,
    },
    /// The abstracted downstream environment signals it accepts the
    /// stream of one branch (compositional mode only).
    EnvAccept {
        /// Plan visit index.
        visit: usize,
        /// Branch index within the visit.
        branch: usize,
    },
}

/// One transition of a counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Human-readable description of the transition.
    pub label: String,
    /// Structured form of the transition, for re-execution.
    pub op: TraceOp,
}

/// A property violation with its minimal counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Scenario (fabric + worm set) the violation occurred in. A
    /// compositional sub-scenario is suffixed `@s<switch>`.
    pub scenario: String,
    /// Violation class: `deadlock`, `livelock`, `invariant`, `plan`, or
    /// `state-bound`.
    pub kind: String,
    /// What went wrong in the violating state.
    pub detail: String,
    /// Minimal transition sequence from the initial state.
    pub trace: Vec<TraceStep>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} in scenario '{}': {}",
            self.kind, self.scenario, self.detail
        )?;
        writeln!(f, "counterexample ({} steps):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {}", i + 1, step.label)?;
        }
        Ok(())
    }
}

/// Coverage counters of a successful check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Scenarios (fabric + worm set combinations) explored.
    pub scenarios: usize,
    /// Reachable states across all scenarios (per-switch sub-plans in
    /// compositional mode).
    pub states: usize,
    /// Transitions across all scenarios.
    pub transitions: usize,
}

/// Result of a model check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every scenario verified: invariants hold in every reachable state
    /// and every terminal SCC is the all-delivered state.
    Verified(ModelStats),
    /// A property failed; the violation carries a minimal counterexample.
    Violated(Box<Violation>),
}

impl CheckOutcome {
    /// `true` when the check verified every scenario.
    pub fn is_verified(&self) -> bool {
        matches!(self, CheckOutcome::Verified(_))
    }
}

/// Checks the given switch architecture (with synchronous or asynchronous
/// replication) against every bounded scenario with the **oracle**
/// ([`ModelOptions::oracle`]).
///
/// Scenarios cover a single switch with crossed multicasts, and a
/// two-switch parent/child fabric with ascending, descending, and
/// replicating worms (plus, when `bounds.max_switches >= 4`, a
/// four-switch two-root fabric, and at `>= 8`/`>= 16`, star fabrics of
/// isomorphic leaves). The central-buffer architecture replicates from
/// the shared queue and is inherently asynchronous, so `sync_replication`
/// is ignored for it.
pub fn check_model(
    arch: ArchClass,
    sync_replication: bool,
    policy: ReplicatePolicy,
    bounds: &ModelBounds,
) -> CheckOutcome {
    check_model_opts(
        arch,
        sync_replication,
        policy,
        bounds,
        &ModelOptions::oracle(),
    )
}

/// [`check_model`] in the given [`ModelMode`] (DESIGN.md §14). With
/// [`ModelOptions::oracle`] this *is* the oracle; compositional mode
/// proves each distinct per-switch plan against an abstracted
/// environment instead of exploring the joint state space.
pub fn check_model_opts(
    arch: ArchClass,
    sync_replication: bool,
    policy: ReplicatePolicy,
    bounds: &ModelBounds,
    opts: &ModelOptions,
) -> CheckOutcome {
    let sync = sync_replication && arch == ArchClass::InputBuffered;
    let mut stats = ModelStats::default();
    for scenario in scenarios(bounds.max_switches) {
        let plan = match build_plan(&scenario, policy, bounds.worm_chunks) {
            Ok(p) => p,
            Err(e) => {
                return CheckOutcome::Violated(Box::new(Violation {
                    scenario: scenario.name.to_string(),
                    kind: "plan".into(),
                    detail: e,
                    trace: Vec::new(),
                }))
            }
        };
        let exact = match opts.mode {
            ModelMode::Exact => true,
            ModelMode::Compositional => false,
            ModelMode::Auto => scenario.n_switches <= ModelOptions::AUTO_EXACT_MAX_SWITCHES,
        };
        let result = if exact {
            run_plan(scenario.name, &plan, arch, sync, bounds)
        } else {
            crate::compose::check_scenario(scenario.name, &plan, arch, sync, bounds)
        };
        match result {
            Ok(s) => {
                stats.scenarios += 1;
                stats.states += s.states;
                stats.transitions += s.transitions;
            }
            Err(v) => return CheckOutcome::Violated(v),
        }
    }
    CheckOutcome::Verified(stats)
}

// ---------------------------------------------------------------------
// Scenarios: small fabrics + worm alphabets.
// ---------------------------------------------------------------------

#[derive(Clone)]
enum WormKind {
    Unicast(NodeId),
    Mcast(DestSet),
}

struct Scenario {
    name: &'static str,
    topo: Topology,
    n_switches: usize,
    worms: Vec<(NodeId, WormKind)>,
}

/// One switch, four hosts: the crossed-multicast scenario that separates
/// asynchronous from synchronous replication.
fn single_switch() -> Topology {
    let mut b = TopologyBuilder::new(4);
    let s = b.add_switch(4, 0);
    for h in 0..4 {
        b.attach_host(NodeId(h), s, h as usize);
    }
    b.build()
}

/// A leaf (hosts 0, 1) under a root (hosts 2, 3): ascending, descending,
/// and cross-stage traffic.
fn pair() -> Topology {
    let mut b = TopologyBuilder::new(4);
    let s0 = b.add_switch(3, 1);
    let s1 = b.add_switch(3, 0);
    b.attach_host(NodeId(0), s0, 0);
    b.attach_host(NodeId(1), s0, 1);
    b.attach_host(NodeId(2), s1, 0);
    b.attach_host(NodeId(3), s1, 1);
    b.connect(s0, 2, s1, 2);
    b.build()
}

/// Two leaves under two roots: path diversity and root-level replication.
fn quad() -> Topology {
    let mut b = TopologyBuilder::new(4);
    let s0 = b.add_switch(4, 1);
    let s1 = b.add_switch(4, 1);
    let r0 = b.add_switch(2, 0);
    let r1 = b.add_switch(2, 0);
    b.attach_host(NodeId(0), s0, 0);
    b.attach_host(NodeId(1), s0, 1);
    b.attach_host(NodeId(2), s1, 0);
    b.attach_host(NodeId(3), s1, 1);
    b.connect(s0, 2, r0, 0);
    b.connect(s0, 3, r1, 0);
    b.connect(s1, 2, r0, 1);
    b.connect(s1, 3, r1, 1);
    b.build()
}

/// `leaves` identical 2-host leaf switches under one root: the scale
/// fabric. One leaf-local unicast worm per leaf, pairwise switch-disjoint,
/// so the joint space is a product of per-worm phases the oracle must
/// enumerate, while compositional mode proves the one distinct leaf plan
/// once.
fn star_of_leaves(leaves: usize) -> Topology {
    let mut b = TopologyBuilder::new(2 * leaves);
    let root = b.add_switch(leaves, 0);
    for i in 0..leaves {
        let leaf = b.add_switch(3, 1);
        b.attach_host(NodeId(2 * i as u32), leaf, 0);
        b.attach_host(NodeId(2 * i as u32 + 1), leaf, 1);
        b.connect(leaf, 2, root, i);
    }
    b.build()
}

fn star_worms(leaves: usize) -> Vec<(NodeId, WormKind)> {
    (0..leaves as u32)
        .map(|i| (NodeId(2 * i), WormKind::Unicast(NodeId(2 * i + 1))))
        .collect()
}

fn mcast(n: usize, nodes: &[u32]) -> WormKind {
    WormKind::Mcast(DestSet::from_nodes(n, nodes.iter().map(|&h| NodeId(h))))
}

fn scenarios(max_switches: usize) -> Vec<Scenario> {
    let mut v = vec![
        Scenario {
            name: "single-crossed-mcast",
            topo: single_switch(),
            n_switches: 1,
            worms: vec![
                (NodeId(0), mcast(4, &[2, 3])),
                (NodeId(1), mcast(4, &[2, 3])),
            ],
        },
        Scenario {
            name: "pair-up-down",
            topo: pair(),
            n_switches: 2,
            worms: vec![
                (NodeId(0), mcast(4, &[2, 3])),
                (NodeId(2), mcast(4, &[0, 1])),
                (NodeId(1), WormKind::Unicast(NodeId(3))),
            ],
        },
        Scenario {
            name: "pair-replicate-revisit",
            topo: pair(),
            n_switches: 2,
            worms: vec![
                // Covers a destination under its own leaf plus two under
                // the root: under ReturnOnly the worm climbs and then
                // *revisits* its source switch descending — the case the
                // descending-chunk reserve exists for.
                (NodeId(0), mcast(4, &[1, 2, 3])),
                (NodeId(3), WormKind::Unicast(NodeId(0))),
            ],
        },
    ];
    if max_switches >= 4 {
        v.push(Scenario {
            name: "quad-two-roots",
            topo: quad(),
            n_switches: 4,
            worms: vec![
                (NodeId(0), mcast(4, &[2, 3])),
                (NodeId(2), mcast(4, &[0, 1])),
            ],
        });
    }
    if max_switches >= 8 {
        v.push(Scenario {
            name: "scale-8-leaf-local",
            topo: star_of_leaves(7),
            n_switches: 8,
            worms: star_worms(7),
        });
    }
    if max_switches >= 16 {
        v.push(Scenario {
            name: "scale-16-leaf-local",
            topo: star_of_leaves(15),
            n_switches: 16,
            worms: star_worms(15),
        });
    }
    v.retain(|s| s.n_switches <= max_switches);
    v
}

// ---------------------------------------------------------------------
// Visit plans: each worm's path precomputed from the real routing tables.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    Host(NodeId),
    Visit(usize),
    /// Compositional mode: the branch leaves the checked switch into the
    /// abstracted environment through one-way stub slot `slot`.
    Env(usize),
}

#[derive(Debug, Clone)]
pub(crate) struct PlanBranch {
    pub(crate) out_port: usize,
    pub(crate) target: Target,
}

#[derive(Debug, Clone)]
pub(crate) struct Visit {
    pub(crate) worm: usize,
    pub(crate) sw: usize,
    pub(crate) in_port: usize,
    /// The packet arrived from a parent switch (uses the descending
    /// central-queue reserve).
    pub(crate) descending: bool,
    pub(crate) branches: Vec<PlanBranch>,
    /// `(visit, branch)` feeding this visit; `None` for host entry.
    pub(crate) parent: Option<(usize, usize)>,
    /// Compositional mode: the visit is fed by the abstracted upstream
    /// environment (monotone nondeterministic chunk source) instead of a
    /// parent visit.
    pub(crate) env_fed: bool,
}

pub(crate) struct Plan {
    pub(crate) visits: Vec<Visit>,
    /// Entry visit of each worm.
    pub(crate) entries: Vec<usize>,
    /// Worm descriptions for trace labels.
    pub(crate) worm_desc: Vec<String>,
    /// Compositional mode: number of one-way downstream stub slots.
    pub(crate) env_slots: usize,
}

impl Plan {
    /// `true` when the plan abstracts its surroundings (compositional
    /// sub-plan).
    fn has_env(&self) -> bool {
        self.env_slots > 0 || self.visits.iter().any(|v| v.env_fed)
    }
}

fn build_plan(
    scenario: &Scenario,
    policy: ReplicatePolicy,
    worm_chunks: usize,
) -> Result<Plan, String> {
    if !(1..=4).contains(&worm_chunks) {
        return Err(format!("worm_chunks {worm_chunks} out of bounds 1..=4"));
    }
    let tables = RouteTables::build(&scenario.topo);
    let mut plan = Plan {
        visits: Vec::new(),
        entries: Vec::new(),
        worm_desc: Vec::new(),
        env_slots: 0,
    };
    for (w, (src, kind)) in scenario.worms.iter().enumerate() {
        let (sw, port) = scenario.topo.host_inject(*src);
        let entry = add_visit(
            &mut plan,
            &scenario.topo,
            &tables,
            policy,
            w,
            sw,
            port,
            kind,
            None,
            0,
        )?;
        plan.entries.push(entry);
        plan.worm_desc.push(match kind {
            WormKind::Unicast(d) => format!("h{} -> h{}", src.0, d.0),
            WormKind::Mcast(d) => format!(
                "h{} -> {{{}}}",
                src.0,
                d.iter()
                    .map(|n| format!("h{}", n.0))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        });
    }
    Ok(plan)
}

/// Recursively expands one switch visit of a worm, returning its index.
#[allow(clippy::too_many_arguments)]
fn add_visit(
    plan: &mut Plan,
    topo: &Topology,
    tables: &RouteTables,
    policy: ReplicatePolicy,
    worm: usize,
    sw: SwitchId,
    in_port: usize,
    kind: &WormKind,
    parent: Option<(usize, usize)>,
    depth: usize,
) -> Result<usize, String> {
    if depth > 16 {
        return Err(format!("worm {worm} routing exceeds 16 hops"));
    }
    let table = tables.table(sw);
    let descending = table.port(in_port).class == PortClass::Up;
    let idx = plan.visits.len();
    plan.visits.push(Visit {
        worm,
        sw: sw.index(),
        in_port,
        descending,
        branches: Vec::new(),
        parent,
        env_fed: false,
    });

    // (out port, residual destination set or unicast dest) per branch.
    let hops: Vec<(usize, WormKind)> = match kind {
        WormKind::Unicast(dest) => match table.route_unicast(*dest) {
            UnicastRoute::Down(p) => vec![(p, WormKind::Unicast(*dest))],
            UnicastRoute::Up(cands) => {
                let p = pick_deterministic(&cands, worm as u64);
                vec![(p, WormKind::Unicast(*dest))]
            }
        },
        WormKind::Mcast(dests) => {
            let McastRoute { down, up } = table.route_bitstring(dests, policy);
            let mut hops: Vec<(usize, WormKind)> = down
                .into_iter()
                .map(|(p, sub)| (p, WormKind::Mcast(sub)))
                .collect();
            if let Some((cands, updests)) = up {
                let p = pick_deterministic(&cands, worm as u64);
                hops.push((p, WormKind::Mcast(updests)));
            }
            hops
        }
    };
    if hops.is_empty() {
        return Err(format!("worm {worm} has no route at s{}", sw.index()));
    }
    // Bounded-replication-fanout invariant: a worm can never branch wider
    // than the switch has ports.
    if hops.len() > topo.ports(sw) {
        return Err(format!(
            "worm {worm} fans out {}-wide at s{} ({} ports)",
            hops.len(),
            sw.index(),
            topo.ports(sw)
        ));
    }

    for (branch_idx, (out_port, sub)) in hops.into_iter().enumerate() {
        let target = match topo.attach(sw, out_port) {
            Attach::Host(h) => Target::Host(h),
            Attach::Switch(sw2, p2) => {
                let child = add_visit(
                    plan,
                    topo,
                    tables,
                    policy,
                    worm,
                    sw2,
                    p2,
                    &sub,
                    Some((idx, branch_idx)),
                    depth + 1,
                )?;
                Target::Visit(child)
            }
            Attach::Unused => {
                return Err(format!(
                    "worm {worm} routed onto unused port {out_port} of s{}",
                    sw.index()
                ))
            }
        };
        plan.visits[idx]
            .branches
            .push(PlanBranch { out_port, target });
    }
    Ok(idx)
}

// ---------------------------------------------------------------------
// Exploration.
// ---------------------------------------------------------------------

/// Status of one planned visit inside a model state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum VState {
    /// Head has not reached this switch yet.
    Pending,
    /// Central buffer only: head presented, full-packet reservation not
    /// yet granted.
    Waiting,
    /// Central buffer: packet admitted (reservation debited); per-branch
    /// chunk read cursors.
    StoredCb { reads: Vec<u16> },
    /// Input buffer: packet (head) in the input FIFO, driven by the live
    /// [`IbHeadState`] core.
    StoredIb { head: IbHeadState },
    /// Every branch drained; all buffer space returned.
    Done,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MState {
    /// Per-switch central-queue accounting (central buffer only).
    cq: Vec<CqState>,
    visits: Vec<VState>,
    /// Central buffer: per switch, per output port, FIFO of (visit,
    /// branch) — the central-queue branch lists.
    queues: Vec<Vec<VecDeque<(u32, u8)>>>,
    /// Input buffer: per switch, per output port, owning (visit, branch).
    owners: Vec<Vec<Option<(u32, u8)>>>,
    /// Input buffer: per switch, per input port, resident visit.
    occupants: Vec<Vec<Option<u32>>>,
    /// Compositional mode: chunks the upstream environment has delivered
    /// into each env-fed visit (empty when the plan has no environment).
    env_fill: Vec<u16>,
    /// Compositional mode: one-way accept bit per downstream stub slot.
    env_ready: Vec<bool>,
}

impl MState {
    /// The input-buffered head of visit `v`, which must be stored.
    fn ib_head(&mut self, v: usize) -> &mut IbHeadState {
        let VState::StoredIb { head } = &mut self.visits[v] else {
            unreachable!("visit {v} holds no input-buffered head")
        };
        head
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    Inject(usize),
    Present(usize),
    Admit(usize),
    Advance(usize, usize),
    Grant(usize, usize),
    AdvanceSync(usize),
    EnvDeliver(usize),
    EnvAccept(usize, usize),
}

impl Label {
    fn op(self) -> TraceOp {
        match self {
            Label::Inject(visit) => TraceOp::Inject { visit },
            Label::Present(visit) => TraceOp::Present { visit },
            Label::Admit(visit) => TraceOp::Admit { visit },
            Label::Advance(visit, branch) => TraceOp::Advance { visit, branch },
            Label::Grant(visit, branch) => TraceOp::Grant { visit, branch },
            Label::AdvanceSync(visit) => TraceOp::AdvanceSync { visit },
            Label::EnvDeliver(visit) => TraceOp::EnvDeliver { visit },
            Label::EnvAccept(visit, branch) => TraceOp::EnvAccept { visit, branch },
        }
    }

    fn from_op(op: TraceOp) -> Label {
        match op {
            TraceOp::Inject { visit } => Label::Inject(visit),
            TraceOp::Present { visit } => Label::Present(visit),
            TraceOp::Admit { visit } => Label::Admit(visit),
            TraceOp::Advance { visit, branch } => Label::Advance(visit, branch),
            TraceOp::Grant { visit, branch } => Label::Grant(visit, branch),
            TraceOp::AdvanceSync { visit } => Label::AdvanceSync(visit),
            TraceOp::EnvDeliver { visit } => Label::EnvDeliver(visit),
            TraceOp::EnvAccept { visit, branch } => Label::EnvAccept(visit, branch),
        }
    }
}

/// Coverage counters of one scenario (or compositional sub-plan) run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ScenarioStats {
    pub(crate) states: usize,
    pub(crate) transitions: usize,
}

/// Explores one plan (a whole scenario or a compositional sub-plan).
pub(crate) fn run_plan(
    scenario: &str,
    plan: &Plan,
    arch: ArchClass,
    sync: bool,
    bounds: &ModelBounds,
) -> Result<ScenarioStats, Box<Violation>> {
    Ctx::new(scenario, plan, arch, sync, bounds).explore()
}

/// Re-validates a counterexample: rebuilds the violating scenario's plan
/// (resolving a compositional `@s<switch>` sub-scenario to the same
/// per-switch decomposition), re-executes the trace transition by
/// transition with the explorer's successor relation, and confirms the
/// final state exhibits the claimed violation. Returns the number of
/// steps replayed.
///
/// `arch`, `sync_replication`, `policy`, and `bounds` must match the
/// check that produced the violation.
///
/// # Errors
///
/// A description of the first divergence: a trace step that is not
/// enabled, a final state without the claimed violation, or a violation
/// kind that carries no trace (`plan`, `state-bound`).
pub fn reexecute_violation(
    arch: ArchClass,
    sync_replication: bool,
    policy: ReplicatePolicy,
    bounds: &ModelBounds,
    v: &Violation,
) -> Result<usize, String> {
    if v.kind == "plan" || v.kind == "state-bound" {
        return Err(format!(
            "violation of kind '{}' carries no replayable trace",
            v.kind
        ));
    }
    let sync = sync_replication && arch == ArchClass::InputBuffered;
    let (base, sub_sw) =
        match v.scenario.rsplit_once("@s") {
            Some((b, sw)) => (
                b,
                Some(sw.parse::<usize>().map_err(|e| {
                    format!("malformed compositional scenario '{}': {e}", v.scenario)
                })?),
            ),
            None => (v.scenario.as_str(), None),
        };
    let scenario = scenarios(usize::MAX)
        .into_iter()
        .find(|s| s.name == base)
        .ok_or_else(|| format!("unknown scenario '{base}'"))?;
    let full = build_plan(&scenario, policy, bounds.worm_chunks)?;
    let plan = match sub_sw {
        None => full,
        Some(sw) => {
            crate::compose::decompose(&full)
                .into_iter()
                .find(|s| s.sw == sw)
                .ok_or_else(|| format!("scenario '{base}' has no sub-plan at s{sw}"))?
                .plan
        }
    };
    let ctx = Ctx::new(base, &plan, arch, sync, bounds);
    let mut state = ctx.initial();
    for (i, step) in v.trace.iter().enumerate() {
        let label = Label::from_op(step.op);
        state = ctx
            .apply_label(&state, label)
            .ok_or_else(|| format!("trace step {} ('{}') is not enabled", i + 1, step.label))?;
    }
    let ok = match v.kind.as_str() {
        "deadlock" => ctx.successors(&state).is_empty() && !ctx.all_done(&state),
        "invariant" => ctx.check_invariants(&state).is_some(),
        "livelock" => !ctx.all_done(&state),
        other => return Err(format!("unknown violation kind '{other}'")),
    };
    if !ok {
        return Err(format!(
            "trace replayed but the final state does not exhibit the claimed {}",
            v.kind
        ));
    }
    Ok(v.trace.len())
}

struct Ctx<'a> {
    plan: &'a Plan,
    arch: ArchClass,
    sync: bool,
    len: u16,
    cq_chunks: usize,
    cq_reserve: usize,
    max_states: usize,
    scenario: &'a str,
}

/// Geometry of a plan: switch count and per-switch port-vector width
/// (widest port index any visit touches, +1).
fn plan_geometry(plan: &Plan) -> (usize, Vec<usize>) {
    let n_sw = plan.visits.iter().map(|v| v.sw + 1).max().unwrap_or(0);
    let mut ports = vec![0usize; n_sw];
    for v in &plan.visits {
        let wide = v
            .branches
            .iter()
            .map(|b| b.out_port + 1)
            .chain([v.in_port + 1])
            .max()
            .unwrap_or(0);
        ports[v.sw] = ports[v.sw].max(wide);
    }
    (n_sw, ports)
}

impl<'a> Ctx<'a> {
    fn new(
        scenario: &'a str,
        plan: &'a Plan,
        arch: ArchClass,
        sync: bool,
        bounds: &ModelBounds,
    ) -> Self {
        Ctx {
            plan,
            arch,
            sync,
            len: bounds.worm_chunks as u16,
            cq_chunks: bounds.cq_chunks,
            cq_reserve: bounds.cq_reserve,
            max_states: bounds.max_states,
            scenario,
        }
    }

    fn n_switches(&self) -> usize {
        plan_geometry(self.plan).0
    }

    fn ports_of(&self, sw: usize) -> usize {
        plan_geometry(self.plan).1[sw]
    }

    fn initial(&self) -> MState {
        let n_sw = self.n_switches();
        let cb = self.arch == ArchClass::CentralBuffer;
        let env = self.plan.has_env();
        MState {
            cq: if cb {
                (0..n_sw)
                    .map(|_| CqState::new(self.cq_chunks, self.cq_reserve))
                    .collect()
            } else {
                Vec::new()
            },
            visits: vec![VState::Pending; self.plan.visits.len()],
            queues: if cb {
                (0..n_sw)
                    .map(|s| vec![VecDeque::new(); self.ports_of(s)])
                    .collect()
            } else {
                Vec::new()
            },
            owners: if cb {
                Vec::new()
            } else {
                (0..n_sw).map(|s| vec![None; self.ports_of(s)]).collect()
            },
            occupants: if cb {
                Vec::new()
            } else {
                (0..n_sw).map(|s| vec![None; self.ports_of(s)]).collect()
            },
            env_fill: if env {
                vec![0; self.plan.visits.len()]
            } else {
                Vec::new()
            },
            env_ready: vec![false; self.plan.env_slots],
        }
    }

    /// Chunks of visit `v`'s packet that have arrived at its switch — the
    /// cut-through bound on what its branches may forward.
    fn fill(&self, state: &MState, v: usize) -> u16 {
        let visit = &self.plan.visits[v];
        if visit.env_fed {
            return state.env_fill[v];
        }
        match visit.parent {
            None => self.len,
            Some((pv, pb)) => match &state.visits[pv] {
                VState::StoredCb { reads } => reads[pb],
                VState::StoredIb { head } => head.branches[pb].read,
                VState::Done => self.len,
                _ => 0,
            },
        }
    }

    fn all_done(&self, state: &MState) -> bool {
        state.visits.iter().all(|v| *v == VState::Done)
    }

    fn label_text(&self, label: Label) -> String {
        let vis = |v: usize| {
            let visit = &self.plan.visits[v];
            format!(
                "worm {} ({}) at s{}",
                visit.worm, self.plan.worm_desc[visit.worm], visit.sw
            )
        };
        match label {
            Label::Inject(v) => format!("inject {}", vis(v)),
            Label::Present(v) => format!("present head of {}", vis(v)),
            Label::Admit(v) => format!("reserve {} chunks for {}", self.len, vis(v)),
            Label::Advance(v, b) => {
                let br = &self.plan.visits[v].branches[b];
                format!(
                    "advance one chunk of {} through port {}",
                    vis(v),
                    br.out_port
                )
            }
            Label::Grant(v, b) => {
                let br = &self.plan.visits[v].branches[b];
                format!("grant output port {} to {}", br.out_port, vis(v))
            }
            Label::AdvanceSync(v) => {
                format!(
                    "advance one chunk of {} on all branches in lock-step",
                    vis(v)
                )
            }
            Label::EnvDeliver(v) => {
                format!("environment delivers one upstream chunk to {}", vis(v))
            }
            Label::EnvAccept(v, b) => {
                let br = &self.plan.visits[v].branches[b];
                format!(
                    "environment accepts the stream of {} through port {}",
                    vis(v),
                    br.out_port
                )
            }
        }
    }

    /// Per-state safety invariants. Returns a violation description.
    fn check_invariants(&self, state: &MState) -> Option<String> {
        if self.arch == ArchClass::CentralBuffer {
            let n_sw = state.cq.len();
            for sw in 0..n_sw {
                // Chunk conservation: capacity = free + waiter-held +
                // Σ (len - min branch read) over admitted packets.
                let stored: usize = state
                    .visits
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| self.plan.visits[*i].sw == sw)
                    .map(|(_, v)| match v {
                        VState::StoredCb { reads } => {
                            usize::from(self.len)
                                - usize::from(*reads.iter().min().expect("branch"))
                        }
                        _ => 0,
                    })
                    .sum();
                if state.cq[sw].used() != stored {
                    return Some(format!(
                        "chunk conservation broken at s{sw}: accounting says {} \
                         chunks hold data, packets occupy {stored}",
                        state.cq[sw].used()
                    ));
                }
            }
            if self.all_done(state) {
                for (sw, cq) in state.cq.iter().enumerate() {
                    if cq.free() != cq.capacity() || cq.waiter_held() != 0 {
                        return Some(format!(
                            "chunk leak at s{sw}: {} of {} chunks free at \
                             quiescence",
                            cq.free(),
                            cq.capacity()
                        ));
                    }
                }
            }
        }
        None
    }

    fn successors(&self, state: &MState) -> Vec<(Label, MState)> {
        let mut out = Vec::new();
        for (v, vs) in state.visits.iter().enumerate() {
            if *vs != VState::Pending || self.plan.visits[v].parent.is_some() {
                continue;
            }
            // Host injection of an entry visit (environment-fed visits of
            // a compositional sub-plan enter the same way).
            match self.arch {
                ArchClass::CentralBuffer => {
                    let mut next = state.clone();
                    next.visits[v] = VState::Waiting;
                    out.push((Label::Inject(v), next));
                }
                ArchClass::InputBuffered => {
                    let visit = &self.plan.visits[v];
                    if state.occupants[visit.sw][visit.in_port].is_none() {
                        let mut next = state.clone();
                        next.occupants[visit.sw][visit.in_port] = Some(v as u32);
                        next.visits[v] = self.fresh_ib(v);
                        out.push((Label::Inject(v), next));
                    }
                }
            }
        }
        match self.arch {
            ArchClass::CentralBuffer => self.cb_successors(state, &mut out),
            ArchClass::InputBuffered => self.ib_successors(state, &mut out),
        }
        self.env_successors(state, &mut out);
        out
    }

    /// Environment transitions of a compositional sub-plan: monotone
    /// upstream chunk delivery and the one-way downstream accept bit.
    /// Both are finite and strictly increasing, so a local deadlock still
    /// surfaces once the environment exhausts its moves.
    fn env_successors(&self, state: &MState, out: &mut Vec<(Label, MState)>) {
        if !self.plan.has_env() {
            return;
        }
        for (v, vs) in state.visits.iter().enumerate() {
            let stored = matches!(vs, VState::StoredCb { .. } | VState::StoredIb { .. });
            if !stored {
                continue;
            }
            let visit = &self.plan.visits[v];
            if visit.env_fed && state.env_fill[v] < self.len {
                let mut next = state.clone();
                next.env_fill[v] += 1;
                out.push((Label::EnvDeliver(v), next));
            }
            for (b, branch) in visit.branches.iter().enumerate() {
                let Target::Env(slot) = branch.target else {
                    continue;
                };
                if !state.env_ready[slot] {
                    let mut next = state.clone();
                    next.env_ready[slot] = true;
                    out.push((Label::EnvAccept(v, b), next));
                }
            }
        }
    }

    fn fresh_ib(&self, v: usize) -> VState {
        VState::StoredIb {
            head: IbHeadState::new(
                self.len,
                self.plan.visits[v].branches.iter().map(|b| b.out_port),
            ),
        }
    }

    fn cb_successors(&self, state: &MState, out: &mut Vec<(Label, MState)>) {
        // Present: the head branch of an output list wakes its pending
        // downstream visit.
        for queues in &state.queues {
            for queue in queues {
                let Some(&(v, b)) = queue.front() else {
                    continue;
                };
                let Target::Visit(w) = self.plan.visits[v as usize].branches[b as usize].target
                else {
                    continue;
                };
                if state.visits[w] == VState::Pending {
                    let mut next = state.clone();
                    next.visits[w] = VState::Waiting;
                    out.push((Label::Present(w), next));
                }
            }
        }
        // Admit: a waiting visit retries its full-packet reservation.
        for (v, vs) in state.visits.iter().enumerate() {
            if *vs != VState::Waiting {
                continue;
            }
            let visit = &self.plan.visits[v];
            let mut cq = state.cq[visit.sw].clone();
            let granted = cq.try_reserve(visit.in_port, usize::from(self.len), visit.descending);
            if !granted && cq == state.cq[visit.sw] {
                continue; // pure retry-later, not a distinct transition
            }
            let mut next = state.clone();
            next.cq[visit.sw] = cq;
            if granted {
                next.visits[v] = VState::StoredCb {
                    reads: vec![0; visit.branches.len()],
                };
                for (b, branch) in visit.branches.iter().enumerate() {
                    next.queues[visit.sw][branch.out_port].push_back((v as u32, b as u8));
                }
            }
            out.push((Label::Admit(v), next));
        }
        // Advance: the head branch of an output list forwards one chunk.
        for (sw, queues) in state.queues.iter().enumerate() {
            for queue in queues {
                let Some(&(v32, b8)) = queue.front() else {
                    continue;
                };
                let (v, b) = (v32 as usize, usize::from(b8));
                let VState::StoredCb { reads } = &state.visits[v] else {
                    continue;
                };
                if reads[b] >= self.len || reads[b] >= self.fill(state, v) {
                    continue;
                }
                let branch = &self.plan.visits[v].branches[b];
                match branch.target {
                    Target::Visit(w) => {
                        if !matches!(state.visits[w], VState::StoredCb { .. }) {
                            continue; // downstream not admitted yet
                        }
                    }
                    Target::Env(slot) => {
                        if !state.env_ready[slot] {
                            continue; // environment has not accepted yet
                        }
                    }
                    Target::Host(_) => {}
                }
                let mut next = state.clone();
                let VState::StoredCb { reads } = &mut next.visits[v] else {
                    unreachable!()
                };
                let old_min = *reads.iter().min().expect("branch");
                reads[b] += 1;
                let done = reads[b] == self.len;
                let new_min = *reads.iter().min().expect("branch");
                if new_min == self.len {
                    next.visits[v] = VState::Done;
                }
                for _ in old_min..new_min {
                    next.cq[sw].release_chunk();
                }
                if done {
                    next.queues[sw][branch.out_port].pop_front();
                }
                out.push((Label::Advance(v, b), next));
            }
        }
    }

    fn ib_successors(&self, state: &MState, out: &mut Vec<(Label, MState)>) {
        for (v, vs) in state.visits.iter().enumerate() {
            let VState::StoredIb { head } = vs else {
                continue;
            };
            let visit = &self.plan.visits[v];
            // Grant: an undone branch wins its free output port.
            for (b, bs) in head.branches.iter().enumerate() {
                if bs.granted || bs.done {
                    continue;
                }
                if state.owners[visit.sw][bs.port].is_some() {
                    continue;
                }
                let mut next = state.clone();
                next.owners[visit.sw][bs.port] = Some((v as u32, b as u8));
                next.ib_head(v).grant(b);
                out.push((Label::Grant(v, b), next));
            }
            let fill = self.fill(state, v);
            if self.sync {
                // Lock-step replication: every branch must hold its grant
                // and every downstream must be able to accept the chunk.
                let all_granted = head.branches.iter().all(|b| b.granted && !b.done);
                let read = head.branches[0].read;
                if !all_granted || read >= self.len || read >= fill {
                    continue;
                }
                let Some(mut next) = self.ib_present_targets(state, v, usize::MAX) else {
                    continue;
                };
                let done_ports = next.ib_head(v).read_lockstep();
                self.ib_settle(&mut next, v, &done_ports);
                out.push((Label::AdvanceSync(v), next));
            } else {
                // Asynchronous replication: granted branches stream
                // independently.
                for (b, bs) in head.branches.iter().enumerate() {
                    if !bs.granted || bs.done || bs.read >= self.len || bs.read >= fill {
                        continue;
                    }
                    let Some(mut next) = self.ib_present_targets(state, v, b) else {
                        continue;
                    };
                    if next.ib_head(v).read_flit(b) {
                        self.ib_settle(&mut next, v, &[bs.port]);
                    }
                    out.push((Label::Advance(v, b), next));
                }
            }
        }
    }

    /// Clones `state` with every pending downstream target of visit `v`
    /// presented (branch `only`, or all branches when `only == usize::MAX`).
    /// Returns `None` if a needed input buffer is occupied by another worm
    /// or a needed environment stub has not accepted yet.
    fn ib_present_targets(&self, state: &MState, v: usize, only: usize) -> Option<MState> {
        let mut next = state.clone();
        for (b, branch) in self.plan.visits[v].branches.iter().enumerate() {
            if only != usize::MAX && b != only {
                continue;
            }
            match branch.target {
                Target::Host(_) => {}
                Target::Env(slot) => {
                    if !state.env_ready[slot] {
                        return None;
                    }
                }
                Target::Visit(w) => match &state.visits[w] {
                    VState::Pending => {
                        let wv = &self.plan.visits[w];
                        if next.occupants[wv.sw][wv.in_port].is_some() {
                            return None;
                        }
                        next.occupants[wv.sw][wv.in_port] = Some(w as u32);
                        next.visits[w] = self.fresh_ib(w);
                    }
                    VState::StoredIb { .. } => {}
                    // The head FIFO holds the whole packet, so a
                    // downstream visit can never complete before its
                    // feeder.
                    VState::Waiting | VState::StoredCb { .. } | VState::Done => unreachable!(),
                },
            }
        }
        Some(next)
    }

    /// Bookkeeping after a read of visit `v`: frees the output ports of
    /// the branches that just finished and retires the visit, releasing
    /// its input buffer, once every branch is done.
    fn ib_settle(&self, next: &mut MState, v: usize, done_ports: &[usize]) {
        let visit = &self.plan.visits[v];
        for &port in done_ports {
            next.owners[visit.sw][port] = None;
        }
        if next.ib_head(v).all_done() {
            next.occupants[visit.sw][visit.in_port] = None;
            next.visits[v] = VState::Done;
        }
    }

    /// Applies one labeled transition to a state, via the same successor
    /// enumeration the explorer uses. `None` when the label is not
    /// enabled.
    fn apply_label(&self, state: &MState, label: Label) -> Option<MState> {
        self.successors(state)
            .into_iter()
            .find(|(l, _)| *l == label)
            .map(|(_, s)| s)
    }

    fn violation(&self, kind: &str, detail: String, labels: Vec<Label>) -> Box<Violation> {
        Box::new(Violation {
            scenario: self.scenario.to_string(),
            kind: kind.to_string(),
            detail,
            trace: labels
                .into_iter()
                .map(|l| TraceStep {
                    label: self.label_text(l),
                    op: l.op(),
                })
                .collect(),
        })
    }

    fn explore(&self) -> Result<ScenarioStats, Box<Violation>> {
        let initial = self.initial();
        let mut ids: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut states: Vec<MState> = vec![initial.clone()];
        let mut parents: Vec<Option<(usize, Label)>> = vec![None];
        let mut adj: Vec<Vec<usize>> = Vec::new();
        ids.insert(encode_state(&initial), 0);
        let mut stats = ScenarioStats::default();

        let trace_to = |parents: &[Option<(usize, Label)>], mut id: usize| {
            let mut labels = Vec::new();
            while let Some((p, label)) = parents[id] {
                labels.push(label);
                id = p;
            }
            labels.reverse();
            labels
        };

        // `states` is the BFS queue: ids are assigned in discovery order
        // and expanded in id order, so `adj[id]` belongs to state `id`.
        let mut id = 0;
        while id < states.len() {
            if let Some(detail) = self.check_invariants(&states[id]) {
                return Err(self.violation("invariant", detail, trace_to(&parents, id)));
            }
            let succs = self.successors(&states[id]);
            if succs.is_empty() && !self.all_done(&states[id]) {
                let undelivered: Vec<String> = states[id]
                    .visits
                    .iter()
                    .enumerate()
                    .filter(|(_, vs)| **vs != VState::Done)
                    .map(|(v, _)| {
                        let visit = &self.plan.visits[v];
                        format!("worm {} at s{}", visit.worm, visit.sw)
                    })
                    .collect();
                return Err(self.violation(
                    "deadlock",
                    format!(
                        "no transition enabled but packets are undelivered \
                         ({}): an accepted packet can no longer be completely \
                         buffered",
                        undelivered.join(", ")
                    ),
                    trace_to(&parents, id),
                ));
            }
            let mut edges = Vec::with_capacity(succs.len());
            for (label, next) in succs {
                stats.transitions += 1;
                let key = encode_state(&next);
                let next_id = match ids.get(&key) {
                    Some(&n) => n,
                    None => {
                        let n = states.len();
                        if n >= self.max_states {
                            return Err(self.violation(
                                "state-bound",
                                format!(
                                    "exploration exceeded the {}-state bound; \
                                     raise ModelBounds::max_states",
                                    self.max_states
                                ),
                                Vec::new(),
                            ));
                        }
                        states.push(next);
                        ids.insert(key, n);
                        parents.push(Some((id, label)));
                        n
                    }
                };
                edges.push(next_id);
            }
            adj.push(edges);
            id += 1;
        }

        // Buffered-eventually liveness: every terminal SCC must be the
        // all-delivered quiescent state. (Deadlocks are caught above; this
        // rules out livelocks — cycles no path escapes.) Every transition
        // strictly increases a bounded progress measure, so the graph is a
        // DAG and this pass is a defensive re-check rather than the
        // primary argument.
        let sccs = crate::scc::tarjan_sccs(states.len(), &adj);
        for component in &sccs {
            let escapes = component
                .iter()
                .any(|&s| adj[s].iter().any(|t| !component.contains(t)));
            if escapes {
                continue;
            }
            let bad = component.iter().find(|&&s| !self.all_done(&states[s]));
            if let Some(&s) = bad {
                return Err(self.violation(
                    "livelock",
                    format!(
                        "terminal SCC of {} state(s) with undelivered packets: \
                         the fabric cycles without making progress",
                        component.len()
                    ),
                    trace_to(&parents, s),
                ));
            }
        }

        stats.states = states.len();
        Ok(stats)
    }
}

fn push(out: &mut Vec<u8>, x: usize) {
    out.extend_from_slice(&(x as u32).to_le_bytes());
}

fn encode_vstate(out: &mut Vec<u8>, vs: &VState) {
    match vs {
        VState::Pending => out.push(0),
        VState::Waiting => out.push(1),
        VState::StoredCb { reads } => {
            out.push(2);
            push(out, reads.len());
            for &r in reads {
                push(out, usize::from(r));
            }
        }
        VState::StoredIb { head } => {
            out.push(3);
            push(out, usize::from(head.total));
            push(out, usize::from(head.freed));
            push(out, head.branches.len());
            for b in &head.branches {
                push(out, b.port);
                push(out, usize::from(b.read));
                out.push(u8::from(b.granted));
                out.push(u8::from(b.done));
            }
        }
        VState::Done => out.push(4),
    }
}

/// Injective byte encoding of a model state — the explorer's dedup key.
fn encode_state(s: &MState) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    push(&mut out, s.visits.len());
    for vs in &s.visits {
        encode_vstate(&mut out, vs);
    }
    push(&mut out, s.cq.len());
    for cq in &s.cq {
        push(&mut out, cq.free());
        for slot in cq.waiters() {
            match slot {
                None => out.push(0),
                Some(r) => {
                    out.push(1);
                    push(&mut out, r.input);
                    push(&mut out, r.need);
                    push(&mut out, r.got);
                }
            }
        }
    }
    push(&mut out, s.queues.len());
    for qs in &s.queues {
        push(&mut out, qs.len());
        for queue in qs {
            push(&mut out, queue.len());
            for &(v, b) in queue {
                push(&mut out, v as usize);
                out.push(b);
            }
        }
    }
    push(&mut out, s.owners.len());
    for os in &s.owners {
        push(&mut out, os.len());
        for o in os {
            match o {
                None => out.push(0),
                Some((v, b)) => {
                    out.push(1);
                    push(&mut out, *v as usize);
                    out.push(*b);
                }
            }
        }
    }
    push(&mut out, s.occupants.len());
    for os in &s.occupants {
        push(&mut out, os.len());
        for o in os {
            match o {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    push(&mut out, *v as usize);
                }
            }
        }
    }
    push(&mut out, s.env_fill.len());
    for &f in &s.env_fill {
        push(&mut out, usize::from(f));
    }
    push(&mut out, s.env_ready.len());
    for &r in &s.env_ready {
        out.push(u8::from(r));
    }
    out
}

/// Property-test probes over the checker's internals, exposed for the
/// `proptests` integration suite. Not part of the public API.
#[doc(hidden)]
pub mod testkit {
    use super::*;
    use netsim::rng::SimRng;

    /// A random 1–3-leaf tree fabric with 1–3 random worms.
    fn random_fabric(rng: &mut SimRng) -> Scenario {
        let leaves = 1 + rng.below(3);
        let per_leaf: Vec<usize> = (0..leaves)
            .map(|i| if i == 0 { 2 } else { 1 + rng.below(2) })
            .collect();
        let n_hosts: usize = per_leaf.iter().sum();
        let mut b = TopologyBuilder::new(n_hosts);
        let root = b.add_switch(leaves, 0);
        let mut next_host = 0u32;
        for (i, &nh) in per_leaf.iter().enumerate() {
            let leaf = b.add_switch(nh + 1, 1);
            for p in 0..nh {
                b.attach_host(NodeId(next_host), leaf, p);
                next_host += 1;
            }
            b.connect(leaf, nh, root, i);
        }
        let all: Vec<u32> = (0..next_host).collect();
        let n_worms = 1 + rng.below(3);
        let mut worms = Vec::new();
        for _ in 0..n_worms {
            let src = all[rng.below(all.len())];
            let others: Vec<u32> = all.iter().copied().filter(|&h| h != src).collect();
            let kind = if others.len() == 1 || rng.chance(0.5) {
                WormKind::Unicast(NodeId(others[rng.below(others.len())]))
            } else {
                let mut dests = others.clone();
                rng.shuffle(&mut dests);
                let take = 2 + rng.below(dests.len() - 1);
                mcast(n_hosts, &dests[..take.min(dests.len())])
            };
            worms.push((NodeId(src), kind));
        }
        Scenario {
            name: "random-fabric",
            topo: b.build(),
            n_switches: leaves + 1,
            worms,
        }
    }

    /// Generates a random fabric + worm set, then asserts that the
    /// oracle and compositional mode reach the same verdict, and the same
    /// violation kind, on it for both architectures with synchronous
    /// replication off and on. State counts are not compared: a
    /// compositional sub-plan can explore more states than the joint
    /// space (its environment is nondeterministic). Returns the number of
    /// checks performed.
    pub fn random_scenario_probe(seed: u64) -> usize {
        let mut rng = SimRng::new(seed ^ 0x5CE0_0BE5);
        let scenario = random_fabric(&mut rng);
        let bounds = ModelBounds {
            max_switches: 8,
            max_states: 200_000,
            ..ModelBounds::default()
        };
        let plan =
            build_plan(&scenario, ReplicatePolicy::ReturnOnly, 2).expect("tree fabrics route");
        let mut checked = 0;
        for arch in [ArchClass::CentralBuffer, ArchClass::InputBuffered] {
            for sync in [false, true] {
                let oracle = run_plan(scenario.name, &plan, arch, sync, &bounds);
                let comp =
                    crate::compose::check_scenario(scenario.name, &plan, arch, sync, &bounds);
                match (&oracle, &comp) {
                    (Ok(_), Ok(_)) => {}
                    (Err(o), Err(c)) => assert_eq!(
                        o.kind, c.kind,
                        "violation kinds must agree ({arch:?}, sync={sync}): {o} vs {c}"
                    ),
                    (o, c) => panic!(
                        "oracle and compositional mode disagree ({arch:?}, sync={sync}) \
                         on {:?}: {:?} vs {:?}",
                        plan.worm_desc,
                        o.as_ref().map(|s| s.states).map_err(|v| &v.kind),
                        c.as_ref().map(|s| s.states).map_err(|v| &v.kind),
                    ),
                }
                checked += 1;
            }
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_follow_the_real_routing_tables() {
        let scenario = &scenarios(2)[1]; // pair-up-down
        let plan = build_plan(scenario, ReplicatePolicy::ReturnOnly, 2).expect("plan");
        // Worm 0 (h0 -> {2,3}): ascends s0 then replicates at s1.
        let entry = plan.entries[0];
        assert_eq!(plan.visits[entry].sw, 0);
        assert!(!plan.visits[entry].descending);
        assert_eq!(plan.visits[entry].branches.len(), 1);
        let Target::Visit(root) = plan.visits[entry].branches[0].target else {
            panic!("worm 0 must continue to the root");
        };
        assert_eq!(plan.visits[root].sw, 1);
        assert_eq!(plan.visits[root].branches.len(), 2);
        assert!(plan.visits[root]
            .branches
            .iter()
            .all(|b| matches!(b.target, Target::Host(_))));
        // Worm 1 (h2 -> {0,1}) descends into s0: the revisit is flagged
        // descending and draws from the reserve.
        let w1root = plan.entries[1];
        let Target::Visit(leaf) = plan.visits[w1root].branches[0].target else {
            panic!("worm 1 must descend to the leaf");
        };
        assert!(plan.visits[leaf].descending);
    }

    #[test]
    fn return_only_revisits_the_source_switch() {
        let scenario = &scenarios(2)[2]; // pair-replicate-revisit
        let plan = build_plan(scenario, ReplicatePolicy::ReturnOnly, 2).expect("plan");
        // h0 -> {1,2,3} under ReturnOnly: s0 (ascending) -> s1 -> s0
        // (descending) — three visits, two of them at s0.
        let w0: Vec<_> = plan.visits.iter().filter(|v| v.worm == 0).collect();
        assert_eq!(w0.len(), 3);
        assert_eq!(w0.iter().filter(|v| v.sw == 0).count(), 2);
        assert_eq!(w0.iter().filter(|v| v.descending).count(), 1);
    }

    #[test]
    fn central_buffer_verifies_at_the_two_switch_bound() {
        let out = check_model(
            ArchClass::CentralBuffer,
            false,
            ReplicatePolicy::ReturnOnly,
            &ModelBounds::default(),
        );
        let CheckOutcome::Verified(stats) = out else {
            panic!("central buffer must verify: {out:?}");
        };
        assert_eq!(stats.scenarios, 3);
        assert!(stats.states > 100, "exploration too shallow: {stats:?}");
    }

    #[test]
    fn input_buffered_async_verifies() {
        let out = check_model(
            ArchClass::InputBuffered,
            false,
            ReplicatePolicy::ReturnOnly,
            &ModelBounds::default(),
        );
        assert!(out.is_verified(), "{out:?}");
    }

    #[test]
    fn sync_replication_deadlocks_with_minimal_counterexample() {
        let out = check_model(
            ArchClass::InputBuffered,
            true,
            ReplicatePolicy::ReturnOnly,
            &ModelBounds::default(),
        );
        let CheckOutcome::Violated(v) = out else {
            panic!("lock-step replication must deadlock");
        };
        assert_eq!(v.kind, "deadlock");
        assert_eq!(v.scenario, "single-crossed-mcast");
        // Minimal trace: inject both worms, then the two crossed grants.
        assert_eq!(v.trace.len(), 4, "{v}");
        assert!(
            v.trace
                .iter()
                .filter(|s| s.label.starts_with("grant"))
                .count()
                == 2,
            "{v}"
        );
    }

    #[test]
    fn sync_flag_is_ignored_for_the_central_buffer() {
        let out = check_model(
            ArchClass::CentralBuffer,
            true,
            ReplicatePolicy::ReturnOnly,
            &ModelBounds::default(),
        );
        assert!(out.is_verified(), "{out:?}");
    }

    #[test]
    fn forward_and_return_policy_also_verifies() {
        for arch in [ArchClass::CentralBuffer, ArchClass::InputBuffered] {
            let out = check_model(
                arch,
                false,
                ReplicatePolicy::ForwardAndReturn,
                &ModelBounds::default(),
            );
            assert!(out.is_verified(), "{arch:?}: {out:?}");
        }
    }

    #[test]
    fn quad_fabric_verifies_when_bounds_allow() {
        let bounds = ModelBounds {
            max_switches: 4,
            ..ModelBounds::default()
        };
        let out = check_model(
            ArchClass::CentralBuffer,
            false,
            ReplicatePolicy::ReturnOnly,
            &bounds,
        );
        let CheckOutcome::Verified(stats) = out else {
            panic!("quad fabric must verify");
        };
        assert_eq!(stats.scenarios, 4);
    }

    #[test]
    fn state_bound_is_reported_not_overrun() {
        let bounds = ModelBounds {
            max_states: 10,
            ..ModelBounds::default()
        };
        let out = check_model(
            ArchClass::CentralBuffer,
            false,
            ReplicatePolicy::ReturnOnly,
            &bounds,
        );
        let CheckOutcome::Violated(v) = out else {
            panic!("a 10-state bound cannot cover the space");
        };
        assert_eq!(v.kind, "state-bound");
    }

    // --- Modes --------------------------------------------------------

    #[test]
    fn auto_and_compositional_verify_the_16_switch_tier() {
        // At 16 switches the joint space is ~5^15 states, far past this
        // budget; auto (compositional beyond 4 switches) and compositional
        // mode prove it per switch.
        let bounds = ModelBounds {
            max_switches: 16,
            max_states: 50_000,
            ..ModelBounds::default()
        };
        for mode in [ModelMode::Auto, ModelMode::Compositional] {
            let out = check_model_opts(
                ArchClass::CentralBuffer,
                false,
                ReplicatePolicy::ReturnOnly,
                &bounds,
                &ModelOptions {
                    mode,
                    ..ModelOptions::default()
                },
            );
            let CheckOutcome::Verified(stats) = out else {
                panic!("{mode:?} must verify the 16-switch tier: {out:?}");
            };
            assert!(
                stats.states * 10 <= bounds.max_states,
                "{mode:?}: ≥10× under the budget: {stats:?}"
            );
        }
    }

    #[test]
    fn compositional_mode_finds_the_sync_deadlock_locally() {
        let out = check_model_opts(
            ArchClass::InputBuffered,
            true,
            ReplicatePolicy::ReturnOnly,
            &ModelBounds::default(),
            &ModelOptions {
                mode: ModelMode::Compositional,
                ..ModelOptions::default()
            },
        );
        let CheckOutcome::Violated(v) = out else {
            panic!("compositional mode must still find the crossed-grant deadlock");
        };
        assert_eq!(v.kind, "deadlock");
        assert_eq!(v.scenario, "single-crossed-mcast@s0");
        let replayed = reexecute_violation(
            ArchClass::InputBuffered,
            true,
            ReplicatePolicy::ReturnOnly,
            &ModelBounds::default(),
            &v,
        )
        .expect("sub-scenario trace must re-execute");
        assert_eq!(replayed, v.trace.len());
    }

    #[test]
    fn compositional_mode_verifies_the_safe_architectures() {
        for arch in [ArchClass::CentralBuffer, ArchClass::InputBuffered] {
            let out = check_model_opts(
                arch,
                false,
                ReplicatePolicy::ReturnOnly,
                &ModelBounds::default(),
                &ModelOptions {
                    mode: ModelMode::Compositional,
                    ..ModelOptions::default()
                },
            );
            assert!(out.is_verified(), "{arch:?}: {out:?}");
        }
    }

    #[test]
    fn counterexamples_reexecute_against_the_rebuilt_model() {
        let out = check_model(
            ArchClass::InputBuffered,
            true,
            ReplicatePolicy::ReturnOnly,
            &ModelBounds::default(),
        );
        let CheckOutcome::Violated(v) = out else {
            panic!("expected the sync deadlock");
        };
        let replayed = reexecute_violation(
            ArchClass::InputBuffered,
            true,
            ReplicatePolicy::ReturnOnly,
            &ModelBounds::default(),
            &v,
        )
        .expect("trace must re-execute");
        assert_eq!(replayed, 4);
    }

    #[test]
    fn accumulator_deadlock_trace_reexecutes() {
        // cq_chunks 2 / reserve 1: the ascending pool is 1 chunk, a
        // 2-chunk worm can never be admitted — its accumulator sweeps the
        // pool and starves everyone. A genuine deadlock whose trace
        // re-executes step by step against the rebuilt model.
        let bounds = ModelBounds {
            cq_chunks: 2,
            cq_reserve: 1,
            ..ModelBounds::default()
        };
        let out = check_model(
            ArchClass::CentralBuffer,
            false,
            ReplicatePolicy::ReturnOnly,
            &bounds,
        );
        let CheckOutcome::Violated(v) = out else {
            panic!("undersized pool must deadlock");
        };
        assert_eq!(v.kind, "deadlock");
        let steps = reexecute_violation(
            ArchClass::CentralBuffer,
            false,
            ReplicatePolicy::ReturnOnly,
            &bounds,
            &v,
        )
        .expect("trace must re-execute");
        assert_eq!(steps, v.trace.len());
    }

    /// Pins `(scenarios, states, transitions)` of every mode the CLI
    /// offers, so a change to the transition code the checker explores
    /// shows as a changed exploration, not only as a changed verdict.
    #[test]
    fn exploration_counts_are_pinned() {
        use ModelMode::{Auto, Compositional, Exact};
        use ReplicatePolicy::{ForwardAndReturn, ReturnOnly};
        const CB: ArchClass = ArchClass::CentralBuffer;
        const IB: ArchClass = ArchClass::InputBuffered;
        let opts = |mode| ModelOptions {
            mode,
            ..ModelOptions::default()
        };
        let bounds = |max_switches| ModelBounds {
            max_switches,
            ..ModelBounds::default()
        };
        let cases = [
            (CB, ReturnOnly, Exact, 2, (3, 2427, 7016)),
            (CB, ReturnOnly, Exact, 4, (4, 3130, 8924)),
            (CB, ReturnOnly, Compositional, 2, (3, 1798, 4573)),
            (CB, ReturnOnly, Compositional, 4, (4, 2093, 5187)),
            (CB, ReturnOnly, Compositional, 16, (6, 2103, 5195)),
            (CB, ReturnOnly, Auto, 2, (3, 2427, 7016)),
            (CB, ReturnOnly, Auto, 4, (4, 3130, 8924)),
            (CB, ReturnOnly, Auto, 16, (6, 3140, 8932)),
            (CB, ForwardAndReturn, Exact, 2, (3, 2137, 6055)),
            (CB, ForwardAndReturn, Exact, 4, (4, 2840, 7963)),
            (CB, ForwardAndReturn, Compositional, 2, (3, 1307, 3234)),
            (CB, ForwardAndReturn, Compositional, 4, (4, 1602, 3848)),
            (CB, ForwardAndReturn, Compositional, 16, (6, 1612, 3856)),
            (CB, ForwardAndReturn, Auto, 2, (3, 2137, 6055)),
            (CB, ForwardAndReturn, Auto, 4, (4, 2840, 7963)),
            (CB, ForwardAndReturn, Auto, 16, (6, 2850, 7971)),
            (IB, ReturnOnly, Exact, 2, (3, 4628, 16535)),
            (IB, ReturnOnly, Exact, 4, (4, 6309, 22685)),
            (IB, ReturnOnly, Compositional, 2, (3, 3018, 9541)),
            (IB, ReturnOnly, Compositional, 4, (4, 3694, 11517)),
            (IB, ReturnOnly, Compositional, 16, (6, 3704, 11525)),
            (IB, ReturnOnly, Auto, 2, (3, 4628, 16535)),
            (IB, ReturnOnly, Auto, 4, (4, 6309, 22685)),
            (IB, ReturnOnly, Auto, 16, (6, 6319, 22693)),
            (IB, ForwardAndReturn, Exact, 2, (3, 4711, 17285)),
            (IB, ForwardAndReturn, Exact, 4, (4, 6392, 23435)),
            (IB, ForwardAndReturn, Compositional, 2, (3, 2369, 7344)),
            (IB, ForwardAndReturn, Compositional, 4, (4, 3045, 9320)),
            (IB, ForwardAndReturn, Compositional, 16, (6, 3055, 9328)),
            (IB, ForwardAndReturn, Auto, 2, (3, 4711, 17285)),
            (IB, ForwardAndReturn, Auto, 4, (4, 6392, 23435)),
            (IB, ForwardAndReturn, Auto, 16, (6, 6402, 23443)),
        ];
        for (arch, policy, mode, max_switches, (scenarios, states, transitions)) in cases {
            let out = check_model_opts(arch, false, policy, &bounds(max_switches), &opts(mode));
            let want = ModelStats {
                scenarios,
                states,
                transitions,
            };
            assert_eq!(
                out,
                CheckOutcome::Verified(want),
                "{arch:?} {policy:?} {mode:?} at {max_switches} switches"
            );
        }
        // Synchronous replication: the 4-step crossed-grant counterexample.
        for mode in [Exact, Auto] {
            let out = check_model_opts(IB, true, ReturnOnly, &bounds(2), &opts(mode));
            let CheckOutcome::Violated(v) = out else {
                panic!("{mode:?}: lock-step replication must deadlock");
            };
            assert_eq!(
                (v.kind.as_str(), v.scenario.as_str(), v.trace.len()),
                ("deadlock", "single-crossed-mcast", 4),
                "{mode:?}: {v}"
            );
        }
    }

    #[test]
    fn scale_scenarios_are_gated_by_max_switches() {
        assert_eq!(scenarios(2).len(), 3);
        assert_eq!(scenarios(4).len(), 4);
        assert_eq!(scenarios(8).len(), 5);
        assert_eq!(scenarios(16).len(), 6);
    }
}
