//! The deterministic cycle engine.
//!
//! The engine owns all [`Link`]s and all [`Component`]s (switches, hosts).
//! Every cycle it (1) advances the links with timed state (fault streams
//! every cycle, scripted outages at their window edges), then (2) ticks
//! each awake component once, in
//! registration order. Flits become visible by arrival time and returned
//! credits fold when the sender asks, so no other link is visited.
//! Because links impose at least one cycle of delay, a component never
//! observes another component's same-cycle output, so the tick order is
//! not semantically observable — runs are deterministic and
//! order-independent.
//!
//! ## Quiescence scheduling
//!
//! The cycle loop skips every component that declared, after its last
//! tick, that ticking it is a no-op until some cycle or until input
//! arrives ([`Component::sleep_until`]; DESIGN.md §13). A schedule compiled
//! lazily at the first step holds `u64` words of awake bits, which the tick
//! phase walks set bit by set bit, and one min-heap of
//! `(wake_at, component)` events: a sleeping component wakes at its own
//! timer, at the arrival of the earliest flit already on its input links,
//! or — through wake-on-send, which finds the receiver in the engine's
//! link→receiver map — at the arrival of a flit sent to it while it
//! sleeps.
//!
//! The engine also keeps, per component, a mask of the input ports whose
//! links hold flits ([`PortIo::occupied_inputs`]), so receives, switch
//! input passes and arrival scans visit only those.
//!
//! The same loop keeps its other per-cycle bookkeeping off the hot path:
//! a scripted outage window puts its two edges on an edge heap, and the
//! torn-install audit recomputes its verdict only after an
//! [`EpochChanges`] counter moves.
//!
//! The plain loop that ticks every component every cycle, polls every
//! scripted link and recomputes the audit every cycle survives only as the
//! reference the schedule is tested and measured against
//! ([`reference_loop`]); both produce bit-identical runs.

use crate::fault::{FaultCounters, FaultPlan};
use crate::flit::Flit;
use crate::ids::LinkId;
use crate::link::{Link, LinkEvent};
use crate::Cycle;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

/// A simulated hardware component (switch, host NIC, ...).
///
/// Implementations interact with the world exclusively through the
/// [`PortIo`] handed to [`Component::tick`], which exposes the component's
/// bound input and output links.
pub trait Component {
    /// Advances the component by one cycle.
    fn tick(&mut self, now: Cycle, io: &mut PortIo<'_>);

    /// Called after every scheduled tick at `now`: `Some(c)` declares that
    /// ticks in `(now, c)` are provably no-ops unless input arrives on one
    /// of the component's links, so the engine may skip them;
    /// `Some(Cycle::MAX)` means "until input arrives". `None` (the
    /// default, always safe) keeps the component ticking next cycle.
    ///
    /// The engine wakes a sleeper at `c`, at the arrival of the earliest
    /// flit on its input links, or on an explicit [`Engine::wake_component`]
    /// / [`Engine::wake_all`] — which callers must issue whenever they
    /// change state the component reads outside its own tick. A
    /// component may be woken early; such ticks must stay no-ops.
    /// Implementations that sleep must keep any per-cycle accounting
    /// *skip-invariant*: derive it from the gap since their last tick
    /// rather than counting ticks (see the switch implementations and
    /// [`Component::flush`]).
    fn sleep_until(&mut self, now: Cycle) -> Option<Cycle> {
        let _ = now;
        None
    }

    /// Catches per-cycle accounting up to `now` after a stretch of
    /// skipped ticks, without advancing any simulation state.
    ///
    /// [`Engine::flush`] calls this on sleeping components before stats
    /// are read at the end of a run. The default is a no-op.
    fn flush(&mut self, now: Cycle) {
        let _ = now;
    }

    /// Epoch bookkeeping of a component participating in two-phase
    /// routing-table installs (DESIGN.md §15): the epoch of its active
    /// table set plus any commit armed but not yet activated. `None`
    /// (the default) opts the component out of the torn-install audit —
    /// hosts and test fixtures never appear in it. Whoever changes either
    /// value must bump the engine's [`Engine::epoch_changes`] counter, or
    /// the scheduled loop keeps its previous verdict.
    fn epoch_status(&self) -> Option<EpochStatus> {
        None
    }
}

/// One component's view of the two-phase table-install protocol, as
/// reported through [`Component::epoch_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStatus {
    /// Epoch of the table set the component currently decodes against
    /// (0 = the build-time tables).
    pub committed: u64,
    /// Epoch armed for activation (committed by the coordinator) but not
    /// yet swapped in — the component is mid-activation, typically
    /// waiting to find itself empty.
    pub pending: Option<u64>,
}

/// Change counter of the two-phase install state behind
/// [`Component::epoch_status`]. The engine hands out clones of its own
/// ([`Engine::epoch_changes`]); every change to a component's committed or
/// armed epoch bumps it, and the scheduled loop recomputes the
/// torn-install verdict only after the count moves.
#[derive(Debug, Clone, Default)]
pub struct EpochChanges(Rc<Cell<u64>>);

impl EpochChanges {
    /// Records one change of some component's committed or armed epoch.
    pub fn bump(&self) {
        self.0.set(self.0.get().wrapping_add(1));
    }

    /// Changes recorded so far (wrapping).
    pub fn count(&self) -> u64 {
        self.0.get()
    }
}

/// Running result of the per-cycle torn-install audit (see
/// [`Engine::enable_epoch_audit`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EpochAudit {
    /// Cycles in which committed epochs diverged across components with
    /// no armed commit explaining the laggard — a *torn* install: part of
    /// the fabric decodes against tables the analyzer never vetted in
    /// that combination. Must stay 0 under a correct two-phase protocol,
    /// crash recovery included.
    pub torn_cycles: u64,
    /// First cycle the audit flagged, for forensics.
    pub first_torn: Option<Cycle>,
    /// Highest committed epoch observed anywhere on the fabric.
    pub max_committed: u64,
}

/// Port bindings of one component: ranges into the engine's flat port
/// arena (`Engine::ports`). Flattening all bindings into one arena keeps
/// the per-cycle component loop on two contiguous arrays instead of
/// chasing a `Vec<Vec<LinkId>>` per component.
#[derive(Debug, Clone, Copy)]
struct Binding {
    in_start: u32,
    in_len: u32,
    out_start: u32,
    out_len: u32,
}

/// Engine-side bookkeeping kept incrementally so the engine never scans
/// all links: the links with timed state (which need
/// [`Link::begin_cycle`]), the occupied-input masks, and O(1)
/// flit-movement counters.
#[derive(Debug, Default)]
struct Ledger {
    /// Indices of the links [`Link::needs_begin_cycle`] holds for: those
    /// [`Engine::install_faults`] gave a fault stream. Every other link
    /// folds returned credits when its sender asks, so sends and credit
    /// returns never touch this list.
    timed: Vec<u32>,
    /// Reference loop only: indices of the links [`Engine::script_outage`]
    /// gave windows, polled every cycle.
    scripted: Vec<u32>,
    /// Scheduled loop only: pending `(cycle, link)` window edges of
    /// scripted links, the only cycles at which a scripted link's down
    /// state can change apart from forced toggles, which publish their
    /// own edges. A scripted link advances only when one matures.
    edges: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Link index → the `(component, input port)` receiving it;
    /// component `u32::MAX` while no component has bound the link.
    receiver: Vec<(u32, u32)>,
    /// Per component, bit `p` is set exactly while input port `p`'s link
    /// has flits in flight (`Link::in_flight() > 0`): set on send,
    /// cleared when the link's flit queue drains — by a receive or by
    /// evaporation of condemned flits. Receives, input passes and arrival
    /// scans skip clear bits without touching the `Link`.
    occupied: Vec<u64>,
    /// Flits ever sent over any link (see [`Engine::total_flit_moves`]).
    total_moves: u64,
    /// Flits currently propagating inside links.
    in_flight: usize,
}

impl Ledger {
    /// Clears the receiver's bit for link `idx` if its flit queue just
    /// drained.
    fn note_drain(&mut self, idx: usize, link: &Link) {
        let (comp, port) = self.receiver[idx];
        if link.in_flight() == 0 && comp != u32::MAX {
            self.occupied[comp as usize] &= !(1 << port);
        }
    }
}

/// The indices of the set bits of `mask`, in ascending order.
pub fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Wake plumbing handed to [`PortIo`] by the scheduled loop: when a send
/// targets a sleeping receiver, its arrival cycle goes on the wake heap.
/// The reference loop passes `None` and pays nothing.
#[derive(Debug)]
struct WakeCtx<'a> {
    /// Which components are currently awake (see [`Schedule::awake`]).
    awake: &'a [u64],
    /// Pending `(wake_at, component)` events.
    heap: &'a mut BinaryHeap<Reverse<(Cycle, u32)>>,
}

/// `true` if bit `c` of the word-packed bitset `words` is set.
fn bit(words: &[u64], c: usize) -> bool {
    words[c / 64] & (1 << (c % 64)) != 0
}

/// Access to a component's ports during its tick.
///
/// Input ports are numbered `0..n_inputs()`, output ports `0..n_outputs()`,
/// in the order given to [`Engine::add_component`].
#[derive(Debug)]
pub struct PortIo<'a> {
    now: Cycle,
    /// Index of the ticking component (its row in the ledger's masks).
    comp: usize,
    links: &'a mut [Link],
    inputs: &'a [LinkId],
    outputs: &'a [LinkId],
    ledger: &'a mut Ledger,
    wake: Option<WakeCtx<'a>>,
}

impl PortIo<'_> {
    /// Number of input ports.
    pub fn n_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output ports.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The input ports whose links hold flits in flight, as a bitmask (bit
    /// `p` for port `p`). A port outside it has no arrival this cycle;
    /// one inside it may still have none while its flits propagate.
    pub fn occupied_inputs(&self) -> u64 {
        self.ledger.occupied[self.comp]
    }

    /// `true` if input `port`'s link holds flits in flight.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    fn input_occupied(&self, port: usize) -> bool {
        assert!(port < self.inputs.len(), "input port {port} out of range");
        self.occupied_inputs() & (1 << port) != 0
    }

    /// Peeks at the flit arriving on input `port` this cycle, if any.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn peek(&self, port: usize) -> Option<&Flit> {
        if !self.input_occupied(port) {
            return None;
        }
        self.links[self.inputs[port].index()].peek(self.now)
    }

    /// Consumes the flit arriving on input `port` (at most one per cycle).
    ///
    /// The caller must eventually return one credit on the same port per
    /// consumed flit ([`PortIo::return_credit`] or
    /// [`PortIo::return_credits`]).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn recv(&mut self, port: usize) -> Option<Flit> {
        if !self.input_occupied(port) {
            return None;
        }
        let link = &mut self.links[self.inputs[port].index()];
        let flit = link.recv(self.now);
        if flit.is_some() {
            self.ledger.in_flight -= 1;
            if link.in_flight() == 0 {
                self.ledger.occupied[self.comp] &= !(1 << port);
            }
        }
        flit
    }

    /// Returns one credit on input `port` (a staging slot freed).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn return_credit(&mut self, port: usize) {
        self.links[self.inputs[port].index()].return_credit(self.now);
    }

    /// Returns `n` credits on input `port` at once, exactly as `n` calls
    /// of [`PortIo::return_credit`] would (see [`Link::return_credits`]);
    /// `n == 0` reads nothing of the link.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn return_credits(&mut self, port: usize, n: u32) {
        let link = &mut self.links[self.inputs[port].index()];
        if n > 0 {
            link.return_credits(self.now, n);
        }
    }

    /// `true` if output `port` can accept a flit this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn can_send(&self, port: usize) -> bool {
        self.links[self.outputs[port].index()].can_send(self.now)
    }

    /// Sends a flit on output `port`.
    ///
    /// # Panics
    ///
    /// Panics if the link has no credit or was already used this cycle —
    /// guard with [`PortIo::can_send`].
    pub fn send(&mut self, port: usize, flit: Flit) {
        let idx = self.outputs[port].index();
        // One counter on each side of the call: adjacent, the two
        // increments merge into one 16-byte load of both, which stalls
        // behind `recv`'s recent 8-byte store to `in_flight`.
        self.ledger.total_moves += 1;
        self.links[idx].send(self.now, flit);
        self.ledger.in_flight += 1;
        let (rc, rp) = self.ledger.receiver[idx];
        if rc == u32::MAX {
            return;
        }
        self.ledger.occupied[rc as usize] |= 1 << rp;
        // Wake-on-send: if the receiver is asleep, schedule it for the
        // flit's arrival cycle. Receivers that are still awake don't need
        // this — if they go to sleep later they scan their occupied inputs
        // (this link among them) for the earliest arrival.
        if let Some(w) = self.wake.as_mut() {
            if !bit(w.awake, rc as usize) {
                let at = self.now + Cycle::from(self.links[idx].delay());
                w.heap.push(Reverse((at, rc)));
            }
        }
    }
}

/// The quiescence schedule: everything the scheduled cycle loop needs,
/// lowered out of the object graph into flat arrays indexed by dense
/// component ids. Compiled at the first step (O(components)); registering
/// a component drops it, to be recompiled with every component awake.
#[derive(Debug)]
struct Schedule {
    /// Awake bitset, 64 components per word: a clear bit `c` ⇒ ticking
    /// `c` is provably a no-op until a wake event for it matures (or
    /// `wake_component` sets it). Bits past the last component stay clear,
    /// so the tick phase walks set bits only.
    awake: Vec<u64>,
    /// Min-heap of pending `(wake_at, component)` events. Stale entries
    /// (for components already awake) only cause a harmless early tick.
    heap: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Ticks actually executed, per component.
    ticks_run: Vec<u64>,
    /// Cycles stepped since the schedule was compiled.
    steps: u64,
}

/// Tick counters of the scheduled loop ([`Engine::tick_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Component ticks actually executed.
    pub ticks_run: u64,
    /// Component ticks skipped because the component slept.
    pub ticks_skipped: u64,
}

/// Set while [`reference_loop`] runs: engines created meanwhile step with
/// the reference loop.
static REFERENCE_LOOP: AtomicBool = AtomicBool::new(false);

/// Runs `f` with every [`Engine::new`] called inside it (on any thread)
/// stepping with the reference loop: every component ticks every cycle,
/// nothing sleeps. The differential tests and the engine benchmark use it
/// to check and measure the scheduled loop against; simulations never do.
///
/// The switch is process-wide, so callers must not run scheduled
/// simulations concurrently with `f`.
#[doc(hidden)]
pub fn reference_loop<R>(f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            REFERENCE_LOOP.store(false, Ordering::Relaxed);
        }
    }
    REFERENCE_LOOP.store(true, Ordering::Relaxed);
    let _reset = Reset;
    f()
}

/// The simulation engine: owns links and components, advances time.
#[derive(Default)]
pub struct Engine {
    now: Cycle,
    links: Vec<Link>,
    comps: Vec<Box<dyn Component>>,
    bindings: Vec<Binding>,
    /// Flat arena of all components' port→link bindings.
    ports: Vec<LinkId>,
    ledger: Ledger,
    /// Quiescence schedule; `None` until the first step.
    sched: Option<Schedule>,
    /// Step with the reference loop (see [`reference_loop`]).
    reference: bool,
    /// Torn-install audit state; `None` keeps the audit off the hot path.
    epoch_audit: Option<EpochWatch>,
    /// Bumped on every change of an epoch the audit reads.
    epoch_changes: EpochChanges,
}

/// The torn-install audit between cycles: the running result plus the
/// verdict of its last recomputation.
#[derive(Debug, Default)]
struct EpochWatch {
    audit: EpochAudit,
    /// [`EpochChanges`] count the verdict was computed at; `None` until
    /// the first computation.
    seen: Option<u64>,
    /// Whether the fabric was torn at that count.
    torn: bool,
}

impl Engine {
    /// Creates an empty engine at cycle 0.
    pub fn new() -> Self {
        Engine {
            reference: REFERENCE_LOOP.load(Ordering::Relaxed),
            ..Engine::default()
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Registers a unidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if `delay == 0` or `credits == 0` (see [`Link::new`]).
    pub fn add_link(&mut self, delay: u32, credits: u32) -> LinkId {
        let id = LinkId::from(self.links.len());
        self.ledger.receiver.push((u32::MAX, 0));
        self.links.push(Link::new(delay, credits));
        id
    }

    /// Registers a component with its port bindings and returns its index.
    ///
    /// `inputs[i]` becomes the component's input port `i` (it is the
    /// *receiver* of that link); `outputs[i]` becomes output port `i` (it is
    /// the *sender*). Each link must have exactly one sender and one
    /// receiver across all components; debug builds catch violations
    /// through the links' credit-conservation assertions.
    ///
    /// # Panics
    ///
    /// Panics if the component has more than 64 input ports.
    pub fn add_component(
        &mut self,
        component: Box<dyn Component>,
        inputs: Vec<LinkId>,
        outputs: Vec<LinkId>,
    ) -> usize {
        assert!(
            inputs.len() <= 64,
            "a component has at most 64 input ports, got {}",
            inputs.len()
        );
        let comp = self.comps.len() as u32;
        let mut occupied = 0u64;
        for (port, lid) in inputs.iter().enumerate() {
            self.ledger.receiver[lid.index()] = (comp, port as u32);
            if self.links[lid.index()].in_flight() > 0 {
                occupied |= 1 << port;
            }
        }
        self.ledger.occupied.push(occupied);
        let in_start = self.ports.len() as u32;
        self.ports.extend_from_slice(&inputs);
        let out_start = self.ports.len() as u32;
        self.ports.extend_from_slice(&outputs);
        self.comps.push(component);
        // Catch sleepers up before the schedule (and who sleeps) is lost.
        self.flush();
        self.sched = None;
        // The newcomer may report an epoch.
        self.epoch_changes.bump();
        self.bindings.push(Binding {
            in_start,
            in_len: inputs.len() as u32,
            out_start,
            out_len: outputs.len() as u32,
        });
        self.comps.len() - 1
    }

    /// Number of registered components.
    pub fn n_components(&self) -> usize {
        self.comps.len()
    }

    /// Number of registered links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Installs a fault plan on every registered link.
    ///
    /// Each link gets its own deterministic random stream derived from the
    /// plan's seed and the link's id, so fault timing is independent of
    /// traffic and identical across same-seed runs. A no-op plan installs
    /// nothing, keeping fault-free runs on the fast path. Call after all
    /// links are registered.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for i in 0..self.links.len() {
            self.install_link_faults(LinkId::from(i), plan);
        }
    }

    /// Installs a fault plan on one link, with the same per-link random
    /// stream [`Engine::install_faults`] would give it. A no-op plan
    /// installs nothing.
    pub fn install_link_faults(&mut self, link: LinkId, plan: &FaultPlan) {
        if plan.is_noop() {
            return;
        }
        // Faulty links tick every cycle from now on: outage schedules and
        // condemned-flit evaporation advance with time.
        let l = &mut self.links[link.index()];
        if !l.needs_begin_cycle() {
            self.ledger.timed.push(link.index() as u32);
        }
        l.install_faults(plan.for_link(link));
    }

    /// Schedules a deterministic outage on one link: it refuses new flits
    /// during `[from, until)` and publishes the down/up transitions
    /// (drainable via [`Engine::drain_link_events`]). In-flight flits
    /// still arrive and credits still propagate, so worms stall rather
    /// than tear.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn script_outage(&mut self, link: LinkId, from: Cycle, until: Cycle) {
        let idx = link.index();
        let l = &mut self.links[idx];
        if self.reference {
            if !l.has_scripted_outages() {
                self.ledger.scripted.push(idx as u32);
            }
        } else {
            // The window's down state can only change at its two edges. An
            // edge already past matures at the next step, where the
            // reference loop's polling sees the change too.
            for at in [from, until] {
                self.ledger.edges.push(Reverse((at, idx as u32)));
            }
        }
        l.script_outage(from, until);
    }

    /// Sets the administrative down state of one link, as driven by a
    /// control plane's command stream (`mdw-routed` link up/down events).
    /// The transition is published immediately and holds until the next
    /// call — no scheduled end, unlike [`Engine::script_outage`].
    pub fn set_link_forced_down(&mut self, link: LinkId, down: bool) {
        let idx = link.index();
        self.links[idx].set_forced_down(self.now, down);
    }

    /// Enables up/down transition publication on every link (links that
    /// can actually go down — fault streams or scripted windows — start
    /// recording; healthy links never transition, so this costs nothing
    /// for them). Call before or after [`Engine::install_faults`].
    pub fn publish_link_events(&mut self) {
        for link in &mut self.links {
            link.publish_transitions();
        }
    }

    /// Drains every link's recorded up/down transitions into one stream,
    /// ordered by (cycle, link). Empty unless outages were scripted or
    /// [`Engine::publish_link_events`] was enabled on a faulty fabric.
    pub fn drain_link_events(&mut self) -> Vec<LinkEvent> {
        let mut events = Vec::new();
        for (i, link) in self.links.iter_mut().enumerate() {
            for (at, down) in link.take_transitions() {
                events.push(LinkEvent {
                    link: LinkId::from(i),
                    at,
                    down,
                });
            }
        }
        events.sort_by_key(|e| (e.at, e.link.index()));
        events
    }

    /// `true` if `link` refuses new flits this cycle (scripted or
    /// fault-plan outage in effect).
    pub fn link_is_down(&self, link: LinkId) -> bool {
        self.links[link.index()].is_down(self.now)
    }

    /// Sum of injected-fault counters across all links.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for link in &self.links {
            if let Some(c) = link.fault_counters() {
                total.merge(c);
            }
        }
        total
    }

    /// Total flits sent over all links since the start of the run — the
    /// engine-level progress measure used by deadlock watchdogs. O(1):
    /// maintained on every [`PortIo::send`] instead of scanning all links.
    ///
    /// Debug builds — and any build with the `invariant-audit` feature —
    /// cross-check the ledger against a full link scan.
    pub fn total_flit_moves(&self) -> u64 {
        if cfg!(any(debug_assertions, feature = "invariant-audit")) {
            assert_eq!(
                self.ledger.total_moves,
                self.links.iter().map(Link::total_flits).sum::<u64>(),
                "flit conservation violated: ledger total_moves out of sync"
            );
        }
        self.ledger.total_moves
    }

    /// Flits ever sent over one specific link (utilization accounting).
    pub fn link_total_flits(&self, link: LinkId) -> u64 {
        self.links[link.index()].total_flits()
    }

    /// Number of flits currently propagating inside links. O(1):
    /// maintained on send/recv/evaporation instead of scanning all links.
    ///
    /// Debug builds — and any build with the `invariant-audit` feature —
    /// cross-check the ledger against a full link scan.
    pub fn flits_in_links(&self) -> usize {
        if cfg!(any(debug_assertions, feature = "invariant-audit")) {
            assert_eq!(
                self.ledger.in_flight,
                self.links.iter().map(Link::in_flight).sum::<usize>(),
                "flit conservation violated: ledger in_flight out of sync"
            );
        }
        self.ledger.in_flight
    }

    /// Tick counters of the scheduled loop, summed over all components
    /// (all zero on the reference loop or before the first step).
    pub fn tick_stats(&self) -> TickStats {
        (0..self.comps.len())
            .map(|c| self.component_tick_stats(c))
            .fold(TickStats::default(), |a, b| TickStats {
                ticks_run: a.ticks_run + b.ticks_run,
                ticks_skipped: a.ticks_skipped + b.ticks_skipped,
            })
    }

    /// Tick counters of one component (see [`Engine::tick_stats`]).
    pub fn component_tick_stats(&self, index: usize) -> TickStats {
        match &self.sched {
            Some(s) if index < s.ticks_run.len() => TickStats {
                ticks_run: s.ticks_run[index],
                ticks_skipped: s.steps - s.ticks_run[index],
            },
            _ => TickStats::default(),
        }
    }

    /// Forces a sleeping component back into the step schedule. No-op when
    /// already awake. Must be called whenever component state changes
    /// outside its own tick (e.g. a control-plane flag it polls), since
    /// such changes are invisible to the wake protocol.
    pub fn wake_component(&mut self, index: usize) {
        if let Some(s) = self.sched.as_mut() {
            if index < s.ticks_run.len() {
                s.awake[index / 64] |= 1 << (index % 64);
            }
        }
    }

    /// Wakes every sleeping component (see [`Engine::wake_component`]).
    /// Cheap: one pass over the awake words; spurious wakes cost one tick
    /// each and components immediately re-sleep if still idle.
    pub fn wake_all(&mut self) {
        if let Some(s) = self.sched.as_mut() {
            s.awake = all_awake(s.ticks_run.len());
        }
    }

    /// Catches sleeping components' per-cycle accounting up to the current
    /// cycle (see [`Component::flush`]). Call before reading per-component
    /// stats at the end of a run.
    pub fn flush(&mut self) {
        let now = self.now;
        if let Some(s) = self.sched.as_mut() {
            for (c, comp) in self.comps.iter_mut().enumerate() {
                if c < s.ticks_run.len() && !bit(&s.awake, c) {
                    comp.flush(now);
                }
            }
        }
    }

    /// Advances every link with timed state to the current cycle — the
    /// link phase of both cycle loops. Faulty links advance every cycle
    /// (outage schedules, condemned flits). Scripted links advance every
    /// cycle on the reference loop and only at their window edges on the
    /// scheduled loop; a scripted link that also has faults advances with
    /// the faulty ones. Other links cost nothing here: flits become
    /// visible by arrival time and credits fold when the sender asks.
    fn begin_links(&mut self) {
        let now = self.now;
        for i in 0..self.ledger.timed.len() {
            let idx = self.ledger.timed[i] as usize;
            let link = &mut self.links[idx];
            let evaporated = link.begin_cycle(now);
            if evaporated > 0 {
                self.ledger.in_flight -= evaporated;
                self.ledger.note_drain(idx, link);
            }
        }
        // A link without faults evaporates nothing, so these calls only
        // detect and publish edges.
        if self.reference {
            for &idx in &self.ledger.scripted {
                let link = &mut self.links[idx as usize];
                if !link.needs_begin_cycle() {
                    link.begin_cycle(now);
                }
            }
        } else {
            while let Some(&Reverse((at, idx))) = self.ledger.edges.peek() {
                if at > now {
                    break;
                }
                self.ledger.edges.pop();
                let link = &mut self.links[idx as usize];
                if !link.needs_begin_cycle() {
                    link.begin_cycle(now);
                }
            }
        }
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        if self.reference {
            self.step_reference();
        } else {
            self.step_scheduled();
        }
    }

    /// The reference loop: every component ticks every cycle.
    fn step_reference(&mut self) {
        self.now += 1;
        self.begin_links();
        let now = self.now;
        let links = &mut self.links[..];
        let ports = &self.ports[..];
        let ledger = &mut self.ledger;
        for (c, (comp, b)) in self.comps.iter_mut().zip(&self.bindings).enumerate() {
            let mut io = PortIo {
                now,
                comp: c,
                links: &mut *links,
                inputs: &ports[b.in_start as usize..(b.in_start + b.in_len) as usize],
                outputs: &ports[b.out_start as usize..(b.out_start + b.out_len) as usize],
                ledger: &mut *ledger,
                wake: None,
            };
            comp.tick(now, &mut io);
        }
        #[cfg(feature = "invariant-audit")]
        self.audit_invariants();
        self.audit_epochs();
    }

    /// Compiles the schedule, every component awake. Wake-on-send reads
    /// the ledger's link→receiver map.
    fn compile_schedule(&self) -> Schedule {
        let n_comps = self.comps.len();
        Schedule {
            awake: all_awake(n_comps),
            heap: BinaryHeap::new(),
            ticks_run: vec![0; n_comps],
            steps: 0,
        }
    }

    /// One cycle of the scheduled loop.
    ///
    /// Phases: (1) the link phase, identical to the reference loop;
    /// (2) wake phase — pop every matured `(wake_at ≤ now)` event; (3) tick
    /// phase — tick awake components in ascending index order (the
    /// reference loop's order, minus provable no-ops), putting each to
    /// sleep if it asks to. Every wake event targets a cycle ≥ now+1 and
    /// links impose ≥ 1 cycle of delay, so a component put to sleep this
    /// cycle cannot miss anything sent to it this cycle (DESIGN.md §13).
    fn step_scheduled(&mut self) {
        if self.sched.is_none() {
            self.sched = Some(self.compile_schedule());
        }
        self.now += 1;
        self.begin_links();
        let now = self.now;
        let Schedule {
            awake,
            heap,
            ticks_run,
            steps,
        } = self.sched.as_mut().expect("compiled above");
        *steps += 1;
        // Wake phase.
        while let Some(&Reverse((at, comp))) = heap.peek() {
            if at > now {
                break;
            }
            heap.pop();
            awake[comp as usize / 64] |= 1 << (comp % 64);
        }
        // Tick phase. Wakes raised during it go on the heap, never into
        // `awake`, so each word's bits can be read once up front.
        let links = &mut self.links[..];
        let ports = &self.ports[..];
        let ledger = &mut self.ledger;
        for w in 0..awake.len() {
            for b in set_bits(awake[w]) {
                let c = w * 64 + b;
                ticks_run[c] += 1;
                let comp = &mut self.comps[c];
                let bind = self.bindings[c];
                let inputs = &ports[bind.in_start as usize..(bind.in_start + bind.in_len) as usize];
                let mut io = PortIo {
                    now,
                    comp: c,
                    links: &mut *links,
                    inputs,
                    outputs: &ports
                        [bind.out_start as usize..(bind.out_start + bind.out_len) as usize],
                    ledger: &mut *ledger,
                    wake: Some(WakeCtx {
                        awake,
                        heap: &mut *heap,
                    }),
                };
                comp.tick(now, &mut io);
                if let Some(until) = comp.sleep_until(now) {
                    awake[w] &= !(1 << b);
                    // The earliest in-flight arrival on any occupied input
                    // bounds the sleep. Senders that tick later this cycle
                    // find the awake bit clear and wake-on-send instead.
                    let wake = set_bits(ledger.occupied[c])
                        .filter_map(|p| links[inputs[p].index()].next_arrival())
                        .fold(until, Cycle::min);
                    if wake != Cycle::MAX {
                        heap.push(Reverse((wake.max(now + 1), c as u32)));
                    }
                }
            }
        }
        #[cfg(feature = "invariant-audit")]
        self.audit_invariants();
        self.audit_epochs();
    }

    /// Arms the per-cycle torn-install audit: after every cycle, the
    /// committed epochs of all epoch-reporting components (see
    /// [`Component::epoch_status`]) are compared, and any cycle in which
    /// they diverge with no armed commit explaining the laggard is
    /// counted as *torn*. A switch lagging behind the fleet *with* an
    /// armed commit for the newest epoch is the legitimate in-flight
    /// activation window (it swaps the moment it finds itself empty) and
    /// is not flagged. Off by default. The reference loop recomputes the
    /// verdict every cycle in O(components); the scheduled loop only in
    /// cycles after [`Engine::epoch_changes`] moved, and otherwise carries
    /// the previous verdict forward.
    pub fn enable_epoch_audit(&mut self) {
        self.epoch_audit.get_or_insert_with(EpochWatch::default);
    }

    /// The torn-install audit's running result, or `None` if the audit
    /// was never enabled.
    pub fn epoch_audit(&self) -> Option<EpochAudit> {
        self.epoch_audit.as_ref().map(|w| w.audit)
    }

    /// The change counter components bump whenever their committed or
    /// armed epoch changes (see [`Component::epoch_status`]). The system
    /// builder hands a clone to each switch's control cell.
    pub fn epoch_changes(&self) -> EpochChanges {
        self.epoch_changes.clone()
    }

    /// The per-cycle pass behind [`Engine::enable_epoch_audit`].
    fn audit_epochs(&mut self) {
        let Some(w) = self.epoch_audit.as_mut() else {
            return;
        };
        let count = self.epoch_changes.count();
        if self.reference || w.seen != Some(count) {
            w.seen = Some(count);
            (w.torn, w.audit.max_committed) = torn_verdict(&self.comps);
        }
        if w.torn {
            w.audit.torn_cycles += 1;
            w.audit.first_torn.get_or_insert(self.now);
        }
    }

    /// Full-fabric invariant sweep, run after every cycle under the
    /// `invariant-audit` feature: per-link credit conservation, the
    /// occupied-input masks (a bound link's bit in its receiver's mask is
    /// set exactly while the link has flits in flight), plus the
    /// flit-conservation ledger cross-checks. O(links) per cycle, so it is
    /// feature-gated rather than tied to `debug_assertions` — quick-scale
    /// sweeps run under it in CI, full-scale ones don't pay for it.
    #[cfg(any(test, feature = "invariant-audit"))]
    fn audit_invariants(&self) {
        for (idx, link) in self.links.iter().enumerate() {
            link.audit_credit_conservation();
            let (comp, port) = self.ledger.receiver[idx];
            if comp != u32::MAX {
                assert_eq!(
                    self.ledger.occupied[comp as usize] & (1 << port) != 0,
                    link.in_flight() > 0,
                    "occupied-input mask out of sync on link {idx} (component {comp} \
                     port {port}, {} in flight)",
                    link.in_flight()
                );
            }
        }
        let _ = self.total_flit_moves();
        let _ = self.flits_in_links();
    }

    /// Runs for `cycles` additional cycles.
    pub fn run_for(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until `cycle` (absolute), or not at all if already past it.
    pub fn run_until(&mut self, cycle: Cycle) {
        while self.now < cycle {
            self.step();
        }
    }
}

/// Whether the components' committed epochs are torn — some component
/// lags the newest committed epoch with no armed commit for it — plus
/// that newest epoch.
fn torn_verdict(comps: &[Box<dyn Component>]) -> (bool, u64) {
    let max_committed = comps
        .iter()
        .filter_map(|c| c.epoch_status())
        .map(|st| st.committed)
        .max()
        .unwrap_or(0);
    let torn = comps
        .iter()
        .filter_map(|c| c.epoch_status())
        .any(|st| st.committed < max_committed && st.pending.is_none_or(|p| p < max_committed));
    (torn, max_committed)
}

/// Awake words with bits `0..n` set.
fn all_awake(n: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; n.div_ceil(64)];
    if !n.is_multiple_of(64) {
        words[n / 64] = (1 << (n % 64)) - 1;
    }
    words
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine(cycle {}, {} components, {} links)",
            self.now,
            self.comps.len(),
            self.links.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::packet::{Packet, PacketBuilder};
    use std::cell::Cell;
    use std::rc::Rc;

    struct Producer {
        pkt: Rc<Packet>,
        next: u16,
    }
    impl Component for Producer {
        fn tick(&mut self, _now: Cycle, io: &mut PortIo<'_>) {
            if self.next < self.pkt.total_flits() && io.can_send(0) {
                io.send(0, Flit::new(self.pkt.clone(), self.next));
                self.next += 1;
            }
        }
    }

    struct Consumer {
        seen: Rc<Cell<u64>>,
        stall_until: Cycle,
    }
    impl Component for Consumer {
        fn tick(&mut self, now: Cycle, io: &mut PortIo<'_>) {
            if now < self.stall_until {
                return;
            }
            if io.recv(0).is_some() {
                io.return_credit(0);
                self.seen.set(self.seen.get() + 1);
            }
        }
    }

    fn pkt(payload: u16) -> Rc<Packet> {
        Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(1), payload, 16).build())
    }

    fn pipeline(stall_until: Cycle, credits: u32) -> (Engine, Rc<Cell<u64>>) {
        let mut e = Engine::new();
        let l = e.add_link(1, credits);
        let p = pkt(8); // 2 header + 8 payload = 10 flits
        e.add_component(Box::new(Producer { pkt: p, next: 0 }), vec![], vec![l]);
        let seen = Rc::new(Cell::new(0));
        e.add_component(
            Box::new(Consumer {
                seen: seen.clone(),
                stall_until,
            }),
            vec![l],
            vec![],
        );
        (e, seen)
    }

    #[test]
    fn flits_flow_end_to_end() {
        let (mut e, seen) = pipeline(0, 4);
        e.run_for(30);
        assert_eq!(seen.get(), 10);
        assert_eq!(e.total_flit_moves(), 10);
        assert_eq!(e.flits_in_links(), 0);
    }

    #[test]
    fn backpressure_limits_producer() {
        // Consumer asleep until cycle 100; only `credits` flits can leave.
        let (mut e, seen) = pipeline(100, 3);
        e.run_for(50);
        assert_eq!(seen.get(), 0);
        assert_eq!(e.total_flit_moves(), 3, "window is 3 flits");
        e.run_for(100);
        assert_eq!(seen.get(), 10, "all flits delivered after stall");
    }

    #[test]
    fn run_until_and_now() {
        let (mut e, _) = pipeline(0, 4);
        e.run_until(7);
        assert_eq!(e.now(), 7);
        e.run_until(3);
        assert_eq!(e.now(), 7, "run_until never goes backwards");
    }

    #[test]
    fn scripted_outage_stalls_and_publishes_events() {
        let (mut e, seen) = pipeline(0, 4);
        let link = LinkId::from(0usize);
        e.script_outage(link, 5, 40);
        e.run_for(30);
        assert!(e.link_is_down(link));
        let before = seen.get();
        assert!(before < 10, "outage must stall the worm mid-flight");
        e.run_for(40);
        assert_eq!(seen.get(), 10, "all flits delivered after the heal");
        let events = e.drain_link_events();
        assert_eq!(
            events,
            vec![
                LinkEvent {
                    link,
                    at: 5,
                    down: true
                },
                LinkEvent {
                    link,
                    at: 40,
                    down: false
                },
            ]
        );
        assert!(e.drain_link_events().is_empty());
    }

    /// Scripted links advance only at their window edges on the scheduled
    /// loop and every cycle on the reference loop; both must publish the
    /// same events and report the same down state every cycle, through
    /// overlapping and abutting windows, forced toggles inside and outside
    /// windows, and windows registered mid-run with edges already past.
    #[test]
    fn scripted_edges_publish_what_polling_publishes() {
        let run = |reference: bool| {
            let (mut e, _) = pipeline(0, 4);
            e.reference = reference;
            let link = LinkId::from(0usize);
            let mut down = Vec::new();
            while e.now() < 150 {
                match e.now() {
                    0 => {
                        for (from, until) in [(5, 40), (30, 60), (60, 70), (95, 110)] {
                            e.script_outage(link, from, until);
                        }
                    }
                    80 | 100 => e.set_link_forced_down(link, true),
                    85 | 105 => e.set_link_forced_down(link, false),
                    120 => {
                        e.script_outage(link, 115, 130);
                        e.script_outage(link, 125, 126);
                    }
                    140 => e.script_outage(link, 100, 135),
                    _ => {}
                }
                e.step();
                down.push(e.link_is_down(link));
            }
            (e.drain_link_events(), down)
        };
        let (polled, edged) = (run(true), run(false));
        assert_eq!(polled, edged);
        let link = LinkId::from(0usize);
        let events: Vec<(Cycle, bool)> = edged.0.iter().map(|ev| (ev.at, ev.down)).collect();
        assert!(edged.0.iter().all(|ev| ev.link == link));
        assert_eq!(
            events,
            [
                (5, true),
                (70, false),
                (80, true),
                (85, false),
                (95, true),
                (110, false),
                (121, true),
                (130, false),
            ]
        );
    }

    #[test]
    fn fault_plan_outages_publish_events_when_enabled() {
        let (mut e, _) = pipeline(0, 4);
        e.install_faults(&FaultPlan {
            down_every: 20,
            down_len: 5,
            ..FaultPlan::none(3)
        });
        e.publish_link_events();
        e.run_for(200);
        let events = e.drain_link_events();
        assert!(
            events.iter().any(|ev| ev.down) && events.iter().any(|ev| !ev.down),
            "periodic outages must publish both edges: {events:?}"
        );
        let mut last = 0;
        for ev in &events {
            assert!(ev.at >= last, "events sorted by cycle");
            last = ev.at;
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let (mut a, seen_a) = pipeline(5, 2);
        let (mut b, seen_b) = pipeline(5, 2);
        for _ in 0..40 {
            a.step();
            b.step();
            assert_eq!(seen_a.get(), seen_b.get());
            assert_eq!(a.total_flit_moves(), b.total_flit_moves());
        }
    }

    /// Sends `left` back-to-back copies of one packet at link rate.
    struct Repeater {
        pkt: Rc<Packet>,
        next: u16,
        left: u32,
    }
    impl Component for Repeater {
        fn tick(&mut self, _now: Cycle, io: &mut PortIo<'_>) {
            if self.left > 0 && io.can_send(0) {
                io.send(0, Flit::new(self.pkt.clone(), self.next));
                self.next += 1;
                if self.next == self.pkt.total_flits() {
                    self.next = 0;
                    self.left -= 1;
                }
            }
        }
    }

    #[test]
    fn occupied_input_mask_tracks_queued_and_evaporated_flits() {
        for delay in 1..=3 {
            for flit_drop in [0.0, 0.1] {
                let mut e = Engine::new();
                let l = e.add_link(delay, 4);
                let p = pkt(2); // 4 flits
                let total = 8 * u64::from(p.total_flits());
                e.add_component(
                    Box::new(Repeater {
                        pkt: p,
                        next: 0,
                        left: 8,
                    }),
                    vec![],
                    vec![l],
                );
                let seen = Rc::new(Cell::new(0));
                e.add_component(
                    Box::new(Consumer {
                        seen: seen.clone(),
                        stall_until: 20,
                    }),
                    vec![l],
                    vec![],
                );
                e.install_faults(&FaultPlan::drops(7, flit_drop));
                let mut queued = 0;
                for _ in 0..300 {
                    e.step();
                    e.audit_invariants();
                    queued = queued.max(e.flits_in_links());
                }
                let case = format!("delay {delay}, drop {flit_drop}");
                assert!(queued >= 3, "{case}: stalled consumer must queue flits");
                assert_eq!(e.flits_in_links(), 0, "{case}");
                let dropped = e.fault_counters().flits_dropped;
                assert_eq!(seen.get() + dropped, total, "{case}");
                if flit_drop > 0.0 {
                    assert!(dropped > 0, "{case}: no flit evaporated");
                }
            }
        }
    }

    /// Emits the flits of one packet, one every `period` cycles — leaves
    /// idle gaps downstream components can sleep through — and sleeps
    /// between its own sends on a timer.
    struct GappyProducer {
        pkt: Rc<Packet>,
        next: u16,
        period: Cycle,
    }
    impl Component for GappyProducer {
        fn tick(&mut self, now: Cycle, io: &mut PortIo<'_>) {
            if now.is_multiple_of(self.period)
                && self.next < self.pkt.total_flits()
                && io.can_send(0)
            {
                io.send(0, Flit::new(self.pkt.clone(), self.next));
                self.next += 1;
            }
        }
        fn sleep_until(&mut self, now: Cycle) -> Option<Cycle> {
            if self.next == self.pkt.total_flits() {
                return Some(Cycle::MAX);
            }
            // A blocked send retries next cycle; otherwise the next
            // multiple of the period is the next cycle that can act.
            let next = (now / self.period + 1) * self.period;
            (next > now + 1).then_some(next)
        }
    }

    /// One-flit store-and-forward stage that sleeps while empty — the
    /// minimal quiescence-capable component, exercising both wake paths.
    struct Relay {
        held: Option<Flit>,
        ticks: Rc<Cell<u64>>,
    }
    impl Component for Relay {
        fn tick(&mut self, _now: Cycle, io: &mut PortIo<'_>) {
            self.ticks.set(self.ticks.get() + 1);
            if self.held.is_none() {
                if let Some(f) = io.recv(0) {
                    io.return_credit(0);
                    self.held = Some(f);
                }
            }
            if self.held.is_some() && io.can_send(0) {
                let f = self.held.take().expect("checked");
                io.send(0, f);
            }
        }
        fn sleep_until(&mut self, _now: Cycle) -> Option<Cycle> {
            self.held.is_none().then_some(Cycle::MAX)
        }
    }

    /// Gappy producer → relay → relay → consumer; returns the engine plus
    /// the consumer's seen counter and each relay's tick counter.
    #[allow(clippy::type_complexity)]
    fn relay_chain(reference: bool) -> (Engine, Rc<Cell<u64>>, Vec<Rc<Cell<u64>>>) {
        let mut e = Engine::new();
        e.reference = reference;
        let l1 = e.add_link(2, 4);
        let l2 = e.add_link(3, 4);
        let l3 = e.add_link(1, 4);
        e.add_component(
            Box::new(GappyProducer {
                pkt: pkt(8),
                next: 0,
                period: 7,
            }),
            vec![],
            vec![l1],
        );
        let mut relay_ticks = Vec::new();
        for (lin, lout) in [(l1, l2), (l2, l3)] {
            let ticks = Rc::new(Cell::new(0));
            relay_ticks.push(ticks.clone());
            e.add_component(Box::new(Relay { held: None, ticks }), vec![lin], vec![lout]);
        }
        let seen = Rc::new(Cell::new(0));
        e.add_component(
            Box::new(Consumer {
                seen: seen.clone(),
                stall_until: 0,
            }),
            vec![l3],
            vec![],
        );
        (e, seen, relay_ticks)
    }

    #[test]
    fn scheduled_loop_matches_reference_cycle_by_cycle() {
        let (mut reference, seen_r, _) = relay_chain(true);
        let (mut scheduled, seen_s, _) = relay_chain(false);
        for cycle in 1..=120u64 {
            reference.step();
            scheduled.step();
            assert_eq!(
                (
                    seen_r.get(),
                    reference.total_flit_moves(),
                    reference.flits_in_links()
                ),
                (
                    seen_s.get(),
                    scheduled.total_flit_moves(),
                    scheduled.flits_in_links()
                ),
                "divergence at cycle {cycle}"
            );
        }
        assert_eq!(seen_s.get(), 10, "all flits delivered");
        assert_eq!(reference.tick_stats(), TickStats::default());
        let stats = scheduled.tick_stats();
        assert_eq!(stats.ticks_run + stats.ticks_skipped, 120 * 4);
        // The producer sleeps on its timer, not just the relays on input.
        let producer = scheduled.component_tick_stats(0);
        assert!(producer.ticks_skipped > 0, "{producer:?}");
        assert!(producer.ticks_run >= 10, "{producer:?}");
    }

    #[test]
    fn sleeping_relays_skip_ticks_but_miss_nothing() {
        let (mut e, seen, relay_ticks) = relay_chain(false);
        e.run_for(120);
        assert_eq!(seen.get(), 10);
        for (i, ticks) in relay_ticks.iter().enumerate() {
            // 10 flits through a relay need at least 10 ticks; sleeping
            // through the producer's 7-cycle gaps must save the rest.
            assert!(ticks.get() >= 10, "too few ticks: {}", ticks.get());
            assert!(ticks.get() < 120, "relay never slept: {}", ticks.get());
            assert_eq!(e.component_tick_stats(i + 1).ticks_run, ticks.get());
        }
    }

    #[test]
    fn wake_all_wakes_sleepers() {
        let (mut e, _, relay_ticks) = relay_chain(false);
        e.run_for(60);
        let before = relay_ticks[0].get();
        // Relays are asleep between worms; a forced wake must tick them
        // once more even with no traffic pending.
        e.wake_all();
        e.step();
        assert_eq!(relay_ticks[0].get(), before + 1, "woken relay ticks");
        e.step();
        assert_eq!(relay_ticks[0].get(), before + 1, "and sleeps again");
        e.wake_component(1);
        e.step();
        assert_eq!(relay_ticks[0].get(), before + 2, "targeted wake");
    }

    #[test]
    fn fabric_growth_recompiles_the_schedule() {
        let (mut e, seen, _) = relay_chain(false);
        e.run_for(40);
        // A late component: the schedule must cover it from the next step.
        let l = e.add_link(1, 4);
        let late = Rc::new(Cell::new(0));
        e.add_component(
            Box::new(Consumer {
                seen: late.clone(),
                stall_until: 0,
            }),
            vec![l],
            vec![],
        );
        e.run_for(80);
        assert_eq!(seen.get(), 10, "run completes across the recompile");
        assert_eq!(e.component_tick_stats(4).ticks_run, 80);
    }

    #[test]
    fn late_receiver_sees_flits_already_in_flight() {
        let mut e = Engine::new();
        let l = e.add_link(2, 4);
        e.add_component(
            Box::new(Producer {
                pkt: pkt(8),
                next: 0,
            }),
            vec![],
            vec![l],
        );
        e.run_for(5);
        assert_eq!(e.flits_in_links(), 4, "the credit window filled");
        let seen = Rc::new(Cell::new(0));
        e.add_component(
            Box::new(Consumer {
                seen: seen.clone(),
                stall_until: 0,
            }),
            vec![l],
            vec![],
        );
        e.audit_invariants();
        for _ in 0..40 {
            e.step();
            e.audit_invariants();
        }
        assert_eq!(seen.get(), 10, "no flit stranded by the late binding");
    }
}
