//! Unidirectional links with fixed propagation delay and credit-based flow
//! control.
//!
//! Each link moves at most one flit per cycle in the forward direction and
//! returns credits in the reverse direction. The credit window equals
//! the receiver-side staging buffer the downstream component exposes: the
//! sender spends one credit per flit, and the receiver returns a credit when
//! it frees the corresponding staging slot. A full-duplex physical cable is
//! modeled as two `Link`s.
//!
//! A link stores what is on the wire, not its whole window. Every
//! production receiver (host, central-buffer staging, input buffer) takes
//! each flit in the cycle it lands, so a link holds at most `delay + 1`
//! flits, and returned credits travel as `(arrival, count)` runs, at most
//! `delay` of them. Both live in fixed rings of `min(delay + 1, credits)`
//! slots, written in place; only a receiver that leaves arrivals on the
//! link takes the cold path that enlarges the flit ring. Fault, outage and
//! publication state lives in one lazily boxed cold struct that fault-free
//! links never allocate.

use crate::fault::{FaultCounters, LinkFaults};
use crate::flit::Flit;
use crate::ids::LinkId;
use crate::Cycle;

/// `last_send`/`last_recv` before the first send/receive: no simulated
/// cycle reaches it.
const NEVER: Cycle = Cycle::MAX;

/// One queued flit with its arrival time: three words. A condemned flit
/// carries its drop mark in its own word ([`Flit::dropped`]).
#[derive(Debug)]
struct InFlight {
    arrives: Cycle,
    flit: Flit,
}

/// A FIFO in one boxed slice of slots that never reallocates while it has
/// room: a push writes its entry straight into the next slot. Only a push
/// into a full ring takes the cold [`Ring::spill`] path.
#[derive(Debug)]
struct Ring<T> {
    slots: Box<[Option<T>]>,
    /// Slot of the front entry.
    head: u32,
    len: u32,
}

impl<T> Ring<T> {
    fn with_capacity(cap: usize) -> Self {
        Ring {
            slots: std::iter::repeat_with(|| None).take(cap).collect(),
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    /// Slot of the `i`-th entry from the front, for `i` below the slot count.
    fn slot(&self, i: u32) -> usize {
        let at = (self.head + i) as usize;
        let cap = self.slots.len();
        if at >= cap {
            at - cap
        } else {
            at
        }
    }

    fn front(&self) -> Option<&T> {
        if self.len == 0 {
            return None;
        }
        self.slots[self.head as usize].as_ref()
    }

    fn back_mut(&mut self) -> Option<&mut T> {
        let last = self.len.checked_sub(1)?;
        let at = self.slot(last);
        self.slots[at].as_mut()
    }

    fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.slots[self.head as usize].take();
        self.head = self.slot(1) as u32;
        self.len -= 1;
        v
    }

    fn push_back(&mut self, v: T) {
        fill(self.push_slot(), v);
    }

    /// Counts one more entry and returns its slot, still empty, for
    /// [`fill`]. A full ring spills first: a caller that builds the entry
    /// after this returns builds it in registers, where one held across
    /// the spill call would wait on the stack and reach its slot through
    /// a wide reload that store forwarding cannot serve.
    fn push_slot(&mut self) -> &mut Option<T> {
        if self.len() == self.slots.len() {
            self.spill();
        }
        let at = self.slot(self.len);
        self.len += 1;
        &mut self.slots[at]
    }

    /// Doubles a full ring, front entry first. A receiver that takes each
    /// flit as it lands never gets here.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        let mut bigger = Ring::with_capacity(2 * self.slots.len());
        while let Some(v) = self.pop_front() {
            bigger.push_back(v);
        }
        *self = bigger;
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).filter_map(|i| self.slots[self.slot(i)].as_ref())
    }
}

/// Writes `v` into an empty ring slot without the drop check (and call)
/// a plain assignment would make.
fn fill<T>(slot: &mut Option<T>, v: T) {
    let empty = slot.replace(v);
    debug_assert!(empty.is_none(), "ring slot past the back is occupied");
    std::mem::forget(empty);
}

/// One observed link up/down transition, published by the engine.
///
/// Events come from two sources: the stochastic outage schedule of an
/// installed [`crate::fault::FaultPlan`], and scripted outage windows
/// ([`Link::script_outage`]). Recording is opt-in per link
/// ([`Link::publish_transitions`]) so runs that never drain the event
/// stream do not accumulate unbounded history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// The link that changed state.
    pub link: LinkId,
    /// Cycle at which the transition took effect.
    pub at: Cycle,
    /// `true` = the link went down, `false` = it came back up.
    pub down: bool,
}

/// A unidirectional, credit flow-controlled link.
///
/// Links are owned by the [`crate::engine::Engine`]; components access them
/// through [`crate::engine::PortIo`].
///
/// An optional [`LinkFaults`] stream (installed via
/// [`Link::install_faults`]) can condemn worms, corrupt flits, take the
/// link down for intervals, and leak returned credits. It lives with the
/// scripted and administrative outage state in a cold struct that is
/// allocated on first use, so a fault-free link pays one `Option` test
/// on these paths.
#[derive(Debug)]
pub struct Link {
    delay: u32,
    /// Credits folded into the sender's count.
    credits: u32,
    max_credits: u32,
    /// When set, up/down transitions are recorded for
    /// [`Link::take_transitions`]. Kept here, in the padding after the
    /// three counters, so enabling publication on every link of a fabric
    /// allocates no cold state for links that can never go down.
    publish: bool,
    flit_q: Ring<InFlight>,
    /// Returned credits still propagating, as `(arrives, count)` runs in
    /// arrival order; every run holds at least one credit.
    credit_q: Ring<(Cycle, u32)>,
    last_send: Cycle,
    last_recv: Cycle,
    total_flits: u64,
    cold: Option<Box<Cold>>,
}

/// The outage and fault state of a link, boxed on first use.
#[derive(Debug, Default)]
struct Cold {
    faults: Option<LinkFaults>,
    /// Scripted outage windows `[from, until)`, in schedule order.
    scripted: Vec<(Cycle, Cycle)>,
    /// Administrative down state, toggled by a control plane
    /// ([`Link::set_forced_down`]) rather than by the fault clock.
    forced_down: bool,
    /// Raw up/down state at the last `begin_cycle`, for edge detection.
    was_down: bool,
    /// Recorded transitions awaiting [`Link::take_transitions`].
    transitions: Vec<(Cycle, bool)>,
}

impl Cold {
    /// `true` if the link refuses new flits at `now`: an administrative
    /// hold, a scripted window, or the fault stream's outage schedule.
    fn is_down(&self, now: Cycle) -> bool {
        self.forced_down
            || self
                .scripted
                .iter()
                .any(|&(from, until)| (from..until).contains(&now))
            || self.faults.as_ref().is_some_and(|f| f.is_down(now))
    }

    /// Records an up/down edge if the raw state at `now` differs from the
    /// last one seen.
    fn detect_edge(&mut self, now: Cycle, publish: bool) {
        let down = self.is_down(now);
        if down != self.was_down {
            self.was_down = down;
            if publish {
                self.transitions.push((now, down));
            }
        }
    }
}

impl Link {
    /// Creates a link with `delay ≥ 1` cycles of propagation and a credit
    /// window of `credits` flits.
    ///
    /// Both rings hold `min(delay + 1, credits)` entries: when the
    /// receiver takes each flit in the cycle it lands, as every production
    /// receiver does, at most `delay + 1` flits are on the wire (sent at
    /// `now - delay ..= now`). Credit runs arrive in `now + 1 ..= now +
    /// delay` and hold one credit or more each, so at most
    /// `min(delay, credits)` of them propagate back, whatever the
    /// receiver does. Only a receiver that leaves arrivals on the link
    /// spills the flit ring into a larger one; it never holds more than
    /// `credits` flits.
    ///
    /// # Panics
    ///
    /// Panics if `delay == 0` (same-cycle visibility would make component
    /// ordering observable) or `credits == 0`.
    pub fn new(delay: u32, credits: u32) -> Self {
        assert!(delay >= 1, "link delay must be at least one cycle");
        assert!(credits >= 1, "credit window must be at least one flit");
        let wire = delay.saturating_add(1).min(credits) as usize;
        Link {
            delay,
            credits,
            max_credits: credits,
            publish: false,
            flit_q: Ring::with_capacity(wire),
            credit_q: Ring::with_capacity(wire),
            last_send: NEVER,
            last_recv: NEVER,
            total_flits: 0,
            cold: None,
        }
    }

    /// The cold state, allocated on first use.
    fn cold_mut(&mut self) -> &mut Cold {
        self.cold.get_or_insert_with(Box::default)
    }

    /// The installed fault stream, if any.
    fn faults_mut(&mut self) -> Option<&mut LinkFaults> {
        self.cold.as_deref_mut().and_then(|c| c.faults.as_mut())
    }

    /// Installs a fault stream on this link (see [`crate::fault`]).
    pub fn install_faults(&mut self, faults: LinkFaults) {
        self.cold_mut().faults = Some(faults);
    }

    /// Schedules a deterministic outage: the link refuses new flits during
    /// `[from, until)`. In-flight flits still arrive and credits still
    /// propagate, exactly like a stochastic [`crate::fault::FaultPlan`]
    /// outage. Transition publication is enabled as a side effect so the
    /// outage is observable through [`Link::take_transitions`].
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn script_outage(&mut self, from: Cycle, until: Cycle) {
        assert!(until > from, "outage window must be non-empty");
        self.cold_mut().scripted.push((from, until));
        self.publish = true;
    }

    /// Enables recording of up/down transitions on this link.
    pub fn publish_transitions(&mut self) {
        self.publish = true;
    }

    /// Sets the administrative (control-plane-driven) down state. Unlike
    /// [`Link::script_outage`] the state has no scheduled end: it holds
    /// until the next call. The edge is detected and published immediately
    /// (publication is enabled as a side effect), so a resident service
    /// can drive link state from a command stream on a link the engine
    /// never advances with [`Link::begin_cycle`].
    pub fn set_forced_down(&mut self, now: Cycle, down: bool) {
        self.publish = true;
        let cold = self.cold_mut();
        cold.forced_down = down;
        cold.detect_edge(now, true);
    }

    /// `true` while the administrative down state is set.
    pub fn forced_down(&self) -> bool {
        self.cold.as_deref().is_some_and(|c| c.forced_down)
    }

    /// Drains the recorded up/down transitions as `(cycle, down)` pairs.
    pub fn take_transitions(&mut self) -> Vec<(Cycle, bool)> {
        self.cold
            .as_deref_mut()
            .map_or_else(Vec::new, |c| std::mem::take(&mut c.transitions))
    }

    /// `true` if the link refuses new flits this cycle, from an
    /// administrative hold, a scripted window, or the installed fault
    /// stream's outage schedule.
    pub fn is_down(&self, now: Cycle) -> bool {
        self.cold.as_deref().is_some_and(|c| c.is_down(now))
    }

    /// Injection totals for this link, if faults are installed.
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        let faults = self.cold.as_deref()?.faults.as_ref()?;
        Some(&faults.counters)
    }

    /// Propagation delay in cycles.
    pub fn delay(&self) -> u32 {
        self.delay
    }

    /// Credits available to the sender at `now`: the folded count plus
    /// every returned credit that has propagated back by `now`.
    pub fn credits(&self, now: Cycle) -> u32 {
        let matured: u32 = self
            .credit_q
            .iter()
            .take_while(|&&(arr, _)| arr <= now)
            .map(|&(_, n)| n)
            .sum();
        self.credits + matured
    }

    /// Configured credit window.
    pub fn max_credits(&self) -> u32 {
        self.max_credits
    }

    /// Total flits ever sent on this link.
    pub fn total_flits(&self) -> u64 {
        self.total_flits
    }

    /// Number of flits currently in flight (sent but not received).
    pub fn in_flight(&self) -> usize {
        self.flit_q.len()
    }

    /// Absolute cycle at which the earliest in-flight flit arrives, or
    /// `None` if nothing is in flight. Arrival times are monotone (fixed
    /// delay), so the queue front is the minimum. Condemned flits count
    /// too — a wake they cause is spurious but harmless, and filtering
    /// them here would leak fault state into scheduling decisions.
    pub fn next_arrival(&self) -> Option<Cycle> {
        self.flit_q.front().map(|q| q.arrives)
    }

    /// Folds every returned credit that has propagated back by `now` into
    /// the sender's count. [`Link::can_send`], [`Link::send`] and
    /// [`Link::credits`] see matured credits without it, and returning a
    /// credit folds first, so nothing has to call this every cycle; it
    /// exists as the eager reference the lazy fold is tested against.
    pub fn fold_credits(&mut self, now: Cycle) {
        while let Some(&(arr, n)) = self.credit_q.front() {
            if arr > now {
                break;
            }
            self.credit_q.pop_front();
            self.credits += n;
            debug_assert!(
                self.credits <= self.max_credits,
                "credit overflow: more credits returned than spent"
            );
        }
    }

    /// Starts `n ≥ 1` credits back toward the sender at `now`. Matured
    /// runs fold first, so the queue holds runs arriving in
    /// `now + 1 ..= now + delay` only: at most `delay` of them.
    fn push_credits(&mut self, now: Cycle, n: u32) {
        self.fold_credits(now);
        let at = now + Cycle::from(self.delay);
        match self.credit_q.back_mut() {
            Some((arr, count)) if *arr == at => *count += n,
            _ => self.credit_q.push_back((at, n)),
        }
    }

    /// Advances the link's timed state to `now`: the outage schedule of an
    /// installed fault stream, evaporation of condemned flits, and up/down
    /// edge detection. Returns the number of condemned flits that
    /// evaporated this cycle (always 0 on fault-free links) so callers can
    /// maintain in-flight counters.
    ///
    /// The [`crate::engine::Engine`] calls this every cycle on the links
    /// with a fault stream ([`Link::needs_begin_cycle`]), on links with
    /// scripted windows at the windows' edges, and never on the others.
    /// Without a fault stream the down state changes only at those edges
    /// and on forced toggles, which publish their own, so calling it at
    /// other cycles changes nothing. Credits are not folded here: they
    /// fold when the sender asks.
    pub fn begin_cycle(&mut self, now: Cycle) -> usize {
        let Some(cold) = self.cold.as_deref_mut() else {
            return 0;
        };
        let Some(f) = cold.faults.as_mut() else {
            cold.detect_edge(now, self.publish);
            return 0;
        };
        f.tick_outages(now);
        cold.detect_edge(now, self.publish);
        // Condemned flits evaporate on arrival: the link consumes them
        // itself and frees their staging slots, so downstream never sees
        // any part of a dropped worm. Arrival times are monotone, so
        // only front entries can have arrived.
        let mut evaporated = 0;
        while matches!(self.flit_q.front(), Some(q) if q.arrives <= now && q.flit.dropped()) {
            self.flit_q.pop_front();
            evaporated += 1;
        }
        if evaporated > 0 {
            self.push_credits(now, evaporated as u32);
        }
        evaporated
    }

    /// `true` if this link needs [`Link::begin_cycle`] every cycle: a fault
    /// stream is installed (outage schedules and condemned-flit evaporation
    /// advance with time). Scripted windows need it only at their edges.
    pub fn needs_begin_cycle(&self) -> bool {
        self.cold.as_deref().is_some_and(|c| c.faults.is_some())
    }

    /// `true` once [`Link::script_outage`] scheduled a window.
    pub fn has_scripted_outages(&self) -> bool {
        self.cold.as_deref().is_some_and(|c| !c.scripted.is_empty())
    }

    /// Sender side: `true` if a flit may be sent this cycle.
    pub fn can_send(&self, now: Cycle) -> bool {
        let credit = self.credits > 0 || self.credit_q.front().is_some_and(|&(arr, _)| arr <= now);
        credit && self.last_send != now && !self.is_down(now)
    }

    /// Sender side: sends a flit, consuming a credit.
    ///
    /// # Panics
    ///
    /// Panics if no credit is available or a flit was already sent this
    /// cycle (bandwidth is one flit per cycle).
    pub fn send(&mut self, now: Cycle, mut flit: Flit) {
        self.fold_credits(now);
        assert!(self.credits > 0, "send without credit");
        assert_ne!(self.last_send, now, "link bandwidth exceeded");
        if let Some(f) = self.faults_mut() {
            if f.roll_drop(flit.is_head(), flit.packet().total_flits()) {
                flit.mark_dropped();
            } else if f.roll_corrupt() {
                flit.mark_corrupt();
            }
        }
        self.credits -= 1;
        self.last_send = now;
        self.total_flits += 1;
        let arrives = now + Cycle::from(self.delay);
        fill(self.flit_q.push_slot(), InFlight { arrives, flit });
    }

    /// Receiver side: the flit arriving this cycle, if any, without
    /// consuming it.
    pub fn peek(&self, now: Cycle) -> Option<&Flit> {
        match self.flit_q.front() {
            Some(q) if q.arrives <= now && !q.flit.dropped() => Some(&q.flit),
            _ => None,
        }
    }

    /// Receiver side: consumes the arrived flit (at most one per cycle).
    ///
    /// The receiver must eventually return one credit per consumed flit
    /// ([`Link::return_credit`] or [`Link::return_credits`]), when the
    /// staging slot it occupied frees up.
    pub fn recv(&mut self, now: Cycle) -> Option<Flit> {
        if self.last_recv == now {
            return None;
        }
        match self.flit_q.front() {
            Some(q) if q.arrives <= now && !q.flit.dropped() => {
                self.last_recv = now;
                Some(self.flit_q.pop_front().expect("front exists").flit)
            }
            _ => None,
        }
    }

    /// Asserts the credit-conservation invariant: every credit of the
    /// configured window is either available to the sender, travelling in
    /// one of the two queues, permanently leaked by an injected fault, or
    /// held by the receiver for a consumed-but-unfreed staging slot. The
    /// receiver-held share is not observable from the link, so the check is
    /// an inequality — anything *above* the window means a credit was
    /// forged.
    ///
    /// Called by the engine every cycle under the `invariant-audit`
    /// feature; cheap enough to call from tests directly.
    pub fn audit_credit_conservation(&self) {
        let leaked = self.fault_counters().map_or(0, |c| c.credits_leaked);
        let returning: u64 = self.credit_q.iter().map(|&(_, n)| u64::from(n)).sum();
        let accounted = u64::from(self.credits) + self.flit_q.len() as u64 + returning + leaked;
        assert!(
            accounted <= u64::from(self.max_credits),
            "credit conservation violated: {} credits accounted \
             (available {} + in-flight {} + returning {returning} + leaked {leaked}) \
             exceed window {}",
            accounted,
            self.credits,
            self.flit_q.len(),
            self.max_credits,
        );
    }

    /// Receiver side: returns one credit toward the sender; it becomes
    /// usable after the propagation delay.
    ///
    /// Under an installed fault stream the credit may leak (vanish), but
    /// never below a window of one — a fully wedged link would be a cut
    /// cable, which is outside the recoverable fault model.
    pub fn return_credit(&mut self, now: Cycle) {
        self.return_credits(now, 1);
    }

    /// Receiver side: returns `n` credits at once, exactly as `n` calls of
    /// [`Link::return_credit`] in the same cycle would: under a fault
    /// stream each credit rolls its own leak, in order, and the survivors
    /// travel back as one run.
    pub fn return_credits(&mut self, now: Cycle, n: u32) {
        // At most max_credits - 1 may ever leak, so one credit always
        // keeps circulating and the link retains forward progress.
        let budget = u64::from(self.max_credits - 1);
        let kept = match self.faults_mut() {
            Some(f) => (0..n).filter(|_| !f.roll_credit_leak(budget)).count() as u32,
            None => n,
        };
        if kept > 0 {
            self.push_credits(now, kept);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::packet::PacketBuilder;
    use std::rc::Rc;

    fn flit() -> Flit {
        let p = Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(1), 4, 16).build());
        Flit::new(p, 0)
    }

    #[test]
    fn delivery_respects_delay() {
        let mut l = Link::new(3, 4);
        l.begin_cycle(0);
        assert!(l.can_send(0));
        l.send(0, flit());
        assert_eq!(l.in_flight(), 1);
        for now in 1..3 {
            l.begin_cycle(now);
            assert!(l.peek(now).is_none());
            assert!(l.recv(now).is_none());
        }
        l.begin_cycle(3);
        assert!(l.peek(3).is_some());
        assert!(l.recv(3).is_some());
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.total_flits(), 1);
    }

    #[test]
    fn bandwidth_is_one_flit_per_cycle() {
        let mut l = Link::new(1, 4);
        l.begin_cycle(0);
        l.send(0, flit());
        assert!(!l.can_send(0), "second send same cycle must be refused");
    }

    #[test]
    #[should_panic(expected = "bandwidth exceeded")]
    fn double_send_panics() {
        let mut l = Link::new(1, 4);
        l.send(0, flit());
        l.send(0, flit());
    }

    #[test]
    fn credits_block_and_return() {
        let mut l = Link::new(1, 2);
        l.begin_cycle(0);
        l.send(0, flit());
        l.begin_cycle(1);
        l.send(1, flit());
        assert_eq!(l.credits(1), 0);
        assert!(!l.can_send(2));
        // Receiver consumes and frees one slot at cycle 2.
        l.begin_cycle(2);
        assert!(l.recv(2).is_some());
        l.return_credit(2);
        assert_eq!(l.credits(2), 0, "the credit is still propagating");
        // Credit arrives at sender at cycle 3, folded or not.
        assert!(l.can_send(3));
        l.fold_credits(3);
        assert_eq!(l.credits(3), 1);
    }

    /// The hot link fits two cache lines, and a link that never saw a
    /// fault, a window or a toggle carries no cold state, even with
    /// publication on and after traffic.
    #[test]
    fn hot_link_is_compact_and_fault_free_links_stay_cold_free() {
        assert!(
            std::mem::size_of::<Link>() <= 128,
            "{}",
            std::mem::size_of::<Link>()
        );
        let mut l = Link::new(2, 128);
        l.publish_transitions();
        for now in 0..40 {
            l.begin_cycle(now);
            if l.can_send(now) {
                l.send(now, flit());
            }
            if l.recv(now).is_some() {
                l.return_credit(now);
            }
        }
        assert!(l.cold.is_none());
        assert!(!l.needs_begin_cycle() && !l.is_down(40));
        assert!(l.fault_counters().is_none() && l.take_transitions().is_empty());
        l.set_forced_down(40, false);
        assert!(l.cold.is_some(), "a toggle allocates the cold state");
    }

    /// A receiver that drains every arrival keeps at most `delay + 1`
    /// flits and `delay` credit runs on the link, so it never spills
    /// either ring, at any delay or window; credits returned together
    /// travel as one run.
    #[test]
    fn prompt_receiver_keeps_queues_within_delay() {
        for delay in 1..=8u32 {
            for window in [1, 2, 3, 8, 64] {
                let mut l = Link::new(delay, window);
                let wire = (delay as usize + 1).min(window as usize);
                for now in 0..200 {
                    if l.can_send(now) {
                        l.send(now, flit());
                    }
                    assert!(l.in_flight() <= delay as usize + 1);
                    if l.recv(now).is_some() {
                        l.return_credit(now);
                    }
                    assert!(l.credit_q.len() <= delay as usize);
                }
                assert!(l.total_flits() > 0);
                assert_eq!(
                    (l.flit_q.slots.len(), l.credit_q.slots.len()),
                    (wire, wire),
                    "delay {delay}, window {window} spilled"
                );
            }
        }
        let mut l = Link::new(3, 8);
        for now in 0..5 {
            l.send(now, flit());
        }
        assert!(l.flit_q.slots.len() > 4, "a lazy receiver spills");
        for now in 5..8 {
            l.recv(now);
        }
        l.return_credits(8, 3);
        assert_eq!(l.credit_q.iter().copied().collect::<Vec<_>>(), [(11, 3)]);
        assert_eq!(l.credits(10), 3);
        assert_eq!(l.credits(11), 6);
    }

    /// The rings against a `VecDeque` model of the same link that keeps
    /// one entry per returning credit: seeded random traffic over delays
    /// 1–4 and windows 1–16, prompt and lazy receivers, with and without
    /// a fault plan that drops worms, corrupts flits and leaks credits.
    /// Flit order, arrival cycles, credits, occupancy and the next arrival
    /// agree every cycle.
    #[test]
    fn rings_match_a_vecdeque_model() {
        use crate::fault::FaultPlan;
        use crate::rng::SimRng;
        use std::collections::VecDeque;

        /// The model: `(arrives, flit, dropped)` per flit on the wire and
        /// the arrival cycle of each returning credit.
        struct Model {
            delay: Cycle,
            max_credits: u32,
            credits: u32,
            wire: VecDeque<(Cycle, Flit, bool)>,
            returning: VecDeque<Cycle>,
            faults: Option<LinkFaults>,
            last_recv: Cycle,
        }

        impl Model {
            fn credits(&self, now: Cycle) -> u32 {
                self.credits + self.returning.iter().filter(|&&at| at <= now).count() as u32
            }
            fn fold(&mut self, now: Cycle) {
                while self.returning.front().is_some_and(|&at| at <= now) {
                    self.returning.pop_front();
                    self.credits += 1;
                }
            }
            fn give_back(&mut self, now: Cycle, n: u32) {
                self.fold(now);
                for _ in 0..n {
                    self.returning.push_back(now + self.delay);
                }
            }
            fn begin_cycle(&mut self, now: Cycle) -> usize {
                let mut evaporated = 0;
                while self.wire.front().is_some_and(|q| q.0 <= now && q.2) {
                    self.wire.pop_front();
                    evaporated += 1;
                }
                self.give_back(now, evaporated as u32);
                evaporated
            }
            fn send(&mut self, now: Cycle, mut flit: Flit) {
                self.fold(now);
                assert!(self.credits > 0);
                self.credits -= 1;
                let mut dropped = false;
                if let Some(f) = self.faults.as_mut() {
                    dropped = f.roll_drop(flit.is_head(), flit.packet().total_flits());
                    if !dropped && f.roll_corrupt() {
                        flit.mark_corrupt();
                    }
                }
                self.wire.push_back((now + self.delay, flit, dropped));
            }
            fn recv(&mut self, now: Cycle) -> Option<Flit> {
                match self.wire.front() {
                    Some(q) if q.0 <= now && !q.2 && self.last_recv != now => {
                        self.last_recv = now;
                        self.wire.pop_front().map(|q| q.1)
                    }
                    _ => None,
                }
            }
            fn return_credits(&mut self, now: Cycle, n: u32) {
                let budget = u64::from(self.max_credits - 1);
                let kept = match self.faults.as_mut() {
                    Some(f) => (0..n).filter(|_| !f.roll_credit_leak(budget)).count() as u32,
                    None => n,
                };
                self.give_back(now, kept);
            }
        }

        let plan = FaultPlan {
            flit_drop: 0.02,
            flit_corrupt: 0.05,
            credit_leak: 0.01,
            ..FaultPlan::none(7)
        };
        let cycles = if cfg!(miri) { 40 } else { 400 };
        let mut rng = SimRng::new(24);
        let p = Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(1), 3, 16).build());
        let mut spilled = 0;
        for delay in 1..=4u32 {
            for window in 1..=16u32 {
                for lazy in [false, true] {
                    for faulty in [false, true] {
                        let mut l = Link::new(delay, window);
                        let mut m = Model {
                            delay: Cycle::from(delay),
                            max_credits: window,
                            credits: window,
                            wire: VecDeque::new(),
                            returning: VecDeque::new(),
                            faults: None,
                            last_recv: NEVER,
                        };
                        if faulty {
                            let id = LinkId::from(window as usize);
                            l.install_faults(plan.for_link(id));
                            m.faults = Some(plan.for_link(id));
                        }
                        let (mut next, mut held) = (0u16, 0u32);
                        for now in 0..cycles {
                            // Printed on a mismatch only: no formatting per cycle.
                            let case = (delay, window, lazy, faulty, now);
                            assert_eq!(l.begin_cycle(now), m.begin_cycle(now), "{case:?}");
                            let can = l.can_send(now);
                            assert_eq!(can, m.credits(now) > 0, "{case:?}");
                            if can && rng.chance(0.8) {
                                let f = Flit::new(p.clone(), next);
                                next = (next + 1) % p.total_flits();
                                l.send(now, f.clone());
                                m.send(now, f);
                            }
                            if !lazy || rng.chance(0.3) {
                                let peeked = l.peek(now).map(|f| (f.idx(), f.corrupted()));
                                let (got, want) = (l.recv(now), m.recv(now));
                                let got = got.map(|f| (f.idx(), f.corrupted()));
                                assert_eq!(got, want.map(|f| (f.idx(), f.corrupted())), "{case:?}");
                                assert_eq!(peeked, got, "{case:?}");
                                held += u32::from(got.is_some());
                            }
                            if held > 0 && (!lazy || rng.chance(0.3)) {
                                let n = if lazy {
                                    1 + rng.below(held as usize) as u32
                                } else {
                                    held
                                };
                                l.return_credits(now, n);
                                m.return_credits(now, n);
                                held -= n;
                            }
                            assert_eq!(l.credits(now), m.credits(now), "{case:?}");
                            assert_eq!(l.credits(now + 2), m.credits(now + 2), "{case:?}");
                            assert_eq!(l.in_flight(), m.wire.len(), "{case:?}");
                            assert_eq!(l.next_arrival(), m.wire.front().map(|q| q.0), "{case:?}");
                            let arrivals = l
                                .flit_q
                                .iter()
                                .map(|q| (q.arrives, q.flit.idx(), q.flit.dropped()));
                            let model = m.wire.iter().map(|q| (q.0, q.1.idx(), q.2));
                            assert!(arrivals.eq(model), "{case:?}");
                            l.audit_credit_conservation();
                        }
                        let wire = (delay as usize + 1).min(window as usize);
                        if !lazy {
                            assert_eq!(l.flit_q.slots.len(), wire, "a prompt receiver spilled");
                        }
                        spilled += usize::from(l.flit_q.slots.len() > wire);
                        assert_eq!(l.credit_q.slots.len(), wire, "credit runs spilled");
                    }
                }
            }
        }
        assert!(spilled > 0, "no lazy receiver reached the spill path");
    }

    #[test]
    fn recv_limited_to_one_per_cycle() {
        let mut l = Link::new(1, 4);
        l.begin_cycle(0);
        l.send(0, flit());
        l.begin_cycle(1);
        l.send(1, flit());
        l.begin_cycle(2);
        assert!(l.recv(2).is_some());
        assert!(l.recv(2).is_none(), "only one flit per cycle may arrive");
        l.begin_cycle(3);
        assert!(l.recv(3).is_some());
    }

    #[test]
    #[should_panic(expected = "delay must be at least one")]
    fn zero_delay_rejected() {
        let _ = Link::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "send without credit")]
    fn send_without_credit_panics() {
        let mut l = Link::new(1, 1);
        l.send(0, flit());
        l.begin_cycle(1);
        l.send(1, flit());
    }

    mod scripted {
        use super::*;

        #[test]
        fn window_blocks_sender_and_publishes_transitions() {
            let mut l = Link::new(1, 4);
            l.script_outage(10, 20);
            for now in 0..30 {
                l.begin_cycle(now);
                let expect_down = (10..20).contains(&now);
                assert_eq!(l.is_down(now), expect_down, "cycle {now}");
                assert_eq!(l.can_send(now), !expect_down, "cycle {now}");
            }
            assert_eq!(l.take_transitions(), vec![(10, true), (20, false)]);
            assert!(l.take_transitions().is_empty(), "drain empties the log");
        }

        #[test]
        fn in_flight_flits_survive_the_outage() {
            let mut l = Link::new(3, 4);
            l.script_outage(1, 50);
            l.begin_cycle(0);
            l.send(0, flit());
            for now in 1..=3 {
                l.begin_cycle(now);
            }
            assert!(l.recv(3).is_some(), "flit sent before outage arrives");
            assert!(!l.can_send(3), "but the sender is blocked");
        }

        #[test]
        #[should_panic(expected = "non-empty")]
        fn empty_window_rejected() {
            let mut l = Link::new(1, 1);
            l.script_outage(7, 7);
        }
    }

    mod faults {
        use super::*;
        use crate::fault::FaultPlan;
        use crate::ids::LinkId;

        /// Sends every flit of one worm through `l`, consuming arrivals each
        /// cycle; returns (flits received, any corrupt, credits at rest),
        /// handing the link back for counter inspection.
        fn push_worm_through(mut l: Link, payload: u16) -> ((u16, bool, u32), Link) {
            let p = Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(1), payload, 16).build());
            let total = p.total_flits();
            let mut sent = 0u16;
            let mut got = 0u16;
            let mut corrupt = false;
            for now in 0..10_000u64 {
                l.begin_cycle(now);
                if sent < total && l.can_send(now) {
                    l.send(now, Flit::new(p.clone(), sent));
                    sent += 1;
                }
                if let Some(f) = l.recv(now) {
                    corrupt |= f.corrupted();
                    got += 1;
                    l.return_credit(now);
                }
                if sent == total && l.in_flight() == 0 && now > 200 {
                    l.begin_cycle(now + 100);
                    let credits = l.credits(now + 100);
                    return ((got, corrupt, credits), l);
                }
            }
            panic!("worm never drained");
        }

        #[test]
        fn certain_drop_swallows_whole_worm_and_returns_credits() {
            let mut l = Link::new(2, 3);
            l.install_faults(FaultPlan::drops(5, 1.0).for_link(LinkId::from(0usize)));
            let ((got, _, credits), l) = push_worm_through(l, 6);
            assert_eq!(got, 0, "condemned worm must not surface");
            assert_eq!(credits, 3, "link self-returns credits for dropped flits");
            let c = l.fault_counters().unwrap();
            assert_eq!(c.worms_dropped, 1);
            assert_eq!(c.flits_dropped, 8);
        }

        #[test]
        fn certain_corruption_marks_but_delivers() {
            let mut l = Link::new(1, 4);
            let plan = FaultPlan {
                flit_corrupt: 1.0,
                ..FaultPlan::none(5)
            };
            l.install_faults(plan.for_link(LinkId::from(0usize)));
            let ((got, corrupt, credits), l) = push_worm_through(l, 6);
            assert_eq!(got, 8, "corrupt flits still arrive");
            assert!(corrupt);
            assert_eq!(credits, 4);
            assert_eq!(l.fault_counters().unwrap().flits_corrupted, 8);
        }

        #[test]
        fn outage_blocks_sender_but_preserves_flits() {
            let mut l = Link::new(1, 8);
            let plan = FaultPlan {
                down_every: 20,
                down_len: 10,
                ..FaultPlan::none(11)
            };
            l.install_faults(plan.for_link(LinkId::from(0usize)));
            let ((got, corrupt, credits), l) = push_worm_through(l, 6);
            assert_eq!(got, 8, "outages delay but never lose flits");
            assert!(!corrupt);
            assert_eq!(credits, 8);
            assert!(l.fault_counters().unwrap().down_cycles > 0);
        }

        #[test]
        fn credit_leaks_shrink_window_but_never_wedge() {
            let mut l = Link::new(1, 3);
            let plan = FaultPlan {
                credit_leak: 1.0,
                ..FaultPlan::none(13)
            };
            l.install_faults(plan.for_link(LinkId::from(0usize)));
            let ((got, _, credits), l) = push_worm_through(l, 6);
            assert_eq!(got, 8, "leaky link still delivers, just slower");
            assert_eq!(
                credits, 1,
                "all but one credit leak at certainty, one survives"
            );
            assert_eq!(l.fault_counters().unwrap().credits_leaked, 2);
        }

        #[test]
        fn noop_faults_change_nothing() {
            let (clean, _) = push_worm_through(Link::new(2, 3), 6);
            let mut l = Link::new(2, 3);
            l.install_faults(FaultPlan::none(99).for_link(LinkId::from(0usize)));
            let (faulty, _) = push_worm_through(l, 6);
            assert_eq!(faulty, clean);
        }
    }

    mod forced {
        use super::*;

        #[test]
        fn forced_down_publishes_edges_and_blocks_sends() {
            let mut l = Link::new(1, 4);
            assert!(l.can_send(10));
            l.set_forced_down(10, true);
            assert!(!l.can_send(10));
            assert!(l.is_down(10));
            assert!(l.forced_down());
            l.set_forced_down(25, false);
            assert!(l.can_send(25));
            assert_eq!(l.take_transitions(), vec![(10, true), (25, false)]);
        }

        #[test]
        fn redundant_toggles_publish_no_duplicate_edges() {
            let mut l = Link::new(1, 4);
            l.set_forced_down(5, true);
            l.set_forced_down(7, true); // already down: no new edge
            l.set_forced_down(9, false);
            l.set_forced_down(11, false);
            assert_eq!(l.take_transitions(), vec![(5, true), (9, false)]);
        }

        #[test]
        fn forced_up_does_not_mask_a_scripted_outage() {
            let mut l = Link::new(1, 4);
            l.script_outage(10, 20);
            l.begin_cycle(10); // scripted edge detected
            l.set_forced_down(12, false); // admin state already up: no edge
            assert!(l.is_down(12), "scripted window still holds");
            assert_eq!(l.take_transitions(), vec![(10, true)]);
        }
    }
}
