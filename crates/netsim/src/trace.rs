//! Optional structured event tracing of simulations.
//!
//! [`SemTrace`] records semantic protocol events ([`SemEvent`]) from the
//! switches at every central-queue reservation, chunk release, and purge.
//! Because each event carries the observable outcome (grant flag, free
//! count), a recorded run can be replayed step-for-step against the pure
//! transition cores in `switches::semantics` — the trace-conformance
//! refinement check the `invariant-audit` feature performs after every
//! experiment.
//!
//! Tracing is off by default and costs one branch per call when disabled.

use crate::Cycle;
use std::cell::RefCell;
use std::rc::Rc;

/// One semantic protocol event of a switch's buffer-accounting machine.
///
/// Each variant records both the *input* of the abstract transition and
/// its *observable outcome*, so a replay against the pure model needs no
/// access to simulator internals: it re-runs the transition and compares
/// outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemEvent {
    /// A full-packet central-queue reservation attempt (central-buffer
    /// architecture).
    CqReserve {
        /// Switch raw id.
        sw: u32,
        /// Requesting input port (or virtual input for synthesized
        /// packets).
        input: usize,
        /// Chunks the packet needs.
        need: usize,
        /// `true` if the packet arrived through an up port.
        descending: bool,
        /// Whether the reservation was granted this attempt.
        granted: bool,
        /// Free chunks after the attempt.
        free_after: usize,
    },
    /// A chunk's last reader finished and the chunk was routed to a
    /// waiter or back to the pool.
    CqRelease {
        /// Switch raw id.
        sw: u32,
        /// Free chunks after the release.
        free_after: usize,
    },
    /// A quiesce purge reset the chunk pool to pristine.
    CqPurge {
        /// Switch raw id.
        sw: u32,
    },
}

/// A buffer of semantic protocol events gated by an on/off switch.
///
/// Shared between the switch (writer) and the experiment harness (reader)
/// through a [`SemHandle`].
#[derive(Debug, Default)]
pub struct SemTrace {
    enabled: bool,
    events: Vec<(Cycle, SemEvent)>,
}

/// Shared handle to a [`SemTrace`].
pub type SemHandle = Rc<RefCell<SemTrace>>;

impl SemTrace {
    /// Creates a disabled trace buffer behind a shared handle.
    pub fn handle() -> SemHandle {
        Rc::new(RefCell::new(SemTrace::default()))
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Returns `true` if events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event if enabled.
    pub fn log(&mut self, now: Cycle, event: SemEvent) {
        if self.enabled {
            self.events.push((now, event));
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[(Cycle, SemEvent)] {
        &self.events
    }

    /// Drops all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sem_trace_gates_on_enabled() {
        let h = SemTrace::handle();
        h.borrow_mut().log(1, SemEvent::CqPurge { sw: 0 });
        assert!(h.borrow().events().is_empty());
        h.borrow_mut().set_enabled(true);
        h.borrow_mut().log(
            2,
            SemEvent::CqRelease {
                sw: 0,
                free_after: 7,
            },
        );
        assert_eq!(h.borrow().events().len(), 1);
        assert!(h.borrow().is_enabled());
        h.borrow_mut().clear();
        assert!(h.borrow().events().is_empty());
    }
}
