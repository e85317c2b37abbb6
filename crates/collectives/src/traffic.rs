//! Traffic-source and delivery-hook interfaces between hosts and workloads.

use netsim::ids::{MessageId, NodeId};
use netsim::message::MessageKind;
use netsim::Cycle;

/// A request to send one message, produced by a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSpec {
    /// Destination(s).
    pub kind: MessageKind,
    /// Payload length in flits.
    pub payload_flits: u16,
}

/// Per-host message generator, polled once per cycle by the host.
pub trait TrafficSource {
    /// Returns the next message to send this cycle, if any.
    fn poll(&mut self, now: Cycle) -> Option<MessageSpec>;

    /// The earliest cycle after `now` at which [`TrafficSource::poll`] may
    /// return a message; polls at the cycles in between would all return
    /// `None` and may be skipped, so an idle host can sleep until then.
    /// `Cycle::MAX` means never. Callers skip only cycles before the
    /// returned one, and may still poll any of them.
    ///
    /// The default, `now + 1`, never lets the host sleep: right for
    /// closed-loop sources whose next message depends on deliveries, and
    /// for wrappers that must see every poll.
    fn next_fire(&mut self, now: Cycle) -> Cycle {
        now + 1
    }
}

/// A source that never generates traffic (receivers-only hosts).
#[derive(Debug, Default, Clone, Copy)]
pub struct SilentSource;

impl TrafficSource for SilentSource {
    fn poll(&mut self, _now: Cycle) -> Option<MessageSpec> {
        None
    }
}

/// A source that replays a fixed schedule of `(cycle, spec)` pairs, in
/// order.
#[derive(Debug)]
pub struct ScheduledSource {
    schedule: std::collections::VecDeque<(Cycle, MessageSpec)>,
}

impl ScheduledSource {
    /// Creates a source from `(cycle, spec)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the cycles are not non-decreasing.
    pub fn new(entries: Vec<(Cycle, MessageSpec)>) -> Self {
        assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "schedule must be sorted by cycle"
        );
        ScheduledSource {
            schedule: entries.into(),
        }
    }
}

impl TrafficSource for ScheduledSource {
    fn poll(&mut self, now: Cycle) -> Option<MessageSpec> {
        match self.schedule.front() {
            Some((at, _)) if *at <= now => self.schedule.pop_front().map(|(_, s)| s),
            _ => None,
        }
    }
}

/// Chains sources by priority: polls each in order and returns the first
/// message offered. Lets a protocol engine (barrier, reduce) run on top of
/// a background workload on the same host.
pub struct ChainSource {
    sources: Vec<Box<dyn TrafficSource>>,
}

impl ChainSource {
    /// Creates a chain; `sources[0]` has the highest priority.
    pub fn new(sources: Vec<Box<dyn TrafficSource>>) -> Self {
        ChainSource { sources }
    }
}

impl TrafficSource for ChainSource {
    fn poll(&mut self, now: Cycle) -> Option<MessageSpec> {
        self.sources.iter_mut().find_map(|s| s.poll(now))
    }
}

/// Observer of completed message deliveries (used by protocol layers such
/// as the barrier engine).
pub trait DeliveryHook {
    /// Called when `host` has completely received message `msg` at `now`.
    /// For software-multicast hop messages, `msg` is the *root* message id.
    fn on_delivered(&mut self, msg: MessageId, host: NodeId, now: Cycle);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_source_is_silent() {
        let mut s = SilentSource;
        assert_eq!(s.poll(0), None);
        assert_eq!(s.poll(1_000_000), None);
    }

    #[test]
    fn scheduled_source_fires_in_order() {
        let spec = |d: u32| MessageSpec {
            kind: MessageKind::Unicast(NodeId(d)),
            payload_flits: 4,
        };
        let mut s = ScheduledSource::new(vec![(5, spec(1)), (5, spec(2)), (9, spec(3))]);
        assert_eq!(s.poll(4), None);
        assert_eq!(s.poll(5), Some(spec(1)));
        assert_eq!(s.poll(5), Some(spec(2)));
        assert_eq!(s.poll(6), None);
        assert_eq!(s.poll(20), Some(spec(3)));
        assert_eq!(s.poll(21), None);
    }

    #[test]
    fn chain_source_respects_priority() {
        let spec = |d: u32| MessageSpec {
            kind: MessageKind::Unicast(NodeId(d)),
            payload_flits: 1,
        };
        let hi = ScheduledSource::new(vec![(5, spec(1))]);
        let lo = ScheduledSource::new(vec![(0, spec(2)), (0, spec(3))]);
        let mut chain = ChainSource::new(vec![Box::new(hi), Box::new(lo)]);
        assert_eq!(chain.poll(0), Some(spec(2)), "low fires while high idle");
        assert_eq!(chain.poll(5), Some(spec(1)), "high preempts");
        assert_eq!(chain.poll(6), Some(spec(3)));
        assert_eq!(chain.poll(7), None);
    }

    #[test]
    #[should_panic(expected = "sorted by cycle")]
    fn unsorted_schedule_panics() {
        let spec = MessageSpec {
            kind: MessageKind::Unicast(NodeId(0)),
            payload_flits: 1,
        };
        let _ = ScheduledSource::new(vec![(9, spec.clone()), (5, spec)]);
    }
}
