//! Synthetic traffic generators for the paper's workloads.
//!
//! The evaluation uses (abstract §7): *multiple multicast* (every node
//! multicasts), *bimodal* traffic (a unicast background with a multicast
//! fraction), *varying degree of multicast*, *varying message length*, and
//! *varying system size*. All of these reduce to [`RandomTraffic`]
//! instances with different parameters.
//!
//! **Offered load** is defined as requested *delivery* bandwidth: the
//! expected number of payload flits per node per cycle that destinations
//! should receive, as a fraction of link bandwidth (one flit per cycle). A
//! unicast message of `L` flits contributes `L`; a multicast of degree `d`
//! contributes `d·L`, since every destination must receive a copy — the
//! ejection links are the hard capacity bound no scheme can beat, so load 1
//! is the ideal saturation point regardless of scheme. A load of 0.2 with
//! 64-flit unicasts means each node starts a message every 320 cycles on
//! average; with degree-16 multicasts, every 5120 cycles.

use collectives::{MessageSpec, TrafficSource};
use netsim::ids::NodeId;
use netsim::message::MessageKind;
use netsim::rng::{Chance, SimRng};
use netsim::Cycle;

/// Unicast destination pattern.
///
/// `Uniform` is the paper's default; the permutations are the classic MIN
/// stress patterns ("other traffic patterns" in the paper's §9 outlook).
/// Permutation patterns require a power-of-two system size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pattern {
    /// Uniformly random destination (excluding the source).
    #[default]
    Uniform,
    /// Destination = source with its address bits reversed.
    BitReversal,
    /// Destination = source with high and low address halves swapped.
    Transpose,
    /// Destination = source + 1 (mod N).
    NearNeighbor,
}

impl Pattern {
    /// The destination this pattern maps `me` to, or `None` when the
    /// pattern maps a node to itself (those nodes fall back to uniform).
    ///
    /// # Panics
    ///
    /// Panics if a permutation pattern is used with a non-power-of-two
    /// system size.
    pub fn dest(&self, me: NodeId, n_hosts: usize) -> Option<NodeId> {
        let bits = n_hosts.trailing_zeros();
        if !matches!(self, Pattern::Uniform) {
            assert!(
                n_hosts.is_power_of_two(),
                "permutation patterns need a power-of-two system size"
            );
        }
        let m = me.index();
        let d = match self {
            Pattern::Uniform => return None,
            Pattern::BitReversal => (m.reverse_bits() >> (usize::BITS - bits)) & (n_hosts - 1),
            Pattern::Transpose => {
                let half = bits / 2;
                let lo_mask = (1 << half) - 1;
                // Swap the low `half` bits with the bits above them.
                ((m & lo_mask) << (bits - half)) | (m >> half)
            }
            Pattern::NearNeighbor => (m + 1) % n_hosts,
        };
        if d == m {
            None
        } else {
            Some(NodeId::from(d))
        }
    }
}

/// Parameters of the random traffic mix.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Offered load in payload flits per node per cycle (0.0 ..= 1.0).
    pub load: f64,
    /// Fraction of messages that are multicasts (0 = pure unicast,
    /// 1 = multiple-multicast).
    pub mcast_fraction: f64,
    /// Destinations per multicast.
    pub degree: usize,
    /// Unicast payload length in flits.
    pub unicast_len: u16,
    /// Multicast payload length in flits.
    pub mcast_len: u16,
    /// Fraction of unicast messages directed at the hot-spot node
    /// (0 disables hot-spot traffic; the paper's §9 names hot-spot impact
    /// as follow-on work).
    pub hotspot_fraction: f64,
    /// The hot-spot node id.
    pub hotspot: u32,
    /// Unicast destination pattern.
    pub pattern: Pattern,
}

impl TrafficSpec {
    /// Pure unicast background at `load` with `len`-flit messages.
    pub fn unicast(load: f64, len: u16) -> Self {
        TrafficSpec {
            load,
            mcast_fraction: 0.0,
            degree: 1,
            unicast_len: len,
            mcast_len: len,
            hotspot_fraction: 0.0,
            hotspot: 0,
            pattern: Pattern::Uniform,
        }
    }

    /// The paper's *multiple multicast* workload: every message is a
    /// multicast of `degree` destinations and `len` payload flits.
    pub fn multiple_multicast(load: f64, degree: usize, len: u16) -> Self {
        TrafficSpec {
            load,
            mcast_fraction: 1.0,
            degree,
            unicast_len: len,
            mcast_len: len,
            hotspot_fraction: 0.0,
            hotspot: 0,
            pattern: Pattern::Uniform,
        }
    }

    /// The paper's *bimodal* workload: `mcast_fraction` of messages are
    /// multicasts of `degree` destinations, the rest unicasts.
    pub fn bimodal(load: f64, mcast_fraction: f64, degree: usize, len: u16) -> Self {
        TrafficSpec {
            load,
            mcast_fraction,
            degree,
            unicast_len: len,
            mcast_len: len,
            hotspot_fraction: 0.0,
            hotspot: 0,
            pattern: Pattern::Uniform,
        }
    }

    /// Directs `fraction` of the unicast messages at `hotspot` instead of
    /// a uniformly random destination (extension workload E12).
    pub fn with_hotspot(mut self, fraction: f64, hotspot: u32) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        self.hotspot_fraction = fraction;
        self.hotspot = hotspot;
        self
    }

    /// Uses a fixed permutation for unicast destinations (extension
    /// workload E15).
    pub fn with_pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Expected *delivered* payload flits per generated message (multicast
    /// payload counts once per destination).
    pub fn mean_payload(&self) -> f64 {
        (1.0 - self.mcast_fraction) * f64::from(self.unicast_len)
            + self.mcast_fraction * f64::from(self.mcast_len) * self.degree as f64
    }

    /// Per-cycle message-generation probability that realizes `load`.
    pub fn message_probability(&self) -> f64 {
        assert!(self.load >= 0.0, "load must be non-negative");
        assert!(self.mean_payload() > 0.0, "messages must carry payload");
        (self.load / self.mean_payload()).min(1.0)
    }
}

/// Most cycles one [`TrafficSource::next_fire`] call draws ahead, so a
/// near-silent source with no `stop_at` cannot draw far past the run.
const LOOKAHEAD: Cycle = 4096;

/// A per-host Bernoulli message generator implementing the traffic mix.
#[derive(Debug)]
pub struct RandomTraffic {
    spec: TrafficSpec,
    /// `spec.message_probability()`, converted once: every cycle an
    /// awake host polls past `drawn_to` draws against it.
    fire: Chance,
    rng: SimRng,
    me: NodeId,
    n_hosts: usize,
    stop_at: Option<Cycle>,
    generated: u64,
    /// Cycles before this one had their Bernoulli draw taken ahead of
    /// time by [`TrafficSource::next_fire`].
    drawn_to: Cycle,
    /// The drawn-ahead cycle whose draw succeeded, awaiting its poll.
    hit: Option<Cycle>,
}

impl RandomTraffic {
    /// Creates a generator for host `me` of `n_hosts`, stopping (if given)
    /// at `stop_at` so the system can drain.
    ///
    /// # Panics
    ///
    /// Panics if the degree cannot be satisfied (`degree > n_hosts - 1`),
    /// or if the spec has no message probability (see
    /// [`TrafficSpec::message_probability`]).
    pub fn new(
        spec: TrafficSpec,
        rng: SimRng,
        me: NodeId,
        n_hosts: usize,
        stop_at: Option<Cycle>,
    ) -> Self {
        assert!(
            spec.mcast_fraction == 0.0 || spec.degree < n_hosts,
            "multicast degree {} impossible with {} hosts",
            spec.degree,
            n_hosts
        );
        RandomTraffic {
            fire: Chance::new(spec.message_probability()),
            spec,
            rng,
            me,
            n_hosts,
            stop_at,
            generated: 0,
            drawn_to: 0,
            hit: None,
        }
    }

    /// Messages generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }
}

impl TrafficSource for RandomTraffic {
    fn poll(&mut self, now: Cycle) -> Option<MessageSpec> {
        if self.stop_at.is_some_and(|t| now >= t) {
            return None;
        }
        debug_assert!(
            self.hit.is_none_or(|h| h >= now),
            "poll skipped past the drawn-ahead firing cycle"
        );
        if now < self.drawn_to {
            // Drawn ahead: fire only on the one successful draw.
            if self.hit != Some(now) {
                return None;
            }
            self.hit = None;
        } else if !self.rng.hit(self.fire) {
            return None;
        }
        self.generated += 1;
        let is_mcast = self.rng.chance(self.spec.mcast_fraction);
        if is_mcast {
            let dests = self.rng.dest_set(self.n_hosts, self.spec.degree, self.me);
            Some(MessageSpec {
                kind: MessageKind::Multicast(dests),
                payload_flits: self.spec.mcast_len,
            })
        } else {
            let hot = NodeId(self.spec.hotspot);
            let dest = if self.spec.hotspot_fraction > 0.0
                && self.me != hot
                && self.rng.chance(self.spec.hotspot_fraction)
            {
                hot
            } else if let Some(d) = self.spec.pattern.dest(self.me, self.n_hosts) {
                d
            } else {
                self.rng.other_node(self.n_hosts, self.me)
            };
            Some(MessageSpec {
                kind: MessageKind::Unicast(dest),
                payload_flits: self.spec.unicast_len,
            })
        }
    }

    /// Takes the per-cycle Bernoulli draws of the cycles after `now` ahead
    /// of time, in cycle order, up to the first success, `stop_at`, or
    /// `LOOKAHEAD` cycles. The draws are exactly those per-cycle polling
    /// would take, so the RNG stream — and every message the source
    /// generates — is unchanged however the host interleaves polls and
    /// sleeps. (A geometric skip would draw fewer numbers and change it.)
    fn next_fire(&mut self, now: Cycle) -> Cycle {
        if let Some(at) = self.hit {
            return at;
        }
        let stop = self.stop_at.unwrap_or(Cycle::MAX);
        let fire = self.fire;
        let mut t = self.drawn_to.max(now + 1);
        let end = stop.min(now.saturating_add(LOOKAHEAD + 1));
        while t < end {
            let fires = self.rng.hit(fire);
            t += 1;
            if fires {
                self.drawn_to = t;
                self.hit = Some(t - 1);
                return t - 1;
            }
        }
        self.drawn_to = self.drawn_to.max(t);
        if t >= stop {
            Cycle::MAX
        } else {
            t
        }
    }
}

/// Builds one [`RandomTraffic`] source per host, each with an independent
/// RNG stream forked from `seed`.
pub fn make_sources(
    spec: &TrafficSpec,
    n_hosts: usize,
    seed: u64,
    stop_at: Option<Cycle>,
) -> Vec<Box<dyn TrafficSource>> {
    let root = SimRng::new(seed);
    (0..n_hosts)
        .map(|h| {
            Box::new(RandomTraffic::new(
                spec.clone(),
                root.fork(h as u64),
                NodeId::from(h),
                n_hosts,
                stop_at,
            )) as Box<dyn TrafficSource>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_probability_matches_load() {
        let spec = TrafficSpec::unicast(0.5, 64);
        assert!((spec.message_probability() - 0.5 / 64.0).abs() < 1e-12);
        let mm = TrafficSpec::multiple_multicast(0.2, 16, 32);
        assert!((mm.message_probability() - 0.2 / (16.0 * 32.0)).abs() < 1e-12);
    }

    #[test]
    fn mean_payload_counts_fanout() {
        // 75% unicasts of 64 flits + 25% degree-8 multicasts of 64 flits:
        // 0.75*64 + 0.25*8*64 = 176 delivered flits per message.
        let spec = TrafficSpec::bimodal(0.1, 0.25, 8, 64);
        assert!((spec.mean_payload() - 176.0).abs() < 1e-12);
        let uni = TrafficSpec::unicast(0.1, 32);
        assert!((uni.mean_payload() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn generation_rate_is_close_to_expected() {
        let spec = TrafficSpec::unicast(0.4, 16);
        let mut src = RandomTraffic::new(spec.clone(), SimRng::new(5), NodeId(0), 16, None);
        let cycles = 200_000u64;
        let mut got = 0u64;
        for now in 0..cycles {
            if src.poll(now).is_some() {
                got += 1;
            }
        }
        let expected = spec.message_probability() * cycles as f64;
        let ratio = got as f64 / expected;
        assert!(
            (0.95..1.05).contains(&ratio),
            "rate off: got {got}, expected ~{expected}"
        );
        assert_eq!(src.generated(), got);
    }

    #[test]
    fn bimodal_mixes_kinds() {
        let spec = TrafficSpec::bimodal(0.9, 0.3, 4, 8);
        let mut src = RandomTraffic::new(spec, SimRng::new(9), NodeId(3), 16, None);
        let (mut uni, mut mc) = (0, 0);
        for now in 0..20_000 {
            match src.poll(now) {
                Some(MessageSpec {
                    kind: MessageKind::Unicast(d),
                    ..
                }) => {
                    assert_ne!(d, NodeId(3));
                    uni += 1;
                }
                Some(MessageSpec {
                    kind: MessageKind::Multicast(d),
                    ..
                }) => {
                    assert_eq!(d.count(), 4);
                    assert!(!d.contains(NodeId(3)));
                    mc += 1;
                }
                None => {}
                Some(other) => panic!("unexpected spec {other:?}"),
            }
        }
        assert!(uni > 0 && mc > 0);
        let frac = f64::from(mc) / f64::from(uni + mc);
        assert!((0.2..0.4).contains(&frac), "multicast fraction {frac}");
    }

    #[test]
    fn patterns_are_permutations() {
        for (pattern, n) in [
            (Pattern::BitReversal, 64usize),
            (Pattern::Transpose, 64),
            (Pattern::NearNeighbor, 64),
            (Pattern::BitReversal, 16),
            (Pattern::Transpose, 16),
        ] {
            let mut seen = std::collections::HashSet::new();
            for m in 0..n {
                let d = pattern.dest(NodeId::from(m), n).map_or(m, |d| d.index());
                seen.insert(d);
            }
            assert_eq!(seen.len(), n, "{pattern:?} over {n} is a bijection");
        }
        // Concrete spot checks: 64 nodes = 6 bits.
        assert_eq!(
            Pattern::BitReversal.dest(NodeId(1), 64),
            Some(NodeId(32)),
            "000001 reversed is 100000"
        );
        assert_eq!(
            Pattern::Transpose.dest(NodeId(7), 64),
            Some(NodeId(0b111_000)),
            "low half moves to the top"
        );
        assert_eq!(Pattern::NearNeighbor.dest(NodeId(63), 64), Some(NodeId(0)));
        // Fixed points fall back to uniform.
        assert_eq!(Pattern::BitReversal.dest(NodeId(0), 64), None);
        assert_eq!(Pattern::Uniform.dest(NodeId(5), 64), None);
    }

    #[test]
    fn pattern_traffic_targets_the_permutation() {
        let spec = TrafficSpec::unicast(0.9, 4).with_pattern(Pattern::NearNeighbor);
        let mut src = RandomTraffic::new(spec, SimRng::new(8), NodeId(3), 16, None);
        for now in 0..2000 {
            if let Some(MessageSpec {
                kind: MessageKind::Unicast(d),
                ..
            }) = src.poll(now)
            {
                assert_eq!(d, NodeId(4));
            }
        }
    }

    #[test]
    fn hotspot_fraction_biases_destinations() {
        let spec = TrafficSpec::unicast(0.9, 4).with_hotspot(0.5, 7);
        let mut src = RandomTraffic::new(spec, SimRng::new(3), NodeId(0), 16, None);
        let (mut hot, mut total) = (0u32, 0u32);
        for now in 0..40_000 {
            if let Some(MessageSpec {
                kind: MessageKind::Unicast(d),
                ..
            }) = src.poll(now)
            {
                total += 1;
                if d == NodeId(7) {
                    hot += 1;
                }
            }
        }
        let frac = f64::from(hot) / f64::from(total);
        // 50% directed + ~1/15 of the random remainder.
        assert!((0.45..0.65).contains(&frac), "hotspot fraction {frac}");
        // The hotspot node itself never targets the hotspot deliberately.
        let spec2 = TrafficSpec::unicast(0.9, 4).with_hotspot(1.0, 7);
        let mut hotsrc = RandomTraffic::new(spec2, SimRng::new(4), NodeId(7), 16, None);
        for now in 0..1000 {
            if let Some(MessageSpec {
                kind: MessageKind::Unicast(d),
                ..
            }) = hotsrc.poll(now)
            {
                assert_ne!(d, NodeId(7));
            }
        }
    }

    /// Polls `src` every cycle in `[0, horizon)`: the reference stream.
    fn per_cycle(mut src: RandomTraffic, horizon: Cycle) -> Vec<(Cycle, MessageSpec)> {
        (0..horizon)
            .filter_map(|t| src.poll(t).map(|m| (t, m)))
            .collect()
    }

    /// Drives `src` like a host that sleeps: polls at cycle 0, then either
    /// stays busy (polls the next cycle) or asks `next_fire` and wakes at
    /// an arbitrary cycle no later than it — early wakes model input
    /// arriving while the host sleeps.
    fn sleeping(
        mut src: RandomTraffic,
        horizon: Cycle,
        bounded: bool,
        meta: &mut SimRng,
    ) -> Vec<(Cycle, MessageSpec)> {
        let mut got = Vec::new();
        let mut now = 0;
        while now < horizon {
            if let Some(m) = src.poll(now) {
                got.push((now, m));
            }
            if meta.chance(0.3) {
                now += 1;
                continue;
            }
            let fire = src.next_fire(now);
            assert!(fire > now, "next_fire({now}) = {fire} is not in the future");
            if bounded {
                assert!(
                    fire <= now + LOOKAHEAD + 1,
                    "lookahead unbounded: {fire} at {now}"
                );
            }
            let last = fire.min(horizon);
            now = if meta.chance(0.3) {
                now + 1 + meta.below((last - now) as usize) as Cycle
            } else {
                last
            };
        }
        got
    }

    #[test]
    fn lookahead_reproduces_the_per_cycle_stream() {
        let mut meta = SimRng::new(0x5eed);
        for case in 0..400u64 {
            let len = 1 + meta.below(64) as u16;
            // Per-cycle probability 0, tiny, mid, or clamped to 1.
            let load = match case % 4 {
                0 => 0.0,
                1 => 1e-5,
                2 => 0.05 + meta.unit() * 0.5,
                _ => 1_000.0,
            };
            let spec = match meta.below(3) {
                0 => TrafficSpec::unicast(load, len),
                1 => TrafficSpec::multiple_multicast(load, 1 + meta.below(7), len),
                _ => TrafficSpec::bimodal(load, meta.unit(), 1 + meta.below(7), len),
            };
            let stop_at = meta
                .chance(0.5)
                .then(|| meta.below(LOOKAHEAD as usize * 2) as Cycle);
            let me = NodeId::from(meta.below(8));
            let seed = meta.below(1 << 30) as u64;
            let mk = || RandomTraffic::new(spec.clone(), SimRng::new(seed), me, 8, stop_at);
            let horizon = 3 * LOOKAHEAD;
            let expect = per_cycle(mk(), horizon);
            let got = sleeping(mk(), horizon, stop_at.is_none(), &mut meta);
            assert_eq!(got, expect, "case {case}: {spec:?}, stop_at {stop_at:?}");
        }
    }

    #[test]
    fn stop_at_silences_the_source() {
        let spec = TrafficSpec::unicast(1.0, 1);
        let mut src = RandomTraffic::new(spec, SimRng::new(1), NodeId(0), 4, Some(100));
        assert!(src.poll(50).is_some());
        assert!(src.poll(100).is_none());
        assert!(src.poll(5000).is_none());
    }

    #[test]
    fn sources_are_decorrelated_but_deterministic() {
        let spec = TrafficSpec::unicast(0.5, 8);
        let mk = |seed| {
            let v = make_sources(&spec, 4, seed, None);
            v.len()
        };
        assert_eq!(mk(1), 4);
        // Two hosts with the same seed root behave identically per index.
        let mut a = make_sources(&spec, 2, 7, None);
        let mut b = make_sources(&spec, 2, 7, None);
        for now in 0..200 {
            assert_eq!(a[0].poll(now).is_some(), b[0].poll(now).is_some());
        }
    }
}
