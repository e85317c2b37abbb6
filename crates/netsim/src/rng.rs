//! Seeded randomness for workload generation.
//!
//! All simulation randomness flows through [`SimRng`] so that a single
//! top-level seed fully determines a run. Per-host generators are derived
//! with [`SimRng::fork`], which mixes a stream index into the seed (SplitMix
//! finalizer) so host streams are decorrelated but reproducible.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm
//! by Blackman and Vigna), state-seeded through the SplitMix64 finalizer.
//! Keeping the implementation in-tree pins the exact output sequence: runs
//! are reproducible across toolchains and independent of any external
//! crate's internal algorithm choices.

use crate::destset::DestSet;
use crate::ids::NodeId;

/// A Bernoulli probability in the form [`SimRng::hit`] compares against.
///
/// [`SimRng::unit`] is `m · 2^-53` with `m = x >> 11` for a raw draw `x`,
/// so `unit() < p` holds exactly when `m < ⌈p · 2^53⌉`, that is when
/// `x < ⌈p · 2^53⌉ · 2^11`: the scaling by a power of two is exact, and
/// for `p < 1` the ceiling is at most `2^53 - 1`, so the product fits. A
/// NaN converts to threshold 0, which draws and never hits, as `unit() <
/// NaN` does. `p <= 0` and `p >= 1` take no draw; their sentinels are
/// not multiples of `2^11`, so no threshold collides with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chance(u64);

impl Chance {
    /// `p <= 0`: false without a draw.
    const NEVER: u64 = 1;
    /// `p >= 1`: true without a draw.
    const ALWAYS: u64 = u64::MAX;

    /// Converts probability `p`, clamped to `[0, 1]`.
    pub fn new(p: f64) -> Chance {
        if p <= 0.0 {
            Chance(Chance::NEVER)
        } else if p >= 1.0 {
            Chance(Chance::ALWAYS)
        } else {
            Chance(((p * (1u64 << 53) as f64).ceil() as u64) << 11)
        }
    }

    /// Whether raw draw `x` falls below the threshold.
    fn admits(self, x: u64) -> bool {
        x < self.0
    }
}

/// Deterministic random-number generator for simulations.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed through SplitMix64, as the xoshiro authors
        // recommend, so nearby seeds produce unrelated states and the
        // all-zero state (a fixed point) is unreachable.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix(s.wrapping_sub(0x9E37_79B9_7F4A_7C15))
        };
        SimRng {
            state: [next(), next(), next(), next()],
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent generator for stream `stream` (e.g. one per
    /// host). Forks of the same (seed, stream) pair are identical.
    pub fn fork(&self, stream: u64) -> SimRng {
        SimRng::new(splitmix(self.seed ^ splitmix(stream.wrapping_add(1))))
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.hit(Chance::new(p))
    }

    /// Bernoulli draw against a probability converted once by
    /// [`Chance::new`]: one integer compare instead of a float conversion
    /// and multiply per draw.
    pub fn hit(&mut self, c: Chance) -> bool {
        match c.0 {
            Chance::NEVER => false,
            Chance::ALWAYS => true,
            _ => c.admits(self.next_u64()),
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is empty");
        // Lemire's unbiased bounded draw: widening multiply, rejecting the
        // sliver of raw values that would over-represent low results.
        let n = n as u64;
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the standard max-precision float in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniformly random node other than `exclude`, from `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn other_node(&mut self, n: usize, exclude: NodeId) -> NodeId {
        assert!(n >= 2, "need at least two nodes to pick another");
        let pick = self.below(n - 1);
        let pick = if pick >= exclude.index() {
            pick + 1
        } else {
            pick
        };
        NodeId::from(pick)
    }

    /// Uniformly random destination set of exactly `k` nodes drawn from
    /// `0..n`, never containing `exclude` (the source).
    ///
    /// Uses a partial Fisher–Yates over an implicit index range, so cost is
    /// `O(k)` expected.
    ///
    /// # Panics
    ///
    /// Panics if `k` destinations (excluding the source) don't exist,
    /// i.e. `k > n - 1`, or `k == 0`.
    pub fn dest_set(&mut self, n: usize, k: usize, exclude: NodeId) -> DestSet {
        assert!(k >= 1, "destination set must be non-empty");
        assert!(
            k <= n.saturating_sub(1),
            "cannot pick {k} distinct destinations from {n} nodes excluding the source"
        );
        let mut set = DestSet::empty(n);
        // Robert Floyd's sampling algorithm over the n-1 candidates.
        let m = n - 1; // candidates: all nodes except `exclude`, re-indexed
        let unmap = |i: usize| -> NodeId {
            let v = if i >= exclude.index() { i + 1 } else { i };
            NodeId::from(v)
        };
        for j in (m - k)..m {
            let t = self.below(j + 1);
            let cand = unmap(t);
            if set.contains(cand) {
                set.insert(unmap(j));
            } else {
                set.insert(cand);
            }
        }
        debug_assert_eq!(set.count(), k);
        debug_assert!(!set.contains(exclude));
        set
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn forks_are_reproducible_and_distinct() {
        let root = SimRng::new(7);
        let mut f1 = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        let s1: Vec<usize> = (0..20).map(|_| f1.below(100)).collect();
        let s1b: Vec<usize> = (0..20).map(|_| f1b.below(100)).collect();
        let s2: Vec<usize> = (0..20).map(|_| f2.below(100)).collect();
        assert_eq!(s1, s1b);
        assert_ne!(s1, s2);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    /// The integer threshold takes the same draws and gives the same
    /// answers as the float comparison it replaces, edge values included.
    #[test]
    fn chance_matches_the_float_comparison() {
        fn float_chance(r: &mut SimRng, p: f64) -> bool {
            if p <= 0.0 {
                false
            } else if p >= 1.0 {
                true
            } else {
                r.unit() < p
            }
        }
        let one_below = 1.0 - f64::EPSILON / 2.0;
        let edges = [
            0.0,
            -0.0,
            1e-300,
            f64::MIN_POSITIVE,
            5e-324,
            1.0 / (1u64 << 53) as f64,
            0.3,
            0.5,
            one_below,
            1.0,
            1.5,
            f64::NAN,
            -0.25,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for seed in 0..32 {
            let mut a = SimRng::new(seed);
            let mut b = SimRng::new(seed);
            let mut draw = SimRng::new(!seed);
            for i in 0..256 {
                let p = if i % 4 == 0 {
                    draw.unit()
                } else {
                    edges[draw.below(edges.len())]
                };
                assert_eq!(a.chance(p), float_chance(&mut b, p), "seed {seed}, p {p:e}");
                assert_eq!(a.hit(Chance::new(p)), float_chance(&mut b, p));
            }
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}: streams diverged");
        }
        // Raw draws on both sides of each threshold: the integer compare
        // agrees with `unit() < p` on the exact boundary values.
        for p in [1e-300, 0.3, 0.5, one_below, f64::NAN] {
            let c = Chance::new(p);
            let t = c.0;
            for x in [0, t.saturating_sub(1), t, t.saturating_add(1), u64::MAX] {
                let unit = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(c.admits(x), unit < p, "p {p:e}, x {x:#x}");
            }
        }
    }

    #[test]
    fn unit_stays_in_range_and_fills_it() {
        let mut r = SimRng::new(77);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99);
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(123);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.below(10)] += 1;
        }
        for &c in &counts {
            assert!((8_500..11_500).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn other_node_never_returns_excluded() {
        let mut r = SimRng::new(3);
        for _ in 0..500 {
            let n = r.other_node(8, NodeId(5));
            assert_ne!(n, NodeId(5));
            assert!(n.index() < 8);
        }
    }

    #[test]
    fn dest_set_has_exact_size_and_excludes_source() {
        let mut r = SimRng::new(11);
        for k in 1..=15 {
            let s = r.dest_set(16, k, NodeId(4));
            assert_eq!(s.count(), k);
            assert!(!s.contains(NodeId(4)));
        }
    }

    #[test]
    fn dest_set_covers_universe_over_many_draws() {
        let mut r = SimRng::new(5);
        let mut seen = DestSet::empty(16);
        for _ in 0..200 {
            seen.union_with(&r.dest_set(16, 4, NodeId(0)));
        }
        // Every non-source node should appear eventually.
        assert_eq!(seen.count(), 15);
    }

    #[test]
    #[should_panic(expected = "cannot pick")]
    fn dest_set_too_large_panics() {
        let mut r = SimRng::new(1);
        let _ = r.dest_set(8, 8, NodeId(0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
