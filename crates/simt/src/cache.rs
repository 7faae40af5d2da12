//! A set-associative LRU cache simulator.
//!
//! Used by [`crate::probe::CountingProbe`] to classify accesses to the dense
//! vector `x` — the "RANDOM ACCESS" component of the paper's Fig. 2
//! breakdown — as hits (served on chip) or misses (DRAM line fills). The
//! matrix arrays themselves are streamed exactly once, so only `x` benefits
//! from modelling.
//!
//! The model keeps two exact representations of one LRU state. Line ℓ
//! maps to set ℓ mod S, so the lines below S·W (sets × ways) can never
//! put more than W lines in a set: while every touch since the last reset
//! is below S·W, nothing is evicted and a touch hits exactly when its
//! line was touched since that reset. In that *dense* mode a touch is one
//! read and one write of a per-line last-touch tick. The first touch at
//! or above S·W (or the tick running out) *spills* into the per-set
//! most-recently-used-first tag lists, rebuilt from the ticks, which then
//! serve every access until the next reset.

/// Strength-reduced `% sets` for the hot set-index computation.
///
/// `sets` is *not* a power of two for the real L2 geometries (the A100
/// model has 20480 sets), so the index cannot be a mask. Lemire's fastmod
/// replaces the runtime division with two multiplies: for a 32-bit divisor
/// `d` and 32-bit operand `n`, with `m = floor(2^64 / d) + 1`,
/// `n % d == ((m·n mod 2^64) · d) >> 64`. Line numbers above 2^32 (or
/// divisors above 2^32) fall back to the exact `%`, so the mapping is
/// bit-identical to the plain remainder for every input.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    d: u64,
    m: u64,
}

impl FastMod {
    fn new(d: u64) -> Self {
        debug_assert!(d > 0);
        // `d == 1` would need m = 2^64; it takes the exact-`%` path
        // (m == 0) instead, like divisors above 2^32.
        let m = if d > 1 && d <= u32::MAX as u64 {
            (u64::MAX / d) + 1
        } else {
            0
        };
        FastMod { d, m }
    }

    #[inline(always)]
    fn rem(self, n: u64) -> usize {
        if self.m != 0 && n <= u32::MAX as u64 {
            let low = self.m.wrapping_mul(n);
            ((low as u128 * self.d as u128) >> 64) as usize
        } else {
            (n % self.d) as usize
        }
    }
}

/// Retired cache bodies retained per thread for [`CacheModel::new`] reuse.
/// The L2 geometries carry multi-megabyte arrays; two covers the common
/// churn (one live model plus one between measurements), with headroom
/// for fork chains.
const CACHE_POOL_CAP: usize = 4;

/// A reset that finds the tick past this value zeroes the tick array and
/// restarts the ticks, so the ticks reach `u32::MAX` only when more than
/// 2^31 same-line runs fall between two resets.
const TICK_RESTART: u32 = 1 << 31;

/// The LRU state of one cache geometry, detached from the counters: what
/// the pool parks and [`CacheModel::fork`] copies. Exactly one of the two
/// representations is live, chosen by `dense`.
#[derive(Debug, Default)]
struct Body {
    /// `last[line]`: the tick of the line's last touch, one entry per line
    /// below `sets * ways`. A line is cached iff its tick exceeds `base`.
    /// Every entry is at most `tick`. Live while `dense`.
    last: Vec<u32>,
    /// The tick of the last reset.
    base: u32,
    /// The tick of the last touch; each same-line run takes one.
    tick: u32,
    /// Whether `last` (rather than `tags`) holds the state.
    dense: bool,
    /// `tags[set * ways + way]`: the line number + 1 held by that way,
    /// each set in most-recently-used-first order; 0 is an empty way.
    /// Live while not `dense`; allocated by the first spill.
    tags: Vec<u64>,
}

impl Body {
    /// An empty body for a geometry of `lines` = sets × ways lines.
    fn cold(lines: usize) -> Body {
        Body {
            last: vec![0; lines],
            base: 0,
            tick: 0,
            dense: true,
            tags: Vec::new(),
        }
    }

    /// Overwrites `self` with `src`'s live representation, reusing
    /// `self`'s allocations (same geometry).
    fn copy_from(&mut self, src: &Body) {
        if src.dense {
            self.last.copy_from_slice(&src.last);
            self.base = src.base;
            self.tick = src.tick;
        } else {
            self.tags.clear();
            self.tags.extend_from_slice(&src.tags);
            // `last` keeps this body's own ticks; taking the larger tick
            // keeps each of them at most `tick`, so the next reset still
            // empties the dense representation.
            self.tick = self.tick.max(src.tick);
        }
        self.dense = src.dense;
    }

    /// Empties the cache and returns to dense mode: every tick is at
    /// most `tick`, so moving `base` up to it makes every line a miss.
    /// O(1), apart from one zeroing of `last` per 2^31 ticks.
    fn reset(&mut self) {
        if self.tick > TICK_RESTART {
            self.last.fill(0);
            self.tick = 0;
        }
        self.base = self.tick;
        self.dense = true;
    }

    /// Leaves dense mode: rebuilds every set's most-recently-used-first
    /// tag list from the ticks of its (at most `ways`) cached lines.
    fn spill(&mut self, sets: usize, ways: usize) {
        self.tags.resize(self.last.len(), 0);
        let mut cached: Vec<(u32, u64)> = Vec::with_capacity(ways);
        for (set, slots) in self.tags.chunks_exact_mut(ways).enumerate() {
            cached.clear();
            for line in (set..self.last.len()).step_by(sets) {
                let t = self.last[line];
                if t > self.base {
                    cached.push((t, line as u64));
                }
            }
            cached.sort_unstable_by_key(|&(t, _)| std::cmp::Reverse(t));
            slots.fill(0);
            for (slot, &(_, line)) in slots.iter_mut().zip(&cached) {
                *slot = line + 1;
            }
        }
        self.dense = false;
    }
}

impl Clone for Body {
    /// Copies only the live representation.
    fn clone(&self) -> Body {
        let mut body = Body::cold(self.last.len());
        body.copy_from(self);
        body
    }
}

thread_local! {
    /// Retired cache bodies by geometry: `(line_bytes, sets, ways, body)`.
    /// Reusing one skips the allocation, and [`Body::reset`] empties it
    /// in O(1).
    static CACHE_POOL: std::cell::RefCell<Vec<(u64, u64, usize, Body)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Takes a retired body of the given geometry from the calling thread's
/// pool, if one is parked there.
fn pooled_body(line_bytes: u64, sets: u64, ways: usize) -> Option<Body> {
    CACHE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.iter()
            .position(|&(lb, s, w, _)| lb == line_bytes && s == sets && w == ways)
            .map(|i| pool.swap_remove(i).3)
    })
}

/// A set-associative cache with LRU replacement.
///
/// Addresses are byte addresses; the cache tracks tags only (no data), which
/// is all the traffic model needs.
///
/// After construction or [`CacheModel::reset`] the model is in dense
/// mode: each line below sets × ways has a `u32` last-touch tick (1.3 MB
/// for the A100 geometry), and a touch hits iff the line's tick is newer
/// than the reset. The first touch at or above sets × ways, or the tick
/// reaching `u32::MAX`, spills into per-set tag lists in
/// **most-recently-used-first order** (LRU needs no timestamps there: a
/// hit at way *w* rotates ways `0..=w` to bring the line to the front,
/// and a miss shifts the whole set down one way, dropping the least
/// recently used tag off the end, and installs the line at way 0). Both
/// modes classify every access exactly as a per-access LRU would.
///
/// Construction, reset, and drop are all O(1) amortized: a reset moves
/// the tick base instead of clearing an array, and retired bodies park in
/// a per-thread pool keyed by geometry, so back-to-back instrumented runs
/// stop paying an allocation per [`crate::probe::CountingProbe`]; a
/// reused body is bit-identical to a cold one.
#[derive(Debug, Clone)]
pub struct CacheModel {
    line_bytes: u64,
    /// `log2(line_bytes)`: the line number is a shift, not a division.
    line_shift: u32,
    /// Strength-reduced `% sets` (the set count itself lives in `set_mod.d`).
    set_mod: FastMod,
    ways: usize,
    body: Body,
}

impl CacheModel {
    /// Creates a cache of `capacity_bytes` split into `ways`-associative sets
    /// of `line_bytes` lines. Capacity is rounded down to a whole number of
    /// sets; a minimum of one set is kept. `line_bytes` must be a power of
    /// two of at least 2 bytes, which keeps every line number + 1 (the
    /// stored tag) from wrapping onto the empty tag 0.
    ///
    /// Reuses a retired body of the same geometry from the calling
    /// thread's pool when one is available (reset, so the new model
    /// starts observably empty); allocates cold otherwise.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two() && line_bytes > 1,
            "line size must be a power of two of at least 2 bytes"
        );
        assert!(ways > 0);
        let sets = ((capacity_bytes / line_bytes) as usize / ways).max(1);
        let body = match pooled_body(line_bytes, sets as u64, ways) {
            Some(mut body) => {
                body.reset();
                body
            }
            None => Body::cold(sets * ways),
        };
        CacheModel {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_mod: FastMod::new(sets as u64),
            ways,
            body,
        }
    }

    /// A model of an NVIDIA A100-class 40 MB L2 with 128-byte lines.
    pub fn a100_l2() -> Self {
        CacheModel::new(40 * 1024 * 1024, 128, 16)
    }

    /// A model of an NVIDIA H800-class 50 MB L2 with 128-byte lines.
    pub fn h800_l2() -> Self {
        CacheModel::new(50 * 1024 * 1024, 128, 16)
    }

    /// The line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// The line number `addr` falls into. Two byte addresses with equal
    /// line numbers are guaranteed to classify identically back-to-back;
    /// batched probes use this to group a warp access into same-line runs
    /// for [`CacheModel::access_run`].
    #[inline(always)]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Accesses the same line `count` times in a row (one coalesced warp
    /// access's same-line run; a single access passes 1): the first
    /// access classifies against the cache, and misses install the line;
    /// the remaining `count - 1` are guaranteed hits. Returns whether the
    /// *first* access hit. The LRU end state does not depend on `count`,
    /// so a run is bit-identical to `count` single accesses on `addr`'s
    /// line.
    #[inline]
    pub fn access_run(&mut self, addr: u64, count: u64) -> bool {
        debug_assert!(count > 0);
        let line = addr >> self.line_shift;
        let body = &mut self.body;
        if body.dense && body.tick < u32::MAX && line < body.last.len() as u64 {
            body.tick += 1;
            let last = &mut body.last[line as usize];
            let hit = *last > body.base;
            *last = body.tick;
            hit
        } else {
            self.access_tags(line)
        }
    }

    /// Classifies one touch of `line` against the tag lists (tag mode),
    /// spilling first when still dense. Kept out of line, so only the
    /// dense path inlines into the probe.
    #[inline(never)]
    fn access_tags(&mut self, line: u64) -> bool {
        if self.body.dense {
            self.body.spill(self.set_mod.d as usize, self.ways);
        }
        // `line_bytes >= 2` keeps the line below 2^63, so `line + 1`
        // never wraps onto the empty tag.
        let tag = line + 1;
        let base = self.set_mod.rem(line) * self.ways;
        let slots = &mut self.body.tags[base..base + self.ways];
        match slots.iter().position(|&t| t == tag) {
            Some(way) => {
                // Hit: ways 0..way move down one, the line goes to the
                // front. Warp runs revisit the same few lines, so `way`
                // is almost always 0 and nothing moves.
                slots.copy_within(0..way, 1);
                slots[0] = tag;
                true
            }
            None => {
                // Miss: the least recently used way (the last one, or an
                // empty way while the set is filling) falls off the end.
                slots.copy_within(0..self.ways - 1, 1);
                slots[0] = tag;
                false
            }
        }
    }

    /// Clears contents and returns to dense mode. O(1): the tick base
    /// moves up, turning every line stale without touching either array.
    pub fn reset(&mut self) {
        self.body.reset();
    }

    /// A copy of this cache whose arrays come from the calling thread's
    /// retired-cache pool instead of a fresh allocation. Only the live
    /// representation is copied (the tick array in dense mode, the tags
    /// after a spill). Executor shards fork one cache per launch; with
    /// pooling the copy is an amortized `memcpy` instead of an allocate +
    /// copy + free per launch.
    pub fn fork(&self) -> CacheModel {
        let body = match pooled_body(self.line_bytes, self.set_mod.d, self.ways) {
            Some(mut body) => {
                body.copy_from(&self.body);
                body
            }
            None => self.body.clone(),
        };
        CacheModel {
            line_bytes: self.line_bytes,
            line_shift: self.line_shift,
            set_mod: self.set_mod,
            ways: self.ways,
            body,
        }
    }
}

impl Drop for CacheModel {
    /// Parks the body in the thread's pool, bounded at `CACHE_POOL_CAP`
    /// retired bodies; its next user resets it.
    fn drop(&mut self) {
        let body = std::mem::take(&mut self.body);
        if body.last.capacity() == 0 {
            return;
        }
        CACHE_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < CACHE_POOL_CAP {
                pool.push((self.line_bytes, self.set_mod.d, self.ways, body));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheModel::new(1024, 64, 2);
        assert!(!c.access_run(0, 1));
        assert!(c.access_run(0, 1));
        assert!(c.access_run(63, 1)); // same line
        assert!(!c.access_run(64, 1)); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 ways, 64-byte lines, 2 sets (256 B total). Lines 0, 2, 4 all map
        // to set 0.
        let mut c = CacheModel::new(256, 64, 2);
        assert!(!c.access_run(0, 1)); // line 0 -> set 0
        assert!(!c.access_run(128, 1)); // line 2 -> set 0
        assert!(c.access_run(0, 1)); // refresh line 0
        assert!(!c.access_run(256, 1)); // line 4 -> set 0, evicts line 2 (LRU)
        assert!(c.access_run(0, 1)); // line 0 still resident
        assert!(!c.access_run(128, 1)); // line 2 was evicted
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = CacheModel::new(1024, 64, 4);
        // Stream 64 distinct lines twice; capacity is 16 lines, so the
        // second sweep misses everywhere with LRU.
        for pass in 0..2 {
            for i in 0..64u64 {
                let hit = c.access_run(i * 64, 1);
                assert!(!hit, "pass {pass} line {i}");
            }
        }
    }

    #[test]
    fn small_working_set_is_all_hits_after_warmup() {
        let mut c = CacheModel::a100_l2();
        for i in 0..1000u64 {
            c.access_run(i * 8, 1);
        }
        for _ in 0..10 {
            for i in 0..1000u64 {
                assert!(c.access_run(i * 8, 1), "x[{i}] missed after warm-up");
            }
        }
    }

    /// Reference model with the pre-batching per-element semantics:
    /// runtime `/` and `%`, a last-use tick per slot, one tick per access,
    /// eviction of the minimum tick.
    #[derive(Clone)]
    struct RefCache {
        line_bytes: u64,
        sets: usize,
        ways: usize,
        tags: Vec<(u64, u64)>,
        tick: u64,
    }

    impl RefCache {
        fn new(capacity: u64, line: u64, ways: usize) -> Self {
            let sets = ((capacity / line) as usize / ways).max(1);
            RefCache {
                line_bytes: line,
                sets,
                ways,
                tags: vec![(u64::MAX, 0); sets * ways],
                tick: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let line = addr / self.line_bytes;
            let set = (line as usize) % self.sets;
            let slots = &mut self.tags[set * self.ways..(set + 1) * self.ways];
            for slot in slots.iter_mut() {
                if slot.0 == line {
                    slot.1 = self.tick;
                    return true;
                }
            }
            *slots.iter_mut().min_by_key(|(_, last)| *last).unwrap() = (line, self.tick);
            false
        }

        fn reset(&mut self) {
            self.tags.fill((u64::MAX, 0));
        }
    }

    /// Steps a 64-bit LCG and returns its high bits.
    fn next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 20
    }

    /// Runs `n` accesses drawn by `addr` through both models, asserting
    /// every classification agrees.
    fn drive(
        fast: &mut CacheModel,
        reference: &mut RefCache,
        state: &mut u64,
        n: usize,
        addr: impl Fn(u64) -> u64,
    ) {
        for i in 0..n {
            let a = addr(next(state));
            assert_eq!(
                fast.access_run(a, 1),
                reference.access(a),
                "access {i} at {a}"
            );
        }
    }

    #[test]
    fn fast_path_matches_reference_model() {
        // Non-power-of-two set count (3 sets) exercises the fastmod path;
        // a pseudo-random address stream with reuse exercises hits,
        // misses, evictions, and hit promotion. 64 lines over 6 slots
        // spill on the first touch at or above line 6.
        let mut fast = CacheModel::new(3 * 2 * 64, 64, 2);
        let mut reference = RefCache::new(3 * 2 * 64, 64, 2);
        let mut state = 0x9e3779b97f4a7c15u64;
        drive(&mut fast, &mut reference, &mut state, 10_000, |r| {
            r % (64 * 64)
        });
        assert!(!fast.body.dense);
        drop(fast);

        // The A100 L2: 20480 sets x 16 ways, so S·W = 327680 lines. The
        // dense stream stays below S·W: a hot region of 16 lines in each
        // of 64 sets (every set full, deep-way hits) plus cold lines over
        // all of it. The full stream adds 8 more lines to each hot set —
        // 24 lines competing for 16 ways, so evictions occur — and cold
        // lines up to 2^20. Between phases the stream crosses every mode
        // transition: a spill mid-run, reset after a spill, fork in each
        // mode, pool reuse of a spilled body and a tick wrap.
        const CAP: u64 = 40 * 1024 * 1024;
        let sets = 20480u64;
        let stream = move |hot_lines: u64, cold_lines: u64| {
            move |r: u64| {
                let line = if r & 1 == 0 {
                    (r >> 1) % 64 + sets * ((r >> 8) % hot_lines)
                } else {
                    (r >> 1) % cold_lines
                };
                line * 128 + (r >> 40) % 128
            }
        };
        let dense = stream(16, sets * 16);
        let full = stream(24, 1 << 20);
        let mut state = 0x2545f4914f6cdd1du64;
        let mut fast = CacheModel::new(CAP, 128, 16);
        let mut reference = RefCache::new(CAP, 128, 16);
        assert_eq!(fast.body.last.len() as u64, sets * 16);
        drive(&mut fast, &mut reference, &mut state, 30_000, dense);
        assert!(fast.body.dense);

        // Dense to tags in the middle of one run.
        drive(&mut fast, &mut reference, &mut state, 30_000, full);
        assert!(!fast.body.dense);

        // A reset after a spill returns to dense mode.
        fast.reset();
        reference.reset();
        assert!(fast.body.dense);
        drive(&mut fast, &mut reference, &mut state, 30_000, dense);

        // A fork continues from the parent's contents, in
        // dense mode (then spills on its own) and in tag mode; the
        // parent's body parks in the pool once dropped.
        let forked = fast.fork();
        assert!(forked.body.dense);
        drop(std::mem::replace(&mut fast, forked));
        drive(&mut fast, &mut reference, &mut state, 10_000, dense);
        drive(&mut fast, &mut reference, &mut state, 30_000, full);
        let forked = fast.fork();
        assert!(!forked.body.dense);
        drop(std::mem::replace(&mut fast, forked));
        drive(&mut fast, &mut reference, &mut state, 30_000, full);

        // A tag-mode fork into a pooled body whose own ticks are newer
        // than the parent's must take the larger tick, or those stale
        // ticks would read as hits after the next reset.
        drop(fast.fork());
        let mut newer = CacheModel::new(CAP, 128, 16);
        newer.body.tick = 1 << 30;
        newer.body.base = 1 << 30;
        for line in 0..1000u64 {
            newer.access_run(line * 128, 1);
        }
        drop(newer);
        let forked = fast.fork();
        assert!(forked.body.tick > 1 << 30);
        drop(std::mem::replace(&mut fast, forked));
        drive(&mut fast, &mut reference, &mut state, 10_000, full);
        fast.reset();
        reference.reset();
        drive(&mut fast, &mut reference, &mut state, 30_000, dense);

        // Pool reuse of a spilled body: it must come back empty and dense.
        drive(&mut fast, &mut reference, &mut state, 10_000, full);
        assert!(!fast.body.dense);
        drop(fast);
        let mut fast = CacheModel::new(CAP, 128, 16);
        let mut reference = RefCache::new(CAP, 128, 16);
        assert!(fast.body.dense);
        drive(&mut fast, &mut reference, &mut state, 30_000, dense);

        // Tick wrap: 5000 ticks before `u32::MAX` the dense stream must
        // spill in the middle of the run, and the next reset restarts
        // the ticks from zero.
        fast.reset();
        reference.reset();
        fast.body.tick = u32::MAX - 5000;
        fast.body.base = fast.body.tick;
        drive(&mut fast, &mut reference, &mut state, 30_000, dense);
        assert!(!fast.body.dense);
        assert_eq!(fast.body.tick, u32::MAX);
        fast.reset();
        reference.reset();
        assert!(fast.body.dense);
        assert_eq!(fast.body.tick, 0);
        drive(&mut fast, &mut reference, &mut state, 30_000, dense);
    }

    #[test]
    fn access_run_equals_repeated_access() {
        // Interleave runs with single accesses on both caches; a run of n
        // on one line must leave identical observable state to n repeats.
        let mut a = CacheModel::new(1024, 64, 4);
        let mut b = CacheModel::new(1024, 64, 4);
        let pattern: &[(u64, u64)] = &[(0, 3), (64, 1), (0, 2), (4096, 32), (64, 5), (0, 1)];
        for &(addr, n) in pattern {
            let first = a.access_run(addr, n);
            let mut want_first = None;
            for k in 0..n {
                let h = b.access_run(addr + k % 8, 1); // same line, varied offsets
                want_first.get_or_insert(h);
            }
            assert_eq!(Some(first), want_first, "addr {addr} run {n}");
        }
        // Both end in the same LRU state.
        for &(addr, _) in pattern {
            assert_eq!(a.access_run(addr, 1), b.access_run(addr, 1), "addr {addr}");
        }
    }

    #[test]
    fn fastmod_matches_exact_remainder() {
        for d in [1u64, 2, 3, 7, 20480, 409_600, u32::MAX as u64] {
            let fm = FastMod::new(d);
            for n in [0u64, 1, 2, d, d + 1, 12345, u32::MAX as u64, u64::MAX] {
                assert_eq!(fm.rem(n), (n % d) as usize, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn pooled_reuse_is_observably_fresh() {
        // Warm a model, retire it, build the same geometry again: the
        // reused body (reset, not re-filled) must classify
        // exactly like a cold cache — and like a per-element reference.
        let trace: Vec<u64> = (0..2000u64)
            .map(|i| (i.wrapping_mul(2654435761) >> 8) % (1 << 16))
            .collect();
        let cold_outcome: Vec<bool> = {
            let mut cold = CacheModel::new(4096, 64, 4);
            trace.iter().map(|&a| cold.access_run(a, 1)).collect()
        };
        for round in 0..3 {
            // Same geometry: after the first round this hits the pool.
            let mut c = CacheModel::new(4096, 64, 4);
            let outcome: Vec<bool> = trace.iter().map(|&a| c.access_run(a, 1)).collect();
            assert_eq!(outcome, cold_outcome, "round {round}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut c = CacheModel::new(256, 64, 2);
        c.access_run(0, 1);
        c.access_run(0, 1);
        c.reset();
        assert!(!c.access_run(0, 1));
    }
}
