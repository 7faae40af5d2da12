//! A set-associative LRU cache simulator.
//!
//! Used by [`crate::probe::CountingProbe`] to classify accesses to the dense
//! vector `x` — the "RANDOM ACCESS" component of the paper's Fig. 2
//! breakdown — as hits (served on chip) or misses (DRAM line fills). The
//! matrix arrays themselves are streamed exactly once, so only `x` benefits
//! from modelling.

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
/// The L2 geometries carry multi-megabyte tag arrays; two covers the
/// common churn (one live model plus one between measurements), with
/// headroom for fork chains.
const CACHE_POOL_CAP: usize = 4;

/// The tag arrays and epoch state of one cache geometry, detached from
/// the counters: what the pool parks and [`CacheModel::fork`] copies.
#[derive(Debug, Clone, Default)]
struct Body {
    /// `tags[set * ways + way]`: the line number + 1 held by that way,
    /// each set in most-recently-used-first order; 0 is an empty way.
    tags: Vec<u64>,
    /// `stamps[set]`: the epoch the set was last touched in. A set whose
    /// stamp differs from `epoch` is empty, whatever its tags say.
    stamps: Vec<u32>,
    epoch: u32,
}

impl Body {
    fn cold(sets: usize, ways: usize) -> Body {
        // Stamps start at 0 and the epoch at 1: every set starts stale.
        Body {
            tags: vec![0; sets * ways],
            stamps: vec![0; sets],
            epoch: 1,
        }
    }

    /// Overwrites `self` with `src`, reusing `self`'s allocations.
    fn copy_from(&mut self, src: &Body) {
        self.tags.clear();
        self.tags.extend_from_slice(&src.tags);
        self.stamps.clear();
        self.stamps.extend_from_slice(&src.stamps);
        self.epoch = src.epoch;
    }

    /// Advances the epoch, which empties every set without touching the
    /// tags. On wrap-around the stamps are cleared once, so no stale set
    /// can ever carry the new epoch.
    fn invalidate(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }
}

thread_local! {
    /// Retired cache bodies by geometry: `(line_bytes, sets, ways, body)`.
    /// Reusing one skips both the allocation and the O(capacity) tag
    /// fill: [`Body::invalidate`] empties every stale set in O(1).
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
/// Each set keeps its tags in **most-recently-used-first order**, so LRU
/// needs no timestamps: a hit at way *w* rotates ways `0..=w` to bring
/// the line to the front, and a miss shifts the whole set down one way,
/// dropping the least recently used tag off the end, and installs the
/// line at way 0.
///
/// Construction, [`CacheModel::reset`], and drop are all O(1) amortized:
/// instead of filling the multi-megabyte tag array with an "empty"
/// pattern, every set carries a `u32` epoch stamp, and a set whose stamp
/// is not the current epoch is empty (its tags are cleared lazily on its
/// next access). Retired bodies park in a per-thread pool keyed by
/// geometry, so back-to-back instrumented runs stop paying an allocate +
/// fill per [`crate::probe::CountingProbe`]; a reused body gets a fresh
/// epoch, so it is bit-identical to a cold one.
#[derive(Debug, Clone)]
pub struct CacheModel {
    line_bytes: u64,
    /// `log2(line_bytes)`: the line number is a shift, not a division.
    line_shift: u32,
    /// Strength-reduced `% sets` (the set count itself lives in `set_mod.d`).
    set_mod: FastMod,
    ways: usize,
    body: Body,
    hits: u64,
    misses: u64,
}

impl CacheModel {
    /// Creates a cache of `capacity_bytes` split into `ways`-associative sets
    /// of `line_bytes` lines. Capacity is rounded down to a whole number of
    /// sets; a minimum of one set is kept. `line_bytes` must be a power of
    /// two of at least 2 bytes, which keeps every line number + 1 (the
    /// stored tag) from wrapping onto the empty tag 0.
    ///
    /// Reuses a retired body of the same geometry from the calling
    /// thread's pool when one is available (epoch-invalidated, so the
    /// new model starts observably empty); allocates cold otherwise.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two() && line_bytes > 1,
            "line size must be a power of two of at least 2 bytes"
        );
        assert!(ways > 0);
        let sets = ((capacity_bytes / line_bytes) as usize / ways).max(1);
        let body = match pooled_body(line_bytes, sets as u64, ways) {
            Some(mut body) => {
                body.invalidate();
                body
            }
            None => Body::cold(sets, ways),
        };
        CacheModel {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_mod: FastMod::new(sets as u64),
            ways,
            body,
            hits: 0,
            misses: 0,
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

    /// Accesses `addr`; returns `true` on hit. Misses install the line.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_run(addr, 1)
    }

    /// Accesses the same line `count` times in a row (one coalesced warp
    /// access's same-line run): the first access classifies against the
    /// cache, the remaining `count - 1` are guaranteed hits. Returns
    /// whether the *first* access hit. End state (tags and hit/miss
    /// totals) is bit-identical to calling [`CacheModel::access`]
    /// `count` times with addresses on `addr`'s line.
    pub fn access_run(&mut self, addr: u64, count: u64) -> bool {
        debug_assert!(count > 0);
        let line = addr >> self.line_shift;
        // `line_bytes >= 2` keeps the line below 2^63, so `line + 1`
        // never wraps onto the empty tag.
        let tag = line + 1;
        let set = self.set_mod.rem(line);
        let base = set * self.ways;
        let slots = &mut self.body.tags[base..base + self.ways];
        let stamp = &mut self.body.stamps[set];
        if *stamp != self.body.epoch {
            *stamp = self.body.epoch;
            slots.fill(0);
        }
        match slots.iter().position(|&t| t == tag) {
            Some(way) => {
                // Hit: ways 0..way move down one, the line goes to the
                // front. Warp runs revisit the same few lines, so `way`
                // is almost always 0 and nothing moves.
                slots.copy_within(0..way, 1);
                slots[0] = tag;
                self.hits += count;
                true
            }
            None => {
                // Miss: the least recently used way (the last one, or an
                // empty way while the set is filling) falls off the end,
                // then the rest of the run hits the installed line.
                slots.copy_within(0..self.ways - 1, 1);
                slots[0] = tag;
                self.misses += 1;
                self.hits += count - 1;
                false
            }
        }
    }

    /// Total hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clears contents and statistics. O(1): the epoch advances, turning
    /// every set stale without touching the tag array.
    pub fn reset(&mut self) {
        self.body.invalidate();
        self.hits = 0;
        self.misses = 0;
    }

    /// A copy of this cache whose tag array comes from the calling
    /// thread's retired-cache pool instead of a fresh allocation.
    /// Executor shards fork one cache per launch; with pooling the
    /// multi-megabyte tag copy is an amortized `memcpy` instead of an
    /// allocate + copy + free per launch.
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
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Consumes the cache. Kept for API continuity: dropping now parks
    /// the body in the thread's retired-cache pool automatically.
    pub fn recycle(self) {
        drop(self);
    }
}

impl Drop for CacheModel {
    /// Parks the body (with its epoch, so a reuser's next epoch
    /// invalidates every stale set) in the thread's pool, bounded at
    /// `CACHE_POOL_CAP` retired bodies.
    fn drop(&mut self) {
        let body = std::mem::take(&mut self.body);
        if body.tags.capacity() == 0 {
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
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 ways, 64-byte lines, 2 sets (256 B total). Lines 0, 2, 4 all map
        // to set 0.
        let mut c = CacheModel::new(256, 64, 2);
        assert!(!c.access(0)); // line 0 -> set 0
        assert!(!c.access(128)); // line 2 -> set 0
        assert!(c.access(0)); // refresh line 0
        assert!(!c.access(256)); // line 4 -> set 0, evicts line 2 (LRU)
        assert!(c.access(0)); // line 0 still resident
        assert!(!c.access(128)); // line 2 was evicted
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = CacheModel::new(1024, 64, 4);
        // Stream 64 distinct lines twice; capacity is 16 lines, so the
        // second sweep misses everywhere with LRU.
        for pass in 0..2 {
            for i in 0..64u64 {
                let hit = c.access(i * 64);
                assert!(!hit, "pass {pass} line {i}");
            }
        }
        assert_eq!(c.misses(), 128);
    }

    #[test]
    fn small_working_set_is_all_hits_after_warmup() {
        let mut c = CacheModel::a100_l2();
        for i in 0..1000u64 {
            c.access(i * 8);
        }
        let misses_after_warm = c.misses();
        for _ in 0..10 {
            for i in 0..1000u64 {
                c.access(i * 8);
            }
        }
        assert_eq!(c.misses(), misses_after_warm);
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
        hits: u64,
        misses: u64,
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
                hits: 0,
                misses: 0,
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
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            *slots.iter_mut().min_by_key(|(_, last)| *last).unwrap() = (line, self.tick);
            false
        }

        fn reset(&mut self) {
            self.tags.fill((u64::MAX, 0));
            self.hits = 0;
            self.misses = 0;
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
    /// every classification and the final totals agree.
    fn drive(
        fast: &mut CacheModel,
        reference: &mut RefCache,
        state: &mut u64,
        n: usize,
        addr: impl Fn(u64) -> u64,
    ) {
        for i in 0..n {
            let a = addr(next(state));
            assert_eq!(fast.access(a), reference.access(a), "access {i} at {a}");
        }
        assert_eq!(fast.hits(), reference.hits);
        assert_eq!(fast.misses(), reference.misses);
    }

    #[test]
    fn fast_path_matches_reference_model() {
        // Non-power-of-two set count (3 sets) exercises the fastmod path;
        // a pseudo-random address stream with reuse exercises hits,
        // misses, evictions, and hit promotion.
        let mut fast = CacheModel::new(3 * 2 * 64, 64, 2);
        let mut reference = RefCache::new(3 * 2 * 64, 64, 2);
        let mut state = 0x9e3779b97f4a7c15u64;
        // 64 lines over 3 sets.
        drive(&mut fast, &mut reference, &mut state, 10_000, |r| {
            r % (64 * 64)
        });

        // The A100 L2 (20480 sets x 16 ways) on a long stream mixing a
        // hot region — 24 lines competing for each of 64 sets, so hits,
        // deep-way promotions and evictions all occur — with cold lines
        // scattered over the whole cache. Between phases the stream
        // crosses every epoch transition: reset, fork, pool reuse, and
        // an epoch wrap-around.
        const CAP: u64 = 40 * 1024 * 1024;
        let sets = 20480u64;
        let addr = move |r: u64| {
            let line = if r & 1 == 0 {
                (r >> 1) % 64 + sets * ((r >> 8) % 24)
            } else {
                (r >> 1) % (1 << 20)
            };
            line * 128 + (r >> 40) % 128
        };
        let mut state = 0x2545f4914f6cdd1du64;
        let mut fast = CacheModel::new(CAP, 128, 16);
        let mut reference = RefCache::new(CAP, 128, 16);
        assert_eq!(fast.body.stamps.len() as u64, sets);
        drive(&mut fast, &mut reference, &mut state, 30_000, addr);

        fast.reset();
        reference.reset();
        drive(&mut fast, &mut reference, &mut state, 30_000, addr);

        // A fork continues from the parent's contents and counters; the
        // parent's body parks in the pool once dropped.
        let forked = fast.fork();
        drop(std::mem::replace(&mut fast, forked));
        drive(&mut fast, &mut reference, &mut state, 30_000, addr);

        // Pool reuse: the retired warm body must come back empty.
        drop(fast);
        let mut fast = CacheModel::new(CAP, 128, 16);
        let mut reference = RefCache::new(CAP, 128, 16);
        drive(&mut fast, &mut reference, &mut state, 30_000, addr);

        // Epoch wrap: stamp sets at epoch 1, then run the epoch up to the
        // last value before wrap-around. The wrap must clear every stamp,
        // or the sets stamped 1 would come back to life with stale tags.
        fast.reset();
        reference.reset();
        fast.body.stamps.fill(0);
        fast.body.epoch = 1;
        drive(&mut fast, &mut reference, &mut state, 30_000, addr);
        fast.reset();
        reference.reset();
        fast.body.epoch = u32::MAX;
        drive(&mut fast, &mut reference, &mut state, 10_000, addr);
        fast.reset();
        reference.reset();
        assert_eq!(fast.body.epoch, 1);
        drive(&mut fast, &mut reference, &mut state, 30_000, addr);
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
                let h = b.access(addr + k % 8); // same line, varied offsets
                want_first.get_or_insert(h);
            }
            assert_eq!(Some(first), want_first, "addr {addr} run {n}");
            assert_eq!(a.hits(), b.hits());
            assert_eq!(a.misses(), b.misses());
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
        // reused body (epoch-invalidated, not re-filled) must classify
        // exactly like a cold cache — and like a per-element reference.
        let trace: Vec<u64> = (0..2000u64)
            .map(|i| (i.wrapping_mul(2654435761) >> 8) % (1 << 16))
            .collect();
        let cold_outcome: Vec<bool> = {
            let mut cold = CacheModel::new(4096, 64, 4);
            trace.iter().map(|&a| cold.access(a)).collect()
        };
        for round in 0..3 {
            // Same geometry: after the first round this hits the pool.
            let mut c = CacheModel::new(4096, 64, 4);
            let outcome: Vec<bool> = trace.iter().map(|&a| c.access(a)).collect();
            assert_eq!(outcome, cold_outcome, "round {round}");
            assert_eq!(c.hits(), cold_outcome.iter().filter(|&&h| h).count() as u64);
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut c = CacheModel::new(256, 64, 2);
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert!(!c.access(0));
    }
}
