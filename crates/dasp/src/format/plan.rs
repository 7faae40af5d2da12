//! Analysis/execute split of the preprocessing step (paper Fig. 13).
//!
//! [`DaspPlan::analyze`] runs the *analysis* half of `from_csr` on the
//! sparsity pattern alone: row categorization, the medium stable sort,
//! every part's block geometry, and a slot -> nnz *gather map* recording
//! where each CSR element lands in the format's four value arrays. The
//! *execute* half is then [`DaspPlan::fill`] — allocate the value arrays
//! and scatter — or, cheaper still, [`DaspMatrix::update_values`], an
//! O(nnz) scatter into an existing matrix that touches no index structures.
//! [`PlanCache`] keys plans by a hash of the pattern so repeated builds on
//! the same structure (re-factorizations, time stepping) skip analysis
//! entirely.
//!
//! A plan is a [`Pattern`] plus a gather map. Analysis runs the same
//! zero-copy builder as [`DaspMatrix::from_csr`] on the caller's CSR, but
//! has it store each CSR element's *index* `j` (as `u32`) where `from_csr`
//! stores its value, and [`GATHER_PADDING`] where `from_csr` stores
//! padding zeros. The pattern that comes back is the matrix's pattern, and
//! the [`Slots`] beside it *are* the gather map, so layout parity with
//! `from_csr` holds by construction. A fill allocates and scatters the
//! values only: the matrix shares the plan's pattern through its [`Arc`].
//! The map is in *gather* form (slot -> element), so deriving it, filling
//! values, and refreshing them all stream the format arrays sequentially.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dasp_fp16::Scalar;
use dasp_simt::{Executor, SharedSlice};
use dasp_sparse::Csr;
use dasp_trace::{Registry, Tracer};

use crate::consts::DaspParams;
use crate::format::build::{self, run_chunks};
use crate::format::{same_pattern, DaspMatrix, Pattern, Slots};

/// Scatter elements per chunk when a fill/update runs on the parallel
/// executor: one random write per element, so chunks stay large.
const MIN_CHUNK_SCATTER: usize = 8192;

/// The reusable analysis product: everything `from_csr` derives from the
/// sparsity pattern, and nothing it derives from the values. Reads of the
/// pattern (`plan.nnz`, `plan.long.rows`) go through `Deref`.
///
/// A plan is scalar-free — the same plan fills f64, f32, and F16 matrices
/// — and immutable; it is shared behind an [`Arc`] between the matrices
/// filled from it and any [`PlanCache`] holding it.
#[derive(Debug, Clone, PartialEq)]
pub struct DaspPlan {
    /// The pattern every matrix filled from the plan shares.
    pub(crate) pattern: Arc<Pattern>,
    /// The gather map: each slot holds the CSR element that fills it, or
    /// GATHER_PADDING for a zero-padding slot. Gather form keeps every
    /// fill/refresh write sequential.
    pub(crate) gather: Slots<u32>,
}

impl Deref for DaspPlan {
    type Target = Pattern;

    fn deref(&self) -> &Pattern {
        &self.pattern
    }
}

/// The gather-map marker for a padding slot (zero-filled, fed by no CSR
/// element).
pub const GATHER_PADDING: u32 = u32::MAX;

/// Internal alias; the public name is [`GATHER_PADDING`].
const PADDING: u32 = GATHER_PADDING;

impl DaspPlan {
    /// Analyzes a pattern on the environment-selected executor.
    pub fn analyze<S: Scalar>(csr: &Csr<S>, params: DaspParams) -> Arc<Self> {
        Self::analyze_traced_with(csr, params, &Tracer::disabled(), &Executor::from_env())
    }

    /// [`DaspPlan::analyze`] with the preprocessing phases recorded as
    /// spans (`preprocess.categorize`, `preprocess.sort`,
    /// `preprocess.build.{long,medium,short}`, plus a `preprocess.plan`
    /// child assembling the plan) under a `preprocess` root, on an
    /// explicit executor.
    ///
    /// Panics if `params.max_len <= 4` or if the pattern holds
    /// [`GATHER_PADDING`] or more nonzeros (element indices travel as
    /// `u32`).
    pub fn analyze_traced_with<S: Scalar>(
        csr: &Csr<S>,
        params: DaspParams,
        tracer: &Tracer,
        exec: &Executor,
    ) -> Arc<Self> {
        assert!(
            params.max_len > 4,
            "MAX_LEN must exceed the short-row bound"
        );
        assert!(
            csr.nnz() < PADDING as usize,
            "element indices must stay below GATHER_PADDING"
        );
        let root = tracer.span("preprocess");

        // The builder copies element indices instead of values: each slot
        // holds the CSR element that fills it, or PADDING.
        let (pattern, gather) = build::build_under(csr, params, &root, exec, |j| j as u32, PADDING);
        let total = pattern.total_slots();
        assert!(total <= u32::MAX as usize, "slot count exceeds u32 range");
        let mut sp = root.child("preprocess.plan");
        sp.add_arg("slots", total);
        sp.add_arg("scatter_bytes", total * 4);
        Arc::new(DaspPlan {
            pattern: Arc::new(pattern),
            gather,
        })
    }

    /// Bytes of the plan's arrays (pattern + gather map).
    pub fn memory_bytes(&self) -> usize {
        let gather: usize = self.gather.arrays().iter().map(|g| g.len()).sum();
        let (ids, ptrs) = self.pattern.array_lens();
        (ids + gather) * 4 + ptrs * std::mem::size_of::<usize>()
    }

    /// Executes the plan: allocates the value arrays, scatters `csr.vals`
    /// through the gather map, and assembles the matrix around the plan's
    /// shared pattern. Runs on the environment-selected executor.
    ///
    /// Panics if `csr`'s dimensions or nonzero count disagree with the
    /// analyzed pattern (column structure is trusted — use
    /// [`PlanCache`] when patterns may vary).
    pub fn fill<S: Scalar>(self: &Arc<Self>, csr: &Csr<S>) -> DaspMatrix<S> {
        self.fill_traced_with(csr, &Tracer::disabled(), &Executor::from_env())
    }

    /// [`DaspPlan::fill`] recording a `preprocess.fill` span, on an
    /// explicit executor.
    pub fn fill_traced_with<S: Scalar>(
        self: &Arc<Self>,
        csr: &Csr<S>,
        tracer: &Tracer,
        exec: &Executor,
    ) -> DaspMatrix<S> {
        assert!(
            csr.rows == self.rows && csr.cols == self.cols && csr.nnz() == self.nnz,
            "fill pattern mismatch: plan is {}x{} with {} nnz, csr is {}x{} with {}",
            self.rows,
            self.cols,
            self.nnz,
            csr.rows,
            csr.cols,
            csr.nnz()
        );
        let mut sp = tracer.span("preprocess.fill");
        sp.add_arg("nnz", self.nnz);
        sp.add_arg(
            "scatter_bytes",
            scatter_bytes::<S>(self.total_slots(), self.nnz),
        );

        let fill = |map: &[u32]| {
            let mut vals = vec![S::zero(); map.len()];
            scatter(map, &csr.vals, &mut vals, exec);
            vals
        };
        DaspMatrix {
            pattern: self.pattern.clone(),
            vals: self.gather.map(fill),
            plan: Some(self.clone()),
        }
    }
}

/// Writes `src[map[s]]` into every non-padding slot `s` of `dst`. Padding
/// slots are never written, so they keep whatever the caller prefilled
/// (zeros). Writes stream `dst` front to back; only the `src` reads are
/// indexed.
fn scatter<S: Scalar>(map: &[u32], src: &[S], dst: &mut [S], exec: &Executor) {
    assert_eq!(map.len(), dst.len(), "gather map and value array differ");
    let sd = SharedSlice::new(dst);
    run_chunks(exec, map.len(), MIN_CHUNK_SCATTER, |lo, hi| {
        for (k, &g) in map[lo..hi].iter().enumerate() {
            if g != PADDING {
                sd.write(lo + k, src[g as usize]);
            }
        }
    });
}

/// Bytes an O(nnz) value refresh moves: the gather map streamed once plus
/// a value read and write per element.
fn scatter_bytes<S: Scalar>(map_len: usize, nnz: usize) -> usize {
    map_len * 4 + nnz * 2 * std::mem::size_of::<S>()
}

/// Why a values-only refresh could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshError {
    /// The matrix was built without a plan (plain `from_csr`); rebuild it
    /// via [`DaspPlan::fill`] or attach a plan first.
    NoPlan,
    /// `new_vals` does not hold exactly one value per stored nonzero.
    WrongLength {
        /// Length supplied.
        got: usize,
        /// Length required (the matrix's nonzero count).
        want: usize,
    },
    /// The plan's pattern disagrees with the matrix it was attached to.
    Mismatch(String),
}

impl fmt::Display for RefreshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefreshError::NoPlan => write!(f, "matrix has no attached plan"),
            RefreshError::WrongLength { got, want } => {
                write!(f, "value slice has {got} entries, matrix stores {want}")
            }
            RefreshError::Mismatch(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RefreshError {}

impl<S: Scalar> DaspMatrix<S> {
    /// The plan this matrix was filled from, if any.
    pub fn plan(&self) -> Option<&Arc<DaspPlan>> {
        self.plan.as_ref()
    }

    /// Replaces the matrix's values with `new_vals` (one value per stored
    /// nonzero, in CSR element order) through the attached plan's scatter
    /// map: O(nnz), touching no index structures. The result is
    /// bit-identical to a full rebuild from a CSR with those values.
    pub fn update_values(&mut self, new_vals: &[S]) -> Result<(), RefreshError> {
        self.update_values_traced_with(new_vals, &Tracer::disabled(), &Executor::from_env())
    }

    /// [`DaspMatrix::update_values`] recording a `preprocess.update_values`
    /// span, on an explicit executor.
    pub fn update_values_traced_with(
        &mut self,
        new_vals: &[S],
        tracer: &Tracer,
        exec: &Executor,
    ) -> Result<(), RefreshError> {
        let plan = self.plan.clone().ok_or(RefreshError::NoPlan)?;
        if new_vals.len() != self.nnz {
            return Err(RefreshError::WrongLength {
                got: new_vals.len(),
                want: self.nnz,
            });
        }
        let mut sp = tracer.span("preprocess.update_values");
        sp.add_arg("nnz", self.nnz);
        sp.add_arg(
            "scatter_bytes",
            scatter_bytes::<S>(plan.total_slots(), self.nnz),
        );
        for (map, dst) in plan.gather.arrays().into_iter().zip(self.vals.arrays_mut()) {
            scatter(map, new_vals, dst, exec);
        }
        Ok(())
    }

    /// Attaches a plan to a matrix built without one (e.g. deserialized,
    /// or from plain `from_csr`), enabling [`DaspMatrix::update_values`].
    /// The plan's pattern must match the matrix's index structures exactly;
    /// the matrix then adopts the plan's copy, so one pattern stays
    /// resident.
    pub fn attach_plan(&mut self, plan: Arc<DaspPlan>) -> Result<(), RefreshError> {
        if !same_pattern(&plan.pattern, &self.pattern) {
            return Err(RefreshError::Mismatch(format!(
                "plan pattern ({}x{}, nnz {}) does not match the matrix pattern ({}x{}, nnz {})",
                plan.rows, plan.cols, plan.nnz, self.rows, self.cols, self.nnz
            )));
        }
        self.pattern = plan.pattern.clone();
        self.plan = Some(plan);
        Ok(())
    }

    /// [`DaspMatrix::from_csr`] through a [`PlanCache`]: a cache hit skips
    /// analysis and goes straight to the O(nnz) fill. The returned matrix
    /// carries the plan, so [`DaspMatrix::update_values`] works on it.
    pub fn from_csr_cached(csr: &Csr<S>, cache: &PlanCache) -> Self {
        Self::with_params_cached(csr, DaspParams::default(), cache)
    }

    /// [`DaspMatrix::from_csr_cached`] with explicit parameters.
    pub fn with_params_cached(csr: &Csr<S>, params: DaspParams, cache: &PlanCache) -> Self {
        cache.plan_for(csr, params).fill(csr)
    }
}

/// A small LRU cache of analysis plans keyed by sparsity pattern
/// (FNV-1a over `row_ptr`, `col_idx`, dimensions, and [`DaspParams`]).
///
/// Thread-safe; lookups clone an [`Arc`], so hits are cheap and the cache
/// never blocks fills.
pub struct PlanCache {
    cap: usize,
    entries: Mutex<Vec<(u64, Arc<DaspPlan>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

/// The capacity [`PlanCache::new`] and [`PlanCache::from_env`] fall back
/// to when `DASP_PLAN_CACHE_CAP` is unset or unparsable.
pub const DEFAULT_PLAN_CACHE_CAP: usize = 8;

fn parse_cache_cap(v: Option<&str>) -> usize {
    v.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_PLAN_CACHE_CAP)
}

impl PlanCache {
    /// A cache holding up to [`DEFAULT_PLAN_CACHE_CAP`] plans.
    pub fn new() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAP)
    }

    /// A cache sized by the `DASP_PLAN_CACHE_CAP` environment variable
    /// (positive integer; anything else falls back to
    /// [`DEFAULT_PLAN_CACHE_CAP`]). A resident-matrix server keeping one
    /// plan per hot matrix wants this at least as large as its working
    /// set — an undersized cache silently re-analyzes on every miss, which
    /// the [`PlanCache::evictions`] counter makes visible.
    pub fn from_env() -> Self {
        PlanCache::with_capacity(Self::env_capacity())
    }

    /// The capacity `DASP_PLAN_CACHE_CAP` currently selects (the
    /// [`PlanCache::from_env`] size), without building a cache.
    pub fn env_capacity() -> usize {
        parse_cache_cap(std::env::var("DASP_PLAN_CACHE_CAP").ok().as_deref())
    }

    /// A cache holding up to `cap` plans (least recently used evicted).
    pub fn with_capacity(cap: usize) -> Self {
        PlanCache {
            cap: cap.max(1),
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity (plans retained before LRU eviction).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The plan for `csr`'s pattern under `params`, analyzing on a miss
    /// (environment-selected executor).
    pub fn plan_for<S: Scalar>(&self, csr: &Csr<S>, params: DaspParams) -> Arc<DaspPlan> {
        self.plan_for_traced_with(csr, params, &Tracer::disabled(), &Executor::from_env())
    }

    /// [`PlanCache::plan_for`] with tracing and an explicit executor for
    /// the miss path.
    pub fn plan_for_traced_with<S: Scalar>(
        &self,
        csr: &Csr<S>,
        params: DaspParams,
        tracer: &Tracer,
        exec: &Executor,
    ) -> Arc<DaspPlan> {
        let key = pattern_key(csr, params);
        // Finds the entry for `csr` and moves it to the front.
        let lookup = |entries: &mut Vec<(u64, Arc<DaspPlan>)>| {
            let i = entries.iter().position(|(k, p)| {
                *k == key
                    && p.rows == csr.rows
                    && p.cols == csr.cols
                    && p.nnz == csr.nnz()
                    && p.params == params
            })?;
            let e = entries.remove(i);
            let plan = e.1.clone();
            entries.insert(0, e);
            Some(plan)
        };
        if let Some(plan) = lookup(&mut self.entries.lock().expect("plan cache lock")) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return plan;
        }
        let plan = DaspPlan::analyze_traced_with(csr, params, tracer, exec);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("plan cache lock");
        // A concurrent miss on the same pattern may have inserted it while
        // this one analyzed: keep that entry, so one copy stays resident.
        if let Some(plan) = lookup(&mut entries) {
            return plan;
        }
        entries.insert(0, (key, plan.clone()));
        let evicted = entries.len().saturating_sub(self.cap);
        if evicted > 0 {
            entries.truncate(self.cap);
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        plan
    }

    /// Lookups that found a cached plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to analyze.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plans dropped by LRU eviction — nonzero means the capacity is
    /// below the live pattern working set and misses are re-analyzing
    /// structures the cache has already paid for.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Publishes `format.plan_cache.{hits,misses,evictions}` gauges.
    pub fn export_metrics(&self, registry: &Registry) {
        registry.gauge_set("format.plan_cache.hits", self.hits() as f64);
        registry.gauge_set("format.plan_cache.misses", self.misses() as f64);
        registry.gauge_set("format.plan_cache.evictions", self.evictions() as f64);
    }
}

/// FNV-1a over the pattern, word-wise: dimensions and params first, then
/// `row_ptr` as u64 words and `col_idx` packed two to a word.
fn pattern_key<S: Scalar>(csr: &Csr<S>, params: DaspParams) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut word = |w: u64| {
        h ^= w;
        h = h.wrapping_mul(PRIME);
    };
    word(csr.rows as u64);
    word(csr.cols as u64);
    word(csr.nnz() as u64);
    word(params.max_len as u64);
    word(params.threshold.to_bits());
    word(params.short_piecing as u64);
    word(params.reorder as u64);
    for &p in &csr.row_ptr {
        word(p as u64);
    }
    let mut pairs = csr.col_idx.chunks_exact(2);
    for pair in &mut pairs {
        word((pair[0] as u64) << 32 | pair[1] as u64);
    }
    if let [last] = pairs.remainder() {
        word(*last as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::verify_plan;
    use dasp_sparse::Coo;
    use proptest::prelude::*;

    /// Rows in every category, with value `r*1000 + c` at `(r, c)`.
    fn mixed(seed: u64) -> Csr<f64> {
        let mut m = Coo::new(40, 400);
        let v = |r: usize, c: usize| (r * 1000 + c) as f64 + seed as f64;
        for c in 0..300 {
            m.push(0, c, v(0, c));
        }
        for c in 0..10 {
            m.push(2, c * 3, v(2, c * 3));
        }
        for r in 3..20 {
            for c in 0..6 {
                m.push(r, c * 7 + r, v(r, c * 7 + r));
            }
        }
        for r in 20..40 {
            let len = (r - 20) % 4 + 1;
            for c in 0..len {
                m.push(r, c * 11 + r, v(r, c * 11 + r));
            }
        }
        m.to_csr()
    }

    #[test]
    fn fill_matches_from_csr_bit_for_bit() {
        let csr = mixed(0);
        let plan = DaspPlan::analyze(&csr, DaspParams::default());
        assert!(verify_plan(&plan).is_clean(), "analyzed plan validates");
        let filled = plan.fill(&csr);
        let direct = DaspMatrix::from_csr(&csr);
        assert_eq!(filled, direct);
        assert!(filled.plan().is_some());
        assert!(direct.plan().is_none());
    }

    /// Whether `m` and its plan hold one pattern allocation.
    fn shares_pattern(m: &DaspMatrix<f64>) -> bool {
        Arc::ptr_eq(&m.pattern, &m.plan().expect("plan attached").pattern)
    }

    #[test]
    fn fill_attach_and_clone_share_one_pattern() {
        let csr = mixed(0);
        let plan = DaspPlan::analyze(&csr, DaspParams::default());
        let filled = plan.fill(&csr);
        assert!(shares_pattern(&filled), "fill");
        assert!(shares_pattern(&filled.clone()), "clone");
        let mut attached = DaspMatrix::from_csr(&csr);
        assert!(!Arc::ptr_eq(&attached.pattern, &plan.pattern));
        attached.attach_plan(plan.clone()).expect("pattern matches");
        assert!(shares_pattern(&attached), "attach_plan");
        // A refresh writes values only; the pattern stays shared.
        attached.update_values(&csr.vals).expect("refresh applies");
        assert!(shares_pattern(&attached), "update_values");
    }

    #[test]
    fn memory_bytes_counts_every_array_the_plan_holds() {
        let plan = DaspPlan::analyze(&mixed(0), DaspParams::default());
        let (l, m, s, g) = (&plan.long, &plan.medium, &plan.short, &plan.gather);
        assert!(!l.cids.is_empty() && !m.reg_cid.is_empty() && !s.cids.is_empty());
        use std::mem::size_of_val as bytes;
        let hand = bytes(&g.long[..])
            + bytes(&l.cids[..])
            + bytes(&l.group_ptr[..])
            + bytes(&l.rows[..])
            + bytes(&g.reg[..])
            + bytes(&m.reg_cid[..])
            + bytes(&m.rowblock_ptr[..])
            + bytes(&g.irreg[..])
            + bytes(&m.irreg_cid[..])
            + bytes(&m.irreg_ptr[..])
            + bytes(&m.rows[..])
            + bytes(&g.short[..])
            + bytes(&s.cids[..])
            + s.perms.iter().map(|p| bytes(&p[..])).sum::<usize>()
            + bytes(&s.perm1[..]);
        assert_eq!(plan.memory_bytes(), hand);
    }

    #[test]
    fn parallel_analysis_is_bit_identical() {
        let csr = mixed(0);
        let seq = DaspPlan::analyze_traced_with(
            &csr,
            DaspParams::default(),
            &Tracer::disabled(),
            &Executor::seq(),
        );
        let par = DaspPlan::analyze_traced_with(
            &csr,
            DaspParams::default(),
            &Tracer::disabled(),
            &Executor::par_with_threads(Some(4)),
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn update_values_matches_full_rebuild() {
        let base = mixed(0);
        let plan = DaspPlan::analyze(&base, DaspParams::default());
        let mut m = plan.fill(&base);
        for seed in [7u64, 13, 29] {
            let next = mixed(seed);
            m.update_values(&next.vals).expect("refresh applies");
            assert_eq!(m, DaspMatrix::from_csr(&next));
        }
    }

    #[test]
    fn update_values_error_paths() {
        let csr = mixed(0);
        let mut bare = DaspMatrix::from_csr(&csr);
        assert_eq!(bare.update_values(&csr.vals), Err(RefreshError::NoPlan));

        let plan = DaspPlan::analyze(&csr, DaspParams::default());
        let mut m = plan.fill(&csr);
        assert_eq!(
            m.update_values(&csr.vals[..3]),
            Err(RefreshError::WrongLength {
                got: 3,
                want: csr.nnz()
            })
        );

        // attach_plan enables refresh on a plain-built matrix...
        bare.attach_plan(plan.clone()).expect("pattern matches");
        bare.update_values(&csr.vals).expect("refresh now applies");
        // ...but rejects a plan for a different pattern.
        let other = DaspPlan::analyze(&mixed_wider(), DaspParams::default());
        let mut fresh = DaspMatrix::from_csr(&csr);
        assert!(matches!(
            fresh.attach_plan(other),
            Err(RefreshError::Mismatch(_))
        ));
    }

    fn mixed_wider() -> Csr<f64> {
        let mut m = Coo::new(40, 400);
        for c in 0..300 {
            m.push(0, c, 1.0);
        }
        for c in 0..12 {
            m.push(2, c * 3, 2.0);
        }
        for r in 3..20 {
            for c in 0..6 {
                m.push(r, c * 7 + r, 3.0);
            }
        }
        m.to_csr()
    }

    #[test]
    fn plan_cache_hits_and_returns_identical_matrix() {
        let csr = mixed(0);
        let cache = PlanCache::new();
        let a = DaspMatrix::from_csr_cached(&csr, &cache);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        let b = DaspMatrix::from_csr_cached(&csr, &cache);
        assert_eq!(cache.hits(), 1);
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(a.plan().unwrap(), b.plan().unwrap()));

        // A different pattern is a miss, not a false hit.
        let other = mixed_wider();
        let _ = DaspMatrix::from_csr_cached(&other, &cache);
        assert_eq!(cache.misses(), 2);

        // Different params on the same pattern are a different plan.
        let _ = DaspMatrix::with_params_cached(
            &csr,
            DaspParams {
                max_len: 64,
                ..DaspParams::default()
            },
            &cache,
        );
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(1);
        let a = mixed(0);
        let b = mixed_wider();
        let _ = DaspMatrix::from_csr_cached(&a, &cache);
        assert_eq!(cache.evictions(), 0);
        let _ = DaspMatrix::from_csr_cached(&b, &cache);
        // `a` was evicted by `b`; rebuilding it is a miss again.
        let _ = DaspMatrix::from_csr_cached(&a, &cache);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn concurrent_misses_on_one_pattern_keep_one_entry() {
        let csr = mixed(0);
        let cache = PlanCache::new();
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let miss = || {
                barrier.wait();
                cache.plan_for(&csr, DaspParams::default())
            };
            let a = s.spawn(miss);
            let b = s.spawn(miss);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(cache.entries.lock().unwrap().len(), 1);
        assert!(Arc::ptr_eq(&a, &b), "both callers get the resident plan");
        assert_eq!(cache.hits() + cache.misses(), 2);
    }

    #[test]
    fn cache_exports_metrics() {
        let cache = PlanCache::with_capacity(1);
        let csr = mixed(0);
        let _ = DaspMatrix::from_csr_cached(&csr, &cache);
        let _ = DaspMatrix::from_csr_cached(&csr, &cache);
        let _ = DaspMatrix::from_csr_cached(&mixed_wider(), &cache);
        let registry = Registry::new();
        cache.export_metrics(&registry);
        assert_eq!(registry.gauge("format.plan_cache.hits"), Some(1.0));
        assert_eq!(registry.gauge("format.plan_cache.misses"), Some(2.0));
        assert_eq!(registry.gauge("format.plan_cache.evictions"), Some(1.0));
    }

    #[test]
    fn cache_capacity_parses_env_values() {
        assert_eq!(parse_cache_cap(None), DEFAULT_PLAN_CACHE_CAP);
        assert_eq!(parse_cache_cap(Some("")), DEFAULT_PLAN_CACHE_CAP);
        assert_eq!(
            parse_cache_cap(Some("not a number")),
            DEFAULT_PLAN_CACHE_CAP
        );
        assert_eq!(parse_cache_cap(Some("0")), DEFAULT_PLAN_CACHE_CAP);
        assert_eq!(parse_cache_cap(Some("17")), 17);
        assert_eq!(parse_cache_cap(Some(" 3 ")), 3);
        // from_env in an unconfigured process falls back to the default.
        if std::env::var("DASP_PLAN_CACHE_CAP").is_err() {
            assert_eq!(PlanCache::from_env().capacity(), DEFAULT_PLAN_CACHE_CAP);
        }
        assert_eq!(PlanCache::with_capacity(5).capacity(), 5);
    }

    #[test]
    fn analysis_traces_the_standard_phases_plus_plan() {
        let csr = mixed(0);
        let tracer = Tracer::new();
        let _ =
            DaspPlan::analyze_traced_with(&csr, DaspParams::default(), &tracer, &Executor::seq());
        let trace = tracer.take_trace();
        for name in [
            "preprocess",
            "preprocess.categorize",
            "preprocess.sort",
            "preprocess.build.long",
            "preprocess.build.medium",
            "preprocess.build.short",
            "preprocess.plan",
        ] {
            assert_eq!(
                trace.spans.iter().filter(|s| s.name == name).count(),
                1,
                "span {name}"
            );
        }
    }

    /// The position-encoded derivation `analyze` used before the builder
    /// learned to copy element indices: build a `Csr<f64>` whose j-th value
    /// is `j + 1` through the matrix builder, then decode each nonzero
    /// value `v` in slot `s` as "element `v - 1` fills `s`".
    fn analyze_position_encoded(csr: &Csr<f64>, params: DaspParams, exec: &Executor) -> DaspPlan {
        let pos = Csr::<f64> {
            vals: (0..csr.nnz()).map(|j| (j + 1) as f64).collect(),
            ..csr.clone()
        };
        let m = build::build_traced_with(&pos, params, &Tracer::disabled(), exec);
        let decode = |vals: &[f64]| -> Vec<u32> {
            vals.iter()
                .map(|&v| {
                    if v != 0.0 {
                        (v as u64 - 1) as u32
                    } else {
                        PADDING
                    }
                })
                .collect()
        };
        DaspPlan {
            pattern: m.pattern.clone(),
            gather: m.vals.map(decode),
        }
    }

    /// Row lengths drawn per row from `shape`: 0 = empty rows mixed in,
    /// 1 = all short, 2 = all long, anything else = every category.
    fn pattern(rows: usize, shape: u8, seed: u64) -> Csr<f64> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let cols = 700;
        let mut coo = Coo::new(rows, cols);
        for r in 0..rows {
            let len = match shape {
                0 => [0, 0, 3, 9][rng.gen_range(0..4usize)],
                1 => rng.gen_range(1..=4usize),
                2 => rng.gen_range(257..=600usize),
                _ => match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(0..=4usize),
                    1 => rng.gen_range(5..=256usize),
                    _ => rng.gen_range(257..=600usize),
                },
            };
            // Distinct columns: stride 3 is coprime to 700.
            let start = rng.gen_range(0..cols);
            for k in 0..len {
                coo.push(r, (start + k * 3) % cols, 1.0);
            }
        }
        coo.to_csr()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn index_threaded_analysis_matches_position_encoding(
            rows in 1usize..90,
            shape in 0u8..4,
            seed in any::<u64>(),
            long_at_6 in any::<bool>(),
            low_threshold in any::<bool>(),
            piecing in any::<bool>(),
            reorder in any::<bool>(),
        ) {
            let csr = pattern(rows, shape, seed);
            let params = DaspParams {
                max_len: if long_at_6 { 5 } else { 256 },
                threshold: if low_threshold { 0.1 } else { 0.75 },
                short_piecing: piecing,
                reorder,
            };
            for exec in [Executor::seq(), Executor::par_with_threads(Some(4))] {
                let want = analyze_position_encoded(&csr, params, &exec);
                let got = DaspPlan::analyze_traced_with(&csr, params, &Tracer::disabled(), &exec);
                prop_assert!(*got == want, "plans differ under {params:?}");
            }
        }
    }

    #[test]
    fn empty_matrix_plans_and_fills() {
        let csr = Csr::<f64>::empty(10, 10);
        let plan = DaspPlan::analyze(&csr, DaspParams::default());
        assert!(verify_plan(&plan).is_clean(), "empty plan validates");
        assert_eq!(plan.total_slots(), 0);
        let m = plan.fill(&csr);
        assert_eq!(m, DaspMatrix::from_csr(&csr));
    }
}
