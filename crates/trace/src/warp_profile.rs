//! Per-warp profiling: a [`Probe`] adapter that attributes work to
//! individual warps via the simulator's `warp_begin`/`warp_end` hooks.

use dasp_simt::{KernelStats, Probe, ShardableProbe};

use crate::registry::{Histogram, Registry};

/// Work attributed to one warp execution (one `warp_begin`..`warp_end`
/// region).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpTally {
    /// The warp id the kernel reported.
    pub warp_id: usize,
    /// Matrix value elements this warp streamed (its nnz share, padding
    /// included).
    pub nnz: u64,
    /// Instructions issued: MMA + FMA + shuffle.
    pub instructions: u64,
    /// `x` element loads issued.
    pub x_requests: u64,
    /// Regions executed with predicated-off lanes.
    pub divergent_regions: u64,
    /// Total predicated-off lanes across those regions.
    pub inactive_lanes: u64,
}

/// Per-warp work distribution collected by a [`WarpProfiler`].
#[derive(Debug, Clone, Default)]
pub struct WarpProfile {
    /// One tally per warp execution, in execution order.
    pub warps: Vec<WarpTally>,
}

impl WarpProfile {
    /// Number of warp executions observed.
    pub fn len(&self) -> usize {
        self.warps.len()
    }

    /// Whether no warps were observed.
    pub fn is_empty(&self) -> bool {
        self.warps.is_empty()
    }

    /// Histogram of per-warp nnz over the given bucket bounds.
    pub fn nnz_histogram(&self, bounds: &[f64]) -> Histogram {
        let mut h = Histogram::new(bounds);
        for w in &self.warps {
            h.observe(w.nnz as f64);
        }
        h
    }

    /// Histogram of per-warp instruction counts over the given bounds.
    pub fn instruction_histogram(&self, bounds: &[f64]) -> Histogram {
        let mut h = Histogram::new(bounds);
        for w in &self.warps {
            h.observe(w.instructions as f64);
        }
        h
    }

    /// Total divergent regions across all warps.
    pub fn divergent_regions(&self) -> u64 {
        self.warps.iter().map(|w| w.divergent_regions).sum()
    }

    /// Total predicated-off lanes across all warps.
    pub fn inactive_lanes(&self) -> u64 {
        self.warps.iter().map(|w| w.inactive_lanes).sum()
    }

    /// Max-over-mean nnz load imbalance (1.0 = perfectly balanced, 0 when
    /// empty). This is the quantity DASP's short-row MMA packing drives
    /// toward 1.0 versus scalar CSR's long tail.
    pub fn nnz_imbalance(&self) -> f64 {
        self.nnz_histogram(&[1.0]).imbalance()
    }

    /// Records this profile into a [`Registry`] under
    /// `<prefix>.nnz` / `<prefix>.instructions` histograms (with the given
    /// bounds) and `<prefix>.divergent_regions` /
    /// `<prefix>.inactive_lanes` / `<prefix>.warps` counters.
    pub fn record_into(&self, registry: &Registry, prefix: &str, bounds: &[f64]) {
        registry.merge_histogram(&format!("{prefix}.nnz"), &self.nnz_histogram(bounds));
        registry.merge_histogram(
            &format!("{prefix}.instructions"),
            &self.instruction_histogram(bounds),
        );
        registry.counter_add(
            &format!("{prefix}.divergent_regions"),
            self.divergent_regions(),
        );
        registry.counter_add(&format!("{prefix}.inactive_lanes"), self.inactive_lanes());
        registry.counter_add(&format!("{prefix}.warps"), self.warps.len() as u64);
    }
}

/// A [`Probe`] adapter wrapping any inner probe. Forwards every call to
/// the inner probe unchanged (so counting and caching behave exactly as
/// without the wrapper) while tallying per-warp work between
/// `warp_begin`/`warp_end` into a [`WarpProfile`].
#[derive(Debug, Clone)]
pub struct WarpProfiler<P> {
    inner: P,
    profile: WarpProfile,
    current: Option<WarpTally>,
}

impl<P> WarpProfiler<P> {
    /// Wraps `inner`, starting with an empty profile.
    pub fn new(inner: P) -> WarpProfiler<P> {
        WarpProfiler {
            inner,
            profile: WarpProfile::default(),
            current: None,
        }
    }

    /// The profile collected so far.
    pub fn profile(&self) -> &WarpProfile {
        &self.profile
    }

    /// A reference to the wrapped probe.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps into the inner probe and the collected profile.
    pub fn into_parts(self) -> (P, WarpProfile) {
        (self.inner, self.profile)
    }
}

impl<P: Probe> Probe for WarpProfiler<P> {
    fn kernel_launch(&mut self, blocks: u64, warps_per_block: u64) {
        self.inner.kernel_launch(blocks, warps_per_block);
    }
    fn load_val(&mut self, elems: u64, bytes_per: u64) {
        if let Some(t) = &mut self.current {
            t.nnz += elems;
        }
        self.inner.load_val(elems, bytes_per);
    }
    fn load_idx(&mut self, elems: u64, bytes_per: u64) {
        self.inner.load_idx(elems, bytes_per);
    }
    fn load_meta(&mut self, elems: u64, bytes_per: u64) {
        self.inner.load_meta(elems, bytes_per);
    }
    fn store_y(&mut self, elems: u64, bytes_per: u64) {
        self.inner.store_y(elems, bytes_per);
    }
    fn load_x(&mut self, indices: &[usize], bytes_per: u64) {
        if let Some(t) = &mut self.current {
            t.x_requests += indices.len() as u64;
        }
        self.inner.load_x(indices, bytes_per);
    }
    fn load_x_rows(&mut self, starts: &[usize], len: usize, bytes_per: u64) {
        if let Some(t) = &mut self.current {
            t.x_requests += (starts.len() * len) as u64;
        }
        self.inner.load_x_rows(starts, len, bytes_per);
    }
    fn mma(&mut self) {
        if let Some(t) = &mut self.current {
            t.instructions += 1;
        }
        self.inner.mma();
    }
    fn fma(&mut self, n: u64) {
        if let Some(t) = &mut self.current {
            t.instructions += n;
        }
        self.inner.fma(n);
    }
    fn shfl(&mut self, n: u64) {
        if let Some(t) = &mut self.current {
            t.instructions += n;
        }
        self.inner.shfl(n);
    }
    fn panel(&mut self, panel: Option<usize>) {
        self.inner.panel(panel);
    }
    fn warp_begin(&mut self, warp_id: usize) {
        // An unmatched previous warp (kernel bug) is flushed rather than
        // silently dropped.
        if let Some(t) = self.current.take() {
            self.profile.warps.push(t);
        }
        self.current = Some(WarpTally {
            warp_id,
            ..Default::default()
        });
        self.inner.warp_begin(warp_id);
    }
    fn warp_end(&mut self, warp_id: usize) {
        if let Some(t) = self.current.take() {
            self.profile.warps.push(t);
        }
        self.inner.warp_end(warp_id);
    }
    fn divergence(&mut self, inactive: u64) {
        if inactive > 0 {
            if let Some(t) = &mut self.current {
                t.divergent_regions += 1;
                t.inactive_lanes += inactive;
            }
        }
        self.inner.divergence(inactive);
    }
    fn stats_snapshot(&self) -> KernelStats {
        self.inner.stats_snapshot()
    }
}

impl<P: ShardableProbe + Send> ShardableProbe for WarpProfiler<P> {
    /// A shard starts with an empty profile over a shard of the inner
    /// probe.
    fn fork_shard(&self) -> Self {
        WarpProfiler::new(self.inner.fork_shard())
    }

    /// Appends the shard's warp tallies (flushing any unmatched open warp
    /// first) and merges the inner probe's counters. Shards are merged in
    /// chunk order by the executor, so the combined profile lists warps
    /// grouped by shard, each group in execution order.
    fn merge_shard(&mut self, mut shard: Self) {
        if let Some(t) = shard.current.take() {
            shard.profile.warps.push(t);
        }
        self.profile.warps.extend(shard.profile.warps);
        self.inner.merge_shard(shard.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::{CacheModel, CountingProbe, NoProbe};

    #[test]
    fn tallies_per_warp_and_forwards_to_inner() {
        let mut p = WarpProfiler::new(CountingProbe::new(CacheModel::new(1024, 64, 2)));
        p.kernel_launch(1, 2);
        p.warp_begin(0);
        p.load_val(10, 8);
        p.mma();
        p.fma(3);
        p.divergence(4);
        p.warp_end(0);
        p.warp_begin(1);
        p.load_val(30, 8);
        p.shfl(5);
        p.warp_end(1);

        let (inner, profile) = p.into_parts();
        // Inner counting probe saw everything.
        let s = inner.stats();
        assert_eq!(s.bytes_val, 40 * 8);
        assert_eq!(s.mma_ops, 1);
        assert_eq!(s.fma_ops, 3);
        assert_eq!(s.shfl_ops, 5);
        assert_eq!(s.divergent_regions, 1);
        assert_eq!(s.inactive_lanes, 4);
        // Profile attributed work to the right warps.
        assert_eq!(profile.len(), 2);
        assert_eq!(profile.warps[0].warp_id, 0);
        assert_eq!(profile.warps[0].nnz, 10);
        assert_eq!(profile.warps[0].instructions, 4);
        assert_eq!(profile.warps[0].divergent_regions, 1);
        assert_eq!(profile.warps[0].inactive_lanes, 4);
        assert_eq!(profile.warps[1].nnz, 30);
        assert_eq!(profile.warps[1].instructions, 5);
        // Imbalance: mean nnz 20, max 30.
        assert!((profile.nnz_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn x_gathers_and_divergence_tally_and_forward() {
        let mut p = WarpProfiler::new(CountingProbe::new(CacheModel::new(1024, 64, 2)));
        p.warp_begin(0);
        p.load_x(&[0, 1, 2, 100], 8);
        p.load_x_rows(&[200, 300, 400], 5, 8);
        for inactive in [0, 3, 0, 2] {
            p.divergence(inactive);
        }
        p.warp_end(0);
        let (inner, profile) = p.into_parts();
        assert_eq!(inner.stats().x_requests, 19);
        assert_eq!(inner.stats().divergent_regions, 2);
        assert_eq!(inner.stats().inactive_lanes, 5);
        assert_eq!(profile.warps[0].x_requests, 19);
        assert_eq!(profile.warps[0].divergent_regions, 2);
        assert_eq!(profile.warps[0].inactive_lanes, 5);
    }

    #[test]
    fn work_outside_warps_is_forwarded_but_unattributed() {
        let mut p = WarpProfiler::new(CountingProbe::new(CacheModel::new(1024, 64, 2)));
        p.load_val(7, 8); // no warp open
        assert_eq!(p.inner().stats().bytes_val, 56);
        assert!(p.profile().is_empty());
    }

    #[test]
    fn shards_fork_empty_and_merge_in_order() {
        let mut p = WarpProfiler::new(CountingProbe::new(CacheModel::new(1024, 64, 2)));
        p.warp_begin(0);
        p.load_val(5, 8);
        p.warp_end(0);

        let mut shard = p.fork_shard();
        assert!(shard.profile().is_empty());
        assert_eq!(shard.inner().stats(), Default::default());
        shard.warp_begin(7);
        shard.load_val(11, 8);
        shard.warp_end(7);
        // An unmatched open warp in the shard is flushed on merge.
        shard.warp_begin(8);
        shard.fma(2);

        p.merge_shard(shard);
        assert_eq!(p.profile().len(), 3);
        assert_eq!(p.profile().warps[0].warp_id, 0);
        assert_eq!(p.profile().warps[1].warp_id, 7);
        assert_eq!(p.profile().warps[2].warp_id, 8);
        let s = p.inner().stats();
        assert_eq!(s.bytes_val, 16 * 8);
        assert_eq!(s.fma_ops, 2);
    }

    #[test]
    fn profiler_runs_under_both_executors() {
        use dasp_simt::{Executor, ParExecutor};
        let body = |w: usize, p: &mut WarpProfiler<CountingProbe>| {
            p.warp_begin(w);
            p.load_val(w as u64 + 1, 8);
            p.fma(2);
            p.warp_end(w);
        };
        let mut seq = WarpProfiler::new(CountingProbe::a100());
        Executor::seq().run(100, &mut seq, body);
        let mut par = WarpProfiler::new(CountingProbe::a100());
        ParExecutor::new()
            .with_threads(Some(4))
            .with_seq_threshold(0)
            .run(100, &mut par, body);
        assert_eq!(par.profile().len(), 100);
        // Same set of warps profiled, grouped by shard.
        let mut seq_ids: Vec<_> = seq.profile().warps.iter().map(|w| w.warp_id).collect();
        let mut par_ids: Vec<_> = par.profile().warps.iter().map(|w| w.warp_id).collect();
        seq_ids.sort_unstable();
        par_ids.sort_unstable();
        assert_eq!(seq_ids, par_ids);
        assert_eq!(
            seq.inner().stats().order_independent(),
            par.inner().stats().order_independent()
        );
    }

    #[test]
    fn histograms_and_registry_recording() {
        let mut p = WarpProfiler::new(NoProbe);
        for (id, nnz) in [(0u64, 4u64), (1, 4), (2, 64)] {
            p.warp_begin(id as usize);
            p.load_val(nnz, 8);
            p.warp_end(id as usize);
        }
        let h = p.profile().nnz_histogram(&[8.0, 32.0]);
        assert_eq!(h.counts, vec![2, 0, 1]);
        let r = Registry::new();
        p.profile().record_into(&r, "warp", &[8.0, 32.0]);
        assert_eq!(r.counter("warp.warps"), Some(3));
        assert_eq!(r.histogram("warp.nnz").unwrap().count, 3);
        assert_eq!(r.histogram("warp.instructions").unwrap().count, 3);
    }
}
