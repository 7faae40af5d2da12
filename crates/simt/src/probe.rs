//! Kernel instrumentation: the [`Probe`] trait and its implementations.
//!
//! Every kernel in this workspace threads a probe through its memory
//! accesses and arithmetic issues. Two implementations exist:
//!
//! * [`NoProbe`] — every method is an empty `#[inline]` body, so the
//!   instrumented kernel compiles down to the plain computation. Used by the
//!   examples and the multi-threaded execution path.
//! * [`CountingProbe`] — accumulates a [`KernelStats`] record and runs the
//!   x-vector accesses through a [`CacheModel`]. Used by the experiment
//!   drivers that regenerate the paper's figures.

use crate::cache::CacheModel;
use crate::shuffle::ShflEvent;

/// Scatter-space identifiers for the sanitizer write/read hooks
/// ([`Probe::san_write`] / [`Probe::san_read`]).
///
/// Each constant names one logical output array a kernel scatters into
/// through a [`crate::SharedSlice`]. Racecheck keys its shadow write sets
/// by `(space, index)`, so two kernels writing index 7 of *different*
/// arrays never alias.
pub mod space {
    /// The result vector/panel `y`.
    pub const Y: u32 = 0;
    /// Auxiliary partial arrays: `warpVal` of the long kernel, the
    /// per-segment/tile carry arrays of the segmented baselines.
    pub const AUX: u32 = 1;
}

/// The L2 sector size: the granularity one gather request consumes L2
/// bandwidth at, whatever the element width (NVIDIA L2 lines are split
/// into 32-byte sectors).
pub const SECTOR_BYTES: u64 = 32;

/// Traffic and instruction counters for one kernel (or a sum of kernels).
///
/// Byte counts are *DRAM-side*: the matrix arrays (`val`, `idx`, `meta`,
/// `y`) are streamed and counted at their access size, while `x` accesses
/// are classified by the cache model and only misses contribute line fills.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Bytes of matrix value arrays read (including zero padding).
    pub bytes_val: u64,
    /// Bytes of column-index arrays read.
    pub bytes_idx: u64,
    /// Bytes of metadata read: row pointers, group pointers, tile
    /// descriptors, permutations.
    pub bytes_meta: u64,
    /// Bytes written to the result vector and auxiliary partial arrays.
    pub bytes_y: u64,
    /// Element loads issued against the dense vector `x`.
    pub x_requests: u64,
    /// `x` loads served by the cache model.
    pub x_hits: u64,
    /// `x` loads that missed.
    pub x_misses: u64,
    /// DRAM bytes fetched by `x` misses (line granularity).
    pub bytes_x_miss: u64,
    /// 32-byte L2 sectors consumed serving the `x`/`B` gathers: the
    /// hardware unit of L2 bandwidth. Consecutive same-sector touches by
    /// one warp coalesce into a single sector access (the memory
    /// coalescer's merge), so a scattered SpMV gather pays one sector
    /// per element while a contiguous SpMM panel-row run pays only the
    /// sectors it spans. Determined by the access pattern alone — cache
    /// state never affects it — so it is order-independent.
    pub x_sectors: u64,
    /// Warp-wide `mma.m8n8k4` issues.
    pub mma_ops: u64,
    /// Scalar fused multiply-add issues (lane-level).
    pub fma_ops: u64,
    /// Warp shuffle issues.
    pub shfl_ops: u64,
    /// Warps launched across all kernels.
    pub warps: u64,
    /// Thread blocks launched across all kernels.
    pub blocks: u64,
    /// Kernel launches.
    pub launches: u64,
    /// Warp-level regions executed with fewer than 32 active lanes.
    pub divergent_regions: u64,
    /// Total predicated-off lanes across divergent regions (idle-lane
    /// "cycles": the per-warp load-imbalance signal of Fig. 2's MISC).
    pub inactive_lanes: u64,
}

impl KernelStats {
    /// Total DRAM bytes moved (streamed arrays + x miss fills).
    pub fn dram_bytes(&self) -> u64 {
        self.bytes_val + self.bytes_idx + self.bytes_meta + self.bytes_y + self.bytes_x_miss
    }

    /// Merges another record into this one (summing every field).
    pub fn merge(&mut self, other: &KernelStats) {
        self.bytes_val += other.bytes_val;
        self.bytes_idx += other.bytes_idx;
        self.bytes_meta += other.bytes_meta;
        self.bytes_y += other.bytes_y;
        self.x_requests += other.x_requests;
        self.x_hits += other.x_hits;
        self.x_misses += other.x_misses;
        self.bytes_x_miss += other.bytes_x_miss;
        self.x_sectors += other.x_sectors;
        self.mma_ops += other.mma_ops;
        self.fma_ops += other.fma_ops;
        self.shfl_ops += other.shfl_ops;
        self.warps += other.warps;
        self.blocks += other.blocks;
        self.launches += other.launches;
        self.divergent_regions += other.divergent_regions;
        self.inactive_lanes += other.inactive_lanes;
    }

    /// Returns a copy with the cache-dependent fields (`x_hits`,
    /// `x_misses`, `bytes_x_miss`) zeroed, keeping only the counters whose
    /// totals do not depend on the order warps execute in.
    ///
    /// Under a [`crate::ParExecutor`] every shard starts from a copy of the
    /// parent cache, so hit/miss classifications are per-shard
    /// approximations; every other field is a pure sum over warps and is
    /// bit-equal to a sequential run after [`KernelStats::merge`]. Equality
    /// assertions between executors compare these projections.
    pub fn order_independent(&self) -> KernelStats {
        KernelStats {
            x_hits: 0,
            x_misses: 0,
            bytes_x_miss: 0,
            ..*self
        }
    }

    /// Field-wise difference `self - earlier`: the traffic recorded between
    /// two [`Probe::stats_snapshot`] calls. Used by `dasp-trace` spans to
    /// attribute a run's flat totals to individual kernels and phases.
    /// Saturating, so a reset probe between snapshots yields zeros rather
    /// than wrapping.
    pub fn delta(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            bytes_val: self.bytes_val.saturating_sub(earlier.bytes_val),
            bytes_idx: self.bytes_idx.saturating_sub(earlier.bytes_idx),
            bytes_meta: self.bytes_meta.saturating_sub(earlier.bytes_meta),
            bytes_y: self.bytes_y.saturating_sub(earlier.bytes_y),
            x_requests: self.x_requests.saturating_sub(earlier.x_requests),
            x_hits: self.x_hits.saturating_sub(earlier.x_hits),
            x_misses: self.x_misses.saturating_sub(earlier.x_misses),
            bytes_x_miss: self.bytes_x_miss.saturating_sub(earlier.bytes_x_miss),
            x_sectors: self.x_sectors.saturating_sub(earlier.x_sectors),
            mma_ops: self.mma_ops.saturating_sub(earlier.mma_ops),
            fma_ops: self.fma_ops.saturating_sub(earlier.fma_ops),
            shfl_ops: self.shfl_ops.saturating_sub(earlier.shfl_ops),
            warps: self.warps.saturating_sub(earlier.warps),
            blocks: self.blocks.saturating_sub(earlier.blocks),
            launches: self.launches.saturating_sub(earlier.launches),
            divergent_regions: self
                .divergent_regions
                .saturating_sub(earlier.divergent_regions),
            inactive_lanes: self.inactive_lanes.saturating_sub(earlier.inactive_lanes),
        }
    }
}

/// One attribution bin of the per-panel traffic split: the counters whose
/// panel attribution the SpMM kernels hint through [`Probe::panel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficBin {
    /// Bytes of matrix value arrays read under this attribution.
    pub bytes_val: u64,
    /// Bytes of column-index arrays read under this attribution.
    pub bytes_idx: u64,
    /// DRAM bytes fetched by `x`/B-gather misses under this attribution.
    pub bytes_x_miss: u64,
}

impl TrafficBin {
    /// Total DRAM bytes in this bin.
    pub fn dram_bytes(&self) -> u64 {
        self.bytes_val + self.bytes_idx + self.bytes_x_miss
    }

    fn merge(&mut self, other: &TrafficBin) {
        self.bytes_val += other.bytes_val;
        self.bytes_idx += other.bytes_idx;
        self.bytes_x_miss += other.bytes_x_miss;
    }
}

/// Per-panel split of an SpMM run's `dram`/`val`/`idx` traffic.
///
/// The A-resident SpMM kernels hint [`Probe::panel`] with `None` before
/// their shared loads (the A values and column indices that are loaded
/// once and swept across every B panel) and `Some(p)` before panel `p`'s
/// B-side gathers, so the split makes the amortization directly visible:
/// `shared` holds the traffic paid once per sweep, `panels[p]` the traffic
/// each extra right-hand-side panel adds. Totals are unchanged — this is
/// pure attribution on top of [`KernelStats`]. The split stays empty
/// (`None` on [`CountingProbe::panel_traffic`]) for kernels that never
/// hint, e.g. all SpMV paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PanelTraffic {
    /// Traffic issued while no panel was current: loads shared by every
    /// panel of the sweep.
    pub shared: TrafficBin,
    /// Traffic attributed to each RHS panel.
    pub panels: Vec<TrafficBin>,
}

impl PanelTraffic {
    /// The bin a hint state attributes to.
    fn bin_mut(&mut self, cur: Option<usize>) -> &mut TrafficBin {
        match cur {
            None => &mut self.shared,
            Some(p) => {
                if self.panels.len() <= p {
                    self.panels.resize(p + 1, TrafficBin::default());
                }
                &mut self.panels[p]
            }
        }
    }

    /// Merges another split into this one (shard merge): elementwise sums,
    /// the panel list resized to the longer of the two.
    pub fn merge(&mut self, other: &PanelTraffic) {
        self.shared.merge(&other.shared);
        if self.panels.len() < other.panels.len() {
            self.panels
                .resize(other.panels.len(), TrafficBin::default());
        }
        for (mine, theirs) in self.panels.iter_mut().zip(&other.panels) {
            mine.merge(theirs);
        }
    }
}

impl std::fmt::Display for KernelStats {
    /// One-line human-readable summary, handy in logs and reports.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "val {} B, idx {} B, meta {} B, y {} B, x {}/{} hit ({} B miss), \
             {} mma, {} fma, {} shfl, {} warps / {} blocks / {} launches",
            self.bytes_val,
            self.bytes_idx,
            self.bytes_meta,
            self.bytes_y,
            self.x_hits,
            self.x_requests,
            self.bytes_x_miss,
            self.mma_ops,
            self.fma_ops,
            self.shfl_ops,
            self.warps,
            self.blocks,
            self.launches
        )
    }
}

/// Instrumentation interface threaded through every kernel.
///
/// `bytes_per` arguments are the per-element storage width, so the same
/// kernel code accounts FP64 and FP16 traffic correctly.
pub trait Probe {
    /// Records a kernel launch of `blocks` thread blocks, each with
    /// `warps_per_block` warps.
    fn kernel_launch(&mut self, blocks: u64, warps_per_block: u64);
    /// Records a streamed read of `elems` matrix values.
    fn load_val(&mut self, elems: u64, bytes_per: u64);
    /// Records a streamed read of `elems` column indices.
    fn load_idx(&mut self, elems: u64, bytes_per: u64);
    /// Records a streamed read of `elems` metadata words.
    fn load_meta(&mut self, elems: u64, bytes_per: u64);
    /// Records a streamed write of `elems` result values.
    fn store_y(&mut self, elems: u64, bytes_per: u64);
    /// Records one coalesced warp access: `indices.len()` element loads
    /// of the dense vector `x` issued together by the lanes of one warp,
    /// **in lane order**, classified by the cache. Within one warp,
    /// splitting an access into consecutive slices changes nothing a
    /// probe records, so any flush boundary a kernel chooses (see
    /// [`XBatch`]) is observationally equivalent. [`CountingProbe`]
    /// classifies each consecutive same-line run with a single cache
    /// probe.
    fn load_x(&mut self, indices: &[usize], bytes_per: u64);
    /// Records one warp access made of contiguous row spans: each start
    /// opens `len` consecutive elements `start..start + len` (the live
    /// panel columns of one B row), spans in slice order. Records exactly
    /// what [`Probe::load_x`] on those elements in that order records;
    /// [`CountingProbe`] classifies each span arithmetically instead of
    /// element by element.
    fn load_x_rows(&mut self, starts: &[usize], len: usize, bytes_per: u64);
    /// Records one warp-wide MMA issue.
    fn mma(&mut self);
    /// Records `n` scalar FMA issues (already batched: one call accounts a
    /// whole warp's or row's lane math).
    fn fma(&mut self, n: u64);
    /// Records `n` warp shuffle issues (batched like [`Probe::fma`]).
    fn shfl(&mut self, n: u64);

    // --- Observability hooks (default no-ops, so existing probes and the
    // --- zero-cost path are unaffected) ---------------------------------

    /// Hints which RHS panel subsequent traffic belongs to. The SpMM
    /// kernels call `panel(None)` before loads shared across their panel
    /// sweep (the A-resident value/index streams) and `panel(Some(p))`
    /// before panel `p`'s B-side gathers; counting probes may attribute
    /// traffic into a [`PanelTraffic`] split. Purely an attribution hint:
    /// no counter total changes, and kernels without panels (all SpMV
    /// paths) never call it. Wrapper probes must forward it.
    #[inline(always)]
    fn panel(&mut self, _panel: Option<usize>) {}

    /// Marks the start of one warp's work. Kernels call this once per
    /// simulated warp so per-warp profilers (load imbalance, divergence
    /// attribution) can see warp boundaries.
    #[inline(always)]
    fn warp_begin(&mut self, _warp_id: usize) {}

    /// Marks the end of the warp opened by the matching
    /// [`Probe::warp_begin`].
    #[inline(always)]
    fn warp_end(&mut self, _warp_id: usize) {}

    /// Records a warp-level region executed with `inactive` of the 32
    /// lanes predicated off (branch divergence / ragged tails).
    #[inline(always)]
    fn divergence(&mut self, _inactive: u64) {}

    /// Returns the counters accumulated so far, if this probe counts.
    /// Span-based tracing diffs two snapshots to attribute traffic to a
    /// kernel or phase; the default (for non-counting probes) is all-zero,
    /// which yields empty deltas.
    #[inline(always)]
    fn stats_snapshot(&self) -> KernelStats {
        KernelStats::default()
    }

    // --- Sanitizer hooks (default no-ops; implemented by the
    // --- `dasp-sanitize` crate's `SanitizeProbe`) -----------------------

    /// True when this probe is a sanitizer. Gates the shuffles' mask
    /// checks in [`crate::shuffle`]: when `true`, out-of-mask source reads
    /// are *reported* through [`Probe::san_shfl`] (release builds
    /// included); when `false`, a consumed one trips a `debug_assert!`
    /// and the hardware's keep-own-value semantics apply.
    #[inline(always)]
    fn sanitizing(&self) -> bool {
        false
    }

    /// Names the kernel region the warp is executing, for diagnostic
    /// attribution. Kernels call this right after [`Probe::warp_begin`].
    #[inline(always)]
    fn san_region(&mut self, _region: &'static str) {}

    /// Records one warp's element writes into scatter space `space` (see
    /// [`space`]) at `indices`, in lane order (a single-element write
    /// passes `&[index]`). Racecheck flags a second write to the same
    /// `(space, index)` within one launch: same warp → double-write,
    /// different warp → cross-warp race.
    #[inline(always)]
    fn san_write(&mut self, _space: u32, _indices: &[usize]) {}

    /// Records one warp's element reads from scatter space `space` at
    /// `indices`, in lane order, that the kernel expects an
    /// earlier-in-launch (or pre-barrier) write to have produced.
    /// Initcheck flags reads of never-written slots.
    #[inline(always)]
    fn san_read(&mut self, _space: u32, _indices: &[usize]) {}

    /// Reports the mask-check outcome of one shuffle issue (only called
    /// by the [`crate::shuffle`] functions, and only when an out-of-mask
    /// source read occurred).
    #[inline(always)]
    fn san_shfl(&mut self, _event: &ShflEvent) {}

    /// Marks the warp's MMA accumulator fragment as explicitly
    /// zero-initialized: every slot becomes *defined* (an `acc_zero` is a
    /// real write of the C registers). The fragment starts each warp
    /// poisoned — [`Probe::warp_begin`] is the poison point — so a read
    /// before any clear or MMA is flagged.
    #[inline(always)]
    fn san_frag_clear(&mut self) {}

    /// Records which accumulator slots received real contributions from
    /// an MMA issue. Bit `lane*2 + reg` of `touched` covers fragment
    /// register `reg` of `lane` (64 bits = 32 lanes x 2 accumulator
    /// registers).
    #[inline(always)]
    fn san_frag_mma(&mut self, _touched: u64) {}

    /// Records consumption of accumulator slot (`lane`, `reg`) into an
    /// output value. Initcheck flags the read if no MMA since the last
    /// [`Probe::san_frag_clear`] touched that slot.
    #[inline(always)]
    fn san_frag_read(&mut self, _lane: usize, _reg: usize) {}
}

/// Accumulates up to one warp's worth ([`crate::warp::WARP_SIZE`]) of
/// `x`-element indices and flushes them as a single [`Probe::load_x`]
/// call.
///
/// Kernels whose `x` accesses are data-dependent (per-row loops of the
/// baselines, irregular tails) push indices in issue order and flush at
/// the end of the warp body; the batch auto-flushes when full, so the
/// probe sees the same element sequence chunked at warp granularity.
/// Since splitting a warp's access into consecutive slices changes
/// nothing a probe records, flush boundaries never change the observed
/// statistics.
#[derive(Debug)]
pub struct XBatch {
    buf: [usize; crate::warp::WARP_SIZE],
    len: usize,
    bytes_per: u64,
}

impl XBatch {
    /// An empty batch for elements of `bytes_per` bytes.
    #[inline]
    pub fn new(bytes_per: u64) -> XBatch {
        XBatch {
            buf: [0; crate::warp::WARP_SIZE],
            len: 0,
            bytes_per,
        }
    }

    /// Appends one element index, flushing first when the batch holds a
    /// full warp.
    #[inline]
    pub fn push<P: Probe>(&mut self, probe: &mut P, index: usize) {
        self.buf[self.len] = index;
        self.len += 1;
        if self.len == crate::warp::WARP_SIZE {
            self.flush(probe);
        }
    }

    /// Emits any buffered indices as one batched probe call. Call at the
    /// end of the warp body (or before a `warp_end`) so accesses
    /// attribute to the warp that issued them.
    #[inline]
    pub fn flush<P: Probe>(&mut self, probe: &mut P) {
        if self.len > 0 {
            probe.load_x(&self.buf[..self.len], self.bytes_per);
            self.len = 0;
        }
    }
}

/// A probe that can be split into per-thread shards and merged back,
/// enabling instrumented parallel execution under a
/// [`crate::ParExecutor`].
///
/// The contract mirrors [`KernelStats::merge`]: a shard starts with *zero*
/// counters (so merging never double-counts) but may copy warm auxiliary
/// state — the [`CountingProbe`] shard inherits a copy of the parent's
/// cache contents, which keeps order-independent counters exact while
/// making cache hit-rates per-shard approximations (see
/// [`KernelStats::order_independent`]).
pub trait ShardableProbe: Probe + Send {
    /// Creates a shard with zeroed counters for one executor thread.
    fn fork_shard(&self) -> Self;
    /// Folds a finished shard's counters back into `self`.
    fn merge_shard(&mut self, shard: Self);
}

/// The zero-cost probe: every method is an empty inline body.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn kernel_launch(&mut self, _: u64, _: u64) {}
    #[inline(always)]
    fn load_val(&mut self, _: u64, _: u64) {}
    #[inline(always)]
    fn load_idx(&mut self, _: u64, _: u64) {}
    #[inline(always)]
    fn load_meta(&mut self, _: u64, _: u64) {}
    #[inline(always)]
    fn store_y(&mut self, _: u64, _: u64) {}
    #[inline(always)]
    fn load_x(&mut self, _: &[usize], _: u64) {}
    #[inline(always)]
    fn load_x_rows(&mut self, _: &[usize], _: usize, _: u64) {}
    #[inline(always)]
    fn mma(&mut self) {}
    #[inline(always)]
    fn fma(&mut self, _: u64) {}
    #[inline(always)]
    fn shfl(&mut self, _: u64) {}
}

impl ShardableProbe for NoProbe {
    #[inline(always)]
    fn fork_shard(&self) -> Self {
        NoProbe
    }
    #[inline(always)]
    fn merge_shard(&mut self, _shard: Self) {}
}

/// A run of `count` consecutive `x` touches on one cache line, starting
/// at byte `addr`, waiting to be classified by one cache probe.
#[derive(Debug, Clone, Copy)]
struct XRun {
    addr: u64,
    line: u64,
    count: u64,
}

impl XRun {
    /// No pending touches. Line numbers stay below 2^63 (lines are at
    /// least two bytes), so no real touch shares this line.
    const EMPTY: XRun = XRun {
        addr: 0,
        line: u64::MAX,
        count: 0,
    };
}

/// The counting probe: accumulates [`KernelStats`] and models `x` locality
/// with a set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct CountingProbe {
    stats: KernelStats,
    cache: CacheModel,
    /// Per-panel attribution split, allocated lazily on the first
    /// [`Probe::panel`] hint (stays `None` for SpMV-style runs).
    panel_traffic: Option<PanelTraffic>,
    /// The panel subsequent traffic attributes to (`None` = shared bin).
    cur_panel: Option<usize>,
    /// Sector of the current warp's previous `x` touch (`u64::MAX` =
    /// none): consecutive same-sector touches coalesce into one
    /// [`KernelStats::x_sectors`] access. Reset at `warp_begin` so the
    /// count is a pure per-warp function of the access pattern —
    /// identical under every executor and however a warp's access is
    /// split into calls.
    prev_sector: u64,
}

impl CountingProbe {
    /// Creates a probe with the given cache model for `x` accesses.
    pub fn new(cache: CacheModel) -> Self {
        CountingProbe {
            stats: KernelStats::default(),
            cache,
            panel_traffic: None,
            cur_panel: None,
            prev_sector: u64::MAX,
        }
    }

    /// Charges the sectors of one contiguous `x` touch covering bytes
    /// `a0..=a1` in rising order, with no gap wider than a sector (one
    /// element: `a0 == a1`), coalescing consecutive same-sector touches
    /// of the current warp into a single access: every sector from
    /// `a0`'s to `a1`'s is charged once, except `a0`'s when it is the
    /// sector the warp touched last.
    #[inline]
    fn touch_sectors(&mut self, a0: u64, a1: u64) {
        let (s0, s1) = (a0 / SECTOR_BYTES, a1 / SECTOR_BYTES);
        self.stats.x_sectors += s1 - s0 + u64::from(s0 != self.prev_sector);
        self.prev_sector = s1;
    }

    /// Adds `count` touches of `addr`'s line to the pending same-line
    /// run, classifying the pending run first when `addr` is on another
    /// line.
    #[inline]
    fn push_run(&mut self, run: &mut XRun, addr: u64, count: u64) {
        let line = self.cache.line_of(addr);
        if run.line == line {
            run.count += count;
        } else {
            self.classify_run(*run);
            *run = XRun { addr, line, count };
        }
    }

    /// Classifies one same-line run with a single cache probe: the first
    /// touch hits or misses, the rest are hits. Grouping is strictly
    /// *runs*, never a sort or a unique-line pass: under LRU, two touches
    /// of line A separated by a touch of line B are not equivalent to two
    /// adjacent touches, so only adjacency-preserving grouping is
    /// bit-identical to classifying one touch at a time.
    #[inline]
    fn classify_run(&mut self, run: XRun) {
        if run.count == 0 {
            return;
        }
        if self.cache.access_run(run.addr, run.count) {
            self.stats.x_hits += run.count;
        } else {
            self.stats.x_hits += run.count - 1;
            self.stats.x_misses += 1;
            let line = self.cache.line_bytes();
            self.stats.bytes_x_miss += line;
            if let Some(pt) = &mut self.panel_traffic {
                pt.bin_mut(self.cur_panel).bytes_x_miss += line;
            }
        }
    }

    /// Creates a probe with the A100 L2 model.
    pub fn a100() -> Self {
        CountingProbe::new(CacheModel::a100_l2())
    }

    /// Creates a probe with the H800 L2 model.
    pub fn h800() -> Self {
        CountingProbe::new(CacheModel::h800_l2())
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Returns the per-panel traffic split, if any kernel hinted panels
    /// through [`Probe::panel`] (the SpMM kernels do; SpMV never does).
    pub fn panel_traffic(&self) -> Option<&PanelTraffic> {
        self.panel_traffic.as_ref()
    }

    /// Clears statistics, cache contents and the panel split.
    pub fn reset(&mut self) {
        self.stats = KernelStats::default();
        self.cache.reset();
        self.panel_traffic = None;
        self.cur_panel = None;
        self.prev_sector = u64::MAX;
    }
}

impl Probe for CountingProbe {
    fn kernel_launch(&mut self, blocks: u64, warps_per_block: u64) {
        self.stats.launches += 1;
        self.stats.blocks += blocks;
        self.stats.warps += blocks * warps_per_block;
    }
    fn load_val(&mut self, elems: u64, bytes_per: u64) {
        let b = elems * bytes_per;
        self.stats.bytes_val += b;
        if let Some(pt) = &mut self.panel_traffic {
            pt.bin_mut(self.cur_panel).bytes_val += b;
        }
    }
    fn load_idx(&mut self, elems: u64, bytes_per: u64) {
        let b = elems * bytes_per;
        self.stats.bytes_idx += b;
        if let Some(pt) = &mut self.panel_traffic {
            pt.bin_mut(self.cur_panel).bytes_idx += b;
        }
    }
    fn load_meta(&mut self, elems: u64, bytes_per: u64) {
        self.stats.bytes_meta += elems * bytes_per;
    }
    fn store_y(&mut self, elems: u64, bytes_per: u64) {
        self.stats.bytes_y += elems * bytes_per;
    }
    /// Classifies each consecutive same-line run of the warp access with
    /// one cache probe.
    fn load_x(&mut self, indices: &[usize], bytes_per: u64) {
        self.stats.x_requests += indices.len() as u64;
        let mut run = XRun::EMPTY;
        for &ix in indices {
            let addr = ix as u64 * bytes_per;
            self.touch_sectors(addr, addr);
            self.push_run(&mut run, addr, 1);
        }
        self.classify_run(run);
    }
    /// Classifies each span arithmetically: a span inside one cache line
    /// is one same-line run (merged with the previous span's run when it
    /// is on the same line) and charges its sectors in one step. A span
    /// straddling lines, or with elements wider than a sector, falls
    /// back to element-by-element runs through the same classifier.
    fn load_x_rows(&mut self, starts: &[usize], len: usize, bytes_per: u64) {
        self.stats.x_requests += (starts.len() * len) as u64;
        if len == 0 {
            return;
        }
        let extent = (len as u64 - 1) * bytes_per;
        let mut run = XRun::EMPTY;
        for &s in starts {
            let a0 = s as u64 * bytes_per;
            let a1 = a0 + extent;
            if bytes_per <= SECTOR_BYTES && self.cache.line_of(a0) == self.cache.line_of(a1) {
                self.touch_sectors(a0, a1);
                self.push_run(&mut run, a0, len as u64);
            } else {
                for i in 0..len as u64 {
                    let addr = a0 + i * bytes_per;
                    self.touch_sectors(addr, addr);
                    self.push_run(&mut run, addr, 1);
                }
            }
        }
        self.classify_run(run);
    }
    fn mma(&mut self) {
        self.stats.mma_ops += 1;
    }
    fn fma(&mut self, n: u64) {
        self.stats.fma_ops += n;
    }
    fn shfl(&mut self, n: u64) {
        self.stats.shfl_ops += n;
    }
    fn warp_begin(&mut self, _warp_id: usize) {
        self.prev_sector = u64::MAX;
    }
    fn panel(&mut self, panel: Option<usize>) {
        self.cur_panel = panel;
        let pt = self.panel_traffic.get_or_insert_with(PanelTraffic::default);
        // Materialize the bin even if the panel ends up contributing no
        // split-tracked traffic, so reports see every swept panel.
        pt.bin_mut(panel);
    }
    fn divergence(&mut self, inactive: u64) {
        if inactive > 0 {
            self.stats.divergent_regions += 1;
            self.stats.inactive_lanes += inactive;
        }
    }
    fn stats_snapshot(&self) -> KernelStats {
        self.stats
    }
}

impl ShardableProbe for CountingProbe {
    /// Zeroed counters, *warm* cache: the shard starts from a copy of the
    /// parent's cache contents so its hit/miss classification approximates
    /// the sequential run rather than restarting cold. The copy takes only
    /// the cache's live representation (the per-line tick array, or the
    /// tags after a spill) into a body from the forking thread's
    /// retired-cache pool (see [`CacheModel::fork`]), so back-to-back
    /// launches reuse the same allocations.
    fn fork_shard(&self) -> Self {
        CountingProbe {
            stats: KernelStats::default(),
            cache: self.cache.fork(),
            panel_traffic: None,
            cur_panel: None,
            prev_sector: u64::MAX,
        }
    }
    fn merge_shard(&mut self, shard: Self) {
        self.stats.merge(&shard.stats);
        if let Some(theirs) = &shard.panel_traffic {
            self.panel_traffic
                .get_or_insert_with(PanelTraffic::default)
                .merge(theirs);
        }
        // Dropping the shard parks its cache body in this thread's pool.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_probe_accumulates() {
        let mut p = CountingProbe::new(CacheModel::new(1024, 64, 2));
        p.kernel_launch(10, 4);
        p.load_val(100, 8);
        p.load_idx(100, 4);
        p.load_meta(11, 4);
        p.store_y(10, 8);
        p.mma();
        p.mma();
        p.fma(7);
        p.shfl(5);
        let s = p.stats();
        assert_eq!(s.launches, 1);
        assert_eq!(s.blocks, 10);
        assert_eq!(s.warps, 40);
        assert_eq!(s.bytes_val, 800);
        assert_eq!(s.bytes_idx, 400);
        assert_eq!(s.bytes_meta, 44);
        assert_eq!(s.bytes_y, 80);
        assert_eq!(s.mma_ops, 2);
        assert_eq!(s.fma_ops, 7);
        assert_eq!(s.shfl_ops, 5);
    }

    #[test]
    fn x_locality_is_classified_by_the_cache() {
        let mut p = CountingProbe::new(CacheModel::new(1024, 64, 2));
        // 8 f64 elements share one 64-byte line.
        for i in 0..8 {
            p.load_x(&[i], 8);
        }
        let s = p.stats();
        assert_eq!(s.x_requests, 8);
        assert_eq!(s.x_misses, 1);
        assert_eq!(s.x_hits, 7);
        assert_eq!(s.bytes_x_miss, 64);
    }

    #[test]
    fn display_mentions_every_counter_class() {
        let mut p = CountingProbe::new(CacheModel::new(1024, 64, 2));
        p.kernel_launch(1, 4);
        p.load_val(3, 8);
        p.mma();
        let line = p.stats().to_string();
        for needle in ["val 24 B", "1 mma", "1 launches", "4 warps"] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = KernelStats {
            bytes_val: 1,
            mma_ops: 2,
            ..Default::default()
        };
        let b = KernelStats {
            bytes_val: 10,
            fma_ops: 5,
            launches: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.bytes_val, 11);
        assert_eq!(a.mma_ops, 2);
        assert_eq!(a.fma_ops, 5);
        assert_eq!(a.launches, 1);
    }

    #[test]
    fn fork_shard_zeroes_counters_but_keeps_cache_warm() {
        let mut p = CountingProbe::new(CacheModel::new(1024, 64, 2));
        p.load_x(&[0], 8); // warm the line holding x[0..8]
        p.fma(10);
        let mut shard = p.fork_shard();
        assert_eq!(shard.stats(), KernelStats::default());
        shard.load_x(&[1], 8); // same line: hits in the warm copy
        let s = shard.stats();
        assert_eq!(s.x_hits, 1);
        assert_eq!(s.x_misses, 0);
    }

    #[test]
    fn merge_shard_sums_counters_once() {
        let mut p = CountingProbe::new(CacheModel::new(1024, 64, 2));
        p.fma(3);
        let mut shard = p.fork_shard();
        shard.fma(4);
        shard.mma();
        p.merge_shard(shard);
        let s = p.stats();
        assert_eq!(s.fma_ops, 7);
        assert_eq!(s.mma_ops, 1);
    }

    #[test]
    fn order_independent_drops_only_cache_fields() {
        let s = KernelStats {
            bytes_val: 5,
            x_requests: 9,
            x_hits: 4,
            x_misses: 5,
            bytes_x_miss: 320,
            fma_ops: 2,
            ..Default::default()
        };
        let o = s.order_independent();
        assert_eq!(o.bytes_val, 5);
        assert_eq!(o.x_requests, 9);
        assert_eq!(o.fma_ops, 2);
        assert_eq!(o.x_hits, 0);
        assert_eq!(o.x_misses, 0);
        assert_eq!(o.bytes_x_miss, 0);
    }

    /// Cuts `xs` into consecutive slices at pseudo-random points drawn
    /// from `seed`: seed 0 keeps it whole, seed 1 makes every element its
    /// own slice.
    fn random_split(xs: &[usize], seed: u64) -> Vec<&[usize]> {
        let mut state = seed;
        let mut parts = Vec::new();
        let mut start = 0;
        for i in 1..xs.len() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if seed == 1 || (seed != 0 && state >> 62 == 0) {
                parts.push(&xs[start..i]);
                start = i;
            }
        }
        parts.push(&xs[start..]);
        parts
    }

    #[test]
    fn load_x_is_invariant_under_random_splits() {
        // One warp's index stream recorded whole and cut into random
        // consecutive slices. The streams revisit a line after touching
        // another (where unique-line grouping would diverge from LRU),
        // evict from the one-way cache and repeat sectors, so x_hits,
        // x_misses and x_sectors all move.
        let long: Vec<usize> = (0..96).map(|i| (i * 37) % 300).collect();
        let streams: &[&[usize]] = &[
            &[0, 1, 2, 3, 4, 5, 6, 7],        // one line
            &[0, 100, 0, 100, 0],             // alternating lines
            &[0, 1, 100, 0, 31, 200, 200, 0], // runs + revisits
            &[7],                             // single element
            &long,
        ];
        for bytes_per in [2u64, 8, 64] {
            for &stream in streams {
                let record = |seed| {
                    let mut p = CountingProbe::new(CacheModel::new(256, 64, 1));
                    p.warp_begin(0);
                    for part in random_split(stream, seed) {
                        p.load_x(part, bytes_per);
                    }
                    p.stats()
                };
                let whole = record(0);
                assert_eq!(whole.x_requests, stream.len() as u64);
                assert_eq!(whole.x_hits + whole.x_misses, whole.x_requests);
                for seed in 1..32 {
                    let case = format!("stream {stream:?} bytes {bytes_per} seed {seed}");
                    assert_eq!(record(seed), whole, "{case}");
                }
            }
        }
    }

    #[test]
    fn row_spans_match_per_element_exactly() {
        // Spans inside one line, spans sharing a line (merged runs),
        // spans straddling lines, repeated spans, and elements narrower
        // and wider than a sector — sector coalescing, cache classes and
        // the panel split must all equal one-element `load_x` calls.
        let patterns: &[&[usize]] = &[
            &[0, 8, 16, 24],
            &[5, 6, 100, 5],
            &[13, 7, 29, 61],
            &[3, 3, 3],
            &[],
        ];
        for bytes_per in [2u64, 4, 8, 64] {
            for len in [0usize, 1, 3, 5, 8] {
                for &starts in patterns {
                    let mut rows = CountingProbe::new(CacheModel::new(512, 64, 2));
                    let mut scalar = CountingProbe::new(CacheModel::new(512, 64, 2));
                    for p in [&mut rows, &mut scalar] {
                        p.panel(Some(1));
                        p.load_x(&[6], bytes_per); // a warm line and sector
                    }
                    rows.load_x_rows(starts, len, bytes_per);
                    for &s in starts {
                        for i in s..s + len {
                            scalar.load_x(&[i], bytes_per);
                        }
                    }
                    let case = format!("starts {starts:?} len {len} bytes {bytes_per}");
                    assert_eq!(rows.stats(), scalar.stats(), "{case}");
                    assert_eq!(rows.panel_traffic(), scalar.panel_traffic(), "{case}");
                }
            }
        }
    }

    #[test]
    fn xbatch_flush_boundaries_are_invisible() {
        // XBatch cuts the stream after every 32nd element; whole, one
        // element at a time or cut anywhere else, it records the same.
        let indices: Vec<usize> = (0..100).map(|i| (i * 37) % 256).collect();
        let mut via_batch = CountingProbe::a100();
        via_batch.warp_begin(0);
        let mut b = XBatch::new(8);
        for &i in &indices {
            b.push(&mut via_batch, i);
        }
        b.flush(&mut via_batch);
        for seed in 0..16 {
            let mut split = CountingProbe::a100();
            split.warp_begin(0);
            for part in random_split(&indices, seed) {
                split.load_x(part, 8);
            }
            assert_eq!(via_batch.stats(), split.stats(), "seed {seed}");
        }
    }

    #[test]
    fn panel_hints_split_traffic_without_changing_totals() {
        let mut p = CountingProbe::new(CacheModel::new(1024, 64, 2));
        // No hint yet: SpMV-style runs leave the split unallocated.
        p.load_val(10, 8);
        assert!(p.panel_traffic().is_none());

        p.panel(None);
        p.load_val(32, 8); // shared A values
        p.load_idx(32, 4); // shared A indices
        p.panel(Some(0));
        p.load_x(&[0], 8); // panel 0 B gather: miss
        p.panel(Some(1));
        p.load_x(&[1000], 8); // panel 1 B gather: miss
        p.load_x(&[1000], 8); // hit: no split bytes
        p.panel(None);

        let s = p.stats();
        assert_eq!(s.bytes_val, 80 + 256);
        assert_eq!(s.bytes_idx, 128);
        assert_eq!(s.bytes_x_miss, 128);

        let pt = p.panel_traffic().unwrap();
        // The pre-hint load_val stays out of the split entirely.
        assert_eq!(pt.shared.bytes_val, 256);
        assert_eq!(pt.shared.bytes_idx, 128);
        assert_eq!(pt.shared.bytes_x_miss, 0);
        assert_eq!(pt.panels.len(), 2);
        assert_eq!(pt.panels[0].bytes_x_miss, 64);
        assert_eq!(pt.panels[1].bytes_x_miss, 64);
        assert_eq!(pt.panels[0].bytes_val, 0);
    }

    #[test]
    fn panel_split_merges_across_shards() {
        let mut p = CountingProbe::new(CacheModel::new(1024, 64, 2));
        p.panel(None);
        p.load_val(1, 8);
        let mut shard = p.fork_shard();
        assert!(shard.panel_traffic().is_none());
        shard.panel(Some(2));
        shard.load_idx(1, 4);
        p.merge_shard(shard);
        let pt = p.panel_traffic().unwrap();
        assert_eq!(pt.shared.bytes_val, 8);
        assert_eq!(pt.panels.len(), 3);
        assert_eq!(pt.panels[2].bytes_idx, 4);
        // Bins hinted but untouched still materialize.
        assert_eq!(pt.panels[0], TrafficBin::default());
    }

    #[test]
    fn dram_bytes_includes_only_misses_for_x() {
        let mut p = CountingProbe::new(CacheModel::new(1024, 64, 2));
        p.load_val(10, 8);
        for _ in 0..100 {
            p.load_x(&[0], 8); // same element: 1 miss, 99 hits
        }
        let s = p.stats();
        assert_eq!(s.dram_bytes(), 80 + 64);
    }
}
