//! [`SanitizeProbe`]: the probe wrapper that implements every kernel
//! check on top of the `san_*` hooks, and the [`Bounds`] it enforces.

use dasp_simt::{space, KernelStats, Probe, ShardableProbe, ShflEvent};

use crate::report::{Invariant, Report, Violation};

/// Slot sentinel for "written outside any warp".
const NO_WARP: usize = usize::MAX;

/// Shadow state of one scatter-space element in the dense epoch map.
///
/// Epoch tagging replaces clearing: a slot is *live* only when its epoch
/// field equals the probe's current epoch, so [`Probe::kernel_launch`]
/// invalidates the whole map by bumping one counter instead of walking it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Epoch of the last own-shard write (0 = never: epochs start at 1).
    write_epoch: u32,
    /// Epoch in which the element carries a readable pre-fork /
    /// pre-barrier value (0 = none).
    inherit_epoch: u32,
    /// Writing warp, or [`NO_WARP`].
    warp: usize,
    region: &'static str,
    /// True when the record was folded in from a finished shard. A shard
    /// write colliding with a *non*-merged parent record rewrote a
    /// pre-fork (pre-barrier) value — legal; colliding with a merged one
    /// means two sibling shards wrote the element concurrently — a race.
    merged: bool,
}

const EMPTY_SLOT: Slot = Slot {
    write_epoch: 0,
    inherit_epoch: 0,
    warp: NO_WARP,
    region: "?",
    merged: false,
};

/// The index bounds a [`SanitizeProbe`] enforces
/// ([`Invariant::AccessBounds`]). Spaces other than `y` and staging are
/// not bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// x gathers (`load_x`, `load_x_rows`). SpMM reports B's linear
    /// indices, so its bound is B's data length.
    pub x: usize,
    /// `space::Y` writes and reads (C's data length under SpMM).
    pub y: usize,
    /// `space::AUX` staging writes and reads.
    pub aux: usize,
}

impl Bounds {
    /// No bound: every index passes. The fleet wrap uses this, since the
    /// kernels' own slices already bound every real access.
    pub const NONE: Bounds = Bounds {
        x: usize::MAX,
        y: usize::MAX,
        aux: usize::MAX,
    };

    fn of(&self, space: u32) -> usize {
        match space {
            space::Y => self.y,
            space::AUX => self.aux,
            _ => usize::MAX,
        }
    }
}

fn space_name(space: u32) -> &'static str {
    match space {
        space::Y => "y",
        space::AUX => "staging",
        _ => "space?",
    }
}

/// Where a check fires: the active kernel region and warp.
#[derive(Debug, Clone, Copy)]
struct At {
    region: &'static str,
    warp: Option<usize>,
}

impl At {
    /// Records a breach here; `detail` runs only if the site is retained.
    fn flag(
        self,
        report: &mut Report,
        invariant: Invariant,
        index: Option<usize>,
        detail: impl FnOnce() -> String,
    ) {
        report.record(invariant, Some(self.region), || Violation {
            invariant,
            site: self.region.to_string(),
            warp: self.warp,
            index,
            detail: detail(),
        });
    }
}

/// The bounds rule over the `len` elements from `start`: each counts as
/// one check, and each at or past `bound` is flagged. True when all are
/// in bounds.
#[inline]
fn check_span(
    report: &mut Report,
    at: At,
    (noun, verb): (&'static str, &'static str),
    start: usize,
    len: usize,
    bound: usize,
) -> bool {
    report.checks_run += len as u64;
    let end = start.saturating_add(len);
    for index in start.max(bound)..end {
        at.flag(report, Invariant::AccessBounds, Some(index), || {
            format!("{noun} {verb} at {index} >= bound {bound}")
        });
    }
    end <= bound
}

/// A sanitizing wrapper around any probe.
///
/// Forwards every counting method to the inner probe unchanged (so `y`
/// and all order-independent counters are bit-identical with or without
/// the wrapper) while checking the kernels' warp-program discipline over
/// the `san_*` hooks, every check counted into the report's
/// `checks_run`:
///
/// * **racecheck** (`race`, `double_write`) — a dense per-space shadow
///   map records which warp wrote each scatter element this epoch. A
///   second write within one launch is a double write (same warp) or a
///   race (different warp). [`Probe::kernel_launch`] opens a new epoch:
///   launches are device-synchronizing, so a later kernel legitimately
///   rewrites earlier output. Slots are epoch-tagged, so opening an epoch
///   is a counter bump, and a shadow probe is an array index — no
///   hashing. [`Probe::san_write`] and [`Probe::san_read`] classify a
///   whole coalesced warp access against the map in one pass.
/// * **maskcheck** (`shfl_mask`, informational `shfl_discarded`) —
///   [`Probe::san_shfl`] events from the [`dasp_simt::shuffle`]
///   functions; out-of-mask reads whose values are consumed are errors,
///   discarded ones informational.
/// * **initcheck** (`frag_init`, `uninit_read`) — a 64-bit poison mask
///   over the warp's MMA accumulator fragment (32 lanes x 2 registers)
///   plus never-written detection for scatter-space reads.
/// * **boundscheck** (`access_bounds`) — x gathers and y / staging
///   accesses against the constructor's [`Bounds`].
///
/// Implements [`ShardableProbe`]: a shard starts with the parent's write
/// map as a read-only *inherited* epoch (writes before an `Executor::run`
/// happened before the grid-wide barrier the run's join models) and an
/// empty shadow map of its own; merging folds the shard's writes back,
/// flagging any cross-shard overlap as a race.
#[derive(Debug)]
pub struct SanitizeProbe<P> {
    inner: P,
    bounds: Bounds,
    at: At,
    /// The racecheck epoch. Starts at 1 so zeroed slots are never live.
    epoch: u32,
    /// Dense shadow maps indexed by [`dasp_simt::space`] id, grown on
    /// first write to each index.
    maps: Vec<Vec<Slot>>,
    /// Defined-slot mask over the current warp's accumulator fragment
    /// (bit `lane*2 + reg` set = slot holds a real value; clear =
    /// poisoned).
    frag: u64,
    report: Report,
}

/// The slot-classification core shared by the batched write hook and its
/// out-of-bounds fallback (free function so callers can hold disjoint
/// field borrows of the maps and the report).
#[inline]
fn classify_write(
    slot: &mut Slot,
    report: &mut Report,
    epoch: u32,
    at: At,
    space: u32,
    index: usize,
) {
    if slot.write_epoch == epoch {
        // Second write this epoch: the first writer keeps the record.
        let prev = (slot.warp != NO_WARP).then_some(slot.warp);
        let name = space_name(space);
        if prev.is_some() && prev == at.warp {
            at.flag(report, Invariant::DoubleWrite, Some(index), || {
                format!("{name}[{index}] written twice by one warp")
            });
        } else {
            let other = slot.region;
            at.flag(report, Invariant::Race, Some(index), || {
                format!("{name}[{index}] also written by warp {prev:?} ({other})")
            });
        }
    } else {
        slot.write_epoch = epoch;
        slot.warp = at.warp.unwrap_or(NO_WARP);
        slot.region = at.region;
        slot.merged = false;
    }
}

#[inline]
fn live(slot: Option<&Slot>, epoch: u32) -> bool {
    slot.is_some_and(|s| s.write_epoch == epoch || s.inherit_epoch == epoch)
}

impl<P> SanitizeProbe<P> {
    /// Wraps `inner` with empty shadow state and no index bounds.
    pub fn new(inner: P) -> SanitizeProbe<P> {
        SanitizeProbe::with_bounds(inner, Bounds::NONE)
    }

    /// Wraps `inner` with empty shadow state, flagging every access
    /// outside `bounds`.
    pub fn with_bounds(inner: P, bounds: Bounds) -> SanitizeProbe<P> {
        SanitizeProbe {
            inner,
            bounds,
            at: At {
                region: "?",
                warp: None,
            },
            epoch: 1,
            maps: Vec::new(),
            frag: 0,
            report: Report::new(),
        }
    }

    /// The shadow map for `space`, grown to cover `max_index`.
    #[inline]
    fn map_for(&mut self, space: u32, max_index: usize) -> &mut Vec<Slot> {
        let s = space as usize;
        if s >= self.maps.len() {
            self.maps.resize(s + 1, Vec::new());
        }
        let map = &mut self.maps[s];
        if max_index >= map.len() {
            map.resize(max_index + 1, EMPTY_SLOT);
        }
        map
    }

    /// One write checked on its own: the fallback of [`Probe::san_write`]
    /// for a warp access reaching past the bound.
    fn write_one(&mut self, space: u32, index: usize) {
        let (epoch, at, bound) = (self.epoch, self.at, self.bounds.of(space));
        let what = (space_name(space), "write");
        if !check_span(&mut self.report, at, what, index, 1, bound) {
            return;
        }
        self.map_for(space, index);
        let slot = &mut self.maps[space as usize][index];
        classify_write(slot, &mut self.report, epoch, at, space, index);
    }

    /// One read checked on its own: the fallback of [`Probe::san_read`]
    /// for a warp access reaching past the bound.
    fn read_one(&mut self, space: u32, index: usize) {
        let (at, bound) = (self.at, self.bounds.of(space));
        let what = (space_name(space), "read");
        if !check_span(&mut self.report, at, what, index, 1, bound) {
            return;
        }
        let map = self.maps.get(space as usize);
        if !live(map.and_then(|m| m.get(index)), self.epoch) {
            at.flag(&mut self.report, Invariant::UninitRead, Some(index), || {
                format!("{}[{index}] read before any write", what.0)
            });
        }
    }

    /// Wraps a zeroed shard of `parent` — the fleet-wrap entry used by
    /// the `DASP_SANITIZE` path, so the parent probe's own counters are
    /// not disturbed until [`crate::fleet_finish`] merges the shard back.
    pub fn forked(parent: &P) -> SanitizeProbe<P>
    where
        P: ShardableProbe,
    {
        SanitizeProbe::new(parent.fork_shard())
    }

    /// The findings so far.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Read access to the wrapped probe.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps into the inner probe and the accumulated report.
    pub fn into_parts(self) -> (P, Report) {
        (self.inner, self.report)
    }
}

impl<P: Probe> Probe for SanitizeProbe<P> {
    fn kernel_launch(&mut self, blocks: u64, warps_per_block: u64) {
        self.inner.kernel_launch(blocks, warps_per_block);
        // A launch is a device-wide sync: racecheck scope is per-launch,
        // so the shadow epoch advances (matching compute-sanitizer).
        // Every slot tagged with an older epoch is dead without a walk.
        self.epoch += 1;
    }
    fn load_val(&mut self, elems: u64, bytes_per: u64) {
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
        for &index in indices {
            check_span(
                &mut self.report,
                self.at,
                ("x", "gather"),
                index,
                1,
                self.bounds.x,
            );
        }
        // Forward batched: the inner counting probe keeps its coalesced
        // cache-classification fast path under sanitizing.
        self.inner.load_x(indices, bytes_per);
    }
    fn load_x_rows(&mut self, starts: &[usize], len: usize, bytes_per: u64) {
        for &start in starts {
            check_span(
                &mut self.report,
                self.at,
                ("x", "gather"),
                start,
                len,
                self.bounds.x,
            );
        }
        self.inner.load_x_rows(starts, len, bytes_per);
    }
    fn mma(&mut self) {
        self.inner.mma();
    }
    fn fma(&mut self, n: u64) {
        self.inner.fma(n);
    }
    fn shfl(&mut self, n: u64) {
        self.inner.shfl(n);
    }
    fn warp_begin(&mut self, warp_id: usize) {
        self.inner.warp_begin(warp_id);
        self.at.warp = Some(warp_id);
        self.frag = 0;
    }
    fn warp_end(&mut self, warp_id: usize) {
        self.inner.warp_end(warp_id);
        self.at.warp = None;
    }
    fn divergence(&mut self, inactive: u64) {
        self.inner.divergence(inactive);
    }
    fn panel(&mut self, panel: Option<usize>) {
        self.inner.panel(panel);
    }
    fn stats_snapshot(&self) -> KernelStats {
        self.inner.stats_snapshot()
    }

    fn sanitizing(&self) -> bool {
        true
    }
    fn san_region(&mut self, region: &'static str) {
        self.at.region = region;
        // Register the region even if it never produces a diagnostic: a
        // clean report then still lists every kernel that was checked,
        // which is what makes "clean" evidence of coverage.
        self.report.per_region.entry(region).or_default();
    }
    fn san_write(&mut self, space: u32, indices: &[usize]) {
        // One map probe per warp access: grow once to the batch maximum,
        // then classify every lane by direct index with the epoch, warp
        // and region loads hoisted out of the loop. A batch reaching past
        // the bound checks element by element instead.
        let Some(&max) = indices.iter().max() else {
            return;
        };
        if max >= self.bounds.of(space) {
            for &index in indices {
                self.write_one(space, index);
            }
            return;
        }
        self.report.checks_run += indices.len() as u64;
        let (epoch, at) = (self.epoch, self.at);
        self.map_for(space, max);
        let map = &mut self.maps[space as usize];
        for &index in indices {
            classify_write(&mut map[index], &mut self.report, epoch, at, space, index);
        }
    }
    fn san_read(&mut self, space: u32, indices: &[usize]) {
        if indices.iter().any(|&i| i >= self.bounds.of(space)) {
            for &index in indices {
                self.read_one(space, index);
            }
            return;
        }
        self.report.checks_run += indices.len() as u64;
        let (epoch, at, name) = (self.epoch, self.at, space_name(space));
        let empty: &[Slot] = &[];
        let map = self.maps.get(space as usize).map_or(empty, Vec::as_slice);
        for &index in indices {
            if !live(map.get(index), epoch) {
                at.flag(&mut self.report, Invariant::UninitRead, Some(index), || {
                    format!("{name}[{index}] read before any write")
                });
            }
        }
    }
    fn san_shfl(&mut self, event: &ShflEvent) {
        self.report.note_check();
        let &ShflEvent {
            op,
            mask,
            oob_lanes,
            used_lanes,
        } = event;
        if used_lanes != 0 {
            self.at
                .flag(&mut self.report, Invariant::ShflMask, None, || {
                    format!(
                    "{} consumed out-of-mask reads on lanes {used_lanes:#010x} (mask {mask:#010x})",
                    op.name()
                )
                });
        } else {
            self.at
                .flag(&mut self.report, Invariant::ShflDiscarded, None, || {
                    format!(
                        "{} read out-of-mask lanes {oob_lanes:#010x} (mask {mask:#010x}); \
                         a predicate discards them",
                        op.name()
                    )
                });
        }
    }
    fn san_frag_clear(&mut self) {
        // An explicit acc_zero writes every C register: all slots defined.
        self.frag = u64::MAX;
    }
    fn san_frag_mma(&mut self, touched: u64) {
        self.frag |= touched;
    }
    fn san_frag_read(&mut self, lane: usize, reg: usize) {
        self.report.note_check();
        let bit = lane * 2 + reg;
        if bit < 64 && self.frag & (1u64 << bit) == 0 {
            self.at
                .flag(&mut self.report, Invariant::FragInit, None, || {
                    format!("accumulator slot (lane {lane}, reg {reg}) read with no MMA touch")
                });
        }
    }
}

impl<P: ShardableProbe> ShardableProbe for SanitizeProbe<P> {
    fn fork_shard(&self) -> Self {
        // The parent's whole write history (its own epoch plus whatever it
        // inherited) becomes the shard's read-only pre-barrier epoch:
        // reads of it are initialized, rewrites of it are legal, and only
        // overlap between sibling shards' fresh writes is a race. A dense
        // scan converts both live epochs into the shard's inherit tag.
        let epoch = self.epoch;
        let maps = self
            .maps
            .iter()
            .map(|map| {
                map.iter()
                    .map(|s| Slot {
                        inherit_epoch: if live(Some(s), epoch) { epoch } else { 0 },
                        ..EMPTY_SLOT
                    })
                    .collect()
            })
            .collect();
        SanitizeProbe {
            inner: self.inner.fork_shard(),
            bounds: self.bounds,
            at: At {
                region: self.at.region,
                warp: None,
            },
            epoch,
            maps,
            frag: 0,
            report: Report::new(),
        }
    }

    fn merge_shard(&mut self, shard: Self) {
        let SanitizeProbe {
            inner,
            epoch: shard_epoch,
            maps,
            report,
            ..
        } = shard;
        self.inner.merge_shard(inner);
        self.report.merge(&report);
        // Fold the shard's fresh writes back with one dense scan per
        // space. Executors never launch inside a run, so the shard's
        // epoch equals ours; the double check keeps a stale shard from a
        // different epoch inert rather than corrupting the map.
        let epoch = self.epoch;
        for (space, shard_map) in maps.into_iter().enumerate() {
            for (index, rec) in shard_map.into_iter().enumerate() {
                if rec.write_epoch != shard_epoch {
                    continue;
                }
                self.map_for(space as u32, index);
                let slot = &mut self.maps[space][index];
                if slot.write_epoch == epoch && slot.merged {
                    // Two sibling shards wrote the same element
                    // concurrently within this run.
                    let warp = (rec.warp != NO_WARP).then_some(rec.warp);
                    let other = (slot.warp != NO_WARP).then_some(slot.warp);
                    let other_region = slot.region;
                    let at = At {
                        region: rec.region,
                        warp,
                    };
                    let name = space_name(space as u32);
                    at.flag(&mut self.report, Invariant::Race, Some(index), || {
                        format!("{name}[{index}] also written by warp {other:?} ({other_region})")
                    });
                } else {
                    // Fresh element, or a legal post-barrier rewrite of a
                    // value the parent wrote before forking this run's
                    // shards. Either way the shard's write is now the
                    // element's current owner.
                    slot.write_epoch = epoch;
                    slot.warp = rec.warp;
                    slot.region = rec.region;
                    slot.merged = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::{space, NoProbe, ShflOp};

    #[test]
    fn clean_warp_reports_nothing() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.kernel_launch(1, 1);
        p.warp_begin(0);
        p.san_region("k");
        p.san_write(space::Y, &[0]);
        p.san_write(space::Y, &[1]);
        p.warp_end(0);
        assert!(p.report().is_clean());
        assert_eq!(p.report().counts, Default::default());
    }

    #[test]
    fn double_write_same_warp() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.warp_begin(3);
        p.san_region("k");
        p.san_write(space::Y, &[9]);
        p.san_write(space::Y, &[9]);
        assert_eq!(p.report().count(Invariant::DoubleWrite), 1);
        let v = &p.report().sites[0];
        assert_eq!(v.invariant, Invariant::DoubleWrite);
        assert_eq!((v.index, v.warp), (Some(9), Some(3)));
    }

    #[test]
    fn cross_warp_race_sequential() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.warp_begin(0);
        p.san_write(space::Y, &[5]);
        p.warp_end(0);
        p.warp_begin(1);
        p.san_write(space::Y, &[5]);
        p.warp_end(1);
        assert_eq!(p.report().count(Invariant::Race), 1);
    }

    #[test]
    fn spaces_do_not_alias() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.warp_begin(0);
        p.san_write(space::Y, &[5]);
        p.san_write(space::AUX, &[5]);
        assert!(p.report().is_clean());
    }

    #[test]
    fn launch_opens_a_new_epoch() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.kernel_launch(1, 1);
        p.warp_begin(0);
        p.san_write(space::Y, &[2]);
        p.warp_end(0);
        p.kernel_launch(1, 1);
        p.warp_begin(0);
        p.san_write(space::Y, &[2]); // legal: new launch rewrites old output
        p.warp_end(0);
        assert!(p.report().is_clean());
    }

    #[test]
    fn cross_shard_overlap_is_a_race() {
        let root = SanitizeProbe::new(NoProbe);
        let mut a = root.fork_shard();
        let mut b = root.fork_shard();
        a.warp_begin(0);
        a.san_write(space::Y, &[7]);
        a.warp_end(0);
        b.warp_begin(1);
        b.san_write(space::Y, &[7]);
        b.warp_end(1);
        let mut root = root;
        root.merge_shard(a);
        root.merge_shard(b);
        assert_eq!(root.report().count(Invariant::Race), 1);
    }

    #[test]
    fn shards_read_inherited_writes() {
        let mut root = SanitizeProbe::new(NoProbe);
        root.warp_begin(0);
        root.san_write(space::AUX, &[4]);
        root.warp_end(0);
        let mut shard = root.fork_shard();
        shard.warp_begin(9);
        shard.san_region("phase2");
        shard.san_read(space::AUX, &[4]); // written pre-fork: initialized
        shard.san_write(space::AUX, &[4]); // rewrite post-barrier: legal
        shard.warp_end(9);
        root.merge_shard(shard);
        assert!(root.report().is_clean());
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
    fn san_hooks_are_invariant_under_random_splits() {
        // One warp's writes and reads recorded whole and cut into random
        // consecutive slices. The writes repeat two indices (double
        // writes) and one reaches past the y bound, so a slice holding it
        // takes the element-by-element fallback; the reads cover written,
        // unwritten and out-of-bounds elements.
        let writes = [3usize, 9, 3, 40, 12, 41, 9, 0, 17];
        let reads = [3usize, 7, 44, 0, 12, 1];
        let record = |seed| {
            let bounds = Bounds {
                x: usize::MAX,
                y: 41,
                aux: 8,
            };
            let mut p = SanitizeProbe::with_bounds(NoProbe, bounds);
            p.kernel_launch(1, 1);
            p.warp_begin(2);
            p.san_region("k");
            for part in random_split(&writes, seed) {
                p.san_write(space::Y, part);
            }
            for part in random_split(&reads, seed) {
                p.san_read(space::Y, part);
            }
            p.into_parts().1
        };
        let whole = record(0);
        assert_eq!(whole.checks_run, 15);
        assert_eq!(whole.count(Invariant::DoubleWrite), 2);
        assert_eq!(whole.count(Invariant::UninitRead), 2);
        assert_eq!(whole.count(Invariant::AccessBounds), 2);
        for seed in 1..64 {
            let r = record(seed);
            assert_eq!(r.checks_run, whole.checks_run, "seed {seed}");
            assert_eq!(r.counts, whole.counts, "seed {seed}");
            assert_eq!(r.per_region, whole.per_region, "seed {seed}");
            assert_eq!(r.sites, whole.sites, "seed {seed}");
            assert_eq!(r.dropped_sites, whole.dropped_sites, "seed {seed}");
        }
    }

    #[test]
    fn bounds_flag_every_out_of_range_element() {
        let mut p = SanitizeProbe::with_bounds(
            NoProbe,
            Bounds {
                x: 10,
                y: 4,
                aux: 2,
            },
        );
        p.warp_begin(0);
        p.load_x_rows(&[8], 4, 8); // 10 and 11 past the bound
        p.load_x(&[0, 10, 3], 8); // 10
        p.san_write(space::Y, &[1, 4, 5]); // 4 and 5
        p.san_read(space::AUX, &[0, 2]); // 2; 0 is in bounds but unwritten
        let r = p.report();
        assert_eq!(r.checks_run, 4 + 3 + 3 + 2);
        assert_eq!(r.count(Invariant::UninitRead), 1);
        let oob: Vec<_> = r
            .sites
            .iter()
            .filter(|v| v.invariant == Invariant::AccessBounds)
            .map(|v| v.index.unwrap())
            .collect();
        assert_eq!(oob, [10, 11, 10, 4, 5, 2]);
        assert_eq!(r.count(Invariant::AccessBounds), 6);
    }

    #[test]
    fn uninit_read_fires() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.warp_begin(0);
        p.san_region("k");
        p.san_read(space::AUX, &[11]);
        assert_eq!(p.report().count(Invariant::UninitRead), 1);
    }

    #[test]
    fn frag_poison_tracking() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.warp_begin(0);
        // No acc_zero: the fragment is poisoned; an MMA defines only the
        // slots it touches (the masked-A / masked-B pattern).
        p.san_frag_mma(0b10); // slot (lane 0, reg 1) touched
        p.san_frag_read(0, 1); // fine
        p.san_frag_read(0, 0); // poisoned
        assert_eq!(p.report().count(Invariant::FragInit), 1);
        let v = &p.report().sites[0];
        assert_eq!(v.invariant, Invariant::FragInit);
        assert!(v.detail.contains("(lane 0, reg 0)"), "{v}");
    }

    #[test]
    fn acc_zero_defines_every_slot() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.warp_begin(0);
        p.san_frag_clear();
        for lane in 0..32 {
            p.san_frag_read(lane, 0);
            p.san_frag_read(lane, 1);
        }
        assert!(p.report().is_clean());
    }

    #[test]
    fn warp_begin_poisons_the_fragment() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.warp_begin(0);
        p.san_frag_mma(u64::MAX);
        p.warp_end(0);
        p.warp_begin(1);
        p.san_frag_read(3, 0); // previous warp's fragment is gone
        assert_eq!(p.report().count(Invariant::FragInit), 1);
    }

    #[test]
    fn shfl_events_split_by_use() {
        let mut p = SanitizeProbe::new(NoProbe);
        p.warp_begin(0);
        p.san_shfl(&ShflEvent {
            op: ShflOp::Down,
            mask: 0xff,
            oob_lanes: 0x80,
            used_lanes: 0x80,
        });
        p.san_shfl(&ShflEvent {
            op: ShflOp::SyncVar,
            mask: 0xffff,
            oob_lanes: 0xff00,
            used_lanes: 0,
        });
        assert_eq!(p.report().count(Invariant::ShflMask), 1);
        assert_eq!(p.report().count(Invariant::ShflDiscarded), 1);
        assert!(!p.report().is_clean());
    }

    #[test]
    fn counters_pass_through_to_inner() {
        use dasp_simt::CountingProbe;
        let mut plain = CountingProbe::a100();
        plain.fma(5);
        plain.load_x(&[0], 8);
        let mut wrapped = SanitizeProbe::new(CountingProbe::a100());
        wrapped.fma(5);
        wrapped.load_x(&[0], 8);
        assert_eq!(plain.stats(), wrapped.stats_snapshot());
    }
}
