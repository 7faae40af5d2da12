//! Warp shuffle instructions.
//!
//! These reproduce the semantics of the CUDA `__shfl_*_sync` intrinsics
//! the paper's kernels use, with the default width of 32:
//!
//! * `shfl_sync(mask, var, src)` — every lane reads lane `src % 32`.
//! * `shfl_sync_var(mask, var, src)` — lane `i` reads lane `src[i] % 32`
//!   (CUDA's per-lane source operand).
//! * `shfl_down_sync(mask, var, delta)` — lane `i` reads lane `i + delta`;
//!   lanes for which `i + delta >= 32` keep their own value.
//! * [`warp_reduce`] — the 5-step `shfl_down_sync` tree.
//!
//! The `mask` argument names the participating lanes; lanes not named in
//! it keep their input value. Reading from a lane outside the mask is
//! undefined behaviour on hardware; the simulator resolves it as a read
//! of that lane's value and hands the out-of-mask lane set to the
//! [`Probe`] every function takes. When [`Probe::sanitizing`] is true,
//! a non-empty set is delivered as a [`ShflEvent`] through
//! [`Probe::san_shfl`] — in `--release` builds too. Otherwise an
//! out-of-mask read whose value the kernel consumes trips a
//! `debug_assert!`, and release builds keep full speed (the mask
//! bookkeeping is dead code the optimizer removes).
//!
//! The functions do **not** bump [`Probe::shfl`]: kernels account their
//! shuffle issues themselves.

use crate::probe::Probe;
use crate::warp::WARP_SIZE;

#[inline]
fn in_mask(mask: u32, lane: usize) -> bool {
    mask & (1u32 << lane) != 0
}

/// Which shuffle instruction a [`ShflEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShflOp {
    /// `shfl_sync` (single-source broadcast).
    Sync,
    /// `shfl_sync_var` (per-lane source operand).
    SyncVar,
    /// `shfl_down_sync`.
    Down,
}

impl ShflOp {
    /// Instruction mnemonic for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ShflOp::Sync => "shfl_sync",
            ShflOp::SyncVar => "shfl_sync_var",
            ShflOp::Down => "shfl_down_sync",
        }
    }
}

/// The mask-check outcome of one shuffle issue, reported through
/// [`Probe::san_shfl`] whenever at least one lane read a source lane
/// outside the active mask.
///
/// On hardware an out-of-mask source read is undefined behaviour; the
/// simulator resolves it as a read of the source lane's value.
/// `used_lanes` distinguishes the two severities: an out-of-mask read
/// whose result the kernel consumes is a real bug, while one discarded by
/// a subsequent predicate (the paper's Algorithms 3/4 compute negative
/// shuffle targets on lanes whose results are never used) is benign and
/// only reported informationally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShflEvent {
    /// The instruction that produced the event.
    pub op: ShflOp,
    /// The active-lane mask the instruction was issued with.
    pub mask: u32,
    /// Lanes that read a source lane outside `mask` (bit per lane).
    pub oob_lanes: u32,
    /// Subset of `oob_lanes` whose shuffled value the kernel consumes.
    pub used_lanes: u32,
}

/// The lane movement every shuffle wraps: each active lane gathers
/// `var[src_of(lane)]` (`None` keeps its own value — the *defined*
/// resolution for a shift past the warp edge); inactive lanes keep their
/// input. Out-of-mask sources on the lanes in `used` are consumed reads;
/// the rest are discarded. A non-empty out-of-mask set goes to the probe
/// when it sanitizes, and a consumed one trips a `debug_assert!`
/// otherwise.
#[inline(always)]
fn shfl_with<T: Copy, P: Probe>(
    probe: &mut P,
    op: ShflOp,
    mask: u32,
    var: [T; WARP_SIZE],
    used: u32,
    src_of: impl Fn(usize) -> Option<usize>,
) -> [T; WARP_SIZE] {
    let mut out = var;
    let mut oob = 0u32;
    for lane in 0..WARP_SIZE {
        if in_mask(mask, lane) {
            if let Some(src) = src_of(lane) {
                if !in_mask(mask, src) {
                    oob |= 1 << lane;
                }
                out[lane] = var[src];
            }
        }
    }
    if oob != 0 {
        let used = oob & used;
        if probe.sanitizing() {
            probe.san_shfl(&ShflEvent {
                op,
                mask,
                oob_lanes: oob,
                used_lanes: used,
            });
        } else {
            debug_assert!(
                used == 0,
                "{} reads out-of-mask lanes {:#010x} (mask {:#010x}) whose values are used",
                op.name(),
                oob,
                mask
            );
        }
    }
    out
}

/// `__shfl_sync`: broadcast from `src_lane` (mod 32) to all lanes in
/// `mask`. An out-of-mask source is read, and consumed, by *every* active
/// lane.
#[inline]
pub fn shfl_sync<T: Copy, P: Probe>(
    probe: &mut P,
    mask: u32,
    var: [T; WARP_SIZE],
    src_lane: usize,
) -> [T; WARP_SIZE] {
    let src = src_lane % WARP_SIZE;
    shfl_with(probe, ShflOp::Sync, mask, var, u32::MAX, |_| Some(src))
}

/// `__shfl_sync` with a *per-lane* source operand, as CUDA allows: lane `i`
/// reads lane `src[i]`. Sources are reduced modulo 32 (matching the
/// hardware's treatment of out-of-range `srcLane`), and may be negative —
/// the paper's Algorithms 3/4 compute `((laneid - i*8) >> 1) * 9`, which is
/// negative on lanes below `i*8` whose results are discarded by the
/// subsequent predicate. `used` names the lanes whose shuffled values the
/// kernel consumes afterwards: an out-of-mask read on a used lane is an
/// error, on any other lane it is reported as discarded (benign).
#[inline]
pub fn shfl_sync_var<T: Copy, P: Probe>(
    probe: &mut P,
    mask: u32,
    var: [T; WARP_SIZE],
    src: &[i32; WARP_SIZE],
    used: u32,
) -> [T; WARP_SIZE] {
    shfl_with(probe, ShflOp::SyncVar, mask, var, used, |lane| {
        Some(src[lane].rem_euclid(WARP_SIZE as i32) as usize)
    })
}

/// `__shfl_down_sync`: lane `i` reads lane `i + delta`; lanes shifted past
/// the warp end keep their own value (defined behaviour, not reported).
/// In-range reads from inactive lanes are consumed out-of-mask reads.
#[inline]
pub fn shfl_down_sync<T: Copy, P: Probe>(
    probe: &mut P,
    mask: u32,
    var: [T; WARP_SIZE],
    delta: usize,
) -> [T; WARP_SIZE] {
    shfl_with(probe, ShflOp::Down, mask, var, u32::MAX, |lane| {
        (lane + delta < WARP_SIZE).then_some(lane + delta)
    })
}

/// The classic 5-step shuffle-down tree reduction (`warpReduceSum` in the
/// paper's Algorithm 2). After the call, **lane 0** holds `combine`
/// applied over all 32 lanes; other lanes hold partial sums. Each step's
/// mask check goes to `probe`; the issues themselves number
/// [`WARP_REDUCE_SHFLS`].
///
/// Returns the full lane array so callers can also use partials.
#[inline]
pub fn warp_reduce<T: Copy, F: Fn(T, T) -> T, P: Probe>(
    probe: &mut P,
    mask: u32,
    mut var: [T; WARP_SIZE],
    combine: F,
) -> [T; WARP_SIZE] {
    let mut offset = WARP_SIZE / 2;
    while offset > 0 {
        let shifted = shfl_down_sync(probe, mask, var, offset);
        for lane in 0..WARP_SIZE {
            if in_mask(mask, lane) {
                var[lane] = combine(var[lane], shifted[lane]);
            }
        }
        offset /= 2;
    }
    var
}

/// Number of shuffle instructions issued by one [`warp_reduce`] call.
pub const WARP_REDUCE_SHFLS: u64 = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;
    use crate::warp::{full_mask, per_lane};

    /// Minimal sanitizing probe that records shuffle events.
    #[derive(Default)]
    struct Recorder(Vec<ShflEvent>);

    impl Probe for Recorder {
        fn kernel_launch(&mut self, _: u64, _: u64) {}
        fn load_val(&mut self, _: u64, _: u64) {}
        fn load_idx(&mut self, _: u64, _: u64) {}
        fn load_meta(&mut self, _: u64, _: u64) {}
        fn store_y(&mut self, _: u64, _: u64) {}
        fn load_x(&mut self, _: &[usize], _: u64) {}
        fn load_x_rows(&mut self, _: &[usize], _: usize, _: u64) {}
        fn mma(&mut self) {}
        fn fma(&mut self, _: u64) {}
        fn shfl(&mut self, _: u64) {}
        fn sanitizing(&self) -> bool {
            true
        }
        fn san_shfl(&mut self, event: &ShflEvent) {
            self.0.push(*event);
        }
    }

    #[test]
    fn shfl_broadcasts_single_lane() {
        let v = per_lane(|l| l as i64 * 10);
        let out = shfl_sync(&mut NoProbe, full_mask(), v, 7);
        assert!(out.iter().all(|&x| x == 70));
        // src_lane wraps mod 32 like the hardware
        let out = shfl_sync(&mut NoProbe, full_mask(), v, 35);
        assert!(out.iter().all(|&x| x == 30));
    }

    #[test]
    fn shfl_down_shifts_and_clamps() {
        let v = per_lane(|l| l as i64);
        let out = shfl_down_sync(&mut NoProbe, full_mask(), v, 9);
        for lane in 0..WARP_SIZE {
            let expect = if lane + 9 < WARP_SIZE {
                (lane + 9) as i64
            } else {
                lane as i64
            };
            assert_eq!(out[lane], expect, "lane {lane}");
        }
    }

    #[test]
    fn warp_reduce_sums_all_lanes_into_lane0() {
        let v = per_lane(|l| l as i64);
        let out = warp_reduce(&mut NoProbe, full_mask(), v, |a, b| a + b);
        assert_eq!(out[0], (0..32).sum::<i64>());
    }

    #[test]
    fn warp_reduce_with_max() {
        let v = per_lane(|l| ((l * 7) % 31) as i64);
        let out = warp_reduce(&mut NoProbe, full_mask(), v, |a, b| a.max(b));
        assert_eq!(out[0], *v.iter().max().unwrap());
    }

    #[test]
    fn partial_mask_leaves_inactive_lanes_untouched() {
        // Only lanes 0..8 active.
        let mask = 0xff;
        let v = per_lane(|l| l as i64);
        let out = shfl_sync(&mut NoProbe, mask, v, 3);
        for lane in 0..8 {
            assert_eq!(out[lane], 3);
        }
        for lane in 8..WARP_SIZE {
            assert_eq!(out[lane], lane as i64);
        }
    }

    #[test]
    fn paper_diagonal_reduction_pattern() {
        // The exact shuffle sequence of Algorithm 2, lines 10-14: partial
        // sums live on lanes {0, 9, 18, 27} (fragY[0]) and {4, 13, 22, 31}
        // (fragY[1]); the sequence must gather all eight into lane 0.
        let mut y0 = [0.0f64; WARP_SIZE];
        let mut y1 = [0.0f64; WARP_SIZE];
        for (k, &lane) in [0usize, 9, 18, 27].iter().enumerate() {
            y0[lane] = (k + 1) as f64; // 1,2,3,4
        }
        for (k, &lane) in [4usize, 13, 22, 31].iter().enumerate() {
            y1[lane] = (k + 10) as f64; // 10,11,12,13
        }
        let m = full_mask();
        let p = &mut NoProbe;
        for y in [&mut y0, &mut y1] {
            for delta in [9, 18] {
                let d = shfl_down_sync(p, m, *y, delta);
                for l in 0..WARP_SIZE {
                    y[l] += d[l];
                }
            }
        }
        let b = shfl_sync(p, m, y1, 4);
        for l in 0..WARP_SIZE {
            y0[l] += b[l];
        }
        assert_eq!(y0[0], (1 + 2 + 3 + 4 + 10 + 11 + 12 + 13) as f64);
    }

    #[test]
    fn per_lane_sources_gather_arbitrarily() {
        let v = per_lane(|l| l as i64 * 3);
        let src: [i32; WARP_SIZE] = core::array::from_fn(|l| (31 - l) as i32);
        let out = shfl_sync_var(&mut NoProbe, full_mask(), v, &src, full_mask());
        for lane in 0..WARP_SIZE {
            assert_eq!(out[lane], (31 - lane) as i64 * 3);
        }
    }

    #[test]
    fn negative_sources_wrap_modulo_32() {
        let v = per_lane(|l| l as i64);
        let src = [-9i32; WARP_SIZE]; // -9 mod 32 = 23
        let out = shfl_sync_var(&mut NoProbe, full_mask(), v, &src, full_mask());
        assert!(out.iter().all(|&x| x == 23));
    }

    #[test]
    fn paper_target_extraction_pattern() {
        // Algorithm 3 lines 13-15 for i = 0: lanes 0..8 must receive the 8
        // diagonal values from lanes {0,9,18,27} (reg0) and {4,13,22,31}
        // (reg1).
        let mut y0 = [0.0f64; WARP_SIZE];
        let mut y1 = [0.0f64; WARP_SIZE];
        for (r, &lane) in [0usize, 9, 18, 27].iter().enumerate() {
            y0[lane] = (2 * r) as f64; // diagonals of even rows 0,2,4,6
        }
        for (r, &lane) in [4usize, 13, 22, 31].iter().enumerate() {
            y1[lane] = (2 * r + 1) as f64; // odd rows 1,3,5,7
        }
        let i = 0usize;
        let target: [i32; WARP_SIZE] =
            core::array::from_fn(|l| ((l as i32 - (i as i32) * 8) >> 1) * 9);
        let target4 = core::array::from_fn(|l| target[l] + 4);
        let m = full_mask();
        let t0 = shfl_sync_var(&mut NoProbe, m, y0, &target, m);
        let t1 = shfl_sync_var(&mut NoProbe, m, y1, &target4, m);
        for lane in 0..8 {
            let res = if lane & 1 == 0 { t0[lane] } else { t1[lane] };
            assert_eq!(res, lane as f64, "lane {lane}");
        }
    }

    // This test is the release-mode regression for the mask checks: it
    // runs under `cargo test --release` (where the debug_assert!s compile
    // away) and must still observe the diagnostic.
    #[test]
    fn out_of_mask_read_fires_even_in_release() {
        let v = per_lane(|l| l as i64);
        let mut rec = Recorder::default();
        // Lanes 0..8 active; lane 7 reads lane 7+1=8, which is inactive.
        let out = shfl_down_sync(&mut rec, 0xff, v, 1);
        assert_eq!(rec.0.len(), 1);
        let ev = rec.0[0];
        assert_eq!(ev.op, ShflOp::Down);
        assert_eq!(ev.oob_lanes, 1 << 7);
        assert_eq!(ev.used_lanes, 1 << 7);
        // UB resolved as a read of the source lane: lane 7 read lane 8's
        // value (the simulator's defined resolution).
        assert_eq!(out[7], 8);
    }

    #[test]
    fn discarded_var_sources_are_benign() {
        let v = per_lane(|l| l as i64);
        let mut rec = Recorder::default();
        // Lanes 0..16 active; lanes 8..16 read lanes 16..24 (inactive) but
        // their results are not in the used set.
        let src: [i32; WARP_SIZE] = core::array::from_fn(|l| (l + 8) as i32);
        let _ = shfl_sync_var(&mut rec, 0xffff, v, &src, 0x00ff);
        assert_eq!(rec.0.len(), 1);
        let ev = rec.0[0];
        assert_eq!(ev.op, ShflOp::SyncVar);
        assert_eq!(ev.oob_lanes, 0xff00);
        assert_eq!(ev.used_lanes, 0, "discarded reads must not count as used");
    }

    #[test]
    fn broadcast_from_inactive_lane_flags_all_active_lanes() {
        let v = per_lane(|l| l as i64);
        let mut rec = Recorder::default();
        let _ = shfl_sync(&mut rec, 0x0f, v, 20);
        assert_eq!(rec.0.len(), 1);
        assert_eq!(rec.0[0].oob_lanes, 0x0f);
        assert_eq!(rec.0[0].used_lanes, 0x0f);
    }

    #[test]
    fn in_mask_shuffles_report_nothing() {
        let v = per_lane(|l| l as i64);
        let mut rec = Recorder::default();
        let _ = warp_reduce(&mut rec, full_mask(), v, |a, b| a + b);
        let _ = shfl_sync(&mut rec, full_mask(), v, 3);
        assert!(rec.0.is_empty());
    }
}
