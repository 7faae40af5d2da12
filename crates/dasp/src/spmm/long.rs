//! Multi-RHS long-rows kernel.
//!
//! Same two-phase shape as SpMV (one warp per 64-element group, then one
//! warp per long row), widened to arbitrary RHS widths with an
//! **A-resident panel sweep**: phase 1 loads each block's A values and
//! indices **once**, then issues the 8 masked-A MMAs for every RHS panel
//! while the fragment sits in registers, and collapses the per-column
//! partial sums with a `shfl_down 8, 16, 4` tree that reproduces SpMV's
//! exact add association per column. The auxiliary `warpVal` array holds
//! one accumulator slot per (group, panel, column).

use dasp_fp16::Scalar;
use dasp_simt::mma::{acc_zero, mma_m8n8k4_row_panel, row_slots, AccFrag, MMA_M};
use dasp_simt::warp::{full_mask, per_lane, WARP_SIZE};
use dasp_simt::SharedSlice;
use dasp_simt::{shfl_down_sync, space, warp_reduce, Executor, Probe, ShardableProbe};
use dasp_sparse::{DenseMat, PANEL_WIDTH};

use dasp_simt::WarpScratch;

use crate::consts::{BLOCK_ELEMS, GROUP_ELEMS};
use crate::format::LongPart;
use crate::kernels::load_block;

/// Runs the two-phase long-rows SpMM under the given executor, scattering
/// results into the panel-layout output slice `y` (`y_rows` rows). All
/// phase-1 group warps complete before phase 2 starts, as on the device.
/// `vals` are the part's slot values.
#[allow(clippy::too_many_arguments)]
pub fn spmm_long_with<S: Scalar, P: ShardableProbe>(
    part: &LongPart,
    vals: &[S],
    b: &DenseMat<S>,
    y: &SharedSlice<S>,
    y_rows: usize,
    probe: &mut P,
    exec: &Executor,
) {
    let n_groups = part.num_groups();
    let panels = b.num_panels();
    if n_groups == 0 || panels == 0 {
        return;
    }
    // Arena-leased per-launch scratch (recycled capacity across launches).
    let mut warp_val = WarpScratch::lease(n_groups * panels * PANEL_WIDTH, S::acc_zero());
    {
        let wv = SharedSlice::new(&mut warp_val);
        exec.run(n_groups, probe, |g, p| {
            spmm_long_phase1_warp(part, vals, b, &wv, g, p)
        });
    }
    exec.run(part.rows.len(), probe, |lr, p| {
        spmm_long_phase2_warp(part, b, &warp_val, y, y_rows, lr, p)
    });
}

/// Phase-1 warp body: warp `g` computes one group's partial sums for
/// every live column of every RHS panel, with the group's two A blocks
/// loaded exactly once.
pub fn spmm_long_phase1_warp<S: Scalar, P: Probe>(
    part: &LongPart,
    vals: &[S],
    b: &DenseMat<S>,
    warp_val: &SharedSlice<S::Acc>,
    g: usize,
    probe: &mut P,
) {
    let panels = b.num_panels();
    let mask = full_mask();
    probe.warp_begin(g);
    probe.san_region("spmm.long.phase1");
    let mut accs = WarpScratch::lease::<AccFrag<S>>(panels, acc_zero::<S>());
    probe.san_frag_clear();
    let mut offset_a = g * GROUP_ELEMS;
    for _i in 0..2 {
        // The block's A values and column ids load once for *all* panels
        // — the full-width amortization over looped SpMV.
        probe.panel(None);
        let block_a: [S; WARP_SIZE] = load_block(vals, offset_a);
        let cids = load_block(&part.cids, offset_a);
        probe.load_val(BLOCK_ELEMS as u64, S::BYTES);
        probe.load_idx(BLOCK_ELEMS as u64, 4);
        for panel in 0..panels {
            probe.panel(Some(panel));
            let w_p = b.panel_width(panel);
            let bp = b.panel(panel);
            // One batched B access per panel: a row span of the w_p live
            // columns per lane's column id, in lane order — the
            // row-segment-then-k-then-jj order of the 8 issues below.
            let starts: [usize; WARP_SIZE] = per_lane(|l| b.lin_index(panel, cids[l] as usize, 0));
            probe.load_x_rows(&starts, w_p, S::BYTES);
            for r in 0..MMA_M {
                // Row segment r reads its B rows straight from the panel:
                // element (r, k) sits at lane r*4+k, so its B row is panel
                // row cids[r*4+k], and the dead columns of a partial
                // panel multiply an explicit zero (the panel stores no
                // padding). The A-side row mask happens inside the
                // row-panel MMA variant, which skips the inert 0*b adds.
                mma_m8n8k4_row_panel::<S>(&mut accs[panel], &block_a, bp, &cids, w_p, 0xF, r);
                probe.mma();
                probe.san_frag_mma(row_slots(r));
            }
        }
        offset_a += BLOCK_ELEMS;
    }
    probe.panel(None);
    // Collapse the 8 row-segment partials per (panel, column). Column j
    // of segment i lives at lane i*4 + (j>>1), register j&1: summing rows
    // is a stride-4 lane tree, and shfl_down 8 / 16 / 4 lands the SpMV
    // add association [(C0+C2)+(C4+C6)] + [(C1+C3)+(C5+C7)] at lane j>>1.
    for (panel, acc) in accs.iter().enumerate() {
        for lane in 0..WARP_SIZE {
            probe.san_frag_read(lane, 0);
            probe.san_frag_read(lane, 1);
        }
        let mut y0: [S::Acc; WARP_SIZE] = per_lane(|l| acc[l][0]);
        let mut y1: [S::Acc; WARP_SIZE] = per_lane(|l| acc[l][1]);
        for delta in [8usize, 16, 4] {
            let d = shfl_down_sync(probe, mask, y0, delta);
            for l in 0..WARP_SIZE {
                y0[l] = S::acc_add(y0[l], d[l]);
            }
            let d = shfl_down_sync(probe, mask, y1, delta);
            for l in 0..WARP_SIZE {
                y1[l] = S::acc_add(y1[l], d[l]);
            }
        }
        probe.shfl(6);
        let w_p = b.panel_width(panel);
        let mut writes = [0usize; PANEL_WIDTH];
        for jj in 0..w_p {
            let v = if jj & 1 == 0 {
                y0[jj >> 1]
            } else {
                y1[jj >> 1]
            };
            warp_val.write((g * panels + panel) * PANEL_WIDTH + jj, v);
            writes[jj] = (g * panels + panel) * PANEL_WIDTH + jj;
        }
        probe.san_write(space::AUX, &writes[..w_p]);
        probe.store_y(w_p as u64, S::ACC_BYTES);
    }
    probe.warp_end(g);
}

/// Phase-2 warp body: warp `lr` reduces long row `lr`'s group partials
/// per live column of every RHS panel, loading the row's group extent
/// once.
pub fn spmm_long_phase2_warp<S: Scalar, P: Probe>(
    part: &LongPart,
    b: &DenseMat<S>,
    warp_val: &[S::Acc],
    y: &SharedSlice<S>,
    y_rows: usize,
    lr: usize,
    probe: &mut P,
) {
    let panels = b.num_panels();
    let mask = full_mask();
    probe.warp_begin(lr);
    probe.san_region("spmm.long.phase2");
    let orig_row = part.rows[lr] as usize;
    let lo = part.group_ptr[lr];
    let hi = part.group_ptr[lr + 1];
    probe.load_meta(2, 4); // groupPtr (int32 on device)
    let row_warp_len = hi - lo;
    let tail = row_warp_len % WARP_SIZE;
    if tail != 0 {
        probe.divergence((WARP_SIZE - tail) as u64);
    }
    for panel in 0..panels {
        let w_p = b.panel_width(panel);
        let mut writes = [0usize; PANEL_WIDTH];
        for jj in 0..w_p {
            // Per column: the exact strided sum + tree reduction of SpMV's
            // phase 2, reading the widened warpVal slots. The strided loop
            // runs stride-major (device coalescing order): each pass adds
            // one warpVal slot per lane and issues one batched shadow read.
            let mut thread_val: [S::Acc; WARP_SIZE] = [S::acc_zero(); WARP_SIZE];
            let mut stride_idx = [0usize; WARP_SIZE];
            let mut base = 0;
            while base < row_warp_len {
                let n = (row_warp_len - base).min(WARP_SIZE);
                for (lane, si) in stride_idx[..n].iter_mut().enumerate() {
                    *si = ((lo + base + lane) * panels + panel) * PANEL_WIDTH + jj;
                }
                for lane in 0..n {
                    thread_val[lane] = S::acc_add(thread_val[lane], warp_val[stride_idx[lane]]);
                }
                probe.san_read(space::AUX, &stride_idx[..n]);
                probe.load_meta(n as u64, S::ACC_BYTES);
                base += WARP_SIZE;
            }
            let reduced = warp_reduce(probe, mask, thread_val, |a, b| S::acc_add(a, b));
            probe.shfl(dasp_simt::shuffle::WARP_REDUCE_SHFLS);
            let idx = panel * y_rows * PANEL_WIDTH + orig_row * w_p + jj;
            y.write(idx, S::from_acc(reduced[0]));
            writes[jj] = idx;
        }
        probe.san_write(space::Y, &writes[..w_p]);
        probe.store_y(w_p as u64, S::BYTES);
    }
    probe.warp_end(lr);
}
