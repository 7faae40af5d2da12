//! Multi-RHS medium-rows kernel.
//!
//! Warp shape follows SpMV — `LOOP_NUM` row-blocks per warp, regular
//! blocks through the MMA unit, then a per-lane irregular tail — with an
//! **A-resident panel sweep**: each regular block's A fragment and column
//! indices load once and stay in registers while the warp issues the 8
//! masked-A MMAs for *every* RHS panel, so A+index traffic amortizes over
//! the whole RHS width instead of one 8-column panel. The irregular
//! tail's scalar values/indices likewise load once per element with the
//! FMA fanned across every panel's live columns.

use dasp_fp16::Scalar;
use dasp_simt::mma::{acc_zero, mma_m8n8k4_row_panel, row_slots, AccFrag, MMA_M};
use dasp_simt::warp::{per_lane, WARP_SIZE};
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, WarpScratch, XBatch};
use dasp_sparse::{DenseMat, PANEL_WIDTH};

use crate::consts::{loop_num, BLOCK_ELEMS};
use crate::format::MediumPart;
use crate::kernels::load_block;
use crate::kernels::medium_warps;
use crate::spmm::{extract_rows, PanelRes};

/// Runs the medium-rows SpMM under the given executor, scattering results
/// into the panel-layout output slice `y`.
pub fn spmm_medium_with<S: Scalar, P: ShardableProbe>(
    part: &MediumPart<S>,
    b: &DenseMat<S>,
    y: &SharedSlice<S>,
    y_rows: usize,
    probe: &mut P,
    exec: &Executor,
) {
    let n_warps = medium_warps(part);
    exec.run(n_warps, probe, |mw, p| {
        spmm_medium_warp(part, b, y, y_rows, mw, p)
    });
}

/// Warp body: warp `mw` computes `LOOP_NUM` row-blocks, sweeping every
/// RHS panel per A block while the fragment is register-resident.
pub fn spmm_medium_warp<S: Scalar, P: Probe>(
    part: &MediumPart<S>,
    b: &DenseMat<S>,
    y: &SharedSlice<S>,
    y_rows: usize,
    mw: usize,
    probe: &mut P,
) {
    let n_rows = part.rows.len();
    let ln = loop_num(n_rows);
    let n_rowblocks = part.num_rowblocks();
    let panels = b.num_panels();
    let total_cols = b.cols();

    probe.warp_begin(mw);
    probe.san_region("spmm.medium");
    let mut res =
        WarpScratch::lease::<PanelRes<S>>(panels, [[S::acc_zero(); PANEL_WIDTH]; WARP_SIZE]);
    let mut accs = WarpScratch::lease::<AccFrag<S>>(panels, acc_zero::<S>());

    for i in 0..ln {
        let bid = mw * ln + i;
        if bid >= n_rowblocks {
            break;
        }
        probe.panel(None);
        probe.load_meta(2, 4); // rowblockPtr (int32 on device)
        let mut offset_a = part.rowblock_ptr[bid];
        let nblocks = part.reg_blocks(bid);
        for acc in accs.iter_mut() {
            *acc = acc_zero::<S>();
        }
        probe.san_frag_clear();
        for _b in 0..nblocks {
            // A values + ids once per block for *all* panels — the
            // amortization. 8 masked-A issues per panel cover the 8
            // row-segments x up-to-8 columns.
            probe.panel(None);
            let block_a: [S; WARP_SIZE] = load_block(&part.reg_val, offset_a);
            let cids = load_block(&part.reg_cid, offset_a);
            probe.load_val(BLOCK_ELEMS as u64, S::BYTES);
            probe.load_idx(BLOCK_ELEMS as u64, 4);
            for panel in 0..panels {
                probe.panel(Some(panel));
                let w_p = b.panel_width(panel);
                let bp = b.panel(panel);
                // One batched B access per panel: a row span of the w_p
                // live columns per lane's column id, in lane order (the
                // row-segment-then-k-then-jj order of the issues below).
                let starts: [usize; WARP_SIZE] =
                    per_lane(|l| b.lin_index(panel, cids[l] as usize, 0));
                probe.load_x_rows(&starts, w_p, S::BYTES);
                for r in 0..MMA_M {
                    // B rows come straight from the panel; dead columns
                    // of a partial panel multiply an explicit zero (the
                    // panel stores no padding).
                    mma_m8n8k4_row_panel::<S>(&mut accs[panel], &block_a, bp, &cids, w_p, 0xF, r);
                    probe.mma();
                    probe.san_frag_mma(row_slots(r));
                }
            }
            offset_a += BLOCK_ELEMS;
        }
        for (panel, acc) in accs.iter().enumerate() {
            extract_rows::<S, P>(acc, i, &mut res[panel], probe);
        }
    }

    // Irregular part + write-back: one lane per row, its scalar A
    // element loaded once and FMA'd against every live column of every
    // panel.
    let lane_cap = (ln * MMA_M).min(WARP_SIZE);
    let rows_here = n_rows.saturating_sub(mw * ln * MMA_M).min(lane_cap);
    if rows_here < WARP_SIZE {
        probe.divergence((WARP_SIZE - rows_here) as u64);
    }
    // B accesses of the irregular tail stream in lane-then-element-then-
    // panel-then-jj order: consecutive panels of one element issue back
    // to back, which is what the A-resident sweep buys the cache model.
    // The batch flushes at the end of each panel's span, while that panel
    // is still hinted, so every miss is charged to the panel that caused
    // it.
    let mut xb = XBatch::new(S::BYTES);
    let mut v = WarpScratch::lease::<[S::Acc; PANEL_WIDTH]>(panels, [S::acc_zero(); PANEL_WIDTH]);
    for lane in 0..lane_cap {
        let cur_row = mw * ln * MMA_M + lane;
        if cur_row >= n_rows {
            continue;
        }
        probe.panel(None);
        probe.load_meta(2, 4); // irregPtr (int32 on device)
        for (panel, vp) in v.iter_mut().enumerate() {
            *vp = res[panel][lane];
        }
        let (jlo, jhi) = (part.irreg_ptr[cur_row], part.irreg_ptr[cur_row + 1]);
        for e in jlo..jhi {
            let a = part.irreg_val[e];
            let c = part.irreg_cid[e] as usize;
            for panel in 0..panels {
                probe.panel(Some(panel));
                let w_p = b.panel_width(panel);
                let bp = b.panel(panel);
                for jj in 0..w_p {
                    v[panel][jj] = S::acc_mul_add(v[panel][jj], a, bp[c * w_p + jj]);
                    xb.push(probe, b.lin_index(panel, c, jj));
                }
                xb.flush(probe);
            }
        }
        probe.panel(None);
        let elems = (jhi - jlo) as u64;
        probe.load_val(elems, S::BYTES);
        probe.load_idx(elems, 4);
        probe.fma(elems * total_cols as u64);
        let orow = part.rows[cur_row] as usize;
        let mut writes = [0usize; PANEL_WIDTH];
        for panel in 0..panels {
            let w_p = b.panel_width(panel);
            for jj in 0..w_p {
                let idx = panel * y_rows * PANEL_WIDTH + orow * w_p + jj;
                y.write(idx, S::from_acc(v[panel][jj]));
                writes[jj] = idx;
            }
            probe.san_write(space::Y, &writes[..w_p]);
            probe.store_y(w_p as u64, S::BYTES);
        }
    }
    probe.warp_end(mw);
}
