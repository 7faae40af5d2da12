//! Multi-RHS short-rows kernels: one pass-masked MMA body for the 1&3,
//! length-4 and 2&2 sections, and the scalar leftover singletons.
//!
//! The MMA body replicates SpMV's pass structure exactly: pass `i` takes
//! block `i / P` and piece `i % P` of the section's [`Piecing`]; the
//! block's A loads once, on piece 0 — held register-resident across
//! **every RHS panel** — and the B side is masked to the piece's `k`
//! positions: those read their B rows straight from the panel, the rest
//! multiply an explicit zero, so each pass's masked products (including
//! the `a * 0` fills SpMV itself issues) reproduce the single-vector
//! sequence per column. Each pass widens to 8 masked-A MMA issues per
//! panel, one per row-segment, sharing the pass's per-panel accumulator.

use dasp_fp16::Scalar;
use dasp_simt::mma::{acc_zero, mma_m8n8k4_row_panel, row_slots, AccFrag, MMA_M};
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, WarpScratch, XBatch};
use dasp_sparse::{DenseMat, PANEL_WIDTH};

use crate::consts::BLOCK_ELEMS;
use crate::format::{Piecing, ShortPart, NO_ROW};
use crate::kernels::{load_block, short1_warps};
use crate::spmm::{extract_rows, PanelRes};

/// Runs one short section's SpMM under the given executor; `vals` are the
/// short part's slot values.
#[allow(clippy::too_many_arguments)]
pub fn spmm_pieced_with<S: Scalar, P: ShardableProbe>(
    part: &ShortPart,
    vals: &[S],
    piecing: Piecing,
    b: &DenseMat<S>,
    y: &SharedSlice<S>,
    y_rows: usize,
    probe: &mut P,
    exec: &Executor,
) {
    exec.run(piecing.warps(part), probe, |w, p| {
        pieced_warp(part, vals, piecing, b, y, y_rows, w, p)
    });
}

/// Warp body: the section's blocks in four pass-masked MMA sweeps over
/// every RHS panel, writing 32 permuted output slots per panel.
#[allow(clippy::too_many_arguments)]
fn pieced_warp<S: Scalar, P: Probe>(
    part: &ShortPart,
    vals: &[S],
    piecing: Piecing,
    b: &DenseMat<S>,
    y: &SharedSlice<S>,
    y_rows: usize,
    w: usize,
    probe: &mut P,
) {
    // The body is inlined once per piecing: with the piecing a constant,
    // the pass loops unroll into a fixed four-pass sequence.
    match piecing {
        Piecing::OneThree => pass_masked(part, vals, Piecing::OneThree, b, y, y_rows, w, probe),
        Piecing::Four => pass_masked(part, vals, Piecing::Four, b, y, y_rows, w, probe),
        Piecing::TwoTwo => pass_masked(part, vals, Piecing::TwoTwo, b, y, y_rows, w, probe),
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pass_masked<S: Scalar, P: Probe>(
    part: &ShortPart,
    vals: &[S],
    piecing: Piecing,
    b: &DenseMat<S>,
    y: &SharedSlice<S>,
    y_rows: usize,
    w: usize,
    probe: &mut P,
) {
    let panels = b.num_panels();
    probe.warp_begin(w);
    probe.san_region(piecing.spmm_region());
    let mut res =
        WarpScratch::lease::<PanelRes<S>>(panels, [[S::acc_zero(); PANEL_WIDTH]; WARP_SIZE]);
    let mut accs = WarpScratch::lease::<AccFrag<S>>(panels, acc_zero::<S>());
    let mut block_a: [S; WARP_SIZE] = [S::zero(); WARP_SIZE];
    let mut cids: [u32; WARP_SIZE] = [0; WARP_SIZE];

    for i in 0..4usize {
        // Pass `i` works on block `i / P` and piece `i % P`.
        let (block, piece) = (i / piecing.passes(), i % piecing.passes());
        let (kmask, mask) = (piecing.k_mask(piece), piecing.lane_mask(piece));
        for acc in accs.iter_mut() {
            *acc = acc_zero::<S>();
        }
        probe.san_frag_clear();
        if piece == 0 {
            // The block's A values and ids load once — for every panel
            // and every piece — and stay in registers.
            let offset = piecing.block_offset(part, w, block);
            probe.panel(None);
            block_a = load_block(vals, offset);
            cids = load_block(&part.cids, offset);
            probe.load_val(BLOCK_ELEMS as u64, S::BYTES);
            probe.load_idx(BLOCK_ELEMS as u64, 4);
        }
        for panel in 0..panels {
            probe.panel(Some(panel));
            let w_p = b.panel_width(panel);
            let bp = b.panel(panel);
            // One batched B access per panel: a row span of the w_p live
            // columns per lane of the piece, in lane order (the
            // row-segment-then-k-then-jj order of the issues below).
            let mut starts = [0usize; WARP_SIZE];
            let mut ns = 0;
            for l in 0..WARP_SIZE {
                if mask >> l & 1 != 0 {
                    starts[ns] = b.lin_index(panel, cids[l] as usize, 0);
                    ns += 1;
                }
            }
            probe.load_x_rows(&starts[..ns], w_p, S::BYTES);
            for r in 0..MMA_M {
                // Row-segment issue, A masked to row r (the mask and the
                // other rows' inert 0*b adds are skipped — see the
                // variant's docs). B rows come straight from the panel,
                // masked to the piece's `k` positions: the rest multiply
                // an explicit zero, exactly like SpMV's masked x
                // fragment, and so do the dead columns of a partial
                // panel (the panel stores no padding). Every row segment
                // covers the same `k` positions.
                mma_m8n8k4_row_panel::<S>(&mut accs[panel], &block_a, bp, &cids, w_p, kmask, r);
                probe.mma();
                probe.san_frag_mma(row_slots(r));
            }
        }
        for (panel, acc) in accs.iter().enumerate() {
            extract_rows::<S, P>(acc, i, &mut res[panel], probe);
        }
    }

    probe.panel(None);
    let perm = &piecing.perm(part)[w * WARP_SIZE..(w + 1) * WARP_SIZE];
    for (panel, res_p) in res.iter().enumerate() {
        write_permuted(perm, res_p, b.panel_width(panel), panel, y, y_rows, probe);
    }
    probe.warp_end(w);
}

/// Runs the scalar singleton SpMM under the given executor; `vals` are the
/// short part's slot values.
pub fn spmm_short1_with<S: Scalar, P: ShardableProbe>(
    part: &ShortPart,
    vals: &[S],
    b: &DenseMat<S>,
    y: &SharedSlice<S>,
    y_rows: usize,
    probe: &mut P,
    exec: &Executor,
) {
    let n_warps = short1_warps(part);
    exec.run(n_warps, probe, |w, p| {
        spmm_short1_warp(part, vals, b, y, y_rows, w, p)
    });
}

/// Warp body: each of the warp's 32 threads computes one singleton row's
/// products — the row's value and index load once, then one multiply per
/// live column of every RHS panel.
#[allow(clippy::too_many_arguments)]
pub fn spmm_short1_warp<S: Scalar, P: Probe>(
    part: &ShortPart,
    vals: &[S],
    b: &DenseMat<S>,
    y: &SharedSlice<S>,
    y_rows: usize,
    w: usize,
    probe: &mut P,
) {
    let panels = b.num_panels();
    probe.warp_begin(w);
    probe.san_region("spmm.short1");
    let live = (w + 1) * WARP_SIZE;
    if live > part.n1 {
        probe.divergence((live - part.n1) as u64);
    }
    // B accesses stream in t-then-panel-then-jj order — every panel of
    // one element back to back, as the A-resident sweep issues them. The
    // batch flushes at the end of each panel's span, while that panel is
    // still hinted, so every miss is charged to the panel that caused it.
    let mut xb = XBatch::new(S::BYTES);
    for t in w * WARP_SIZE..live.min(part.n1) {
        let e = part.off1() + t;
        let c = part.cids[e] as usize;
        probe.panel(None);
        probe.load_val(1, S::BYTES);
        probe.load_idx(1, 4);
        let row = part.perm1[t] as usize;
        let mut writes = [0usize; PANEL_WIDTH];
        for panel in 0..panels {
            probe.panel(Some(panel));
            let w_p = b.panel_width(panel);
            let bp = b.panel(panel);
            for jj in 0..w_p {
                let v = S::mul_to_acc(vals[e], bp[c * w_p + jj]);
                xb.push(probe, b.lin_index(panel, c, jj));
                let idx = panel * y_rows * PANEL_WIDTH + row * w_p + jj;
                y.write(idx, S::from_acc(v));
                writes[jj] = idx;
            }
            xb.flush(probe);
            probe.fma(w_p as u64);
            probe.san_write(space::Y, &writes[..w_p]);
            probe.store_y(w_p as u64, S::BYTES);
        }
    }
    probe.warp_end(w);
}

/// Write-back of the MMA short body: the warp's 32 permuted slots, with
/// `NO_ROW` padding predicated off.
fn write_permuted<S: Scalar, P: Probe>(
    perm: &[u32],
    res: &PanelRes<S>,
    w_p: usize,
    panel: usize,
    y: &SharedSlice<S>,
    y_rows: usize,
    probe: &mut P,
) {
    // Shadow writes and store traffic batch once for the whole warp.
    let mut writes = [0usize; WARP_SIZE * PANEL_WIDTH];
    let mut nw = 0;
    let mut inactive = 0u64;
    for (lane, &row) in perm.iter().enumerate() {
        if row != NO_ROW {
            for jj in 0..w_p {
                let idx = panel * y_rows * PANEL_WIDTH + row as usize * w_p + jj;
                y.write(idx, S::from_acc(res[lane][jj]));
                writes[nw] = idx;
                nw += 1;
            }
        } else {
            inactive += 1;
        }
    }
    probe.san_write(space::Y, &writes[..nw]);
    probe.store_y(nw as u64, S::BYTES);
    if inactive > 0 {
        probe.divergence(inactive);
    }
}
