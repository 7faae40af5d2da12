//! SpMM: multi-RHS variants of the DASP kernels that fill all 8 MMA
//! B-columns.
//!
//! SpMV by construction feeds `mma.m8n8k4` a single vector — 7 of the 8
//! B-fragment columns are dead weight, and a batched matvec that loops
//! single-vector SpMV re-streams every byte of A (values *and* column
//! indices) once per right-hand side. These kernels instead take the RHS
//! as a [`DenseMat`] of column panels of width [`PANEL_WIDTH`] = `MMA_N`
//! = 8 and run an **A-resident panel sweep**: per 8×4 block, the A
//! fragment and its column indices load once and stay register-resident
//! while the warp issues the masked-A MMAs for *every* RHS panel, so
//! **each A fragment and its index bytes are loaded once per N vectors
//! instead of once per vector** — the amortization scales with the full
//! RHS width, not one panel. The [`DaspMatrix`] format is reused
//! completely unchanged.
//!
//! # The masked-A segment scheme
//!
//! SpMV packs eight *different* row-segments' gathered `x` values into the
//! B fragment and reads the eight inner products off the accumulator
//! diagonal — possible only because each segment gets its own B column.
//! With 8 live right-hand sides the B fragment is fully occupied by RHS
//! columns (`B[k][j] = X_j[cid(r, k)]`), which is a *per-segment* gather.
//! In the row-major panel that gather is `B`'s row `k` = the `w_p`
//! contiguous elements of panel row `cid(r, k)`, so the interpreter reads
//! them in place ([`dasp_simt::mma::mma_m8n8k4_row_panel`]) instead of
//! packing a 32-lane fragment; positions the issue leaves dead multiply
//! an explicit zero, as the hardware's zeroed fragment lanes would.
//! One MMA issue now computes one row-segment against all 8 vectors, so a
//! block takes 8 issues per panel instead of 1 per vector — the **same**
//! MMA count as looped SpMV, while A traffic drops 8x. Per segment `r` the
//! A fragment is masked to row `r` (other rows zeroed), so all 8 issues
//! can share one accumulator fragment: the cross-segment contributions are
//! `0 * b` products, and adding `±0.0` to a running accumulator that
//! starts at `+0.0` can never flip a bit under round-to-nearest (opposite
//! -sign zero sums and exact cancellations both round to `+0.0`). That is
//! what makes every output column of the SpMM product **bit-identical** to
//! the corresponding single-vector SpMV: per output `C[r][j]` the FMA chain
//! is the exact `k`-ordered sequence SpMV issues, interleaved only with
//! bit-inert zero adds. (The one caveat: a non-finite B element turns a
//! masked `0 * b` into a NaN the SpMV of that column never computes. A
//! non-finite A value cannot: A enters only products SpMV issues too.)
//!
//! The short-rows MMA body masks the **B side** per pass exactly like
//! SpMV masks its `x` gather: both read the pass's piece and its masks
//! from the one [`Piecing`] table (for 1&3, the length-1 piece first,
//! then the length-3 piece). The `k` positions outside the piece read no
//! panel row and multiply an explicit zero, so even the `a * 0` products
//! of the pieced passes replicate SpMV's own sequence — a non-finite A
//! value turns into the same NaN on both. The long kernel's partial-sum
//! collapse reproduces SpMV's exact add association
//! `[(C0+C2)+(C4+C6)] + [(C1+C3)+(C5+C7)]` per column with a
//! `shfl_down 8, 16, 4` tree (SpMV's `9, 18, bcast-4` sequence is the
//! single-column diagonal special case of the same tree).
//!
//! # Probe accounting
//!
//! `load_val`/`load_idx` fire **once per block per sweep** — however many
//! panels the RHS has; that is the A-amortization the roofline estimate
//! then shows — while the B-side gathers (addressed through
//! [`DenseMat::lin_index`] so the cache model sees the panel-contiguous
//! layout), `fma`, and `mma` counts equal the looped-SpMV totals. The MMA
//! kernels report a panel's B gathers as **row spans** in one
//! [`dasp_simt::Probe::load_x_rows`] call: one start per lane, each
//! opening the panel's `w_p` live columns of that lane's B row, in lane
//! order (row segment, then `k`, then column — the order of the panel's
//! eight MMA issues). The call records exactly what `load_x` over those
//! elements in that order records, while a counting probe classifies
//! each span in one step. The scalar paths
//! (the medium kernel's irregular tail and the singleton kernel) batch
//! their per-element gathers through [`dasp_simt::XBatch`], flushed at
//! the end of each panel's span while that panel is hinted, so each miss
//! is charged to the panel that caused it. The
//! kernels hint [`dasp_simt::Probe::panel`] around their loads, so a
//! counting probe can split `dram`/`val`/`idx` bytes into a shared
//! (A-resident) bin and per-panel bins. Partial panels only gather and
//! store their live columns; the last panel stores no padding at all
//! (its stride is its live width), and the dead B-fragment columns of a
//! partial panel multiply an explicit zero.

#![allow(clippy::needless_range_loop)]

use dasp_fp16::Scalar;
use dasp_simt::mma::{AccFrag, MMA_M};
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{Executor, Probe, ShardableProbe, SharedSlice};
use dasp_sparse::{DenseMat, PANEL_WIDTH};
use dasp_trace::Tracer;

use crate::format::{DaspMatrix, Piecing};
use crate::kernels::medium_warps;

mod long;
mod medium;
mod short;

pub use long::spmm_long_with;
pub use medium::spmm_medium_with;
pub use short::{spmm_pieced_with, spmm_short1_with};

/// Per-lane result registers for one warp: each of the 32 output slots
/// holds its row's value for every panel column.
pub(crate) type PanelRes<S> = [[<S as Scalar>::Acc; PANEL_WIDTH]; WARP_SIZE];

/// Pulls row-segment `i`'s eight row results — all [`PANEL_WIDTH`] columns
/// of each — out of the accumulator fragment into result slots
/// `i*8..(i+1)*8`, mirroring the SpMV kernels' `extract_diagonals`.
///
/// `C[r][j]` lives at lane `r*4 + (j>>1)`, register `j&1`. The two
/// variable-source shuffle *issues* counted here are the same pair SpMV
/// spends per extraction: shuffles move whole registers, so the panel
/// columns ride along in the register pair each lane already holds.
#[inline]
pub(crate) fn extract_rows<S: Scalar, P: Probe>(
    acc: &AccFrag<S>,
    i: usize,
    res: &mut PanelRes<S>,
    probe: &mut P,
) {
    for r in 0..MMA_M {
        for j in 0..PANEL_WIDTH {
            // Initcheck: every accumulator slot is consumed here (padding
            // columns read the zero-initialized fragment).
            probe.san_frag_read(r * 4 + (j >> 1), j & 1);
            res[i * MMA_M + r][j] = acc[r * 4 + (j >> 1)][j & 1];
        }
    }
    probe.shfl(2);
}

impl<S: Scalar> DaspMatrix<S> {
    /// Computes `Y = A B` with the multi-RHS DASP kernels under an
    /// explicit executor, untraced.
    ///
    /// `b.rows()` must equal the matrix's column count. Every column of
    /// the result is bit-identical to [`DaspMatrix::spmv`] of the same
    /// column of `b`.
    pub fn spmm_with<P: ShardableProbe>(
        &self,
        b: &DenseMat<S>,
        probe: &mut P,
        exec: &Executor,
    ) -> DenseMat<S> {
        let mut y = DenseMat::zeros(self.rows, b.cols());
        self.spmm_into(b, &mut y, probe, &Tracer::disabled(), exec);
        y
    }

    /// Computes `Y = A B` into a caller-provided panel matrix — the
    /// single SpMM dispatch that [`DaspMatrix::spmm_with`] and the
    /// batched SpMV verb [`DaspMatrix::spmv_batch_into`] funnel through.
    ///
    /// Records a `spmm` root span (with `rhs_width` and panel-count args)
    /// plus `spmm.{long,medium,short}` children, each carrying its probe
    /// counter delta and an `rhs_width` arg so traces can attribute
    /// bytes-per-vector (the four short sub-kernels share one launch and
    /// one span, as in SpMV). Panels run **innermost**: each warp holds
    /// its A block register-resident and sweeps every RHS panel before
    /// advancing, under whichever executor is selected —
    /// `ShardableProbe` merge semantics are identical to the SpMV
    /// kernels'.
    ///
    /// Like SpMV, the run transparently re-dispatches through a
    /// [`dasp_sanitize::SanitizeProbe`] when `DASP_SANITIZE` is set.
    pub fn spmm_into<P: ShardableProbe>(
        &self,
        b: &DenseMat<S>,
        y: &mut DenseMat<S>,
        probe: &mut P,
        tracer: &Tracer,
        exec: &Executor,
    ) {
        dasp_sanitize::fleet!("spmm", probe => self.spmm_kernels(b, y, probe, tracer, exec))
    }

    fn spmm_kernels<P: ShardableProbe>(
        &self,
        b: &DenseMat<S>,
        y: &mut DenseMat<S>,
        probe: &mut P,
        tracer: &Tracer,
        exec: &Executor,
    ) {
        assert_eq!(
            b.rows(),
            self.cols,
            "B has {} rows, matrix has {} cols",
            b.rows(),
            self.cols
        );
        assert_eq!(
            (y.rows(), y.cols()),
            (self.rows, b.cols()),
            "Y is {}x{}, expected {}x{}",
            y.rows(),
            y.cols(),
            self.rows,
            b.cols()
        );
        let width = b.cols();
        let panels = b.num_panels();
        let mut root = tracer.span("spmm");
        root.add_arg("rows", self.rows);
        root.add_arg("nnz", self.nnz);
        root.add_arg("rhs_width", width);
        root.add_arg("panels", panels);
        let run_before = probe.stats_snapshot();
        y.fill_zero();
        if self.nnz == 0 || width == 0 {
            root.set_stats(probe.stats_snapshot().delta(&run_before));
            return;
        }
        use crate::consts::WARPS_PER_BLOCK;
        let (wpb, v) = (WARPS_PER_BLOCK as u64, &self.vals);
        let y_rows = self.rows;
        let y_slice = SharedSlice::new(y.data_mut());
        if self.long.num_groups() > 0 {
            let mut sp = root.child("spmm.long");
            sp.add_arg("groups", self.long.num_groups());
            sp.add_arg("rhs_width", width);
            let before = probe.stats_snapshot();
            // One launch per category: each warp sweeps every panel with
            // its A block register-resident, so the grid does not scale
            // with the panel count.
            probe.kernel_launch(self.long.num_groups().div_ceil(WARPS_PER_BLOCK) as u64, wpb);
            spmm_long_with(&self.long, &v.long, b, &y_slice, y_rows, probe, exec);
            sp.set_stats(probe.stats_snapshot().delta(&before));
        }
        if !self.medium.rows.is_empty() {
            let mut sp = root.child("spmm.medium");
            sp.add_arg("rowblocks", self.medium.num_rowblocks());
            sp.add_arg("rhs_width", width);
            let before = probe.stats_snapshot();
            let warps = medium_warps(&self.medium);
            probe.kernel_launch(warps.div_ceil(WARPS_PER_BLOCK) as u64, wpb);
            spmm_medium_with(
                &self.medium,
                &v.reg,
                &v.irreg,
                b,
                &y_slice,
                y_rows,
                probe,
                exec,
            );
            sp.set_stats(probe.stats_snapshot().delta(&before));
        }
        let short_warps = self.short.launch_warps();
        if short_warps > 0 {
            let mut sp = root.child("spmm.short");
            sp.add_arg("warps", short_warps);
            sp.add_arg("rhs_width", width);
            let before = probe.stats_snapshot();
            probe.kernel_launch(short_warps.div_ceil(WARPS_PER_BLOCK) as u64, wpb);
            for piecing in Piecing::ALL {
                spmm_pieced_with(
                    &self.short,
                    &v.short,
                    piecing,
                    b,
                    &y_slice,
                    y_rows,
                    probe,
                    exec,
                );
            }
            spmm_short1_with(&self.short, &v.short, b, &y_slice, y_rows, probe, exec);
            sp.set_stats(probe.stats_snapshot().delta(&before));
        }
        root.set_stats(probe.stats_snapshot().delta(&run_before));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::mma::MMA_N;

    #[test]
    fn panel_width_is_the_mma_b_width() {
        // DenseMat lives in dasp-sparse, which cannot see the MMA shape;
        // this crate owns both sides of the contract.
        assert_eq!(PANEL_WIDTH, MMA_N);
        assert_eq!(MMA_M, 8);
    }
}
