//! The SpMV verbs. [`DaspMatrix::spmv_into`] dispatches all category
//! kernels and is the one funnel: [`DaspMatrix::spmv`] and
//! [`DaspMatrix::spmv_with`] allocate `y` and call it untraced, and
//! [`DaspMatrix::spmv_batch_into`] sends a single column through it and
//! wider batches through [`DaspMatrix::spmm_into`].

#![allow(clippy::needless_range_loop)]

use dasp_fp16::Scalar;
use dasp_simt::{Executor, ShardableProbe};
use dasp_trace::Tracer;

use crate::format::{DaspMatrix, Piecing};
use crate::kernels::{
    medium_warps, spmv_long_with, spmv_medium_with, spmv_pieced_with, spmv_short1_with,
};

impl<S: Scalar> DaspMatrix<S> {
    /// Computes `y = A x` with the DASP kernels, threading `probe` through
    /// every memory access and arithmetic issue. Runs under the
    /// process-default executor ([`Executor::from_env`]).
    ///
    /// `x.len()` must equal the matrix's column count. Rows with no
    /// nonzeros produce `0`. Results are rounded to storage precision, as
    /// the GPU kernels write `y` in the matrix's element type.
    pub fn spmv<P: ShardableProbe>(&self, x: &[S], probe: &mut P) -> Vec<S> {
        self.spmv_with(x, probe, &Executor::from_env())
    }

    /// [`DaspMatrix::spmv`] under an explicit executor, untraced.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        let mut y = vec![S::zero(); self.rows];
        self.spmv_into(x, &mut y, probe, &Tracer::disabled(), exec);
        y
    }

    /// Computes `y = A x` into a caller-provided buffer under an explicit
    /// tracer and executor — the single SpMV dispatch every other entry
    /// point funnels through. `y` is fully overwritten; rows with no
    /// nonzeros are set to zero.
    ///
    /// Records a `spmv` root span and a
    /// `spmv.kernel.{long,medium,short13,short4,short22,short1}`
    /// child per kernel that runs; each span carries the probe counter
    /// delta for exactly its region (diffed from
    /// [`dasp_simt::Probe::stats_snapshot`]; under a parallel executor the
    /// shard merge completes inside each kernel, so the deltas still
    /// attribute correctly), so the children's deltas sum to the root's.
    /// The shared short-category launch accounting is recorded inside the
    /// `short13` span. With a disabled tracer ([`Tracer::disabled`]) every
    /// span is inert — the probe call sequence (and thus `y` and all
    /// counters) is identical either way.
    ///
    /// When fleet-wide sanitizing is on (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]) the run is transparently re-dispatched
    /// through a [`dasp_sanitize::SanitizeProbe`] wrapping `probe`: `y` is
    /// bit-identical, order-independent counters merge back exactly, and
    /// any violations are published to the global
    /// [`dasp_sanitize::global_report`] (aborting afterwards in `abort`
    /// mode). A probe that is already sanitizing is never double-wrapped.
    pub fn spmv_into<P: ShardableProbe>(
        &self,
        x: &[S],
        y: &mut [S],
        probe: &mut P,
        tracer: &Tracer,
        exec: &Executor,
    ) {
        dasp_sanitize::fleet!("spmv", probe => self.spmv_kernels(x, y, probe, tracer, exec))
    }

    fn spmv_kernels<P: ShardableProbe>(
        &self,
        x: &[S],
        y: &mut [S],
        probe: &mut P,
        tracer: &Tracer,
        exec: &Executor,
    ) {
        assert_eq!(
            x.len(),
            self.cols,
            "x length {} != cols {}",
            x.len(),
            self.cols
        );
        assert_eq!(
            y.len(),
            self.rows,
            "y length {} != rows {}",
            y.len(),
            self.rows
        );
        let mut root = tracer.span("spmv");
        root.add_arg("rows", self.rows);
        root.add_arg("nnz", self.nnz);
        let run_before = probe.stats_snapshot();
        y.fill(S::zero());
        if self.nnz == 0 {
            // Still close the root span with its (empty) counter delta:
            // zero-nnz traces would otherwise carry no stats at all.
            root.set_stats(probe.stats_snapshot().delta(&run_before));
            return;
        }
        // Launch accounting lives here: the paper runs one kernel per row
        // *category* (plus the dependent long-rows reduction pass), so the
        // four short sub-kernels share a single launch.
        use crate::consts::WARPS_PER_BLOCK;
        let (wpb, v) = (WARPS_PER_BLOCK as u64, &self.vals);
        if self.long.num_groups() > 0 {
            let mut sp = root.child("spmv.kernel.long");
            sp.add_arg("groups", self.long.num_groups());
            let before = probe.stats_snapshot();
            // Algorithm 2 is one kernel: the warpVal reduction runs after a
            // grid-wide sync rather than as a second launch.
            probe.kernel_launch(self.long.num_groups().div_ceil(WARPS_PER_BLOCK) as u64, wpb);
            spmv_long_with(&self.long, &v.long, x, y, probe, exec);
            sp.set_stats(probe.stats_snapshot().delta(&before));
        }
        if !self.medium.rows.is_empty() {
            let mut sp = root.child("spmv.kernel.medium");
            sp.add_arg("rowblocks", self.medium.num_rowblocks());
            let before = probe.stats_snapshot();
            let warps = medium_warps(&self.medium);
            probe.kernel_launch(warps.div_ceil(WARPS_PER_BLOCK) as u64, wpb);
            spmv_medium_with(&self.medium, &v.reg, &v.irreg, x, y, probe, exec);
            sp.set_stats(probe.stats_snapshot().delta(&before));
        }
        let short_warps = self.short.launch_warps();
        if short_warps > 0 {
            for piecing in Piecing::ALL {
                let mut sp = root.child(piecing.span());
                sp.add_arg("warps", piecing.warps(&self.short));
                let before = probe.stats_snapshot();
                if piecing == Piecing::OneThree {
                    // One launch covers all four short sub-kernels; its
                    // block/warp counts land in this span's delta.
                    probe.kernel_launch(short_warps.div_ceil(WARPS_PER_BLOCK) as u64, wpb);
                }
                spmv_pieced_with(&self.short, &v.short, piecing, x, y, probe, exec);
                sp.set_stats(probe.stats_snapshot().delta(&before));
            }
            let mut sp = root.child("spmv.kernel.short1");
            sp.add_arg("rows", self.short.n1);
            let before = probe.stats_snapshot();
            spmv_short1_with(&self.short, &v.short, x, y, probe, exec);
            sp.set_stats(probe.stats_snapshot().delta(&before));
        }
        root.set_stats(probe.stats_snapshot().delta(&run_before));
    }

    /// Computes `Y = A X` for several right-hand sides (`xs[j]` is the
    /// j-th input vector) into caller-owned scratch: the batched SpMV
    /// verb for request servers, solver loops and power iterations that
    /// run many batches through one pair of long-lived buffers. `b` and
    /// `y` are reshaped in place ([`dasp_sparse::DenseMat::reset`]) —
    /// after warm-up no panel storage is allocated per call, only grown
    /// when a batch exceeds every previous width. On return column `j` of
    /// `y` is bit-identical to `spmv(xs[j])`.
    ///
    /// Batches of two or more columns — any count, there is no width cap
    /// — pack into `b`'s panels of up to 8 and run the SpMM kernels
    /// ([`DaspMatrix::spmm_into`]): the A-resident sweep streams each A
    /// fragment and its index bytes **once for the whole batch**, however
    /// many panels that is, and under a parallel executor the panel warps
    /// fan out over its threads. A single column runs the plain SpMV
    /// kernels ([`DaspMatrix::spmv_into`]) writing straight into `y`'s
    /// (degenerate, stride-1) panel storage, so solo requests keep their
    /// single-vector counter profile.
    pub fn spmv_batch_into<P: ShardableProbe>(
        &self,
        xs: &[&[S]],
        b: &mut dasp_sparse::DenseMat<S>,
        y: &mut dasp_sparse::DenseMat<S>,
        probe: &mut P,
        tracer: &Tracer,
        exec: &Executor,
    ) {
        y.reset(self.rows, xs.len());
        if xs.len() == 1 {
            self.spmv_into(xs[0], y.data_mut(), probe, tracer, exec);
            return;
        }
        b.reset(self.cols, xs.len());
        for (j, x) in xs.iter().enumerate() {
            b.set_column(j, x);
        }
        self.spmm_into(b, y, probe, tracer, exec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_fp16::F16;
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::{Coo, Csr};

    fn dense_mixed_matrix() -> Csr<f64> {
        // Rows spanning every category: lengths 0..=4, a few medium, one
        // long; irregular column patterns.
        let mut coo = Coo::<f64>::new(64, 600);
        let mut push_row = |r: usize, len: usize| {
            for k in 0..len {
                let c = (r * 13 + k * 7) % 600;
                coo.push(r, c, ((r + 1) as f64 * 0.1) + k as f64 * 0.01);
            }
        };
        for r in 0..40 {
            push_row(r, r % 5); // 0..=4 incl. empty rows
        }
        for r in 40..60 {
            push_row(r, 5 + r % 80);
        }
        push_row(60, 300);
        push_row(61, 257);
        push_row(62, 256);
        push_row(63, 1000 % 600 - 1); // 399: medium? no, > 256 -> long
        coo.to_csr()
    }

    fn assert_close(y: &[f64], want: &[f64], tol: f64) {
        for (i, (&a, &b)) in y.iter().zip(want).enumerate() {
            assert!(
                (a - b).abs() <= tol * b.abs().max(1.0),
                "row {i}: got {a} want {b}"
            );
        }
    }

    #[test]
    fn full_pipeline_matches_reference_fp64() {
        let csr = dense_mixed_matrix();
        let d = DaspMatrix::from_csr(&csr);
        let x: Vec<f64> = (0..600).map(|i| ((i % 17) as f64 - 8.0) * 0.1).collect();
        let y = d.spmv(&x, &mut NoProbe);
        assert_close(&y, &csr.spmv_reference(&x), 1e-9);
    }

    #[test]
    fn full_pipeline_matches_reference_fp16() {
        let csr = dense_mixed_matrix();
        let h: Csr<F16> = csr.cast();
        let d = DaspMatrix::from_csr(&h);
        let x64: Vec<f64> = (0..600).map(|i| ((i % 17) as f64 - 8.0) * 0.1).collect();
        let x: Vec<F16> = x64.iter().map(|&v| F16::from_f64(v)).collect();
        let y = d.spmv(&x, &mut NoProbe);
        // Reference computed on the rounded inputs; tolerance covers the
        // f16 result rounding plus f32 accumulation order differences.
        let hcsr: Csr<f64> = h.cast();
        let hx: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
        let want = hcsr.spmv_reference(&hx);
        for (i, (&a, &b)) in y.iter().zip(&want).enumerate() {
            let tol = 2e-2 * b.abs().max(1.0);
            assert!((a.to_f64() - b).abs() <= tol, "row {i}: got {a:?} want {b}");
        }
    }

    #[test]
    fn empty_rows_stay_zero() {
        let csr = dense_mixed_matrix();
        let d = DaspMatrix::from_csr(&csr);
        let x = vec![1.0f64; 600];
        let y = d.spmv(&x, &mut NoProbe);
        for r in 0..40 {
            if r % 5 == 0 {
                assert_eq!(y[r], 0.0, "empty row {r}");
            }
        }
    }

    #[test]
    fn probe_accounts_whole_matrix_traffic() {
        let csr = dense_mixed_matrix();
        let d = DaspMatrix::from_csr(&csr);
        let x = vec![1.0f64; 600];
        let mut probe = CountingProbe::a100();
        let _ = d.spmv(&x, &mut probe);
        let s = probe.stats();
        // Every stored (padded) element is loaded exactly once.
        let stats = d.category_stats();
        let stored = (stats.stored_long + stats.stored_medium + stats.stored_short) as u64;
        assert_eq!(s.bytes_val, stored * 8);
        assert!(s.mma_ops > 0);
        assert!(s.launches >= 3);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let csr = dense_mixed_matrix();
        let d = DaspMatrix::from_csr(&csr);
        let _ = d.spmv(&[1.0; 10], &mut NoProbe);
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use dasp_simt::NoProbe;
    use dasp_sparse::{Coo, Csr, DenseMat};

    /// `Y = A X` through [`DaspMatrix::spmv_batch_into`], returned as
    /// columns.
    fn spmv_batch<P: ShardableProbe>(
        d: &DaspMatrix<f64>,
        xs: &[Vec<f64>],
        probe: &mut P,
        exec: &Executor,
    ) -> Vec<Vec<f64>> {
        let refs: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let (mut b, mut y) = (DenseMat::zeros(0, 0), DenseMat::zeros(0, 0));
        d.spmv_batch_into(&refs, &mut b, &mut y, probe, &Tracer::disabled(), exec);
        (0..xs.len()).map(|j| y.column(j)).collect()
    }

    fn mixed(seed: u64, rows: usize, cols: usize) -> Csr<f64> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coo = Coo::new(rows, cols);
        for r in 0..rows {
            let len = match rng.gen_range(0..10) {
                0 => 0,
                1..=5 => rng.gen_range(1..=4usize),
                6..=8 => rng.gen_range(5..=200),
                _ => rng.gen_range(257..=500),
            }
            .min(cols);
            let mut cs: Vec<usize> = Vec::new();
            while cs.len() < len {
                let c = rng.gen_range(0..cols);
                if !cs.contains(&c) {
                    cs.push(c);
                }
            }
            for c in cs {
                coo.push(r, c, rng.gen_range(-1.0..1.0));
            }
        }
        coo.to_csr()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        for seed in 0..4 {
            let csr = mixed(seed, 700, 800);
            let d = DaspMatrix::from_csr(&csr);
            let x = dasp_matgen::dense_vector(csr.cols, seed);
            let seq = d.spmv(&x, &mut NoProbe);
            let par = d.spmv_with(&x, &mut NoProbe, &Executor::par());
            assert_eq!(seq, par, "seed {seed}");
        }
    }

    #[test]
    fn parallel_on_large_matrix() {
        // Enough warps (>= 64 per category) to actually engage the thread
        // pool rather than the sequential fallback.
        let csr = mixed(99, 20_000, 4000);
        let d = DaspMatrix::from_csr(&csr);
        let x = dasp_matgen::dense_vector(csr.cols, 7);
        let seq = d.spmv(&x, &mut NoProbe);
        let par = d.spmv_with(&x, &mut NoProbe, &Executor::par());
        assert_eq!(seq, par);
    }

    #[test]
    fn batch_equals_columnwise_spmv() {
        let csr = mixed(5, 300, 400);
        let d = DaspMatrix::from_csr(&csr);
        let xs: Vec<Vec<f64>> = (0..4)
            .map(|j| dasp_matgen::dense_vector(csr.cols, j))
            .collect();
        let batch = spmv_batch(&d, &xs, &mut NoProbe, &Executor::from_env());
        for (j, x) in xs.iter().enumerate() {
            assert_eq!(batch[j], d.spmv(x, &mut NoProbe), "column {j}");
        }
    }

    #[test]
    fn large_batch_spans_many_panels_and_streams_a_once() {
        use dasp_simt::CountingProbe;
        let csr = mixed(6, 200, 250);
        let d = DaspMatrix::from_csr(&csr);
        // 27 columns -> 4 panels, the last masked to width 3.
        let xs: Vec<Vec<f64>> = (0..27)
            .map(|j| dasp_matgen::dense_vector(csr.cols, 100 + j))
            .collect();
        let mut probe = CountingProbe::a100();
        let batch = spmv_batch(&d, &xs, &mut probe, &Executor::from_env());
        for (j, x) in xs.iter().enumerate() {
            assert_eq!(batch[j], d.spmv(x, &mut NoProbe), "column {j}");
        }
        let mut one = CountingProbe::a100();
        d.spmv(&xs[0], &mut one);
        // The whole 27-column batch pays the single-vector A traffic.
        assert_eq!(probe.stats().bytes_val, one.stats().bytes_val);
        assert_eq!(probe.stats().bytes_idx, one.stats().bytes_idx);
    }

    #[test]
    fn batch_into_reuses_scratch_and_matches_spmv() {
        let csr = mixed(5, 300, 400);
        let d = DaspMatrix::from_csr(&csr);
        let mut b = DenseMat::<f64>::zeros(0, 0);
        let mut y = DenseMat::<f64>::zeros(0, 0);
        let tracer = Tracer::disabled();
        // Widths 7, then 3, then 1, through the same scratch pair; the
        // first call sizes the buffers, later (smaller) calls must not
        // reallocate.
        let mut ptrs = (std::ptr::null(), std::ptr::null());
        for (i, w) in [7usize, 3, 1].into_iter().enumerate() {
            let xs: Vec<Vec<f64>> = (0..w)
                .map(|j| dasp_matgen::dense_vector(csr.cols, 40 + (i * 8 + j) as u64))
                .collect();
            let refs: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            d.spmv_batch_into(
                &refs,
                &mut b,
                &mut y,
                &mut NoProbe,
                &tracer,
                &Executor::seq(),
            );
            assert_eq!((y.rows(), y.cols()), (d.rows, w));
            for (j, x) in xs.iter().enumerate() {
                assert_eq!(y.column(j), d.spmv(x, &mut NoProbe), "width {w} col {j}");
            }
            if i == 0 {
                ptrs = (b.data().as_ptr(), y.data().as_ptr());
            } else {
                assert_eq!(ptrs.0, b.data().as_ptr(), "b realloc at width {w}");
                assert_eq!(ptrs.1, y.data().as_ptr(), "y realloc at width {w}");
            }
        }
    }

    #[test]
    fn batch_into_matches_spmv_batch_across_executors() {
        let csr = mixed(7, 500, 600);
        let d = DaspMatrix::from_csr(&csr);
        let xs: Vec<Vec<f64>> = (0..5)
            .map(|j| dasp_matgen::dense_vector(csr.cols, j))
            .collect();
        let want = spmv_batch(&d, &xs, &mut NoProbe, &Executor::from_env());
        for exec in [Executor::seq(), Executor::par()] {
            let refs: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            let mut b = DenseMat::zeros(0, 0);
            let mut y = DenseMat::zeros(0, 0);
            d.spmv_batch_into(
                &refs,
                &mut b,
                &mut y,
                &mut NoProbe,
                &Tracer::disabled(),
                &exec,
            );
            for (j, w) in want.iter().enumerate() {
                assert_eq!(&y.column(j), w, "{} col {j}", exec.name());
            }
        }
    }

    #[test]
    fn parallel_handles_empty_matrix() {
        let d = DaspMatrix::from_csr(&Csr::<f64>::empty(5, 5));
        assert_eq!(
            d.spmv_with(&[0.0; 5], &mut NoProbe, &Executor::par()),
            vec![0.0; 5]
        );
    }

    #[test]
    fn instrumented_parallel_counters_match_sequential() {
        use dasp_simt::CountingProbe;
        let csr = mixed(11, 2_000, 1_500);
        let d = DaspMatrix::from_csr(&csr);
        let x = dasp_matgen::dense_vector(csr.cols, 3);
        let mut seq_probe = CountingProbe::a100();
        let seq = d.spmv_with(&x, &mut seq_probe, &Executor::seq());
        let mut par_probe = CountingProbe::a100();
        let par = d.spmv_with(&x, &mut par_probe, &Executor::par());
        assert_eq!(seq, par);
        assert_eq!(
            seq_probe.stats().order_independent(),
            par_probe.stats().order_independent()
        );
        assert_eq!(
            par_probe.stats().x_hits + par_probe.stats().x_misses,
            par_probe.stats().x_requests
        );
    }
}
