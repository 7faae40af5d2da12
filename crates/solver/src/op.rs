//! The [`LinearOperator`] abstraction and basic operator combinators.

#![allow(clippy::needless_range_loop)]

use dasp_core::{DaspMatrix, RefreshError};
use dasp_simt::{Executor, NoProbe};
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::Tracer;

use crate::SolveError;

/// Anything that can apply `y = A x` in `f64`.
pub trait LinearOperator {
    /// Number of rows of the operator.
    fn rows(&self) -> usize;
    /// Number of columns.
    fn cols(&self) -> usize;
    /// Computes `y = A x`. `x.len() == cols()`, `y.len() == rows()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Computes `ys[j] = A xs[j]` for a batch of vectors. Every column of
    /// the result must be **bit-identical** to a lone [`apply`] of the
    /// same column — block solvers ([`crate::cg_multi()`]) rely on that to
    /// converge in exactly the per-system trajectories.
    ///
    /// The default loops [`apply`]; operators with a multi-RHS kernel
    /// (DASP's SpMM) override it to amortize A traffic across the batch.
    ///
    /// [`apply`]: LinearOperator::apply
    fn apply_multi(&self, xs: &[Vec<f64>], ys: &mut [Vec<f64>]) {
        assert_eq!(xs.len(), ys.len(), "batch width mismatch");
        for (x, y) in xs.iter().zip(ys.iter_mut()) {
            self.apply(x, y);
        }
    }

    /// Replaces the operator's nonzero values in place, keeping the
    /// sparsity pattern — the analysis/execute split's O(nnz) path for
    /// parameter sweeps and time-stepping, where each re-solve changes
    /// values but not structure. `new_vals` follows the operator's CSR
    /// nonzero order.
    ///
    /// The default declines: combinators like [`Shifted`] hold a shared
    /// reference and cannot mutate their base operator.
    fn refresh_values(&mut self, _new_vals: &[f64]) -> Result<(), SolveError> {
        Err(SolveError::Unsupported(
            "operator does not support in-place value refresh",
        ))
    }
}

impl LinearOperator for Csr<f64> {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let r = self.spmv_reference(x);
        y.copy_from_slice(&r);
    }
    fn refresh_values(&mut self, new_vals: &[f64]) -> Result<(), SolveError> {
        if new_vals.len() != self.vals.len() {
            return Err(SolveError::Shape(format!(
                "refresh_values: got {} values, operator stores {}",
                new_vals.len(),
                self.vals.len()
            )));
        }
        self.vals.copy_from_slice(new_vals);
        Ok(())
    }
}

impl LinearOperator for DaspMatrix<f64> {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // Large systems fan the warps out over threads; the parallel
        // executor is bit-identical to the sequential one, so the switch
        // is purely a throughput decision. Either way the kernel writes
        // straight into the caller's buffer — no intermediate allocation
        // inside the solver loop.
        let exec = if self.nnz > 100_000 {
            Executor::par()
        } else {
            Executor::seq()
        };
        self.spmv_into(x, y, &mut NoProbe, &Tracer::disabled(), &exec);
    }
    fn apply_multi(&self, xs: &[Vec<f64>], ys: &mut [Vec<f64>]) {
        assert_eq!(xs.len(), ys.len(), "batch width mismatch");
        if xs.len() < 2 {
            for (x, y) in xs.iter().zip(ys.iter_mut()) {
                self.apply(x, y);
            }
            return;
        }
        // Two or more right-hand sides — any batch width — go through
        // the SpMM kernels: the batch packs into DenseMat panels and the
        // A-resident sweep streams A and its indices once for the whole
        // batch. Each output column is bit-identical to `apply` of the
        // same input column (the SpMM contract), so block solvers see
        // exactly the single-system trajectories.
        let b = DenseMat::from_columns(xs);
        let exec = if self.nnz > 100_000 {
            Executor::par()
        } else {
            Executor::seq()
        };
        let y = self.spmm_with(&b, &mut NoProbe, &exec);
        for (j, out) in ys.iter_mut().enumerate() {
            out.copy_from_slice(&y.column(j));
        }
    }

    fn refresh_values(&mut self, new_vals: &[f64]) -> Result<(), SolveError> {
        // O(nnz) scatter through the attached DaspPlan — requires the
        // matrix to have been built via `DaspPlan::fill` (or
        // `from_csr_cached`), which iterative re-solve loops should be.
        self.update_values(new_vals).map_err(|e| match e {
            RefreshError::NoPlan => SolveError::Unsupported(
                "DASP matrix has no attached plan; build it via DaspPlan::fill \
                 or DaspMatrix::from_csr_cached to enable value refresh",
            ),
            RefreshError::WrongLength { got, want } => SolveError::Shape(format!(
                "refresh_values: got {got} values, operator stores {want}"
            )),
            RefreshError::Mismatch(s) => SolveError::Shape(s),
        })
    }
}

/// `A + sigma I` without forming the shifted matrix.
pub struct Shifted<'a, Op: LinearOperator> {
    /// The base operator.
    pub op: &'a Op,
    /// The diagonal shift.
    pub sigma: f64,
}

impl<Op: LinearOperator> LinearOperator for Shifted<'_, Op> {
    fn rows(&self) -> usize {
        self.op.rows()
    }
    fn cols(&self) -> usize {
        self.op.cols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // A + sigma*I only exists for square operators; a silent zip over
        // mismatched lengths would drop part of the shift.
        assert_eq!(
            self.op.rows(),
            self.op.cols(),
            "Shifted requires a square operator"
        );
        self.op.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += self.sigma * xi;
        }
    }
}

/// `alpha * A` without forming the scaled matrix.
pub struct Scaled<'a, Op: LinearOperator> {
    /// The base operator.
    pub op: &'a Op,
    /// The scale factor.
    pub alpha: f64,
}

impl<Op: LinearOperator> LinearOperator for Scaled<'_, Op> {
    fn rows(&self) -> usize {
        self.op.rows()
    }
    fn cols(&self) -> usize {
        self.op.cols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.op.apply(x, y);
        for yi in y.iter_mut() {
            *yi *= self.alpha;
        }
    }
}

/// The Jacobi (diagonal) preconditioner `M^{-1} = diag(A)^{-1}`.
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Extracts the inverse diagonal from a CSR matrix. Zero or missing
    /// diagonal entries fall back to 1 (identity on those rows).
    pub fn from_csr(csr: &Csr<f64>) -> Self {
        let mut inv = vec![1.0; csr.rows];
        for i in 0..csr.rows.min(csr.cols) {
            for (c, v) in csr.row(i) {
                if c as usize == i && v != 0.0 {
                    inv[i] = 1.0 / v;
                }
            }
        }
        JacobiPreconditioner { inv_diag: inv }
    }

    /// Applies `z = M^{-1} r`.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_sparse::Coo;

    fn small() -> Csr<f64> {
        let mut a = Coo::new(3, 3);
        a.push(0, 0, 2.0);
        a.push(1, 1, 4.0);
        a.push(2, 0, 1.0);
        a.push(2, 2, 8.0);
        a.to_csr()
    }

    #[test]
    fn csr_and_dasp_operators_agree() {
        let csr = small();
        let d = DaspMatrix::from_csr(&csr);
        let x = vec![1.0, 2.0, 3.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        csr.apply(&x, &mut y1);
        d.apply(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn apply_multi_is_bitwise_columnwise_apply() {
        // Large enough to exercise every DASP category a little.
        let mut a = Coo::new(80, 80);
        for r in 0..80usize {
            for k in 0..(r % 9) {
                a.push(r, (r * 3 + k * 7) % 80, (r + k) as f64 * 0.21 - 4.0);
            }
        }
        let csr = a.to_csr();
        let d = DaspMatrix::from_csr(&csr);
        let xs: Vec<Vec<f64>> = (0..5)
            .map(|j| (0..80).map(|i| ((i * (j + 2)) % 17) as f64 - 8.0).collect())
            .collect();
        let mut ys = vec![vec![0.0; 80]; 5];
        d.apply_multi(&xs, &mut ys);
        for (j, x) in xs.iter().enumerate() {
            let mut solo = vec![0.0; 80];
            d.apply(x, &mut solo);
            for i in 0..80 {
                assert_eq!(ys[j][i].to_bits(), solo[i].to_bits(), "col {j} row {i}");
            }
        }
        // The default (looping) implementation agrees too.
        let mut ys_csr = vec![vec![0.0; 80]; 5];
        csr.apply_multi(&xs, &mut ys_csr);
        for j in 0..5 {
            for i in 0..80 {
                assert!((ys_csr[j][i] - ys[j][i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn shifted_adds_sigma_x() {
        let csr = small();
        let sh = Shifted {
            op: &csr,
            sigma: 10.0,
        };
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![0.0; 3];
        sh.apply(&x, &mut y);
        assert_eq!(y, vec![12.0, 14.0, 19.0]);
    }

    #[test]
    fn scaled_multiplies() {
        let csr = small();
        let sc = Scaled {
            op: &csr,
            alpha: 0.5,
        };
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![0.0; 3];
        sc.apply(&x, &mut y);
        assert_eq!(y, vec![1.0, 2.0, 4.5]);
    }

    #[test]
    fn jacobi_inverts_the_diagonal() {
        let p = JacobiPreconditioner::from_csr(&small());
        let mut z = vec![0.0; 3];
        p.apply(&[2.0, 4.0, 8.0], &mut z);
        assert_eq!(z, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn csr_refresh_changes_the_applied_values() {
        let mut csr = small();
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![0.0; 3];
        let doubled: Vec<f64> = csr.vals.iter().map(|v| v * 2.0).collect();
        csr.refresh_values(&doubled).expect("pattern unchanged");
        csr.apply(&x, &mut y);
        assert_eq!(y, vec![4.0, 8.0, 18.0]);
        assert!(matches!(
            csr.refresh_values(&[1.0]),
            Err(SolveError::Shape(_))
        ));
    }

    #[test]
    fn dasp_refresh_requires_a_plan_and_matches_rebuild() {
        let csr = small();
        // Built directly: no plan, refresh is refused.
        let mut bare = DaspMatrix::from_csr(&csr);
        assert!(matches!(
            bare.refresh_values(&csr.vals),
            Err(SolveError::Unsupported(_))
        ));

        // Built through a plan: refresh applies and agrees with a rebuild.
        let plan = dasp_core::DaspPlan::analyze(&csr, csr_params());
        let mut planned = plan.fill(&csr);
        let doubled: Vec<f64> = csr.vals.iter().map(|v| v * 2.0).collect();
        planned.refresh_values(&doubled).expect("plan attached");
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![0.0; 3];
        planned.apply(&x, &mut y);
        assert_eq!(y, vec![4.0, 8.0, 18.0]);
        assert!(matches!(
            planned.refresh_values(&[1.0]),
            Err(SolveError::Shape(_))
        ));
    }

    fn csr_params() -> dasp_core::DaspParams {
        dasp_core::DaspParams::default()
    }

    #[test]
    fn jacobi_missing_diagonal_is_identity() {
        let mut a = Coo::<f64>::new(2, 2);
        a.push(0, 1, 3.0); // no diagonal in row 0
        a.push(1, 1, 2.0);
        let p = JacobiPreconditioner::from_csr(&a.to_csr());
        let mut z = vec![0.0; 2];
        p.apply(&[5.0, 4.0], &mut z);
        assert_eq!(z, vec![5.0, 2.0]);
    }
}
