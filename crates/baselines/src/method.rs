//! Uniform dispatch over the baseline methods for the experiment drivers.

use dasp_fp16::Scalar;
use dasp_simt::{Executor, ShardableProbe};
use dasp_sparse::Csr;
use dasp_trace::Tracer;

use crate::{BsrSpmv, Csr5, CsrScalar, CsrVector, Hyb, LsrbCsr, MergeCsr, SellCSigma, TileSpmv};

/// One of the nine baseline SpMV methods, behind one dispatch verb. The
/// BSR variant carries its block size; the paper's "best of 2/4/8" rule
/// is applied by the experiment driver, which builds all three and keeps
/// the fastest.
#[derive(Debug, Clone)]
pub enum Baseline<S: Scalar> {
    /// One-thread-per-row CSR (Algorithm 1).
    CsrScalar(CsrScalar<S>),
    /// Vectorized CSR (vendor-CSR stand-in).
    CsrVector(CsrVector<S>),
    /// CSR5 tiles with segmented sums.
    Csr5(Csr5<S>),
    /// TileSpMV-like 2-D tiles.
    TileSpmv(TileSpmv<S>),
    /// LSRB-CSR-like balanced segments.
    LsrbCsr(LsrbCsr<S>),
    /// BSR at a fixed block size (vendor-BSR stand-in).
    Bsr(BsrSpmv<S>),
    /// Merge-based CSR (extension; Merrill & Garland SC '16).
    MergeCsr(MergeCsr<S>),
    /// SELL-C-sigma (extension; Kreutzer et al. 2014).
    Sell(SellCSigma<S>),
    /// HYB = ELL + COO (extension; Bell & Garland SC '09).
    Hyb(Hyb<S>),
}

impl<S: Scalar> Baseline<S> {
    /// Builds the named method from CSR. `Bsr` uses block size 4 here; use
    /// [`BsrSpmv::best_of`] for the paper's selection rule.
    pub fn build(name: &str, csr: &Csr<S>) -> Option<Self> {
        Some(match name {
            "csr-scalar" => Baseline::CsrScalar(CsrScalar::new(csr)),
            "cusparse-csr" | "csr-vector" => Baseline::CsrVector(CsrVector::new(csr)),
            "csr5" => Baseline::Csr5(Csr5::new(csr)),
            "tilespmv" => Baseline::TileSpmv(TileSpmv::new(csr)),
            "lsrb-csr" => Baseline::LsrbCsr(LsrbCsr::new(csr)),
            "cusparse-bsr" | "bsr" => Baseline::Bsr(BsrSpmv::new(csr, 4)),
            "merge-csr" => Baseline::MergeCsr(MergeCsr::new(csr)),
            "sell-c-sigma" | "sell" => Baseline::Sell(SellCSigma::new(csr)),
            "hyb" => Baseline::Hyb(Hyb::new(csr)),
            _ => return None,
        })
    }

    /// The method's display name (matching the paper's Table 1 labels).
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::CsrScalar(_) => "csr-scalar",
            Baseline::CsrVector(_) => "cusparse-csr",
            Baseline::Csr5(_) => "csr5",
            Baseline::TileSpmv(_) => "tilespmv",
            Baseline::LsrbCsr(_) => "lsrb-csr",
            Baseline::Bsr(_) => "cusparse-bsr",
            Baseline::MergeCsr(_) => "merge-csr",
            Baseline::Sell(_) => "sell-c-sigma",
            Baseline::Hyb(_) => "hyb",
        }
    }

    /// Computes `y = A x` with the wrapped method on the process-default
    /// executor, untraced.
    pub fn spmv<P: ShardableProbe>(&self, x: &[S], probe: &mut P) -> Vec<S> {
        self.spmv_traced_with(x, probe, &Tracer::disabled(), &Executor::from_env())
    }

    /// Computes `y = A x` with the wrapped method under the given executor
    /// inside a `spmv.kernel.<name>` span carrying the probe counter delta
    /// for the run, mirroring the naming the DASP kernels use so baseline
    /// and DASP traces line up in one timeline. Under the parallel
    /// executor the probe shards merge before the span closes, so the
    /// span's counter delta is complete either way. Every method's output
    /// and merged order-independent counters are bit-identical across
    /// executors. Plain dispatch: each method's own `spmv_with` applies
    /// the fleet sanitizer (`DASP_SANITIZE`).
    pub fn spmv_traced_with<P: ShardableProbe>(
        &self,
        x: &[S],
        probe: &mut P,
        tracer: &Tracer,
        exec: &Executor,
    ) -> Vec<S> {
        let mut sp = tracer.span(&format!("spmv.kernel.{}", self.name()));
        let before = probe.stats_snapshot();
        let y = match self {
            Baseline::CsrScalar(m) => m.spmv_with(x, probe, exec),
            Baseline::CsrVector(m) => m.spmv_with(x, probe, exec),
            Baseline::Csr5(m) => m.spmv_with(x, probe, exec),
            Baseline::TileSpmv(m) => m.spmv_with(x, probe, exec),
            Baseline::LsrbCsr(m) => m.spmv_with(x, probe, exec),
            Baseline::Bsr(m) => m.spmv_with(x, probe, exec),
            Baseline::MergeCsr(m) => m.spmv_with(x, probe, exec),
            Baseline::Sell(m) => m.spmv_with(x, probe, exec),
            Baseline::Hyb(m) => m.spmv_with(x, probe, exec),
        };
        sp.set_stats(probe.stats_snapshot().delta(&before));
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::NoProbe;

    #[test]
    fn all_methods_build_and_agree() {
        let csr = dasp_matgen::banded(150, 10, 8, 7);
        let x: Vec<f64> = (0..csr.cols).map(|i| (i % 7) as f64 * 0.3).collect();
        let want = spmv_exact(&csr, &x);
        for name in [
            "csr-scalar",
            "cusparse-csr",
            "csr5",
            "tilespmv",
            "lsrb-csr",
            "cusparse-bsr",
            "merge-csr",
            "sell-c-sigma",
            "hyb",
        ] {
            let m = Baseline::build(name, &csr).unwrap();
            let y = m.spmv(&x, &mut NoProbe);
            assert_matches(&y, &want, 1e-9);
        }
    }

    #[test]
    fn unknown_name_is_none() {
        let csr = dasp_matgen::banded(10, 2, 2, 1);
        assert!(Baseline::build("nope", &csr).is_none());
    }

    #[test]
    fn names_round_trip() {
        // Every name `build` accepts, aliases included, and the display
        // name it builds; the display name builds the same method.
        let csr = dasp_matgen::banded(20, 3, 3, 2);
        for (name, display) in [
            ("csr-scalar", "csr-scalar"),
            ("cusparse-csr", "cusparse-csr"),
            ("csr-vector", "cusparse-csr"),
            ("csr5", "csr5"),
            ("tilespmv", "tilespmv"),
            ("lsrb-csr", "lsrb-csr"),
            ("cusparse-bsr", "cusparse-bsr"),
            ("bsr", "cusparse-bsr"),
            ("merge-csr", "merge-csr"),
            ("sell-c-sigma", "sell-c-sigma"),
            ("sell", "sell-c-sigma"),
            ("hyb", "hyb"),
        ] {
            let m = Baseline::build(name, &csr).unwrap();
            assert_eq!(m.name(), display, "{name}");
            assert_eq!(Baseline::build(display, &csr).unwrap().name(), display);
        }
        assert!(Baseline::build("bogus", &csr).is_none());
    }
}
