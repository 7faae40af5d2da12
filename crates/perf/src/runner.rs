//! One-stop measurement: run any method on a matrix and estimate its time.

use dasp_baselines::{Baseline, BsrSpmv, CsrScalar};
use dasp_core::DaspMatrix;
use dasp_fp16::Scalar;
use dasp_simt::{CountingProbe, Executor, KernelStats, PanelTraffic};
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::{Registry, Tracer};

use crate::device::{DeviceModel, Precision};
use crate::estimate::{estimate, Estimate};
use crate::metrics::{effective_bandwidth_gbs, gflops};

/// Which SpMV method to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// DASP (this paper).
    Dasp,
    /// The plain one-thread-per-row kernel (Fig. 2's subject).
    CsrScalar,
    /// CSR5.
    Csr5,
    /// TileSpMV-like.
    TileSpmv,
    /// LSRB-CSR-like.
    LsrbCsr,
    /// cuSPARSE-BSR stand-in (best of block sizes 2/4/8 by estimated time).
    VendorBsr,
    /// cuSPARSE-CSR stand-in.
    VendorCsr,
    /// Merge-based CSR (extension beyond the paper's set).
    MergeCsr,
    /// SELL-C-sigma (extension).
    Sell,
    /// HYB = ELL + COO (extension).
    Hyb,
}

impl MethodKind {
    /// Display name matching the paper's labels.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::Dasp => "dasp",
            MethodKind::CsrScalar => "csr-scalar",
            MethodKind::Csr5 => "csr5",
            MethodKind::TileSpmv => "tilespmv",
            MethodKind::LsrbCsr => "lsrb-csr",
            MethodKind::VendorBsr => "cusparse-bsr",
            MethodKind::VendorCsr => "cusparse-csr",
            MethodKind::MergeCsr => "merge-csr",
            MethodKind::Sell => "sell-c-sigma",
            MethodKind::Hyb => "hyb",
        }
    }

    /// Every method, DASP first (the `--compare` ordering).
    pub fn all() -> [MethodKind; 10] {
        [
            MethodKind::Dasp,
            MethodKind::Csr5,
            MethodKind::TileSpmv,
            MethodKind::LsrbCsr,
            MethodKind::VendorBsr,
            MethodKind::VendorCsr,
            MethodKind::MergeCsr,
            MethodKind::Sell,
            MethodKind::Hyb,
            MethodKind::CsrScalar,
        ]
    }

    /// Parses a display name (as produced by [`MethodKind::name`]) or one
    /// of its common aliases.
    pub fn by_name(name: &str) -> Option<MethodKind> {
        Some(match name {
            "dasp" => MethodKind::Dasp,
            "csr-scalar" => MethodKind::CsrScalar,
            "csr5" => MethodKind::Csr5,
            "tilespmv" => MethodKind::TileSpmv,
            "lsrb-csr" => MethodKind::LsrbCsr,
            "cusparse-bsr" | "bsr" => MethodKind::VendorBsr,
            "cusparse-csr" | "csr-vector" => MethodKind::VendorCsr,
            "merge-csr" => MethodKind::MergeCsr,
            "sell-c-sigma" | "sell" => MethodKind::Sell,
            "hyb" => MethodKind::Hyb,
            _ => return None,
        })
    }

    /// The methods of the paper's FP64 comparison (Fig. 10), DASP first.
    pub fn fp64_set() -> [MethodKind; 6] {
        [
            MethodKind::Dasp,
            MethodKind::Csr5,
            MethodKind::TileSpmv,
            MethodKind::LsrbCsr,
            MethodKind::VendorBsr,
            MethodKind::VendorCsr,
        ]
    }
}

/// The outcome of measuring one method on one matrix on one device.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Method measured.
    pub method: MethodKind,
    /// Raw traffic/instruction counters.
    pub stats: KernelStats,
    /// Roofline estimate with attribution.
    pub estimate: Estimate,
    /// Throughput in GFlops (`2 nnz / t`).
    pub gflops: f64,
    /// Effective bandwidth in GB/s (Fig. 1 metric).
    pub bandwidth_gbs: f64,
    /// `y` converted to f64 — kept so callers can verify against the
    /// reference.
    pub y: Vec<f64>,
}

/// The [`Precision`] tier a scalar type's estimates are priced at,
/// keyed by storage width (2 bytes -> FP16, 4 -> FP32, else FP64) — the
/// mapping every measurement in this crate uses, exported so external
/// callers (e.g. a serving layer doing its own [`estimate`] accounting)
/// price work identically.
pub fn precision_of<S: Scalar>() -> Precision {
    match S::BYTES {
        2 => Precision::Fp16,
        4 => Precision::Fp32,
        _ => Precision::Fp64,
    }
}

fn package<S: Scalar>(
    method: MethodKind,
    csr: &Csr<S>,
    stats: KernelStats,
    y: Vec<S>,
    dev: &DeviceModel,
) -> Measurement {
    let est = estimate(&stats, dev, precision_of::<S>());
    Measurement {
        method,
        stats,
        estimate: est,
        gflops: gflops(csr.nnz(), est.seconds),
        bandwidth_gbs: effective_bandwidth_gbs(
            csr.rows,
            csr.cols,
            csr.nnz(),
            S::BYTES,
            est.seconds,
        ),
        y: y.iter().map(|v| v.to_f64()).collect(),
    }
}

/// Runs `method` on `csr` (input vector `x`) under a counting probe with
/// `dev`'s L2 model and returns the measurement. Format conversion happens
/// inside (it is not part of the estimated kernel time — preprocessing is
/// measured separately, as in the paper's Fig. 13). Untraced; the executor
/// comes from the environment ([`Executor::from_env`]).
pub fn measure<S: Scalar>(
    method: MethodKind,
    csr: &Csr<S>,
    x: &[S],
    dev: &DeviceModel,
) -> Measurement {
    measure_traced_with(
        method,
        csr,
        x,
        dev,
        &Tracer::disabled(),
        &Executor::from_env(),
    )
}

/// [`measure`] under an explicit tracer and executor. DASP runs record
/// preprocessing and per-kernel spans, baselines a `spmv.kernel.<name>`
/// span; with [`Tracer::disabled`] nothing is recorded, and counters and
/// `y` are identical either way. `y` and the order-independent counters
/// are bit-identical across executors; only the x-cache hit/miss split
/// (and thus the time estimate) is a per-shard approximation under the
/// parallel executor — use the sequential executor for paper figures.
pub fn measure_traced_with<S: Scalar>(
    method: MethodKind,
    csr: &Csr<S>,
    x: &[S],
    dev: &DeviceModel,
    tracer: &Tracer,
    exec: &Executor,
) -> Measurement {
    match method {
        MethodKind::Dasp => {
            let mut probe = CountingProbe::new(dev.l2_cache());
            let d = DaspMatrix::from_csr_traced(csr, tracer);
            let mut y = vec![S::zero(); csr.rows];
            d.spmv_into(x, &mut y, &mut probe, tracer, exec);
            package(method, csr, probe.stats(), y, dev)
        }
        MethodKind::VendorBsr => {
            // Best of block sizes 2/4/8; every candidate's run is its own
            // span, so the trace shows the selection work too.
            BsrSpmv::best_of(csr)
                .into_iter()
                .map(|h| {
                    let mut p = CountingProbe::new(dev.l2_cache());
                    let mut sp = tracer.span("spmv.kernel.cusparse-bsr");
                    let y = h.spmv_with(x, &mut p, exec);
                    sp.set_stats(p.stats());
                    package(method, csr, p.stats(), y, dev)
                })
                .min_by(|a, b| a.estimate.seconds.total_cmp(&b.estimate.seconds))
                .expect("three candidates")
        }
        _ => {
            let m = Baseline::build(method.name(), csr)
                .expect("every non-DASP MethodKind maps to a Baseline");
            let mut probe = CountingProbe::new(dev.l2_cache());
            let y = m.spmv_traced_with(x, &mut probe, tracer, exec);
            package(method, csr, probe.stats(), y, dev)
        }
    }
}

/// The outcome of measuring one multi-RHS product (`Y = A B`) on one
/// matrix on one device — either a true SpMM sweep or the looped-SpMV
/// baseline it is compared against.
#[derive(Debug, Clone)]
pub struct SpmmMeasurement {
    /// Method measured.
    pub method: MethodKind,
    /// Number of right-hand sides (columns of B).
    pub rhs_width: usize,
    /// Whether this is the looped single-vector baseline (one full SpMV
    /// per column) rather than a panel-at-a-time SpMM.
    pub looped: bool,
    /// Raw traffic/instruction counters, summed over the whole product.
    pub stats: KernelStats,
    /// Roofline estimate with attribution.
    pub estimate: Estimate,
    /// Throughput in GFlops (`2 nnz rhs_width / t`).
    pub gflops: f64,
    /// A-side traffic (values + column indices) divided by `rhs_width` —
    /// the amortization headline: for SpMM this shrinks towards 1/8 of
    /// the looped baseline's as the width approaches the panel.
    pub a_idx_bytes_per_rhs: f64,
    /// Per-panel DRAM split (`dram/val/idx` per RHS panel plus the shared
    /// A-side bin), when the kernel emitted panel hints. `None` for the
    /// looped baseline and non-hinting kernels. The shared bin holding
    /// all of `bytes_val`/`bytes_idx` *is* the amortization made visible:
    /// A-side traffic belongs to no single panel.
    pub panel_traffic: Option<PanelTraffic>,
    /// `Y` columns converted to f64, for verification.
    pub y: Vec<Vec<f64>>,
}

fn package_spmm<S: Scalar>(
    method: MethodKind,
    csr: &Csr<S>,
    looped: bool,
    stats: KernelStats,
    panel_traffic: Option<PanelTraffic>,
    y: Vec<Vec<f64>>,
    dev: &DeviceModel,
) -> SpmmMeasurement {
    let width = y.len();
    let est = estimate(&stats, dev, precision_of::<S>());
    SpmmMeasurement {
        method,
        rhs_width: width,
        looped,
        a_idx_bytes_per_rhs: (stats.bytes_val + stats.bytes_idx) as f64 / (width.max(1)) as f64,
        gflops: gflops(csr.nnz() * width, est.seconds),
        estimate: est,
        stats,
        panel_traffic,
        y,
    }
}

/// Measures `Y = A B` with the panel-at-a-time SpMM kernels under a
/// counting probe with `dev`'s L2 model. Supported methods:
/// [`MethodKind::Dasp`] (the multi-RHS MMA kernels, built with `params`)
/// and [`MethodKind::CsrScalar`] (the scalar reference SpMM, which ignores
/// `params`). `params` is the hook the `--reorder` CLI flag and the ext3
/// reorder ablation use (`params.reorder` toggles the row-similarity
/// pass; `Y` is bit-identical either way, only x-locality moves). The
/// DASP path records the `spmm` root span with its per-category children
/// (each carrying an `rhs_width` arg) on `tracer`; the scalar reference
/// records nothing extra. Counters and `Y` do not depend on the tracer.
pub fn measure_spmm_traced_with<S: Scalar>(
    method: MethodKind,
    csr: &Csr<S>,
    b: &DenseMat<S>,
    params: dasp_core::DaspParams,
    dev: &DeviceModel,
    tracer: &Tracer,
    exec: &Executor,
) -> SpmmMeasurement {
    let mut probe = CountingProbe::new(dev.l2_cache());
    let y = match method {
        MethodKind::Dasp => {
            let d = DaspMatrix::with_params_traced(csr, params, tracer);
            let mut y = DenseMat::zeros(csr.rows, b.cols());
            d.spmm_into(b, &mut y, &mut probe, tracer, exec);
            y
        }
        MethodKind::CsrScalar => CsrScalar::new(csr).spmm_with(b, &mut probe, exec),
        _ => panic!("no SpMM kernel for method {}", method.name()),
    };
    let cols = (0..b.cols())
        .map(|j| y.column(j).iter().map(|v| v.to_f64()).collect())
        .collect();
    let panel_traffic = probe.panel_traffic().cloned();
    package_spmm(method, csr, false, probe.stats(), panel_traffic, cols, dev)
}

/// Measures the looped-SpMV baseline for the same product under an
/// explicit executor: one full single-vector SpMV per column of `b`,
/// counters summed across the loop (A and its indices re-stream once per
/// column — the traffic SpMM amortizes away). Any [`MethodKind`] with an
/// SpMV kernel works.
pub fn measure_looped_spmv_with<S: Scalar>(
    method: MethodKind,
    csr: &Csr<S>,
    b: &DenseMat<S>,
    dev: &DeviceModel,
    exec: &Executor,
) -> SpmmMeasurement {
    let mut stats = KernelStats::default();
    let mut cols = Vec::with_capacity(b.cols());
    for j in 0..b.cols() {
        // Fresh probe per column: consecutive kernels do not share an
        // x-cache on hardware either (the vector changes every launch).
        let m = measure_traced_with(method, csr, &b.column(j), dev, &Tracer::disabled(), exec);
        stats.merge(&m.stats);
        cols.push(m.y);
    }
    package_spmm(method, csr, true, stats, None, cols, dev)
}

/// Records one SpMM measurement into `registry` under
/// `spmm.<method>.rhs<width>.*` (or `spmv-looped.<method>.rhs<width>.*`
/// for the looped baseline) — the width rides in the metric name as a
/// dimension, so a metrics dump lines the amortization curve up without
/// joining against anything else. `a_idx_bytes_per_rhs` is the
/// bytes-per-vector gauge the ext2 experiment plots.
pub fn record_spmm_measurement(m: &SpmmMeasurement, registry: &Registry) {
    let family = if m.looped { "spmv-looped" } else { "spmm" };
    let p = format!("{family}.{}.rhs{}", m.method.name(), m.rhs_width);
    let s = &m.stats;
    registry.gauge_set(&format!("{p}.seconds"), m.estimate.seconds);
    registry.gauge_set(&format!("{p}.gflops"), m.gflops);
    registry.gauge_set(&format!("{p}.a_idx_bytes_per_rhs"), m.a_idx_bytes_per_rhs);
    registry.counter_add(&format!("{p}.dram_bytes"), s.dram_bytes());
    registry.counter_add(&format!("{p}.bytes_val"), s.bytes_val);
    registry.counter_add(&format!("{p}.bytes_idx"), s.bytes_idx);
    registry.counter_add(&format!("{p}.mma_ops"), s.mma_ops);
    registry.counter_add(&format!("{p}.fma_ops"), s.fma_ops);
    if let Some(pt) = &m.panel_traffic {
        // The per-panel dram/val/idx split: `shared` is the A-side
        // traffic amortized across every panel, `panel<k>` the B/x miss
        // fills attributable to RHS panel k alone.
        registry.counter_add(&format!("{p}.shared.dram_bytes"), pt.shared.dram_bytes());
        registry.counter_add(&format!("{p}.shared.bytes_val"), pt.shared.bytes_val);
        registry.counter_add(&format!("{p}.shared.bytes_idx"), pt.shared.bytes_idx);
        for (k, bin) in pt.panels.iter().enumerate() {
            let pp = format!("{p}.panel{k}");
            registry.counter_add(&format!("{pp}.dram_bytes"), bin.dram_bytes());
            registry.counter_add(&format!("{pp}.bytes_val"), bin.bytes_val);
            registry.counter_add(&format!("{pp}.bytes_idx"), bin.bytes_idx);
            registry.counter_add(&format!("{pp}.bytes_x_miss"), bin.bytes_x_miss);
        }
    }
}

/// Records one measurement's headline metrics into `registry` under
/// `spmv.<method>.*`: the x-cache hit rate gauge the paper's RANDOM
/// ACCESS analysis turns on, plus time, throughput, and DRAM traffic.
pub fn record_measurement(m: &Measurement, registry: &Registry) {
    let p = format!("spmv.{}", m.method.name());
    let s = &m.stats;
    let hit_rate = if s.x_requests == 0 {
        0.0
    } else {
        s.x_hits as f64 / s.x_requests as f64
    };
    registry.gauge_set(&format!("{p}.x_hit_rate"), hit_rate);
    registry.gauge_set(&format!("{p}.seconds"), m.estimate.seconds);
    registry.gauge_set(&format!("{p}.gflops"), m.gflops);
    registry.gauge_set(&format!("{p}.bandwidth_gbs"), m.bandwidth_gbs);
    registry.counter_add(&format!("{p}.dram_bytes"), s.dram_bytes());
    registry.counter_add(&format!("{p}.mma_ops"), s.mma_ops);
    registry.counter_add(&format!("{p}.fma_ops"), s.fma_ops);
    registry.counter_add(&format!("{p}.divergent_regions"), s.divergent_regions);
    registry.counter_add(&format!("{p}.inactive_lanes"), s.inactive_lanes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::a100;

    fn verify(m: &Measurement, csr: &Csr<f64>, x: &[f64]) {
        let want = csr.spmv_reference(x);
        for (i, (&a, &b)) in m.y.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{} row {i}: {a} vs {b}",
                m.method.name()
            );
        }
        assert!(m.estimate.seconds > 0.0);
        assert!(m.gflops > 0.0);
    }

    #[test]
    fn every_method_measures_and_verifies() {
        let csr = dasp_matgen::banded(400, 16, 12, 3);
        let x = dasp_matgen::dense_vector(csr.cols, 1);
        let dev = a100();
        for m in MethodKind::fp64_set() {
            let meas = measure(m, &csr, &x, &dev);
            verify(&meas, &csr, &x);
        }
        let meas = measure(MethodKind::CsrScalar, &csr, &x, &dev);
        verify(&meas, &csr, &x);
    }

    #[test]
    fn vendor_bsr_picks_a_block_size() {
        // On a 4x4-blocked matrix, BSR should be reasonably efficient.
        let blocked = dasp_matgen::block_dense(256, 4, 2, 5);
        let x = dasp_matgen::dense_vector(blocked.cols, 2);
        let dev = a100();
        let m = measure(MethodKind::VendorBsr, &blocked, &x, &dev);
        verify(&m, &blocked, &x);
        // Fill-adjusted traffic should be close to the nominal CSR volume.
        assert!(m.stats.bytes_val <= 2 * blocked.nnz() as u64 * 8);
    }

    #[test]
    fn spmm_amortizes_a_traffic_and_beats_looped_spmv() {
        let csr = dasp_matgen::banded(2000, 32, 24, 9);
        let cols: Vec<Vec<f64>> = (0..8)
            .map(|j| dasp_matgen::dense_vector(csr.cols, 10 + j))
            .collect();
        let b = DenseMat::from_columns(&cols);
        let dev = a100();
        let exec = Executor::seq();
        let spmm = measure_spmm_traced_with(
            MethodKind::Dasp,
            &csr,
            &b,
            dasp_core::DaspParams::default(),
            &dev,
            &Tracer::disabled(),
            &exec,
        );
        let looped = measure_looped_spmv_with(MethodKind::Dasp, &csr, &b, &dev, &exec);
        // Same values, column for column, bit for bit.
        assert_eq!(spmm.y, looped.y);
        // A+index traffic amortizes 8x across the panel...
        assert_eq!(spmm.stats.bytes_val * 8, looped.stats.bytes_val);
        assert_eq!(spmm.stats.bytes_idx * 8, looped.stats.bytes_idx);
        assert!(spmm.a_idx_bytes_per_rhs < looped.a_idx_bytes_per_rhs);
        // ...which the roofline estimate must show.
        assert!(
            spmm.estimate.seconds < looped.estimate.seconds,
            "spmm {} vs looped {}",
            spmm.estimate.seconds,
            looped.estimate.seconds
        );
        assert!(spmm.gflops > looped.gflops);
    }

    #[test]
    fn spmm_metrics_carry_the_width_dimension() {
        let csr = dasp_matgen::banded(300, 12, 8, 2);
        let cols: Vec<Vec<f64>> = (0..4)
            .map(|j| dasp_matgen::dense_vector(csr.cols, 20 + j))
            .collect();
        let b = DenseMat::from_columns(&cols);
        let registry = dasp_trace::Registry::default();
        let m = measure_spmm_traced_with(
            MethodKind::Dasp,
            &csr,
            &b,
            dasp_core::DaspParams::default(),
            &a100(),
            &Tracer::disabled(),
            &Executor::seq(),
        );
        record_spmm_measurement(&m, &registry);
        let l = measure_looped_spmv_with(MethodKind::Dasp, &csr, &b, &a100(), &Executor::seq());
        record_spmm_measurement(&l, &registry);
        let spmm_per_rhs = registry
            .gauge("spmm.dasp.rhs4.a_idx_bytes_per_rhs")
            .expect("spmm gauge carries the width dimension");
        let looped_per_rhs = registry
            .gauge("spmv-looped.dasp.rhs4.a_idx_bytes_per_rhs")
            .expect("looped gauge carries the width dimension");
        assert!(spmm_per_rhs < looped_per_rhs);
        assert!(registry.counter("spmm.dasp.rhs4.mma_ops").is_some());
    }

    #[test]
    fn spmm_panel_split_attributes_traffic_per_panel() {
        let csr = dasp_matgen::banded(600, 20, 14, 6);
        let cols: Vec<Vec<f64>> = (0..20)
            .map(|j| dasp_matgen::dense_vector(csr.cols, 30 + j))
            .collect();
        let b = DenseMat::from_columns(&cols);
        let dev = a100();
        let m = measure_spmm_traced_with(
            MethodKind::Dasp,
            &csr,
            &b,
            dasp_core::DaspParams::default(),
            &dev,
            &Tracer::disabled(),
            &Executor::seq(),
        );
        let pt = m
            .panel_traffic
            .as_ref()
            .expect("DASP SpMM emits panel hints");
        // Three panels for 20 RHS (8 + 8 + 4 masked).
        assert_eq!(pt.panels.len(), 3);
        // All A-side traffic is shared: it loads once for every panel.
        assert_eq!(pt.shared.bytes_val, m.stats.bytes_val);
        assert_eq!(pt.shared.bytes_idx, m.stats.bytes_idx);
        assert!(pt.panels.iter().all(|bin| bin.bytes_val == 0));
        // The split tiles the totals exactly.
        let split_x: u64 =
            pt.shared.bytes_x_miss + pt.panels.iter().map(|bin| bin.bytes_x_miss).sum::<u64>();
        assert_eq!(split_x, m.stats.bytes_x_miss);
        // Looped baselines never hint: no split.
        let l = measure_looped_spmv_with(MethodKind::Dasp, &csr, &b, &dev, &Executor::seq());
        assert!(l.panel_traffic.is_none());
        // The registry carries the per-panel counters.
        let registry = dasp_trace::Registry::default();
        record_spmm_measurement(&m, &registry);
        assert!(registry
            .counter("spmm.dasp.rhs20.shared.bytes_val")
            .is_some());
        assert!(registry
            .counter("spmm.dasp.rhs20.panel2.bytes_x_miss")
            .is_some());
    }

    #[test]
    fn dasp_beats_scalar_csr_on_a_medium_matrix() {
        let csr = dasp_matgen::banded(4000, 40, 28, 4);
        let x = dasp_matgen::dense_vector(csr.cols, 3);
        let dev = a100();
        let dasp = measure(MethodKind::Dasp, &csr, &x, &dev);
        let scalar = measure(MethodKind::CsrScalar, &csr, &x, &dev);
        assert!(
            dasp.estimate.seconds < scalar.estimate.seconds,
            "dasp {} vs scalar {}",
            dasp.estimate.seconds,
            scalar.estimate.seconds
        );
    }
}
