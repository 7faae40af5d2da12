//! The `--metrics-out` dump: an instrumented sweep over a small
//! representative matrix set producing the full observability bundle —
//! the metrics registry exported as JSON and CSV, plus a Chrome trace of
//! every preprocessing phase and kernel launch.
//!
//! The sweep runs DASP and the paper's FP64 baseline set on each matrix,
//! records headline measurement metrics (`spmv.<method>.*`), DASP category
//! occupancy and zero-fill gauges (`dasp.categories.*`), and the per-warp
//! nnz/instruction load-imbalance histograms (`warp.<method>.*`) the
//! simulator's `warp_begin`/`warp_end` hooks feed.

use dasp_core::{DaspParams, PlanCache};
use dasp_matgen::{banded, circuit_like, dense_vector, rmat};
use dasp_perf::{a100, measure_traced_with, record_measurement, MethodKind};
use dasp_simt::{CountingProbe, Executor};
use dasp_sparse::Csr;
use dasp_trace::{
    chrome_trace_json, registry_to_csv, registry_to_json, Registry, Tracer, WarpProfiler,
};

/// Bucket bounds for per-warp nnz / instruction histograms.
const WARP_BOUNDS: [f64; 6] = [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];

/// The rendered observability bundle.
pub struct MetricsDump {
    /// Registry exported as JSON.
    pub metrics_json: String,
    /// Registry exported as CSV.
    pub metrics_csv: String,
    /// All spans in Chrome Trace Event Format.
    pub trace_json: String,
    /// Matrices swept.
    pub matrices: usize,
    /// Spans recorded.
    pub spans: usize,
    /// Metrics recorded.
    pub metrics: usize,
}

/// A small sweep set covering the three row categories: banded (medium
/// rows), RMAT (skewed, all categories), circuit-like (short rows with a
/// few dense ones).
fn sweep_matrices() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("banded2k", banded(2000, 20, 14, 3)),
        ("rmat12", rmat(12, 8, 7)),
        ("circuit4k", circuit_like(4000, 6, 500, 11)),
    ]
}

/// Runs the instrumented sweep and renders the bundle.
pub fn run() -> MetricsDump {
    let dev = a100();
    let tracer = Tracer::new();
    let registry = Registry::new();
    let plans = PlanCache::new();
    let matrices = sweep_matrices();

    for (name, csr) in &matrices {
        let x = dense_vector(csr.cols, 42);
        for method in MethodKind::fp64_set() {
            let m = measure_traced_with(method, csr, &x, &dev, &tracer, &Executor::from_env());
            record_measurement(&m, &registry);
        }
        // Per-warp load distribution for DASP vs the scalar-CSR strawman —
        // the contrast behind the paper's load-balance argument. Built
        // through the pattern-keyed plan cache (and once more, so each
        // matrix contributes a hit), leaving traced `preprocess.fill`
        // spans with their scatter-byte args and cache gauges behind.
        let exec = Executor::from_env();
        let params = DaspParams::default();
        let dasp = plans
            .plan_for_traced_with(csr, params, &tracer, &exec)
            .fill_traced_with(csr, &tracer, &exec);
        let _ = plans
            .plan_for_traced_with(csr, params, &tracer, &exec)
            .fill_traced_with(csr, &tracer, &exec);
        let mut p = WarpProfiler::new(CountingProbe::new(dev.l2_cache()));
        let _ = dasp.spmv(&x, &mut p);
        p.profile()
            .record_into(&registry, "warp.dasp", &WARP_BOUNDS);
        let scalar = dasp_baselines::CsrVector::new(csr);
        let mut p = WarpProfiler::new(CountingProbe::new(dev.l2_cache()));
        let _ = scalar.spmv_with(&x, &mut p, &exec);
        p.profile()
            .record_into(&registry, "warp.cusparse-csr", &WARP_BOUNDS);
        // Category occupancy and zero-fill overhead (paper Fig. 12).
        let cs = dasp.category_stats();
        let pre = format!("dasp.categories.{name}");
        registry.gauge_set(&format!("{pre}.fill_rate"), cs.fill_rate());
        registry.counter_add(&format!("{pre}.rows_long"), cs.rows_long as u64);
        registry.counter_add(&format!("{pre}.rows_medium"), cs.rows_medium as u64);
        registry.counter_add(&format!("{pre}.rows_short"), cs.rows_short as u64);
        registry.counter_add(&format!("{pre}.rows_empty"), cs.rows_empty as u64);
    }

    // Plan-cache effectiveness over the whole sweep (each matrix analyzed
    // once, then hit once).
    plans.export_metrics(&registry);

    let trace = tracer.take_trace();
    MetricsDump {
        metrics_json: registry_to_json(&registry),
        metrics_csv: registry_to_csv(&registry),
        trace_json: chrome_trace_json(&trace),
        matrices: matrices.len(),
        spans: trace.spans.len(),
        metrics: registry.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_trace::validate_json;

    #[test]
    fn dump_is_valid_and_covers_the_sweep() {
        let d = run();
        validate_json(&d.metrics_json).expect("metrics JSON is valid");
        validate_json(&d.trace_json).expect("trace JSON is valid");
        assert_eq!(d.matrices, 3);
        assert!(d.spans > 0);
        assert!(d.metrics > 0);
        // Every fp64-set method left its headline gauges behind.
        for m in MethodKind::fp64_set() {
            assert!(
                d.metrics_csv.contains(&format!("spmv.{}.gflops", m.name())),
                "missing gflops row for {}",
                m.name()
            );
        }
        assert!(d.metrics_csv.contains("warp.dasp.nnz"));
        assert!(d.metrics_json.contains("dasp.categories.rmat12.fill_rate"));
        // The sweep builds each matrix twice through the plan cache: one
        // analysis miss, one hit, and traced fill spans for both.
        assert!(d.metrics_json.contains("format.plan_cache.hits"));
        assert!(d.metrics_json.contains("format.plan_cache.misses"));
        assert!(d.trace_json.contains("preprocess.fill"));
    }
}
