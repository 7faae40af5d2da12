//! The benchmark suite runner behind `dasp-bench record`.
//!
//! One suite run sweeps the workload grid — every matrix class in the
//! chosen profile × all ten SpMV methods, plus the SpMM widths for the
//! methods with panel kernels — and produces a [`BenchSnapshot`]
//! alongside a [`CallTree`] profile and the raw [`Trace`].
//!
//! Per workload the runner takes `reps` *untimed-model* wall-clock
//! samples (each sample is one full `measure` call: format build plus
//! the simulated kernel — exactly the CPU cost ROADMAP's interpreter
//! work targets) and then one extra traced run, unreported in the wall
//! series, that supplies the modeled time, the counters, and the spans.

use dasp_core::DaspParams;
use dasp_matgen::dense_vector;
use dasp_perf::{
    a100, h800, measure_spmm_traced_with, measure_traced_with, DeviceModel, MethodKind, WallSeries,
};
use dasp_simt::Executor;
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::{Trace, Tracer};

use crate::calltree::CallTree;
use crate::snapshot::{
    git_rev, BenchSnapshot, Modeled, OpsCounters, TrafficCounters, WallStats, Workload,
};

/// Configuration for one suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Wall-clock repetitions per workload.
    pub reps: usize,
    /// Device model name (`a100` or `h800`).
    pub device: String,
    /// Executor for every kernel run.
    pub executor: Executor,
    /// Matrix profile: `true` uses the scaled-down CI-sized matrices.
    pub quick: bool,
    /// SpMM right-hand-side widths to sweep (methods: DASP + the scalar
    /// reference). Empty disables the SpMM leg.
    pub spmm_widths: Vec<usize>,
    /// Sequence number stamped into the snapshot.
    pub seq: u64,
    /// Print one progress line per workload to stderr.
    pub progress: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            reps: 5,
            device: "a100".to_string(),
            executor: Executor::seq(),
            quick: false,
            spmm_widths: vec![1, 8, 32, 128],
            seq: 1,
            progress: false,
        }
    }
}

/// Resolves a device model by CLI name.
pub fn device_by_name(name: &str) -> Option<DeviceModel> {
    match name {
        "a100" => Some(a100()),
        "h800" => Some(h800()),
        _ => None,
    }
}

/// Everything one suite run produces.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// The snapshot, ready to serialize.
    pub snapshot: BenchSnapshot,
    /// Call-tree profile aggregated over every traced workload run.
    pub calltree: CallTree,
    /// The raw span trace (for Chrome-trace export).
    pub trace: Trace,
}

/// The traced form of a workload: runs once under the tracer and yields
/// the deterministic counters for the snapshot.
type TracedFn<'a> = Box<dyn Fn(&Tracer) -> (Modeled, TrafficCounters, OpsCounters) + 'a>;

/// One workload's runnable form: an untimed kernel closure plus the
/// traced variant that yields the counters.
struct Unit<'a> {
    id: String,
    nnz: u64,
    run: Box<dyn Fn() + 'a>,
    traced: TracedFn<'a>,
}

/// Runs the full suite over `matrices` (name, matrix) pairs — use
/// [`dasp_bench::suite_matrices`] for the standard set — and returns the
/// snapshot plus profile.
///
/// Wall sampling is **rep-major**: one warmup sweep over every workload,
/// then `reps` sweeps each timing every workload once. Burst-sampling a
/// single workload would make its whole series share one instant of
/// machine state — on a loaded host two back-to-back suite runs then
/// disagree by far more than either run's MAD claims. Interleaving
/// spreads each workload's samples across the full run, so the median
/// reflects run-average machine speed and the MAD genuinely covers the
/// drift the diff gate's noise band must absorb.
///
/// Panics if `cfg.device` is not a known model name.
///
/// [`dasp_bench::suite_matrices`]: fn@dasp_bench::suite_matrices
pub fn run_suite(cfg: &SuiteConfig, matrices: &[(&str, Csr<f64>)]) -> SuiteOutcome {
    let dev = device_by_name(&cfg.device)
        .unwrap_or_else(|| panic!("unknown device model {:?}", cfg.device));
    let tracer = Tracer::new();

    // Resident matrices for the verify.plan_check rows, built outside the
    // timed region: the row times static verification alone, not the
    // format conversion.
    let built: Vec<dasp_core::DaspMatrix<f64>> = matrices
        .iter()
        .map(|(_, csr)| dasp_core::DaspMatrix::from_csr(csr))
        .collect();

    let mut units: Vec<Unit> = Vec::new();
    for ((mat_name, csr), dm) in matrices.iter().zip(&built) {
        let nnz = csr.nnz() as u64;
        let x = dense_vector(csr.cols, 42);
        for method in MethodKind::all() {
            let (x_run, x_traced) = (x.clone(), x.clone());
            let exec = cfg.executor;
            units.push(Unit {
                id: format!("spmv/{mat_name}/{}", method.name()),
                nnz,
                run: Box::new(move || {
                    let _ =
                        measure_traced_with(method, csr, &x_run, &dev, &Tracer::disabled(), &exec);
                }),
                traced: Box::new(move |t| {
                    let m = measure_traced_with(method, csr, &x_traced, &dev, t, &exec);
                    (
                        modeled(m.estimate.seconds, m.estimate.shares(), m.gflops),
                        traffic(&m.stats),
                        ops(&m.stats),
                    )
                }),
            });
        }

        for &width in &cfg.spmm_widths {
            let cols: Vec<Vec<f64>> = (0..width)
                .map(|j| dense_vector(csr.cols, 50 + j as u64))
                .collect();
            let b = DenseMat::from_columns(&cols);
            for method in [MethodKind::Dasp, MethodKind::CsrScalar] {
                let (b_run, b_traced) = (b.clone(), b.clone());
                let exec = cfg.executor;
                units.push(Unit {
                    id: format!("spmm/{mat_name}/{}/rhs{width}", method.name()),
                    nnz,
                    run: Box::new(move || {
                        let (p, off) = (DaspParams::default(), Tracer::disabled());
                        let _ = measure_spmm_traced_with(method, csr, &b_run, p, &dev, &off, &exec);
                    }),
                    traced: Box::new(move |t| {
                        let p = DaspParams::default();
                        let m = measure_spmm_traced_with(method, csr, &b_traced, p, &dev, t, &exec);
                        (
                            modeled(m.estimate.seconds, m.estimate.shares(), m.gflops),
                            traffic(&m.stats),
                            ops(&m.stats),
                        )
                    }),
                });
            }
        }

        // How long admission-time static verification (`dasp-verify`)
        // takes on this matrix. No kernel runs, so the modeled columns
        // and counters are all zero; only the wall series is meaningful.
        units.push(Unit {
            id: format!("verify.plan_check/{mat_name}"),
            nnz,
            run: Box::new(move || {
                let report = dasp_verify::verify_full(dm);
                assert!(report.is_clean(), "suite matrix must verify: {report}");
            }),
            traced: Box::new(move |_| {
                (
                    Modeled::default(),
                    TrafficCounters::default(),
                    OpsCounters::default(),
                )
            }),
        });
    }
    units.sort_by(|a, b| a.id.cmp(&b.id));

    // Warmup sweep (untimed), then rep-major timed sweeps.
    for u in &units {
        (u.run)();
    }
    let mut series: Vec<WallSeries> = units.iter().map(|_| WallSeries::default()).collect();
    for rep in 0..cfg.reps {
        if cfg.progress {
            eprintln!("  sweep {}/{}", rep + 1, cfg.reps);
        }
        for (u, s) in units.iter().zip(&mut series) {
            let t0 = std::time::Instant::now();
            (u.run)();
            s.samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    if cfg.progress {
        eprintln!("  traced sweep");
    }
    let workloads: Vec<Workload> = units
        .iter()
        .zip(&series)
        .map(|(u, s)| {
            let (modeled, traffic, ops) = (u.traced)(&tracer);
            Workload {
                id: u.id.clone(),
                nnz: u.nnz,
                wall: wall_stats(s),
                modeled,
                traffic,
                ops,
            }
        })
        .collect();
    let trace = tracer.take_trace();
    let calltree = CallTree::from_trace(&trace);
    SuiteOutcome {
        snapshot: BenchSnapshot {
            seq: cfg.seq,
            git_rev: git_rev(),
            profile: if cfg.quick { "quick" } else { "full" }.to_string(),
            device: cfg.device.clone(),
            executor: cfg.executor.name().to_string(),
            reps: cfg.reps as u64,
            workloads,
        },
        calltree,
        trace,
    }
}

fn wall_stats(series: &WallSeries) -> WallStats {
    WallStats {
        reps: series.len() as u64,
        median_us: series.median_us(),
        mad_us: series.mad_us(),
        min_us: series.min_us(),
        max_us: series.max_us(),
    }
}

fn modeled(seconds: f64, shares: (f64, f64, f64), gflops: f64) -> Modeled {
    Modeled {
        us: seconds * 1e6,
        random_share: shares.0,
        compute_share: shares.1,
        misc_share: shares.2,
        gflops,
    }
}

fn traffic(s: &dasp_simt::KernelStats) -> TrafficCounters {
    TrafficCounters {
        dram_bytes: s.dram_bytes(),
        bytes_val: s.bytes_val,
        bytes_idx: s.bytes_idx,
        x_requests: s.x_requests,
        x_hits: s.x_hits,
    }
}

fn ops(s: &dasp_simt::KernelStats) -> OpsCounters {
    OpsCounters {
        mma_ops: s.mma_ops,
        fma_ops: s.fma_ops,
        launches: s.launches,
    }
}

/// Renders the human summary table of a snapshot: wall median ± MAD,
/// modeled time, throughput, and the three attribution shares.
pub fn render_suite_table(snap: &BenchSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34}  {:>12}  {:>9}  {:>8}  {:>5} {:>5} {:>5}\n",
        "workload", "wall_us", "model_us", "gflops", "rnd%", "cmp%", "msc%"
    ));
    for w in &snap.workloads {
        out.push_str(&format!(
            "{:<34}  {:>7.1}±{:<4.1}  {:>9.2}  {:>8.2}  {:>4.0}% {:>4.0}% {:>4.0}%\n",
            w.id,
            w.wall.median_us,
            w.wall.mad_us,
            w.modeled.us,
            w.modeled.gflops,
            100.0 * w.modeled.random_share,
            100.0 * w.modeled.compute_share,
            100.0 * w.modeled.misc_share,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SuiteConfig {
        SuiteConfig {
            reps: 2,
            quick: true,
            spmm_widths: vec![1],
            ..SuiteConfig::default()
        }
    }

    fn tiny_matrices() -> Vec<(&'static str, Csr<f64>)> {
        vec![("banded", dasp_matgen::banded(200, 8, 6, 11))]
    }

    #[test]
    fn tiny_suite_produces_a_valid_sorted_snapshot() {
        let out = run_suite(&tiny_config(), &tiny_matrices());
        let snap = &out.snapshot;
        // 10 SpMV methods + 2 SpMM methods at width 1 + 1 verify row.
        assert_eq!(snap.workloads.len(), 13);
        assert!(snap.workloads.windows(2).all(|p| p[0].id < p[1].id));
        assert_eq!(snap.profile, "quick");
        assert_eq!(snap.executor, "seq");
        for w in &snap.workloads {
            assert_eq!(w.wall.reps, 2, "{}", w.id);
            assert!(w.wall.median_us > 0.0, "{}", w.id);
            if w.id.starts_with("verify.plan_check/") {
                // Wall-only row: no kernel ran, every modeled column is 0.
                assert_eq!(w.modeled, Modeled::default(), "{}", w.id);
                assert_eq!(w.traffic, TrafficCounters::default(), "{}", w.id);
                continue;
            }
            assert!(w.modeled.us > 0.0, "{}", w.id);
            assert!(w.traffic.dram_bytes > 0, "{}", w.id);
            let share_sum = w.modeled.random_share + w.modeled.compute_share + w.modeled.misc_share;
            assert!((share_sum - 1.0).abs() < 1e-9, "{}: {share_sum}", w.id);
        }
        assert!(snap.workload("spmv/banded/dasp").is_some());
        assert!(snap.workload("spmm/banded/dasp/rhs1").is_some());
        assert!(snap.workload("verify.plan_check/banded").is_some());

        // The snapshot serializes to valid JSON and round-trips.
        let json = snap.to_json();
        assert!(dasp_trace::validate_json(&json).is_ok());
        let back = BenchSnapshot::from_json(&json).unwrap();
        assert_eq!(back.workloads.len(), 13);

        // The traced runs produced a non-trivial profile with the DASP
        // kernel spans in it.
        assert!(!out.calltree.is_empty());
        assert!(out
            .calltree
            .nodes()
            .any(|n| n.name().starts_with("spmv.kernel.")));
        assert!(!out.trace.is_empty());
        assert!(out.trace.check_balanced().is_ok());
    }

    #[test]
    fn counters_are_executor_independent() {
        let seq = run_suite(&tiny_config(), &tiny_matrices());
        let par = run_suite(
            &SuiteConfig {
                executor: Executor::par_with_threads(Some(2)),
                ..tiny_config()
            },
            &tiny_matrices(),
        );
        for (a, b) in seq.snapshot.workloads.iter().zip(&par.snapshot.workloads) {
            assert_eq!(a.id, b.id);
            // Streamed traffic and op counts are order-independent; only
            // the x-cache split (and wall/modeled time) may differ.
            assert_eq!(a.traffic.bytes_val, b.traffic.bytes_val, "{}", a.id);
            assert_eq!(a.ops.mma_ops, b.ops.mma_ops, "{}", a.id);
            assert_eq!(a.ops.fma_ops, b.ops.fma_ops, "{}", a.id);
        }
        assert_eq!(par.snapshot.executor, "par");
    }

    #[test]
    fn suite_table_lists_every_workload() {
        let out = run_suite(&tiny_config(), &tiny_matrices());
        let table = render_suite_table(&out.snapshot);
        for w in &out.snapshot.workloads {
            assert!(table.contains(&w.id), "table missing {}", w.id);
        }
    }

    #[test]
    #[should_panic(expected = "unknown device model")]
    fn unknown_device_panics() {
        let cfg = SuiteConfig {
            device: "tpu".to_string(),
            ..tiny_config()
        };
        run_suite(&cfg, &tiny_matrices());
    }
}
