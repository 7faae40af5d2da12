//! The simulate stage: the paper-reproduction path on formats prebuilt
//! during setup. SpMV and SpMM at widths 8 and 128 run under the A100 L2
//! counting probe and the roofline estimate, in fp64 and `F16`, plus the
//! same calls uninstrumented, all on the sequential executor. Format and
//! verify run only in setup.

use std::time::{Duration, Instant};

use dasp_baselines::CsrScalar;
use dasp_core::{DaspMatrix, DaspParams, DaspPlan};
use dasp_fp16::{Scalar, F16};
use dasp_perf::{a100, estimate, precision_of, DeviceModel, Estimate};
use dasp_simt::{CountingProbe, Executor, KernelStats, NoProbe, ShardableProbe};
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::Tracer;

use crate::check::{matches, same_bits, Tally, REL_F16, REL_F64};
use crate::clock::{median_rate, Clock, Sampled, Timings};
use crate::host::Control;
use crate::inputs::{five_class_mix, mix, vector};

/// Right-hand-side widths of the three calls: SpMV, then SpMM at 8 (one
/// MMA panel) and 128 (the multi-RHS regime).
pub const WIDTHS: [usize; 3] = [1, 8, 128];

/// The simulate mix is the five-class mix at 15% of the ingest
/// size: a counted call costs 5–11 times an uncounted one.
const SIM_SCALE: f64 = 0.15;

/// Span names of one precision's calls, in [`WIDTHS`] order.
struct Names {
    counted: [&'static str; 3],
    bare: [&'static str; 3],
}

const F64_NAMES: Names = Names {
    counted: ["simt.spmv", "simt.spmm8", "simt.spmm128"],
    bare: ["kernel.spmv", "kernel.spmm8", "kernel.spmm128"],
};

const F16_NAMES: Names = Names {
    counted: ["simt.spmv_f16", "simt.spmm8_f16", "simt.spmm128_f16"],
    bare: ["fp16.spmv", "fp16.spmm8", "fp16.spmm128"],
};

/// One matrix prebuilt at one precision, with inputs and references.
struct Prepared<S: Scalar> {
    m: DaspMatrix<S>,
    x: Vec<S>,
    b8: DenseMat<S>,
    b128: DenseMat<S>,
    /// Reference columns per call, in [`WIDTHS`] order.
    want: [Vec<Vec<f64>>; 3],
}

impl<S: Scalar> Prepared<S> {
    fn new(csr: &Csr<f64>, columns: &[Vec<f64>], exec: &Executor) -> Prepared<S> {
        let csr: Csr<S> = csr.cast();
        let cols: Vec<Vec<S>> = columns
            .iter()
            .map(|c| c.iter().map(|&v| S::from_f64(v)).collect())
            .collect();
        let reference = |n: usize| -> Vec<Vec<f64>> {
            cols[..n].iter().map(|c| csr.spmv_reference(c)).collect()
        };
        let off = Tracer::disabled();
        let plan = DaspPlan::analyze_traced_with(&csr, DaspParams::default(), &off, exec);
        Prepared {
            m: plan.fill_traced_with(&csr, &off, exec),
            x: cols[0].clone(),
            b8: DenseMat::from_columns(&cols[..8]),
            b128: DenseMat::from_columns(&cols[..128]),
            want: [reference(1), reference(8), reference(128)],
        }
    }

    fn nnz(&self) -> u64 {
        self.m.nnz as u64
    }

    /// Runs call `k` (index into [`WIDTHS`]) under `probe`.
    fn call<P: ShardableProbe>(&self, k: usize, probe: &mut P, exec: &Executor) -> Output<S> {
        match k {
            0 => Output::Vector(self.m.spmv_with(&self.x, probe, exec)),
            1 => Output::Panel(self.m.spmm_with(&self.b8, probe, exec)),
            _ => Output::Panel(self.m.spmm_with(&self.b128, probe, exec)),
        }
    }
}

enum Output<S: Scalar> {
    Vector(Vec<S>),
    Panel(DenseMat<S>),
}

impl<S: Scalar> Output<S> {
    fn flat(&self) -> &[S] {
        match self {
            Output::Vector(y) => y,
            Output::Panel(y) => y.data(),
        }
    }

    fn matches(&self, want: &[Vec<f64>], rel: f64) -> bool {
        match self {
            Output::Vector(y) => matches(y, &want[0], rel),
            Output::Panel(y) => {
                y.cols() == want.len()
                    && want
                        .iter()
                        .enumerate()
                        .all(|(j, w)| matches(&y.column(j), w, rel))
            }
        }
    }
}

/// One prebuilt matrix in both precisions.
struct SimMatrix {
    csr: Csr<f64>,
    f64: Prepared<f64>,
    f16: Prepared<F16>,
    /// Modeled seconds of a counted CSR-scalar SpMV on the same input.
    csr_scalar_secs: f64,
}

/// The modeled outcome of one counted call (deterministic per seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallModel {
    /// Whether the call ran in `F16`.
    pub fp16: bool,
    /// Nonzeros times width.
    pub work: u64,
    /// The probe's counters.
    pub stats: KernelStats,
    /// The roofline estimate on the A100 model.
    pub est: Estimate,
}

impl CallModel {
    /// Modeled GFLOP/s: two flops per nonzero and column.
    pub fn gflops(&self) -> f64 {
        2.0 * self.work as f64 / self.est.seconds / 1e9
    }
}

/// The simulate stage's prebuilt inputs.
pub struct SimState {
    mats: Vec<SimMatrix>,
    dev: DeviceModel,
    /// The next unit to run; slices continue where the last ended.
    cursor: usize,
    /// Zero-fill rate of the mix's formats: padded slots per nonzero.
    pub fill_rate: f64,
    /// fp64 format bytes per stored nonzero, over the mix.
    pub bytes_per_nnz: f64,
}

/// What the simulate slices of one pass measured. A unit is one matrix
/// at one precision: its three counted calls and their uncounted twins.
#[derive(Debug, Default)]
pub struct SimResult {
    /// Checked outputs (one per call, reference control and model repeat).
    pub tally: Tally,
    /// Counted CPU time of each run of each unit.
    pub counted: Vec<Sampled>,
    /// Per-call timings.
    pub timings: Timings,
    /// Each unit's counted calls as first run, in [`WIDTHS`] order.
    pub models: Vec<Option<[CallModel; 3]>>,
}

impl SimResult {
    /// Counted work (nonzeros times width) per second of counted CPU
    /// time at the reference host speed.
    pub fn counted_nnz_per_s(&self) -> f64 {
        median_rate(&self.counted)
    }

    /// Counted host time over uncounted host time, same calls.
    pub fn probe_overhead(&self) -> f64 {
        let sum = |names: [&str; 3]| names.iter().map(|n| self.timings.get(n).ns).sum::<u64>();
        (sum(F64_NAMES.counted) + sum(F16_NAMES.counted)) as f64
            / (sum(F64_NAMES.bare) + sum(F16_NAMES.bare)) as f64
    }

    /// Every modeled call, unit by unit.
    pub fn calls(&self) -> impl Iterator<Item = &CallModel> {
        self.models.iter().flatten().flatten()
    }
}

impl SimState {
    /// Generates the mix, prebuilds both precisions' formats, and computes
    /// references and the CSR-scalar baseline.
    pub fn setup(seed: u64, scale: f64) -> SimState {
        let dev = a100();
        let exec = Executor::seq();
        let mats: Vec<SimMatrix> = five_class_mix(mix(seed, 7), scale * SIM_SCALE)
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let columns: Vec<Vec<f64>> = (0..128)
                    .map(|j| vector(m.csr.cols, seed, 1000 * (i as u64 + 1) + j))
                    .collect();
                let f64 = Prepared::new(&m.csr, &columns, &exec);
                let mut probe = CountingProbe::new(dev.l2_cache());
                CsrScalar::new(&m.csr).spmv_with(&f64.x, &mut probe, &exec);
                let csr_scalar_secs = estimate(&probe.stats(), &dev, precision_of::<f64>()).seconds;
                SimMatrix {
                    f16: Prepared::new(&m.csr, &columns, &exec),
                    f64,
                    csr: m.csr,
                    csr_scalar_secs,
                }
            })
            .collect();
        let nnz = mats.iter().map(|m| m.f64.m.nnz).sum::<usize>().max(1) as f64;
        let stored = mats.iter().map(|m| {
            let c = m.f64.m.category_stats();
            c.stored_long + c.stored_medium + c.stored_short
        });
        let bytes = mats.iter().map(|m| m.f64.m.memory_bytes());
        SimState {
            fill_rate: stored.sum::<usize>() as f64 / nnz - 1.0,
            bytes_per_nnz: bytes.sum::<usize>() as f64 / nnz,
            mats,
            dev,
            cursor: 0,
        }
    }

    /// An empty result for this mix.
    pub fn result(&self) -> SimResult {
        let work = |m: &SimMatrix| WIDTHS.iter().map(|&w| m.f64.nnz() * w as u64).sum();
        SimResult {
            counted: self
                .mats
                .iter()
                .flat_map(|m| [work(m), work(m)])
                .map(|work| Sampled {
                    work,
                    ..Sampled::default()
                })
                .collect(),
            models: vec![None; 2 * self.mats.len()],
            ..SimResult::default()
        }
    }

    /// Runs units in turn until `budget` has passed (at least one).
    pub fn run(
        &mut self,
        budget: Duration,
        tracer: &Tracer,
        control: &mut Control,
        out: &mut SimResult,
    ) {
        let mut clock = Clock::new(tracer, "stage.simulate");
        let start = Instant::now();
        loop {
            let u = self.cursor;
            self.cursor = (u + 1) % out.models.len();
            self.run_unit(&mut clock, u, control, out);
            if start.elapsed() >= budget {
                break;
            }
        }
        out.timings.merge(clock.finish());
    }

    /// Runs every unit the pass has not run yet, so each one has a model.
    pub fn complete(&mut self, tracer: &Tracer, control: &mut Control, out: &mut SimResult) {
        let mut clock = Clock::new(tracer, "stage.simulate");
        for u in 0..out.models.len() {
            if out.models[u].is_none() {
                self.run_unit(&mut clock, u, control, out);
            }
        }
        out.timings.merge(clock.finish());
    }

    /// Geomean over the mix of a counted CSR-scalar SpMV's modeled time
    /// over DASP's, fp64: the paper's baseline comparison.
    pub fn speedup_vs_csr_scalar(&self, r: &SimResult) -> f64 {
        geomean(self.mats.iter().enumerate().filter_map(|(i, m)| {
            r.models[2 * i].map(|calls| m.csr_scalar_secs / calls[0].est.seconds)
        }))
    }

    fn run_unit(&self, clock: &mut Clock, u: usize, control: &mut Control, out: &mut SimResult) {
        let m = &self.mats[u / 2];
        control.sample();
        let counted_before =
            clock.total_cpu_ns(&F64_NAMES.counted) + clock.total_cpu_ns(&F16_NAMES.counted);
        let calls = if u.is_multiple_of(2) {
            let calls = self.run_precision(clock, &m.f64, &F64_NAMES, REL_F64, &mut out.tally);
            let y = clock.time("sparse.reference", m.csr.nnz() as u64, || {
                m.csr.spmv_reference(&m.f64.x)
            });
            out.tally.record(same_bits(&y, &m.f64.want[0][0]));
            calls
        } else {
            self.run_precision(clock, &m.f16, &F16_NAMES, REL_F16, &mut out.tally)
        };
        let counted =
            clock.total_cpu_ns(&F64_NAMES.counted) + clock.total_cpu_ns(&F16_NAMES.counted);
        out.counted[u].push((counted - counted_before) as f64 * 1e-9, control.slowdown());
        match out.models[u] {
            None => out.models[u] = Some(calls),
            Some(first) => out.tally.record(first == calls),
        }
    }

    /// The three counted calls, each followed by the same call uncounted
    /// (which must be bit-identical), at one precision.
    fn run_precision<S: Scalar>(
        &self,
        clock: &mut Clock,
        p: &Prepared<S>,
        names: &Names,
        rel: f64,
        tally: &mut Tally,
    ) -> [CallModel; 3] {
        let exec = Executor::seq();
        std::array::from_fn(|k| {
            let work = p.nnz() * WIDTHS[k] as u64;
            let mut probe = CountingProbe::new(self.dev.l2_cache());
            let counted = clock.time(names.counted[k], work, || p.call(k, &mut probe, &exec));
            let stats = probe.stats();
            let est = clock.time("perf.estimate", 1, || {
                estimate(&stats, &self.dev, precision_of::<S>())
            });
            let bare = clock.time(names.bare[k], work, || p.call(k, &mut NoProbe, &exec));
            tally.record(counted.matches(&p.want[k], rel));
            tally.record(same_bits(bare.flat(), counted.flat()));
            CallModel {
                fp16: S::BYTES == 2,
                work,
                stats,
                est,
            }
        })
    }
}

/// Geometric mean of positive values (0 for none).
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}
