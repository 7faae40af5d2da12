//! The ingest stage: matrices arrive as CSR and are taken to a verified,
//! serialized, checked and refreshed DASP matrix, one public call at a
//! time. No probe and no server run here, so format and verify dominate.

use std::time::{Duration, Instant};

use dasp_core::{DaspMatrix, DaspParams, DaspPlan};
use dasp_simt::{Executor, NoProbe};
use dasp_sparse::Csr;
use dasp_trace::Tracer;
use dasp_verify::{verify_kernels, verify_matrix};

use crate::check::{matches, same_bits, Tally, REL_F64};
use crate::clock::{median_rate, Clock, Sampled, Timings};
use crate::host::{thread_cpu_secs, Control};
use crate::inputs::{five_class_mix, vector};

/// One arriving matrix with its input, expected output and refresh values.
struct Arrival {
    csr: Csr<f64>,
    x: Vec<f64>,
    want: Vec<f64>,
    doubled: Vec<f64>,
}

/// The ingest stage's prepared inputs.
pub struct IngestState {
    arrivals: Vec<Arrival>,
    /// The next arrival to ingest; slices continue where the last ended.
    cursor: usize,
}

/// What the ingest slices of one pass measured.
#[derive(Debug, Default)]
pub struct IngestResult {
    /// Checked matrices.
    pub tally: Tally,
    /// CPU time of each ingestion, per matrix of the mix.
    pub per_matrix: Vec<Sampled>,
    /// Per-call timings.
    pub timings: Timings,
}

impl IngestResult {
    /// Nonzeros taken from CSR to a verified, refreshed, checked matrix
    /// per CPU second at the reference host speed.
    pub fn nnz_per_s(&self) -> f64 {
        median_rate(&self.per_matrix)
    }
}

impl IngestState {
    /// Generates the mix and its expected outputs.
    pub fn setup(seed: u64, scale: f64) -> IngestState {
        let arrivals = five_class_mix(seed, scale)
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let x = vector(m.csr.cols, seed, 100 + i as u64);
                let want = m.csr.spmv_reference(&x);
                let doubled = m.csr.vals.iter().map(|v| v * 2.0).collect();
                Arrival {
                    csr: m.csr,
                    x,
                    want,
                    doubled,
                }
            })
            .collect();
        IngestState {
            arrivals,
            cursor: 0,
        }
    }

    /// An empty result for this mix.
    pub fn result(&self) -> IngestResult {
        IngestResult {
            per_matrix: self
                .arrivals
                .iter()
                .map(|a| Sampled {
                    work: a.csr.nnz() as u64,
                    ..Sampled::default()
                })
                .collect(),
            ..IngestResult::default()
        }
    }

    /// Ingests arrivals in turn until `budget` has passed (at least one).
    pub fn run(
        &mut self,
        budget: Duration,
        tracer: &Tracer,
        control: &mut Control,
        out: &mut IngestResult,
    ) {
        let mut clock = Clock::new(tracer, "stage.ingest");
        let exec = Executor::seq();
        let start = Instant::now();
        loop {
            let i = self.cursor;
            self.cursor = (i + 1) % self.arrivals.len();
            control.sample();
            let t = thread_cpu_secs();
            let ok = ingest_one(&mut clock, &self.arrivals[i], &exec);
            out.per_matrix[i].push(thread_cpu_secs() - t, control.slowdown());
            out.tally.record(ok);
            if start.elapsed() >= budget {
                break;
            }
        }
        out.timings.merge(clock.finish());
    }
}

/// Analyze → fill → verify → write → read → SpMV (checked) → refresh →
/// SpMV of the refreshed matrix (checked). Every call runs on `exec`.
fn ingest_one(clock: &mut Clock, a: &Arrival, exec: &Executor) -> bool {
    let off = Tracer::disabled();
    let nnz = a.csr.nnz() as u64;
    let plan = clock.time("format.analyze", nnz, || {
        DaspPlan::analyze_traced_with(&a.csr, DaspParams::default(), &off, exec)
    });
    let m = clock.time("format.fill", nnz, || {
        plan.fill_traced_with(&a.csr, &off, exec)
    });
    let structural = clock.time("verify.structural", nnz, || verify_matrix(&m));
    let kernels = clock.time("verify.kernels", 1, || verify_kernels(&m));
    if !structural.is_clean() || !kernels.report.is_clean() {
        return false;
    }
    let mut bytes = Vec::new();
    if clock
        .time("format.write", nnz, || m.write_to(&mut bytes))
        .is_err()
    {
        return false;
    }
    let Ok(mut m) = clock.time("format.read", nnz, || {
        DaspMatrix::<f64>::read_from(&mut bytes.as_slice())
    }) else {
        return false;
    };
    let y = clock.time("kernel.spmv", nnz, || m.spmv_with(&a.x, &mut NoProbe, exec));
    let refreshed = clock.time("format.update", nnz, || {
        m.update_values_traced_with(&a.doubled, &off, exec)
    });
    if refreshed.is_err() || !matches(&y, &a.want, REL_F64) {
        return false;
    }
    // The refreshed values are exactly 2A, and scaling by two is exact,
    // so the refreshed matrix must return exactly 2y.
    let y2 = clock.time("kernel.spmv", nnz, || m.spmv_with(&a.x, &mut NoProbe, exec));
    let doubled: Vec<f64> = y.iter().map(|v| v * 2.0).collect();
    same_bits(&y2, &doubled)
}
