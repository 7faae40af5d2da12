//! Observability acceptance tests: span coverage, exact delta attribution,
//! and the zero-cost guarantee of the disabled-tracer path.

use dasp_core::format::{Piecing, NO_ROW};
use dasp_core::DaspMatrix;
use dasp_simt::{CountingProbe, Executor, KernelStats, NoProbe, ShardableProbe};
use dasp_sparse::{Coo, Csr, DenseMat};
use dasp_trace::{chrome_trace_json, validate_json, Tracer, WarpProfiler};

/// `y = A x` through the SpMV funnel with `tracer`, under the
/// process-default executor.
fn spmv_traced<P: ShardableProbe>(
    d: &DaspMatrix<f64>,
    x: &[f64],
    probe: &mut P,
    tracer: &Tracer,
) -> Vec<f64> {
    let mut y = vec![0.0; d.rows];
    d.spmv_into(x, &mut y, probe, tracer, &Executor::from_env());
    y
}

/// A matrix exercising every category kernel: long rows (>256 nnz), medium
/// rows, and short rows of every length 1..=4 (plus empties), in counts
/// that leave work for all four short sub-kernels and a padded last warp
/// in each of the three MMA short sections.
fn all_category_matrix() -> Csr<f64> {
    let mut coo = Coo::<f64>::new(224, 700);
    let mut push_row = |r: usize, len: usize| {
        for k in 0..len {
            // Stride 3 is coprime with 700, so columns stay distinct for
            // any row length up to 700 (duplicates would merge and shrink
            // the long rows below the 256-nnz threshold).
            coo.push(
                r,
                (r * 17 + k * 3) % 700,
                0.01 * (r + 1) as f64 + 0.001 * k as f64,
            );
        }
    };
    // Long: two rows well past the 256 threshold.
    push_row(0, 300);
    push_row(1, 420);
    // Medium: a spread of lengths in 5..=256.
    for r in 2..40 {
        push_row(r, 5 + (r * 13) % 200);
    }
    // Short: lengths 0..=4 repeated, with an excess of singletons so the
    // short1 leftover kernel has rows after short13 pairing.
    for r in 40..200 {
        push_row(r, r % 5);
    }
    for r in 200..220 {
        push_row(r, 1);
    }
    // One more 1&3 pair, length-4 row and 2&2 pair than whole warps hold.
    for (r, len) in (220..224).zip([3, 4, 2, 2]) {
        push_row(r, len);
    }
    coo.to_csr()
}

fn x_for(csr: &Csr<f64>) -> Vec<f64> {
    (0..csr.cols)
        .map(|i| ((i % 23) as f64 - 11.0) * 0.17)
        .collect()
}

const KERNEL_SPANS: [&str; 6] = [
    "spmv.kernel.long",
    "spmv.kernel.medium",
    "spmv.kernel.short13",
    "spmv.kernel.short4",
    "spmv.kernel.short22",
    "spmv.kernel.short1",
];

const PREPROCESS_SPANS: [&str; 5] = [
    "preprocess.categorize",
    "preprocess.sort",
    "preprocess.build.long",
    "preprocess.build.medium",
    "preprocess.build.short",
];

/// The headline acceptance check: the traced run covers all six kernel
/// launches and the preprocessing phases, the span tree is balanced, and
/// the per-span counter deltas sum *exactly* to the flat run totals.
#[test]
fn trace_covers_kernels_and_phases_with_exact_deltas() {
    let csr = all_category_matrix();
    let x = x_for(&csr);

    // Traced run.
    let tracer = Tracer::new();
    let d = DaspMatrix::from_csr_traced(&csr, &tracer);
    let mut probe = CountingProbe::a100();
    let y_traced = spmv_traced(&d, &x, &mut probe, &tracer);
    let traced_stats = probe.stats();
    let trace = tracer.take_trace();

    // Flat (untraced) run for the ground-truth totals.
    let d_flat = DaspMatrix::from_csr(&csr);
    let mut flat_probe = CountingProbe::a100();
    let y_flat = d_flat.spmv(&x, &mut flat_probe);
    let flat_stats = flat_probe.stats();

    assert_eq!(y_traced, y_flat, "tracing must not change the result");
    assert_eq!(traced_stats, flat_stats, "tracing must not change counters");

    trace.check_balanced().expect("span tree is balanced");

    // All six kernel spans and all preprocessing phases are present, each
    // exactly once, parented correctly.
    let spmv_root = trace.find("spmv").expect("spmv root span");
    assert!(spmv_root.parent.is_none());
    for name in KERNEL_SPANS {
        let spans = trace.find_all(name);
        assert_eq!(spans.len(), 1, "{name} recorded once");
        assert_eq!(spans[0].parent, Some(spmv_root.id), "{name} under spmv");
        assert!(spans[0].stats.is_some(), "{name} carries a delta");
    }
    let pre_root = trace.find("preprocess").expect("preprocess root span");
    for name in PREPROCESS_SPANS {
        let spans = trace.find_all(name);
        assert_eq!(spans.len(), 1, "{name} recorded once");
        assert_eq!(
            spans[0].parent,
            Some(pre_root.id),
            "{name} under preprocess"
        );
    }

    // Exact attribution: the six kernel deltas sum to the root span's
    // delta, which in turn equals the whole counted run.
    let child_sum = trace.stats_sum("spmv.kernel.");
    let root_stats = spmv_root.stats.expect("root carries the run total");
    assert_eq!(child_sum, root_stats, "child deltas sum to the root delta");
    assert_eq!(root_stats, flat_stats, "root delta equals the flat run");

    // The export is real Chrome Trace Event Format JSON.
    let json = chrome_trace_json(&trace);
    validate_json(&json).expect("chrome trace is valid JSON");
    assert!(json.contains("\"traceEvents\""));
    for name in KERNEL_SPANS.iter().chain(PREPROCESS_SPANS.iter()) {
        assert!(json.contains(name), "{name} present in the export");
    }
}

/// A `KernelStats` from its 17 counters, in declaration order.
const fn stats(fields: [u64; 17]) -> KernelStats {
    let [bytes_val, bytes_idx, bytes_meta, bytes_y, x_requests, x_hits, x_misses, bytes_x_miss, x_sectors, mma_ops, fma_ops, shfl_ops, warps, blocks, launches, divergent_regions, inactive_lanes] =
        fields;
    KernelStats {
        bytes_val,
        bytes_idx,
        bytes_meta,
        bytes_y,
        x_requests,
        x_hits,
        x_misses,
        bytes_x_miss,
        x_sectors,
        mma_ops,
        fma_ops,
        shfl_ops,
        warps,
        blocks,
        launches,
        divergent_regions,
        inactive_lanes,
    }
}

/// Every `spmv.kernel.*` span's A100 counter delta for
/// [`all_category_matrix`], fields in `KernelStats` declaration order.
/// They pin which sub-kernel owns each byte, issue and launch, which the
/// workload totals alone do not.
const SPMV_SPAN_GOLDEN: [(&str, KernelStats); 6] = [
    (
        "spmv.kernel.long",
        stats([
            6144, 3072, 112, 112, 768, 724, 44, 5632, 352, 24, 0, 70, 12, 3, 1, 2, 52,
        ]),
    ),
    (
        "spmv.kernel.medium",
        stats([
            29960, 14980, 344, 304, 3745, 3745, 0, 0, 3029, 100, 545, 10, 8, 2, 1, 5, 122,
        ]),
    ),
    (
        "spmv.kernel.short13",
        stats([
            1536, 768, 0, 528, 192, 192, 0, 0, 117, 12, 0, 24, 8, 2, 1, 1, 30,
        ]),
    ),
    (
        "spmv.kernel.short4",
        stats([
            2048, 1024, 0, 264, 256, 256, 0, 0, 108, 8, 0, 16, 0, 0, 0, 1, 31,
        ]),
    ),
    (
        "spmv.kernel.short22",
        stats([
            1024, 512, 0, 272, 128, 128, 0, 0, 62, 8, 0, 16, 0, 0, 0, 1, 30,
        ]),
    ),
    (
        "spmv.kernel.short1",
        stats([152, 76, 0, 152, 19, 19, 0, 0, 19, 0, 19, 0, 0, 0, 0, 1, 13]),
    ),
];

/// The `spmm.short` span's delta at width 13 (one full and one partial
/// panel), recorded alongside [`SPMV_SPAN_GOLDEN`].
const SPMM_SHORT_GOLDEN: KernelStats = stats([
    4760, 2380, 0, 15808, 7735, 7735, 0, 0, 2380, 448, 247, 112, 8, 2, 1, 7, 195,
]);

/// Per-span counters are pinned exactly: a change that moved traffic or
/// launch accounting between sub-kernels, or between the MMA sections,
/// fails here even where every workload total still matches.
#[test]
fn per_span_counters_match_the_golden_record() {
    let csr = all_category_matrix();
    let x = x_for(&csr);
    let d = DaspMatrix::from_csr(&csr);
    for piecing in Piecing::ALL {
        let perm = piecing.perm(&d.short);
        assert!(
            perm.chunks(32).any(|w| w.contains(&NO_ROW)),
            "{piecing:?} has a padded warp"
        );
    }

    let tracer = Tracer::new();
    let mut y = vec![0.0; d.rows];
    d.spmv_into(
        &x,
        &mut y,
        &mut CountingProbe::a100(),
        &tracer,
        &Executor::seq(),
    );
    let trace = tracer.take_trace();
    for (name, want) in SPMV_SPAN_GOLDEN {
        assert_eq!(trace.find(name).and_then(|s| s.stats), Some(want), "{name}");
    }

    let cols: Vec<Vec<f64>> = (0..13)
        .map(|j| x.iter().map(|v| v * (j as f64 + 1.0)).collect())
        .collect();
    let b = DenseMat::from_columns(&cols);
    let mut yb = DenseMat::zeros(d.rows, 13);
    let tracer = Tracer::new();
    d.spmm_into(
        &b,
        &mut yb,
        &mut CountingProbe::a100(),
        &tracer,
        &Executor::seq(),
    );
    let trace = tracer.take_trace();
    let short = trace.find("spmm.short").and_then(|s| s.stats);
    assert_eq!(short, Some(SPMM_SHORT_GOLDEN));
}

/// The zero-cost guarantee: running through the traced entry points with a
/// disabled tracer counts exactly the same instructions and bytes as the
/// plain path, emits no spans, and produces bit-identical `y`.
#[test]
fn disabled_tracer_adds_zero_counted_instructions() {
    let csr = all_category_matrix();
    let x = x_for(&csr);
    let disabled = Tracer::disabled();

    let mut plain_probe = CountingProbe::a100();
    let y_plain = DaspMatrix::from_csr(&csr).spmv(&x, &mut plain_probe);

    let d = DaspMatrix::from_csr_traced(&csr, &disabled);
    let mut probe = CountingProbe::a100();
    let y = spmv_traced(&d, &x, &mut probe, &disabled);

    assert_eq!(y, y_plain);
    assert_eq!(probe.stats(), plain_probe.stats());
    assert!(
        disabled.take_trace().is_empty(),
        "disabled tracer records nothing"
    );
}

/// Full instrumentation (counting probe + warp profiler + enabled tracer)
/// must still produce the NoProbe result bit for bit.
#[test]
fn fully_instrumented_run_is_bit_identical_to_noprobe() {
    let csr = all_category_matrix();
    let x = x_for(&csr);
    let d = DaspMatrix::from_csr(&csr);
    let y_bare = d.spmv(&x, &mut NoProbe);

    let tracer = Tracer::new();
    let mut profiler = WarpProfiler::new(CountingProbe::a100());
    let y_inst = spmv_traced(&d, &x, &mut profiler, &tracer);

    assert_eq!(y_inst, y_bare);
    let (_, profile) = profiler.into_parts();
    assert!(!profile.is_empty(), "kernels reported warp boundaries");
    // Every category contributes warps; the imbalance metric is defined.
    assert!(profile.nnz_imbalance() >= 1.0);
}

mod properties {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_mixed(rows: usize, cols: usize, seed: u64) -> Csr<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coo = Coo::new(rows, cols);
        for r in 0..rows {
            let len = match rng.gen_range(0..10) {
                0 => 0,
                1..=5 => rng.gen_range(1..=4usize),
                6..=8 => rng.gen_range(5..=120),
                _ => rng.gen_range(257..=400),
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Property: full instrumentation never changes `y` or the
        /// counters, and always leaves a balanced span tree whose kernel
        /// deltas sum to the run total.
        #[test]
        fn instrumented_dasp_is_bit_identical(
            rows in 1usize..140,
            cols in 1usize..450,
            seed in any::<u64>(),
        ) {
            let csr = random_mixed(rows, cols, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xD5);
            let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();

            let d = DaspMatrix::from_csr(&csr);
            let bare = d.spmv(&x, &mut NoProbe);

            let tracer = Tracer::new();
            let mut profiler = WarpProfiler::new(CountingProbe::a100());
            let inst = spmv_traced(&d, &x, &mut profiler, &tracer);
            prop_assert_eq!(&inst, &bare);

            let trace = tracer.take_trace();
            prop_assert!(trace.check_balanced().is_ok());
            let root = trace.find("spmv").expect("root span");
            let (probe, _) = profiler.into_parts();
            if csr.nnz() == 0 {
                // Early return: no kernels, no delta on the root.
                prop_assert_eq!(trace.stats_sum("spmv.kernel."), KernelStats::default());
            } else {
                prop_assert_eq!(trace.stats_sum("spmv.kernel."), root.stats.unwrap());
                prop_assert_eq!(root.stats.unwrap(), probe.stats());
            }
        }
    }
}

/// An empty matrix still traces cleanly (root span only, zero deltas).
#[test]
fn empty_matrix_traces_cleanly() {
    let csr = Csr::<f64>::empty(8, 8);
    let tracer = Tracer::new();
    let d = DaspMatrix::from_csr_traced(&csr, &tracer);
    let mut probe = CountingProbe::a100();
    let y = spmv_traced(&d, &[0.0; 8], &mut probe, &tracer);
    assert_eq!(y, vec![0.0; 8]);
    let trace = tracer.take_trace();
    trace.check_balanced().expect("balanced");
    assert!(trace.find("spmv").is_some());
    assert_eq!(trace.stats_sum("spmv.kernel."), KernelStats::default());
}
