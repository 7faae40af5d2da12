//! Property: instrumentation is observation only. Running a baseline under
//! the full observability stack (counting probe + warp profiler + enabled
//! tracer) must produce a bit-identical `y` to the bare NoProbe run, and
//! the emitted span must carry the run's counter delta.

use dasp_baselines::Baseline;
use dasp_simt::{CountingProbe, Executor, NoProbe};
use dasp_sparse::{Coo, Csr};
use dasp_trace::{Tracer, WarpProfiler};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, density_pct: u32, seed: u64) -> Csr<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, cols);
    for r in 0..rows {
        let base = (cols as u32 * density_pct / 100).max(1) as usize;
        let len = rng.gen_range(0..=base.min(cols));
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

/// The instrumented baselines the issue calls out (`csr5`, the vendor-CSR
/// stand-in) plus one more for coverage.
const METHODS: [&str; 3] = ["csr5", "cusparse-csr", "lsrb-csr"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn instrumented_baselines_are_bit_identical(
        rows in 1usize..100,
        cols in 1usize..160,
        density in 1u32..25,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, cols, density, seed);
        let mut rng = SmallRng::seed_from_u64(!seed);
        let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for name in METHODS {
            let m = Baseline::build(name, &csr).unwrap();
            let bare = m.spmv(&x, &mut NoProbe);

            let tracer = Tracer::new();
            let mut profiler = WarpProfiler::new(CountingProbe::a100());
            let inst = m.spmv_traced_with(&x, &mut profiler, &tracer, &Executor::from_env());
            prop_assert_eq!(&inst, &bare, "{} must be unchanged by instrumentation", name);

            // The run left exactly one span, named for the method and
            // carrying the full counter delta.
            let trace = tracer.take_trace();
            prop_assert!(trace.check_balanced().is_ok());
            let span_name = format!("spmv.kernel.{name}");
            let spans = trace.find_all(&span_name);
            prop_assert_eq!(spans.len(), 1, "{} span recorded once", &span_name);
            let (probe, _profile) = profiler.into_parts();
            prop_assert_eq!(spans[0].stats.unwrap(), probe.stats());
        }
    }

    #[test]
    fn disabled_tracer_baseline_counts_match_plain(
        rows in 1usize..80,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, 120, 12, seed);
        let x: Vec<f64> = (0..120).map(|i| (i % 7) as f64 - 3.0).collect();
        for name in METHODS {
            let m = Baseline::build(name, &csr).unwrap();
            let mut plain = CountingProbe::a100();
            let y_plain = m.spmv(&x, &mut plain);
            let mut traced = CountingProbe::a100();
            let y_traced = m.spmv_traced_with(&x, &mut traced, &Tracer::disabled(), &Executor::from_env());
            prop_assert_eq!(y_plain, y_traced);
            prop_assert_eq!(plain.stats(), traced.stats(), "{} disabled-tracer path adds counts", name);
        }
    }
}
