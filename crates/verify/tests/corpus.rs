//! The CI `verify` gate: every matrix in the bench corpus must pass both
//! verification layers — the structural plan/format validator and the
//! kernel interpretation under the bounded sanitizer — at default
//! parameters and with reordering on. A failure here means a converter
//! change broke a kernel invariant before any runtime test could notice.

use dasp_core::consts::DaspParams;
use dasp_core::DaspPlan;
use dasp_verify::{verify_full, verify_kernels};

#[test]
fn bench_corpus_verifies_clean() {
    let spec = dasp_matgen::CorpusSpec {
        size_scale: 1,
        seeds: 1,
    };
    let mut checks = 0u64;
    for entry in dasp_matgen::corpus_with(spec) {
        for reorder in [false, true] {
            let params = DaspParams {
                reorder,
                ..DaspParams::default()
            };
            let m = DaspPlan::analyze(&entry.matrix, params).fill(&entry.matrix);
            let report = verify_full(&m);
            assert!(
                report.is_clean(),
                "{} (reorder={reorder}): {report}",
                entry.name
            );
            checks += report.checks_run;
        }
    }
    assert!(checks > 10_000, "corpus sweep ran only {checks} checks");
}

#[test]
fn bench_suite_matrices_cover_all_interpreted_regions() {
    // The observatory suite matrices must, between them, drive the
    // interpreter through every kernel region it knows about.
    let mut regions = std::collections::BTreeSet::new();
    for (_, csr) in dasp_bench::suite_matrices() {
        let m = DaspPlan::analyze(&csr, DaspParams::default()).fill(&csr);
        let outcome = verify_kernels(&m);
        assert!(outcome.report.is_clean(), "{}", outcome.report);
        regions.extend(outcome.regions.iter().copied());
    }
    for r in ["dasp.long.phase1", "dasp.long.phase2", "dasp.medium"] {
        assert!(regions.contains(r), "suite never interpreted {r}");
    }
    assert!(
        regions.iter().any(|r| r.starts_with("dasp.short")),
        "suite never interpreted a short-category kernel"
    );
    assert!(
        regions.iter().any(|r| r.starts_with("spmm.")),
        "suite never interpreted an SpMM kernel"
    );
}
