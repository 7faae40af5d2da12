//! Paired negative tests: every invariant the verifier checks has a
//! planted violation here that the validator must flag (and that the
//! kernels would mis-execute on). The positive direction — builder
//! output always verifies clean — anchors each case.

use std::sync::Arc;

use dasp_core::consts::DaspParams;
use dasp_core::format::DaspMatrix;
use dasp_core::sanitize::{Bounds, SanitizeProbe};
use dasp_core::DaspPlan;
use dasp_simt::{space, NoProbe, Probe, ShflEvent, ShflOp};
use dasp_sparse::{Coo, Csr};
use dasp_verify::{verify_full, verify_kernels, verify_matrix, verify_plan, Invariant};

/// A matrix with every category populated: long rows (1/2/3 groups
/// against MAX_LEN 8), a full + partial medium block, and all four short
/// sub-categories.
fn rich_csr() -> Csr<f64> {
    let mut lens: Vec<usize> = vec![9, 73, 137];
    lens.extend(std::iter::repeat_n(5, 11)); // medium: full block + partial
    for _ in 0..3 {
        lens.push(1);
        lens.push(3); // 1&3 pairs
    }
    lens.extend(std::iter::repeat_n(4, 2)); // pure len-4
    lens.extend(std::iter::repeat_n(2, 4)); // 2&2 pairs
    lens.push(1); // leftover single
    let cols = 160;
    let mut coo = Coo::new(lens.len(), cols);
    for (r, &len) in lens.iter().enumerate() {
        for j in 0..len {
            coo.push(r, j, 1.0 + (r + j) as f64 * 0.01);
        }
    }
    coo.to_csr()
}

fn params() -> DaspParams {
    DaspParams {
        max_len: 8,
        ..DaspParams::default()
    }
}

fn rich_matrix() -> DaspMatrix<f64> {
    DaspMatrix::with_params(&rich_csr(), params())
}

fn planned_matrix() -> DaspMatrix<f64> {
    let csr = rich_csr();
    DaspPlan::analyze(&csr, params()).fill(&csr)
}

fn flags(m: &DaspMatrix<f64>, inv: Invariant) -> u64 {
    let r = verify_matrix(m);
    assert!(
        !r.is_clean(),
        "expected a violation of {inv}, report was clean"
    );
    r.count(inv)
}

#[test]
fn rich_matrix_verifies_clean() {
    let m = planned_matrix();
    let r = verify_matrix(&m);
    assert!(r.is_clean(), "builder output must verify clean: {r}");
    assert!(r.checks_run > 50, "exhaustive pass must run many checks");
}

// ---- Layer 1: structural invariants ---------------------------------

#[test]
fn ptr_monotone_violation_is_flagged() {
    let mut m = rich_matrix();
    // A decreasing group_ptr step mis-sizes every subsequent long row.
    m.long.group_ptr[1] += 2;
    assert!(flags(&m, Invariant::PtrMonotone) > 0);
}

#[test]
fn ptr_stride_violation_is_flagged() {
    let mut m = rich_matrix();
    // Regular medium extents must step in whole 32-element blocks or the
    // MMA loop would read a partial block.
    let last = m.medium.rowblock_ptr.len() - 1;
    m.medium.rowblock_ptr[last] += 1;
    let r = verify_matrix(&m);
    assert!(r.count(Invariant::PtrMonotone) > 0 || r.count(Invariant::LenConsistency) > 0);
}

#[test]
fn len_consistency_violation_is_flagged() {
    let mut m = rich_matrix();
    // Long values must stay 64-element group aligned.
    m.long.vals.pop();
    assert!(flags(&m, Invariant::LenConsistency) > 0);
}

#[test]
fn short_offset_violation_is_flagged() {
    let mut m = rich_matrix();
    // The len-4 section's end, where 2&2 starts, points mid-region: the
    // 2&2 kernel would read misaligned packed rows.
    m.short.ends[1] += 4;
    assert!(flags(&m, Invariant::LenConsistency) > 0);
}

#[test]
fn payload_size_violation_is_flagged() {
    let mut m = rich_matrix();
    // An extra cid with no paired value desynchronizes the val/cid
    // streams for every later element.
    m.short.cids.push(0);
    assert!(flags(&m, Invariant::PayloadSize) > 0);
}

#[test]
fn cid_range_violation_is_flagged() {
    let mut m = rich_matrix();
    // An out-of-range cid is an out-of-bounds x gather in every kernel.
    m.long.cids[0] = m.cols as u32;
    assert!(flags(&m, Invariant::CidRange) > 0);
}

#[test]
fn row_range_violation_is_flagged() {
    let mut m = rich_matrix();
    // An out-of-range row id is an out-of-bounds y scatter.
    m.medium.rows[0] = m.rows as u32;
    assert!(flags(&m, Invariant::RowRange) > 0);
}

#[test]
fn row_partition_violation_is_flagged() {
    let mut m = rich_matrix();
    // The same row in two category slots double-writes y (lost update).
    m.medium.rows[0] = m.long.rows[0];
    assert!(flags(&m, Invariant::RowPartition) > 0);
}

#[test]
fn nnz_partition_violation_is_flagged() {
    let mut m = rich_matrix();
    // A wrong header nnz breaks the kernels' early-return gate and every
    // refresh length check.
    m.nnz += 1;
    assert!(flags(&m, Invariant::NnzPartition) > 0);
}

#[test]
fn exhaustive_report_collects_multiple_classes_in_one_pass() {
    let mut m = rich_matrix();
    m.long.cids[0] = m.cols as u32;
    m.medium.rows[0] = m.rows as u32;
    m.nnz += 1;
    let r = verify_matrix(&m);
    assert!(r.count(Invariant::CidRange) > 0);
    assert!(r.count(Invariant::RowRange) > 0);
    assert!(r.count(Invariant::NnzPartition) > 0);
}

// ---- Plan-level invariants ------------------------------------------
// The gather-map mutations need the plan's private fields; they live in
// dasp-core's `format::check` unit tests.

#[test]
fn plan_view_verifies_clean() {
    let csr = rich_csr();
    let plan = DaspPlan::analyze(&csr, params());
    let r = verify_plan(&plan);
    assert!(r.is_clean(), "analyzed plan must verify clean: {r}");
}

#[test]
fn plan_match_violation_is_flagged() {
    let mut m = planned_matrix();
    // The matrix pattern drifts from its attached plan: refresh would
    // scatter values into the wrong slots.
    m.long.cids[0] ^= 1;
    let r = verify_matrix(&m);
    assert!(r.count(Invariant::PlanMatch) > 0, "{r}");
}

#[test]
fn reorder_flag_violation_is_flagged() {
    let mut m = planned_matrix();
    // FLAG_REORDER must round-trip consistently between the plan and the
    // matrix params, or a cache hit would serve a differently-ordered plan.
    m.params.reorder = !m.params.reorder;
    let r = verify_matrix(&m);
    assert!(r.count(Invariant::ReorderFlag) > 0, "{r}");
}

// ---- Layer 2: kernel interpretation ---------------------------------

#[test]
fn interpretation_is_clean_and_covers_all_categories() {
    let m = planned_matrix();
    let outcome = verify_kernels(&m);
    assert!(outcome.report.is_clean(), "{}", outcome.report);
    for region in outcome.classes.expected_spmv_regions() {
        assert!(
            outcome.regions.contains(region),
            "shape class present but region {region} never interpreted; got {:?}",
            outcome.regions
        );
    }
    // Both SpMM paths (full panel + masked tail) must have run too.
    assert!(outcome.regions.iter().any(|r| r.starts_with("spmm.")));
}

#[test]
fn verify_full_composes_both_layers() {
    let m = planned_matrix();
    let r = verify_full(&m);
    assert!(r.is_clean(), "{r}");

    let mut bad = planned_matrix();
    bad.long.cids[0] = bad.cols as u32;
    let r = verify_full(&bad);
    assert!(r.count(Invariant::CidRange) > 0);
}

/// The verifier's probe: the sanitizer with x / y / staging bounds.
fn probe(x: usize, y: usize, aux: usize) -> SanitizeProbe<NoProbe> {
    SanitizeProbe::with_bounds(NoProbe, Bounds { x, y, aux })
}

#[test]
fn probe_flags_consumed_oob_shuffle() {
    let mut p = probe(16, 16, 4);
    p.san_shfl(&ShflEvent {
        op: ShflOp::Down,
        mask: 0xffff,
        oob_lanes: 0x10000,
        used_lanes: 0x10000,
    });
    assert!(p.report().count(Invariant::ShflMask) > 0);
    // Discarded OOB reads are the legal extraction pattern: no violation.
    let mut q = probe(16, 16, 4);
    q.san_shfl(&ShflEvent {
        op: ShflOp::SyncVar,
        mask: 0xffff,
        oob_lanes: 0x10000,
        used_lanes: 0,
    });
    assert!(q.report().is_clean());
}

#[test]
fn probe_flags_uninit_fragment_read() {
    let mut p = probe(16, 16, 4);
    p.warp_begin(0);
    p.san_frag_mma(0b10); // only (lane 0, reg 1) defined
    p.san_frag_read(0, 1);
    assert!(p.report().is_clean());
    p.san_frag_read(0, 0);
    assert!(p.report().count(Invariant::FragInit) > 0);
    // A cleared accumulator defines every slot.
    let mut q = probe(16, 16, 4);
    q.warp_begin(0);
    q.san_frag_clear();
    q.san_frag_read(31, 1);
    assert!(q.report().is_clean());
}

#[test]
fn probe_flags_out_of_bounds_accesses() {
    let mut p = probe(16, 8, 4);
    p.load_x(&[15], 8);
    p.san_write(space::Y, &[7]);
    assert!(p.report().is_clean());
    p.load_x(&[16], 8);
    assert!(p.report().count(Invariant::AccessBounds) > 0);
    p.san_write(space::Y, &[8]);
    assert_eq!(p.report().count(Invariant::AccessBounds), 2);
    p.san_write(space::AUX, &[4]);
    assert_eq!(p.report().count(Invariant::AccessBounds), 3);
}

#[test]
fn probe_flags_staging_read_before_write() {
    let mut p = probe(16, 8, 4);
    p.san_write(space::AUX, &[1]);
    p.san_read(space::AUX, &[1]);
    assert!(p.report().is_clean());
    p.san_read(space::AUX, &[2]);
    assert!(p.report().count(Invariant::UninitRead) > 0);
}

#[test]
fn probe_flags_two_warps_writing_one_y_element_as_a_race() {
    let mut p = probe(16, 8, 4);
    p.kernel_launch(1, 2);
    for w in 0..2 {
        p.warp_begin(w);
        p.san_region("inject.race");
        p.san_write(space::Y, &[5]);
        p.warp_end(w);
    }
    let r = p.report();
    assert_eq!(r.count(Invariant::Race), 1, "{r}");
    let v = &r.sites[0];
    assert_eq!(
        (v.invariant, v.index, v.warp),
        (Invariant::Race, Some(5), Some(1))
    );
    assert_eq!(r.per_region["inject.race"][Invariant::Race], 1);
}

#[test]
fn empty_matrix_verifies_clean() {
    let coo = Coo::<f64>::new(4, 4);
    let m = DaspMatrix::with_params(&coo.to_csr(), DaspParams::default());
    let r = verify_full(&m);
    assert!(r.is_clean(), "{r}");
}

#[test]
fn shared_plan_arc_verifies_through_the_matrix() {
    let csr = rich_csr();
    let plan: Arc<DaspPlan> = DaspPlan::analyze(&csr, params());
    let m = plan.fill(&csr);
    assert!(verify_matrix(&m).is_clean());
}
