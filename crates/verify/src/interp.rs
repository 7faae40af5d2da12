//! Layer 2: kernel interpretation on shape representatives.
//!
//! The DASP kernels' control flow and access patterns are *data
//! independent*: which elements are loaded, which lanes shuffle, and
//! which fragment slots an MMA touches depend only on the structural
//! metadata (group counts, block fills, piecing sub-categories, tail
//! masks) — never on the floating-point values. So instead of sanitizing
//! every input at runtime, each kernel body is executed once per
//! **shape-equivalence class** under [`SeqExecutor`], on a tiny synthetic
//! representative whose built format exercises exactly the
//! category/mask/tail configurations the input occupies. The probe is
//! the compute sanitizer itself — [`SanitizeProbe`] with the
//! representative's x / y / staging [`Bounds`] — so the verifier runs the
//! same race, mask, fragment-init, uninit-read and bounds checks as the
//! `DASP_SANITIZE` fleet, and a clean run proves them for every input in
//! those classes whose plan passed the Layer-1 structural checker.
//!
//! [`SeqExecutor`]: dasp_simt::SeqExecutor

use std::collections::BTreeSet;

use dasp_core::consts::DaspParams;
use dasp_core::format::{DaspMatrix, Piecing, NO_ROW};
use dasp_core::sanitize::{Bounds, Report, SanitizeProbe};
use dasp_fp16::Scalar;
use dasp_simt::{Executor, NoProbe};
use dasp_sparse::{Coo, DenseMat};

/// RHS columns per MMA panel (mirrors the kernels' `PANEL_WIDTH`).
const PANEL_WIDTH: usize = 8;

/// Presence/tail configuration of one short sub-category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShortClass {
    /// At least one full warp of slots.
    pub full_warp: bool,
    /// A warp with padding slots (`NO_ROW` in its perm).
    pub partial_warp: bool,
}

impl ShortClass {
    fn present(&self) -> bool {
        self.full_warp || self.partial_warp
    }
}

/// The shape-equivalence classes a matrix occupies: which kernel control
/// -flow configurations its structure exercises. Two matrices with equal
/// `ShapeClasses` drive every kernel through identical branch/mask/tail
/// behavior (only trip counts and lane values differ).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShapeClasses {
    /// Long rows by clamped group count: index 0 = 1 group, 1 = 2 groups,
    /// 2 = 3+ groups (the loop shape is identical beyond 3).
    pub long_groups: [bool; 3],
    /// At least one full 8-row medium block.
    pub med_full_block: bool,
    /// A trailing medium block with fewer than 8 live rows.
    pub med_partial_block: bool,
    /// Regular (MMA) medium elements present.
    pub med_has_reg: bool,
    /// Irregular (per-row remainder) medium elements present.
    pub med_has_irreg: bool,
    /// Configuration of each MMA short section, indexed like
    /// [`Piecing::ALL`] (1&3, length-4, 2&2).
    pub short: [ShortClass; 3],
    /// Leftover singletons present.
    pub s1: bool,
}

impl ShapeClasses {
    /// Extracts the classes a built matrix occupies.
    pub fn of<S: Scalar>(m: &DaspMatrix<S>) -> ShapeClasses {
        let mut c = ShapeClasses::default();
        for w in m.long.group_ptr.windows(2) {
            let g = w[1].saturating_sub(w[0]);
            if g > 0 {
                c.long_groups[g.min(3) - 1] = true;
            }
        }
        let med_rows = m.medium.rows.len();
        c.med_full_block = med_rows >= 8;
        c.med_partial_block = !med_rows.is_multiple_of(8);
        c.med_has_reg = !m.medium.reg_cid.is_empty();
        c.med_has_irreg = !m.medium.irreg_cid.is_empty();
        for (piecing, class) in Piecing::ALL.into_iter().zip(&mut c.short) {
            for w in piecing.perm(&m.short).chunks(32) {
                if w.contains(&NO_ROW) {
                    class.partial_warp = true;
                } else {
                    class.full_warp = true;
                }
            }
        }
        c.s1 = m.short.n1 > 0;
        c
    }

    /// Kernel regions a clean SpMV interpretation of these classes must
    /// have visited (coverage evidence for the proof).
    pub fn expected_spmv_regions(&self) -> Vec<&'static str> {
        let mut r = Vec::new();
        if self.long_groups.iter().any(|&b| b) {
            r.push("dasp.long.phase1");
            r.push("dasp.long.phase2");
        }
        if self.med_full_block || self.med_partial_block {
            r.push("dasp.medium");
        }
        for (piecing, class) in Piecing::ALL.into_iter().zip(&self.short) {
            if class.present() {
                r.push(piecing.spmv_region());
            }
        }
        if self.s1 {
            r.push("dasp.short1");
        }
        r
    }
}

/// Builds the synthetic representative for a class set: the smallest CSR
/// whose conversion under `rep_params` occupies exactly (at least) the
/// given classes. Row lengths are chosen against `MAX_LEN = 8`, so long
/// rows stay tiny (9/73/137 elements for 1/2/3-group classes).
fn representative(classes: &ShapeClasses, params: &DaspParams) -> (Coo<f64>, DaspParams) {
    let rep_params = DaspParams {
        max_len: 8,
        threshold: params.threshold,
        short_piecing: params.short_piecing,
        reorder: false,
    };
    let mut lens: Vec<usize> = Vec::new();
    // Long: one row per occupied group class; groups hold 64 elements.
    for (i, &on) in classes.long_groups.iter().enumerate() {
        if on {
            lens.push(64 * i + 9);
        }
    }
    // Medium (5..=8 against max_len 8): length-5 rows leave a 1-element
    // irregular remainder after their full 4-chunk; length-8 rows are two
    // full chunks (regular-only).
    let med_len = if classes.med_has_irreg { 5 } else { 8 };
    if classes.med_full_block {
        lens.extend(std::iter::repeat_n(med_len, 8));
    }
    if classes.med_partial_block {
        lens.extend(std::iter::repeat_n(med_len, 3));
    }
    // Short sections: one row per piece of each packed row.
    for (piecing, &class) in Piecing::ALL.into_iter().zip(&classes.short) {
        for _ in 0..pair_count(class, piecing.rows_per_warp()) {
            lens.extend(piecing.pieces().iter().map(|&(_, len)| len));
        }
    }
    if classes.s1 {
        // A lone length-1 row with no length-3 partner lands in singles
        // when piecing is on (and in the len-4 category when off — which
        // the extraction of the input's classes already accounts for).
        lens.push(1);
    }

    let cols = lens.iter().copied().max().unwrap_or(1).max(16);
    let mut coo = Coo::new(lens.len().max(1), cols);
    for (r, &len) in lens.iter().enumerate() {
        for j in 0..len {
            coo.push(r, j, 1.0 + (r * 31 + j) as f64 * 0.001);
        }
    }
    (coo, rep_params)
}

/// How many packed rows (pairs or rows) reproduce a section's warp
/// configuration: a full warp needs `per_warp` units, a padded tail warp
/// needs one spare unit, both need `per_warp + 1`.
fn pair_count(c: ShortClass, per_warp: usize) -> usize {
    match (c.full_warp, c.partial_warp) {
        (true, true) => per_warp + 1,
        (true, false) => per_warp,
        (false, true) => 1,
        (false, false) => 0,
    }
}

/// Outcome of one kernel interpretation: the merged report plus the
/// kernel regions actually visited (coverage evidence).
#[derive(Debug)]
pub struct InterpOutcome {
    /// Violations found across all representative runs.
    pub report: Report,
    /// Kernel regions the interpretation exercised: the report's
    /// per-region keys.
    pub regions: BTreeSet<&'static str>,
    /// The shape classes the input occupies.
    pub classes: ShapeClasses,
}

/// Interprets every kernel configuration the matrix's shape classes
/// exercise: builds the synthetic representative, runs SpMV plus
/// full-panel and masked-tail SpMM under the sequential executor with a
/// bounded [`SanitizeProbe`], and returns the merged findings.
pub fn verify_kernels<S: Scalar>(m: &DaspMatrix<S>) -> InterpOutcome {
    let classes = ShapeClasses::of(m);
    let (coo, rep_params) = representative(&classes, &m.params);
    let csr = coo.to_csr();
    let rep = DaspMatrix::<f64>::with_params(&csr, rep_params);
    let exec = Executor::seq();
    let x = vec![1.0f64; rep.cols];

    // SpMV: staging is one slot per long group.
    let mut probe = SanitizeProbe::with_bounds(
        NoProbe,
        Bounds {
            x: rep.cols,
            y: rep.rows,
            aux: rep.long.num_groups(),
        },
    );
    let _y = rep.spmv_with(&x, &mut probe, &exec);
    let (_, mut report) = probe.into_parts();

    // SpMM, one full panel (width 8) and a masked tail panel (width 3):
    // staging is group x panel x lane-column resident.
    for width in [PANEL_WIDTH, 3] {
        let b = DenseMat::from_columns(&vec![vec![1.0f64; rep.cols]; width]);
        let panels = width.div_ceil(PANEL_WIDTH);
        // SpMM's B gathers and Y scatters report *linear* indices into
        // their dense matrices (`DenseMat::lin_index`), so the bounds are
        // the full data lengths.
        let bounds = Bounds {
            x: rep.cols * width,
            y: rep.rows * width,
            aux: rep.long.num_groups() * panels * PANEL_WIDTH,
        };
        let mut probe = SanitizeProbe::with_bounds(NoProbe, bounds);
        let _y = rep.spmm_with(&b, &mut probe, &exec);
        report.merge(probe.report());
    }

    InterpOutcome {
        regions: report.per_region.keys().copied().collect(),
        report,
        classes,
    }
}
