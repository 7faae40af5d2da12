//! Layer 2: the abstract warp-program interpreter.
//!
//! The DASP kernels' control flow and access patterns are *data
//! independent*: which elements are loaded, which lanes shuffle, and
//! which fragment slots an MMA touches depend only on the structural
//! metadata (group counts, block fills, piecing sub-categories, tail
//! masks) — never on the floating-point values. So instead of sanitizing
//! every input at runtime, each kernel body is executed once per
//! **shape-equivalence class** under [`SeqExecutor`] with a
//! [`VerifyProbe`] attached: a tiny synthetic representative whose built
//! format exercises exactly the category/mask/tail configurations the
//! input occupies. A clean run proves — for every input in those classes
//! whose plan passed the Layer-1 structural validator — that shuffle
//! masks are well-formed, MMA fragment slots are written before read, and
//! every x/y/staging access stays inside its validated bound.
//!
//! [`SeqExecutor`]: dasp_simt::SeqExecutor

use std::collections::BTreeSet;

use dasp_core::consts::DaspParams;
use dasp_core::format::{DaspMatrix, NO_ROW};
use dasp_fp16::Scalar;
use dasp_simt::{space, Executor, Probe, ShardableProbe, ShflEvent};
use dasp_sparse::{Coo, DenseMat};

use crate::{Invariant, VerifyReport, Violation};

/// RHS columns per MMA panel (mirrors the kernels' `PANEL_WIDTH`).
const PANEL_WIDTH: usize = 8;

/// A probe that turns the kernels' `san_*` instrumentation into verifier
/// violations: out-of-bounds x/y/staging accesses, consumed out-of-mask
/// shuffles, uninitialized fragment reads, and staging reads no phase
/// wrote. Performance counters are discarded — the probe's only output is
/// its [`VerifyReport`].
#[derive(Debug)]
pub struct VerifyProbe {
    report: VerifyReport,
    /// Kernel regions visited (clean-run coverage evidence).
    regions: BTreeSet<&'static str>,
    region: &'static str,
    /// Bound for x-vector gathers.
    x_bound: usize,
    /// Bound for `space::Y` scatters.
    y_bound: usize,
    /// Bound for `space::AUX` staging accesses.
    aux_bound: usize,
    /// Written-bit per AUX element (reads must follow a write).
    aux_written: Vec<u64>,
    /// Defined-slot mask over the current warp's accumulator fragment
    /// (32 lanes x 2 regs; bit `lane*2 + reg`).
    frag: u64,
}

impl VerifyProbe {
    /// A probe enforcing the given x / y / staging bounds.
    pub fn new(x_bound: usize, y_bound: usize, aux_bound: usize) -> VerifyProbe {
        VerifyProbe {
            report: VerifyReport::new(),
            regions: BTreeSet::new(),
            region: "<entry>",
            x_bound,
            y_bound,
            aux_bound,
            aux_written: vec![0u64; aux_bound.div_ceil(64)],
            frag: 0,
        }
    }

    /// The accumulated report.
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// Consumes the probe, returning its report and the set of kernel
    /// regions it observed.
    pub fn finish(self) -> (VerifyReport, BTreeSet<&'static str>) {
        (self.report, self.regions)
    }

    fn violate(&mut self, invariant: Invariant, detail: String) {
        let region = self.region;
        self.report.record(Violation {
            invariant,
            site: region.to_string(),
            detail,
        });
    }

    fn space_name(space: u32) -> &'static str {
        match space {
            space::Y => "y",
            space::AUX => "staging",
            _ => "space?",
        }
    }

    fn bound_of(&self, space: u32) -> usize {
        match space {
            space::Y => self.y_bound,
            space::AUX => self.aux_bound,
            _ => 0,
        }
    }
}

impl Probe for VerifyProbe {
    fn kernel_launch(&mut self, _blocks: u64, _warps_per_block: u64) {}
    fn load_val(&mut self, _elems: u64, _bytes_per: u64) {}
    fn load_idx(&mut self, _elems: u64, _bytes_per: u64) {}
    fn load_meta(&mut self, _elems: u64, _bytes_per: u64) {}
    fn store_y(&mut self, _elems: u64, _bytes_per: u64) {}
    fn mma(&mut self) {}
    fn fma(&mut self, _n: u64) {}
    fn shfl(&mut self, _n: u64) {}

    fn load_x(&mut self, index: usize, _bytes_per: u64) {
        self.report.note_check();
        if index >= self.x_bound {
            let bound = self.x_bound;
            self.violate(
                Invariant::AccessBounds,
                format!("x gather at {index} >= cols {bound}"),
            );
        }
    }

    fn warp_begin(&mut self, _warp_id: usize) {
        self.frag = 0;
    }

    fn sanitizing(&self) -> bool {
        true
    }

    fn san_region(&mut self, region: &'static str) {
        self.region = region;
        self.regions.insert(region);
    }

    fn san_write(&mut self, space: u32, index: usize) {
        self.report.note_check();
        let bound = self.bound_of(space);
        if index >= bound {
            self.violate(
                Invariant::AccessBounds,
                format!(
                    "{} write at {index} >= bound {bound}",
                    Self::space_name(space)
                ),
            );
            return;
        }
        if space == space::AUX {
            self.aux_written[index / 64] |= 1 << (index % 64);
        }
    }

    fn san_read(&mut self, space: u32, index: usize) {
        self.report.note_check();
        let bound = self.bound_of(space);
        if index >= bound {
            self.violate(
                Invariant::AccessBounds,
                format!(
                    "{} read at {index} >= bound {bound}",
                    Self::space_name(space)
                ),
            );
            return;
        }
        if space == space::AUX && self.aux_written[index / 64] & (1 << (index % 64)) == 0 {
            self.violate(
                Invariant::StagingInit,
                format!("staging read at {index} before any write"),
            );
        }
    }

    fn san_shfl(&mut self, event: &ShflEvent) {
        self.report.note_check();
        if event.used_lanes != 0 {
            let (op, mask, lanes) = (event.op, event.mask, event.used_lanes);
            self.violate(
                Invariant::ShflMask,
                format!(
                    "{} consumed out-of-mask lanes {lanes:#010x} (mask {mask:#010x})",
                    op.name()
                ),
            );
        }
        // Discarded out-of-mask reads are the legal extraction pattern —
        // the hardware keeps the lane's own value and a predicate drops it.
    }

    fn san_frag_clear(&mut self) {
        self.frag = u64::MAX;
    }

    fn san_frag_mma(&mut self, touched: u64) {
        self.frag |= touched;
    }

    fn san_frag_read(&mut self, lane: usize, reg: usize) {
        self.report.note_check();
        let bit = lane * 2 + reg;
        if bit < 64 && self.frag & (1u64 << bit) == 0 {
            self.violate(
                Invariant::FragInit,
                format!("accumulator slot (lane {lane}, reg {reg}) read with no MMA touch"),
            );
        }
    }
}

impl ShardableProbe for VerifyProbe {
    fn fork_shard(&self) -> Self {
        VerifyProbe {
            report: VerifyReport::new(),
            regions: BTreeSet::new(),
            region: self.region,
            x_bound: self.x_bound,
            y_bound: self.y_bound,
            aux_bound: self.aux_bound,
            // Shards inherit pre-fork staging writes (phase barriers flow
            // through the merge, mirroring the sanitizer's epoch fold).
            aux_written: self.aux_written.clone(),
            frag: 0,
        }
    }

    fn merge_shard(&mut self, shard: Self) {
        self.report.merge(&shard.report);
        self.regions.extend(shard.regions);
        for (a, b) in self.aux_written.iter_mut().zip(&shard.aux_written) {
            *a |= b;
        }
    }
}

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
    /// 1&3-pieced sub-category configuration.
    pub s13: ShortClass,
    /// Pure length-4 sub-category configuration.
    pub s4: ShortClass,
    /// 2&2-pieced sub-category configuration.
    pub s22: ShortClass,
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
        for (perm, warps, class) in [
            (&m.short.perm13, m.short.n13_warps, &mut c.s13),
            (&m.short.perm4, m.short.n4_warps, &mut c.s4),
            (&m.short.perm22, m.short.n22_warps, &mut c.s22),
        ] {
            if warps == 0 {
                continue;
            }
            for w in perm.chunks(32) {
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
        if self.s13.present() {
            r.push("dasp.short13");
        }
        if self.s4.present() {
            r.push("dasp.short4");
        }
        if self.s22.present() {
            r.push("dasp.short22");
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
    // Short sub-categories; counts per warp: 16 1&3 pairs, 32 len-4 rows,
    // 16 2&2 pairs.
    let pairs13 = pair_count(classes.s13, 16);
    for _ in 0..pairs13 {
        lens.push(1);
        lens.push(3);
    }
    lens.extend(std::iter::repeat_n(4, pair_count(classes.s4, 32)));
    lens.extend(std::iter::repeat_n(2, 2 * pair_count(classes.s22, 16)));
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

/// How many packing units (pairs or rows) reproduce a sub-category's warp
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

/// Outcome of one abstract interpretation: the violation report plus the
/// kernel regions actually visited (coverage evidence).
#[derive(Debug)]
pub struct InterpOutcome {
    /// Violations found across all representative runs.
    pub report: VerifyReport,
    /// Kernel regions the interpretation exercised.
    pub regions: BTreeSet<&'static str>,
    /// The shape classes the input occupies.
    pub classes: ShapeClasses,
}

/// Abstractly interprets every kernel configuration the matrix's shape
/// classes exercise: builds the synthetic representative, runs SpMV plus
/// full-panel and masked-tail SpMM under the sequential executor with a
/// [`VerifyProbe`], and returns the merged findings.
pub fn verify_kernels<S: Scalar>(m: &DaspMatrix<S>) -> InterpOutcome {
    let classes = ShapeClasses::of(m);
    let (coo, rep_params) = representative(&classes, &m.params);
    let csr = coo.to_csr();
    let rep = DaspMatrix::<f64>::with_params(&csr, rep_params);
    let exec = Executor::seq();
    let x = vec![1.0f64; rep.cols];

    let mut report = VerifyReport::new();
    let mut regions = BTreeSet::new();

    // SpMV: staging is one slot per long group.
    let mut probe = VerifyProbe::new(rep.cols, rep.rows, rep.long.num_groups());
    let _y = rep.spmv_with(&x, &mut probe, &exec);
    let (r, regs) = probe.finish();
    report.merge(&r);
    regions.extend(regs);

    // SpMM, one full panel (width 8) and a masked tail panel (width 3):
    // staging is group x panel x lane-column resident.
    for width in [PANEL_WIDTH, 3] {
        let b = DenseMat::from_columns(&vec![vec![1.0f64; rep.cols]; width]);
        let panels = width.div_ceil(PANEL_WIDTH);
        let aux = rep.long.num_groups() * panels * PANEL_WIDTH;
        // SpMM's B gathers and Y scatters report *linear* indices into
        // their dense matrices (`DenseMat::lin_index`), so the bounds are
        // the full data lengths.
        let mut probe = VerifyProbe::new(rep.cols * width, rep.rows * width, aux);
        let _y = rep.spmm_with(&b, &mut probe, &exec);
        let (r, regs) = probe.finish();
        report.merge(&r);
        regions.extend(regs);
    }

    InterpOutcome {
        report,
        regions,
        classes,
    }
}
