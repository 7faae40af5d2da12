//! The structural checker of the DASP format: the one place that knows the
//! invariants the kernels index `x` and `y` through.
//!
//! A [`DaspMatrix`] and a [`DaspPlan`] hold the same three parts — the
//! matrix's slots carry values, the plan's the CSR elements that fill them
//! — so both carry one pattern (shape, params, per-category nonzero
//! counts, pointers, column ids and short-row permutations), and the
//! checker is written once, as a walk over a [`Pattern`] borrow of either.
//! The payload rule is shared too: each side's value arrays pair 1:1 with
//! the pattern's column ids, and no category claims more originals than it
//! stores. The plan adds one check of its own, that its gather map is a
//! bijection. A plan attached to a matrix must carry the matrix's pattern
//! exactly; that is one equality, after which the plan's copy needs no
//! second walk.
//!
//! Every entry point is a view onto this walk: [`verify_matrix`] and
//! [`verify_plan`] return the exhaustive [`Report`],
//! [`DaspMatrix::validate`] its first breach, and both container readers
//! run it once before returning. All arithmetic is checked: a corrupt
//! header must be *rejected*, never allowed to overflow or to provoke a
//! multi-gigabyte transient allocation.

use dasp_fp16::Scalar;

use crate::consts::{DaspParams, BLOCK_ELEMS, GROUP_ELEMS, MMA_M};
use crate::format::{DaspMatrix, DaspPlan, Invariant, Piecing, Report, Violation};
use crate::format::{LongPart, MediumPart, ShortPart, GATHER_PADDING, NO_ROW};

/// How many per-element breaches of one invariant at one site are recorded
/// individually before the scan summarizes the remainder (counts stay
/// exact via the summary's tally).
const PER_SCAN_SITES: usize = 4;

/// A read-only borrow of the pattern a matrix and a plan share.
#[derive(PartialEq)]
pub(crate) struct Pattern<'a> {
    rows: usize,
    cols: usize,
    nnz: usize,
    params: DaspParams,
    /// Original nonzeros per category: long, medium, short.
    nnz_orig: [usize; 3],
    /// Short MMA sections' warps and end offsets, in [`Piecing::ALL`] order.
    warps: [usize; 3],
    ends: [usize; 3],
    n1: usize,
    long_rows: &'a [u32],
    long_group_ptr: &'a [usize],
    med_rows: &'a [u32],
    med_rowblock_ptr: &'a [usize],
    med_irreg_ptr: &'a [usize],
    /// Column ids of the four slot arrays, in gather order: long, medium
    /// regular, medium irregular, short.
    cids: [&'a [u32]; 4],
    /// Short y-slot permutations: 1&3, len-4, 2&2, singletons.
    perms: [&'a [u32]; 4],
}

impl<'a> Pattern<'a> {
    /// The pattern of a header and three parts, whatever their slots hold:
    /// a matrix's values or a plan's gather map.
    fn new<V>(
        (rows, cols, nnz, params): (usize, usize, usize, DaspParams),
        l: &'a LongPart<V>,
        m: &'a MediumPart<V>,
        s: &'a ShortPart<V>,
    ) -> Self {
        let [p13, p4, p22] = &s.perms;
        Pattern {
            rows,
            cols,
            nnz,
            params,
            nnz_orig: [l.nnz_orig, m.nnz_orig, s.nnz_orig],
            warps: s.warps,
            ends: s.ends,
            n1: s.n1,
            long_rows: &l.rows,
            long_group_ptr: &l.group_ptr,
            med_rows: &m.rows,
            med_rowblock_ptr: &m.rowblock_ptr,
            med_irreg_ptr: &m.irreg_ptr,
            cids: [&l.cids, &m.reg_cid, &m.irreg_cid, &s.cids],
            perms: [p13, p4, p22, &s.perm1],
        }
    }
}

impl<S: Scalar> DaspMatrix<S> {
    pub(crate) fn pattern(&self) -> Pattern<'_> {
        let header = (self.rows, self.cols, self.nnz, self.params);
        Pattern::new(header, &self.long, &self.medium, &self.short)
    }

    /// The first structural breach [`verify_matrix`] finds, if any: the
    /// same checks, reported as one [`Violation`].
    pub fn validate(&self) -> Result<(), Violation> {
        first_breach(verify_matrix(self))
    }
}

impl DaspPlan {
    pub(crate) fn pattern(&self) -> Pattern<'_> {
        let header = (self.rows, self.cols, self.nnz, self.params);
        Pattern::new(header, &self.long, &self.medium, &self.short)
    }
}

/// The report's first retained site, as an error.
pub(crate) fn first_breach(report: Report) -> Result<(), Violation> {
    report.sites.into_iter().next().map_or(Ok(()), Err)
}

/// Exhaustively validates a converted matrix (and its attached plan, when
/// one rides on it) against every structural invariant the kernels
/// assume. Pure: no allocation beyond two transient bitmaps, no
/// mutation.
pub fn verify_matrix<S: Scalar>(m: &DaspMatrix<S>) -> Report {
    let mut report = Report::new();
    let ctx = &mut Ctx {
        report: &mut report,
        prefix: "",
    };
    let p = m.pattern();
    walk(ctx, &p);
    let (l, md, sh) = (&m.long, &m.medium, &m.short);
    payload(ctx, &p, [&l.vals, &md.reg_val, &md.irreg_val, &sh.vals]);
    if let Some(plan) = m.plan() {
        let q = plan.pattern();
        ctx.check(
            q.params.reorder == p.params.reorder,
            Invariant::ReorderFlag,
            "plan.params",
            || {
                format!(
                    "plan reorder={} but matrix reorder={}",
                    q.params.reorder, p.params.reorder
                )
            },
        );
        let same = q == p;
        ctx.check(same, Invariant::PlanMatch, "plan", || {
            format!(
                "plan pattern ({}x{}, nnz {}) disagrees with the matrix pattern ({}x{}, nnz {})",
                q.rows, q.cols, q.nnz, p.rows, p.cols, p.nnz
            )
        });
        let plan_ctx = &mut Ctx {
            report: &mut *ctx.report,
            prefix: "plan.",
        };
        if !same {
            walk(plan_ctx, &q);
        }
        payload(plan_ctx, &q, plan.gather());
        gather(plan_ctx, plan);
    }
    report
}

/// Exhaustively validates a standalone plan: the pattern walk (pointers,
/// offsets, id ranges, row partition), the payload rule over its gather
/// map, and the gather bijection.
pub fn verify_plan(plan: &DaspPlan) -> Report {
    let mut report = Report::new();
    let ctx = &mut Ctx {
        report: &mut report,
        prefix: "plan.",
    };
    let q = plan.pattern();
    walk(ctx, &q);
    payload(ctx, &q, plan.gather());
    gather(ctx, plan);
    report
}

struct Ctx<'r> {
    report: &'r mut Report,
    /// Prepended to every site: `"plan."` while walking a plan's pattern.
    prefix: &'static str,
}

impl Ctx<'_> {
    fn record(&mut self, invariant: Invariant, site: &str, detail: impl FnOnce() -> String) {
        let prefix = self.prefix;
        self.report.record(invariant, None, || Violation {
            invariant,
            site: format!("{prefix}{site}"),
            warp: None,
            index: None,
            detail: detail(),
        });
    }

    fn check(&mut self, ok: bool, inv: Invariant, site: &str, detail: impl FnOnce() -> String) {
        self.report.note_check();
        if !ok {
            self.record(inv, site, detail);
        }
    }

    /// Scans `it`, recording a violation per failing element: the first
    /// [`PER_SCAN_SITES`] individually, the remainder counted exactly
    /// behind one summary site. A branch-free counting pass runs first,
    /// so a clean scan never takes the reporting path.
    fn scan<T: Copy, I: Iterator<Item = T> + Clone>(
        &mut self,
        it: I,
        pred: impl Fn(T) -> bool,
        inv: Invariant,
        site: &str,
        detail: impl Fn(usize, T) -> String,
    ) {
        self.report.note_check();
        let bad = it.clone().filter(|&x| !pred(x)).count();
        if bad == 0 {
            return;
        }
        let failing = it.enumerate().filter(|&(_, x)| !pred(x));
        for (i, x) in failing.take(PER_SCAN_SITES) {
            self.record(inv, site, || detail(i, x));
        }
        if bad > PER_SCAN_SITES {
            let site = format!("{}{site}", self.prefix);
            self.report
                .record_bulk(inv, &site, (bad - PER_SCAN_SITES) as u64);
        }
    }
}

/// The value slots each slot array must hold, as the pattern's pointers
/// and offsets describe them: `[long, medium regular, medium irregular,
/// short]`, `None` where a pointer is empty or the arithmetic overflows.
fn described_slots(p: &Pattern<'_>) -> [Option<usize>; 4] {
    [
        p.long_group_ptr
            .last()
            .and_then(|g| g.checked_mul(GROUP_ELEMS)),
        p.med_rowblock_ptr.last().copied(),
        p.med_irreg_ptr.last().copied(),
        p.ends[2].checked_add(p.n1),
    ]
}

const SLOT_SITES: [&str; 4] = ["long", "medium.reg", "medium.irreg", "short"];

/// Each short MMA section's end-offset site and region name, in
/// [`Piecing::ALL`] order.
const SECTION_SITES: [(&str, &str); 3] = [
    ("short.off4", "1&3"),
    ("short.off22", "len-4"),
    ("short.off1", "2&2"),
];

/// The short permutations' sites: the MMA sections, then the singletons.
const PERM_SITES: [&str; 4] = ["short.perm13", "short.perm4", "short.perm22", "short.perm1"];

/// Every invariant of the shared pattern.
fn walk(ctx: &mut Ctx<'_>, p: &Pattern<'_>) {
    // Long: every long row owns >= 1 group, so the pointer strictly rises.
    check_ptr(ctx, p.long_group_ptr, "long.group_ptr", true, None);
    ctx.check(
        p.long_group_ptr.len() == p.long_rows.len() + 1,
        Invariant::LenConsistency,
        "long.group_ptr",
        || {
            format!(
                "length {} != rows {} + 1",
                p.long_group_ptr.len(),
                p.long_rows.len()
            )
        },
    );

    // Medium: whole 32-element blocks per row-block of 8 rows, and one
    // irregular extent per row.
    check_ptr(
        ctx,
        p.med_rowblock_ptr,
        "medium.rowblock_ptr",
        false,
        Some(BLOCK_ELEMS),
    );
    let n_blocks = p.med_rows.len().div_ceil(MMA_M);
    ctx.check(
        p.med_rowblock_ptr.len() == n_blocks + 1,
        Invariant::LenConsistency,
        "medium.rowblock_ptr",
        || {
            format!(
                "length {} != ceil({} rows / {MMA_M}) + 1",
                p.med_rowblock_ptr.len(),
                p.med_rows.len()
            )
        },
    );
    check_ptr(ctx, p.med_irreg_ptr, "medium.irreg_ptr", false, None);
    ctx.check(
        p.med_irreg_ptr.len() == p.med_rows.len() + 1,
        Invariant::LenConsistency,
        "medium.irreg_ptr",
        || {
            format!(
                "length {} != rows {} + 1",
                p.med_irreg_ptr.len(),
                p.med_rows.len()
            )
        },
    );

    // Short: the three MMA sections lie back to back in launch order,
    // each warp holding its section's blocks, then the singletons.
    let mut start = 0;
    for (i, piecing) in Piecing::ALL.into_iter().enumerate() {
        let ((site, region), off) = (SECTION_SITES[i], p.ends[i]);
        let end = p.warps[i]
            .checked_mul(piecing.blocks_per_warp() * BLOCK_ELEMS)
            .and_then(|e| e.checked_add(start));
        ctx.check(Some(off) == end, Invariant::LenConsistency, site, || {
            format!("offset {off} != {region} region end {end:?}")
        });
        start = off;
    }
    let perm_lens = p.warps.map(|w| w.checked_mul(32)).into_iter();
    let perm_lens = perm_lens.chain([Some(p.n1)]);
    for ((perm, want), site) in p.perms.into_iter().zip(perm_lens).zip(PERM_SITES) {
        ctx.check(
            Some(perm.len()) == want,
            Invariant::LenConsistency,
            site,
            || format!("length {} != expected {want:?}", perm.len()),
        );
        scan_rows(ctx, perm, p.rows, true, site);
    }

    // Column ids: one per value slot, each inside the matrix.
    for ((cids, want), part) in p.cids.into_iter().zip(described_slots(p)).zip(SLOT_SITES) {
        let site = format!("{part}.cids");
        ctx.check(
            Some(cids.len()) == want,
            Invariant::LenConsistency,
            &site,
            || format!("length {} != described slots {want:?}", cids.len()),
        );
        ctx.scan(
            cids.iter().copied(),
            |c| (c as usize) < p.cols,
            Invariant::CidRange,
            &site,
            |i, c| format!("cid {c} at {i} >= cols {}", p.cols),
        );
    }
    scan_rows(ctx, p.long_rows, p.rows, false, "long.rows");
    scan_rows(ctx, p.med_rows, p.rows, false, "medium.rows");

    partition(ctx, p);
}

/// Every original row owns at most one category slot, and the categories'
/// nonzero counts sum to the header's.
fn partition(ctx: &mut Ctx<'_>, p: &Pattern<'_>) {
    // A bitmap rather than `vec![false; rows]`: `rows` is header data.
    let mut seen = vec![0u64; p.rows.div_ceil(64)];
    let mut dups = 0u64;
    let mut first: Option<usize> = None;
    let ids = [p.long_rows, p.med_rows]
        .into_iter()
        .chain(p.perms)
        .flatten();
    for &r in ids {
        let i = r as usize;
        if r == NO_ROW || i >= p.rows {
            continue; // padding, or already reported by the range scans
        }
        if seen[i / 64] & (1 << (i % 64)) != 0 {
            dups += 1;
            first.get_or_insert(i);
        } else {
            seen[i / 64] |= 1 << (i % 64);
        }
    }
    ctx.check(dups == 0, Invariant::RowPartition, "partition", || {
        format!(
            "{dups} row slot(s) duplicated (first: row {})",
            first.unwrap_or(0)
        )
    });

    let [long, med, short] = p.nnz_orig;
    let sum = long.checked_add(med).and_then(|s| s.checked_add(short));
    ctx.check(
        sum == Some(p.nnz),
        Invariant::NnzPartition,
        "header",
        || {
            format!(
                "nnz {} disagrees with category sum {long} + {med} + {short}",
                p.nnz
            )
        },
    );
}

/// The payload rule, for a matrix's values and a plan's gather map alike:
/// each value array holds exactly the slots the pattern describes, paired
/// 1:1 with its column ids, and no category claims more originals than it
/// stores.
fn payload<V>(ctx: &mut Ctx<'_>, p: &Pattern<'_>, vals: [&[V]; 4]) {
    for (((vals, cids), want), part) in vals
        .into_iter()
        .zip(p.cids)
        .zip(described_slots(p))
        .zip(SLOT_SITES)
    {
        ctx.check(
            Some(vals.len()) == want,
            Invariant::LenConsistency,
            &format!("{part}.vals"),
            || format!("length {} != described slots {want:?}", vals.len()),
        );
        ctx.check(
            vals.len() == cids.len(),
            Invariant::PayloadSize,
            part,
            || format!("cids {} / vals {} must pair 1:1", cids.len(), vals.len()),
        );
    }
    let [long, reg, irreg, short] = vals.map(<[V]>::len);
    let stored = [long, reg + irreg, short];
    for ((nnz, stored), site) in p
        .nnz_orig
        .into_iter()
        .zip(stored)
        .zip(["long", "medium", "short"])
    {
        ctx.check(nnz <= stored, Invariant::NnzPartition, site, || {
            format!("nnz_orig {nnz} exceeds stored {stored}")
        });
    }
}

/// The plan's own rule: its gather map, which [`payload`] has matched to
/// the value slots, maps the non-padding slots one-to-one onto the CSR
/// elements `0..nnz`.
fn gather(ctx: &mut Ctx<'_>, plan: &DaspPlan) {
    let (maps, nnz) = (plan.gather(), plan.nnz);
    let slots: usize = maps.iter().map(|m| m.len()).sum();
    // A bijection onto nnz needs >= nnz non-padding slots; reject before
    // allocating the bitmap when a corrupt header inflates nnz.
    ctx.check(nnz <= slots, Invariant::GatherBijection, "gather", || {
        format!("nnz {nnz} exceeds total slots {slots}")
    });
    if nnz > slots {
        return;
    }
    let mut seen = vec![0u64; nnz.div_ceil(64)];
    let (mut oob, mut dup) = (0u64, 0u64);
    for map in maps {
        for &g in map {
            let g = g as usize;
            if g == GATHER_PADDING as usize {
                continue;
            }
            if g >= nnz {
                oob += 1;
            } else if seen[g / 64] & (1 << (g % 64)) != 0 {
                dup += 1;
            } else {
                seen[g / 64] |= 1 << (g % 64);
            }
        }
    }
    let covered: u64 = seen.iter().map(|w| u64::from(w.count_ones())).sum();
    ctx.check(oob == 0, Invariant::GatherBijection, "gather", || {
        format!("{oob} slot(s) gather from beyond nnz {nnz}")
    });
    ctx.check(dup == 0, Invariant::GatherBijection, "gather", || {
        format!("{dup} CSR element(s) gathered by two slots")
    });
    ctx.check(
        covered == nnz as u64,
        Invariant::GatherBijection,
        "gather",
        || format!("only {covered} of {nnz} elements covered"),
    );
}

/// Monotone-pointer check: first element 0, non-decreasing (or strictly
/// increasing), with an optional per-step stride rule.
fn check_ptr(ctx: &mut Ctx<'_>, ptr: &[usize], site: &str, strict: bool, stride: Option<usize>) {
    ctx.check(
        ptr.first() == Some(&0),
        Invariant::PtrMonotone,
        site,
        || format!("pointer must start with 0, got {:?}", ptr.first()),
    );
    let steps = || ptr.windows(2).map(|w| (w[0], w[1]));
    ctx.scan(
        steps(),
        |(a, b)| if strict { a < b } else { a <= b },
        Invariant::PtrMonotone,
        site,
        |i, (a, b)| {
            let rule = if strict {
                "increasing"
            } else {
                "non-decreasing"
            };
            format!("pointer step {i}: {a} -> {b} not {rule}")
        },
    );
    if let Some(s) = stride {
        ctx.scan(
            steps(),
            |(a, b)| b.wrapping_sub(a) % s == 0,
            Invariant::PtrMonotone,
            site,
            |i, (a, b)| format!("pointer step {i}: {a} -> {b} not a multiple of {s}"),
        );
    }
}

fn scan_rows(ctx: &mut Ctx<'_>, rows: &[u32], n_rows: usize, padding_ok: bool, site: &str) {
    ctx.scan(
        rows.iter().copied(),
        |r| (padding_ok && r == NO_ROW) || (r as usize) < n_rows,
        Invariant::RowRange,
        site,
        |i, r| format!("row {r} at {i} >= rows {n_rows}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_format(seed: u64) -> DaspMatrix<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coo = dasp_sparse::Coo::new(200, 700);
        for r in 0..200usize {
            let len = match rng.gen_range(0..10) {
                0 => 0,
                1..=5 => rng.gen_range(1..=4usize),
                6..=8 => rng.gen_range(5..=256),
                _ => rng.gen_range(257..=650),
            };
            let mut cs: Vec<usize> = Vec::new();
            while cs.len() < len {
                let c = rng.gen_range(0..700);
                if !cs.contains(&c) {
                    cs.push(c);
                }
            }
            for c in cs {
                coo.push(r, c, rng.gen_range(0.1..1.0));
            }
        }
        DaspMatrix::from_csr(&coo.to_csr())
    }

    #[test]
    fn builder_output_is_always_valid() {
        for seed in 0..12 {
            random_format(seed)
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn corruption_is_detected() {
        // Each mutation must trip a specific invariant.
        let base = random_format(3);

        let mut m = base.clone();
        m.long.group_ptr[0] = 1;
        assert!(m.validate().is_err());

        let mut m = base.clone();
        if !m.long.vals.is_empty() {
            m.long.vals.pop();
            assert!(m.validate().is_err());
        }

        let mut m = base.clone();
        if !m.medium.reg_cid.is_empty() {
            m.medium.reg_cid[0] = 10_000;
            assert!(m.validate().is_err());
        }

        let mut m = base.clone();
        if m.medium.irreg_ptr.len() > 2 {
            let last = m.medium.irreg_ptr.len() - 1;
            m.medium.irreg_ptr.swap(1, last);
            assert!(m.validate().is_err());
        }

        let mut m = base.clone();
        m.short.ends[0] += 1;
        assert!(m.validate().is_err());

        let mut m = base.clone();
        if let Some(slot) = m.short.perms[1].iter().position(|&r| r != NO_ROW) {
            // Duplicate an assigned row into another category.
            let row = m.short.perms[1][slot];
            m.medium.rows.push(row);
            m.medium.irreg_ptr.push(*m.medium.irreg_ptr.last().unwrap());
            assert!(m.validate().is_err(), "duplicate row must be caught");
        }
    }

    #[test]
    fn corrupted_nnz_header_is_detected() {
        let mut m = random_format(5);
        m.nnz = 0;
        assert!(m.validate().is_err(), "zeroed nnz must fail validation");
        let mut m = random_format(5);
        m.nnz += 1;
        assert!(m.validate().is_err());
        let mut m = random_format(5);
        m.short.nnz_orig = m.short.vals.len() + 1;
        assert!(m.validate().is_err());
    }

    #[test]
    fn generator_formats_validate() {
        for csr in [
            dasp_matgen::banded(400, 12, 9, 1),
            dasp_matgen::rmat(10, 6, 2),
            dasp_matgen::circuit_like(1000, 3, 400, 3),
            dasp_matgen::stencil3d(8, 8, 8, 27, 4),
        ] {
            DaspMatrix::from_csr(&csr).validate().unwrap();
        }
    }

    // ---- Gather-map invariants (mutating the plan's private map; its
    // first array, the long part's slots, holds live entries) ----------

    /// Every category populated: long rows of 1/2/3 groups against
    /// MAX_LEN 8, a full + partial medium block, all four short
    /// sub-categories.
    fn rich_plan() -> DaspPlan {
        let mut lens: Vec<usize> = vec![9, 73, 137];
        lens.extend(std::iter::repeat_n(5, 11));
        for _ in 0..3 {
            lens.push(1);
            lens.push(3);
        }
        lens.extend(std::iter::repeat_n(4, 2));
        lens.extend(std::iter::repeat_n(2, 4));
        lens.push(1);
        let mut coo = dasp_sparse::Coo::new(lens.len(), 160);
        for (r, &len) in lens.iter().enumerate() {
            for j in 0..len {
                coo.push(r, j, 1.0 + (r + j) as f64 * 0.01);
            }
        }
        let params = DaspParams {
            max_len: 8,
            ..DaspParams::default()
        };
        (*DaspPlan::analyze(&coo.to_csr(), params)).clone()
    }

    fn first_two_live(gather: &[u32]) -> (usize, usize) {
        let mut it = gather
            .iter()
            .enumerate()
            .filter(|(_, &g)| g != GATHER_PADDING)
            .map(|(i, _)| i);
        (it.next().unwrap(), it.next().unwrap())
    }

    #[test]
    fn gather_duplicate_is_flagged() {
        let mut plan = rich_plan();
        // Two slots feeding from the same CSR element: one original value
        // would be scattered twice and another dropped on refresh.
        let (a, b) = first_two_live(&plan.long.vals);
        plan.long.vals[b] = plan.long.vals[a];
        let r = verify_plan(&plan);
        assert!(r.count(Invariant::GatherBijection) > 0, "{r}");
    }

    #[test]
    fn gather_out_of_bounds_is_flagged() {
        let mut plan = rich_plan();
        let (a, _) = first_two_live(&plan.long.vals);
        plan.long.vals[a] = plan.nnz() as u32; // reads past the CSR value array
        let r = verify_plan(&plan);
        assert!(r.count(Invariant::GatherBijection) > 0, "{r}");
    }

    #[test]
    fn gather_gap_is_flagged() {
        let mut plan = rich_plan();
        let (a, _) = first_two_live(&plan.long.vals);
        plan.long.vals[a] = GATHER_PADDING; // element never scattered: stale value
        let r = verify_plan(&plan);
        assert!(r.count(Invariant::GatherBijection) > 0, "{r}");
    }

    #[test]
    fn inflated_plan_nnz_is_rejected_without_huge_allocation() {
        let mut plan = rich_plan();
        // A corrupt header nnz in the terabyte range must be rejected by the
        // slot-count pre-check, not fed to a bitmap allocation.
        plan.nnz = 1 << 45;
        let r = verify_plan(&plan);
        assert!(r.count(Invariant::GatherBijection) > 0, "{r}");
    }

    /// One 300-element long row (5 groups, 320 slots) and 59 length-2
    /// rows, analyzed with the default parameters.
    fn long_and_pairs_plan() -> DaspPlan {
        let mut coo = dasp_sparse::Coo::new(60, 400);
        for c in 0..300 {
            coo.push(0, c, 1.0);
        }
        for r in 1..60 {
            coo.push(r, r, 1.0);
            coo.push(r, r + 100, 1.0);
        }
        (*DaspPlan::analyze(&coo.to_csr(), DaspParams::default())).clone()
    }

    #[test]
    fn plan_category_over_its_stored_slots_is_flagged() {
        // Moving 21 counts from short to long keeps the header sum but
        // claims 321 long nonzeros in 320 slots: the plan's fill would
        // fail the matrix's payload rule, so the plan must fail it too.
        let mut plan = long_and_pairs_plan();
        assert!(verify_plan(&plan).is_clean());
        plan.short.nnz_orig -= 21;
        plan.long.nnz_orig += 21;
        let r = verify_plan(&plan);
        assert!(r.count(Invariant::NnzPartition) > 0, "{r}");
    }
}
