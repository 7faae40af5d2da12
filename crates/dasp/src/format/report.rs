//! Structured checker output: [`Violation`] sites keyed by the
//! [`Invariant`] they break, aggregated into an exhaustive
//! [`VerifyReport`].
//!
//! One report serves both verifier layers: the structural checker
//! ([`verify_matrix`](crate::format::verify_matrix)) and `dasp-verify`'s
//! abstract kernel interpretation. The checker keeps scanning past the
//! first breach so an operator sees every class of corruption in one
//! pass — only the retained site detail is capped at [`MAX_SITES`].
//! [`DaspMatrix::validate`](crate::format::DaspMatrix::validate) and the
//! container readers report the first retained site.

use std::collections::BTreeMap;
use std::fmt;

use dasp_trace::escape_json;

/// The invariant classes the verifier checks. Every variant has a paired
/// negative test (a planted violation the validator must flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    // ---- Layer 1: structural (pure function over matrix + plan) ----
    /// A pointer array (`group_ptr`, `rowblock_ptr`, `irreg_ptr`) is not
    /// monotone, does not start at 0, or breaks its stride rule.
    PtrMonotone,
    /// Array lengths or region offsets disagree with the counts that
    /// describe them (includes arithmetic that would overflow).
    LenConsistency,
    /// A value payload array's length disagrees with its pattern array —
    /// the "fp16 payload sizes exact" rule (vals and cids must pair 1:1
    /// at every storage width).
    PayloadSize,
    /// A column index is `>= cols`.
    CidRange,
    /// A row id is `>= rows` (and is not the `NO_ROW` padding marker
    /// where padding is legal).
    RowRange,
    /// The category partition is not disjoint: a row owns two slots.
    RowPartition,
    /// Per-category nonzero counts do not sum to the header `nnz`, or a
    /// category claims more originals than it stores.
    NnzPartition,
    /// The plan's gather slot-map is not a bijection onto `0..nnz`.
    GatherBijection,
    /// The attached plan's pattern or shape disagrees with the matrix it
    /// rides on.
    PlanMatch,
    /// The reorder flag is inconsistent between matrix params and plan
    /// params (`FLAG_REORDER` round-trip rule).
    ReorderFlag,

    // ---- Layer 2: abstract interpretation (kernel runs on shape reps) ----
    /// A shuffle consumed an out-of-mask source lane on a representative.
    ShflMask,
    /// An accumulator fragment slot was read with no MMA having touched
    /// it since the last clear.
    FragInit,
    /// An x-vector, y, or staging access fell outside its validated bound.
    AccessBounds,
    /// A staging (AUX) element was read before any kernel phase wrote it.
    StagingInit,
}

impl Invariant {
    /// Short machine-readable tag (JSON `invariant` field, metrics name
    /// suffix).
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::PtrMonotone => "ptr_monotone",
            Invariant::LenConsistency => "len_consistency",
            Invariant::PayloadSize => "payload_size",
            Invariant::CidRange => "cid_range",
            Invariant::RowRange => "row_range",
            Invariant::RowPartition => "row_partition",
            Invariant::NnzPartition => "nnz_partition",
            Invariant::GatherBijection => "gather_bijection",
            Invariant::PlanMatch => "plan_match",
            Invariant::ReorderFlag => "reorder_flag",
            Invariant::ShflMask => "shfl_mask",
            Invariant::FragInit => "frag_init",
            Invariant::AccessBounds => "access_bounds",
            Invariant::StagingInit => "staging_init",
        }
    }

    /// All Layer-1 (structural) invariant classes, in check order.
    pub const STRUCTURAL: [Invariant; 10] = [
        Invariant::PtrMonotone,
        Invariant::LenConsistency,
        Invariant::PayloadSize,
        Invariant::CidRange,
        Invariant::RowRange,
        Invariant::RowPartition,
        Invariant::NnzPartition,
        Invariant::GatherBijection,
        Invariant::PlanMatch,
        Invariant::ReorderFlag,
    ];
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken-invariant site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant class broken.
    pub invariant: Invariant,
    /// Where: a format part (`"long"`, `"plan.short"`) or kernel region
    /// (`"dasp.long.phase2"`).
    pub site: String,
    /// Human-readable specifics (indices, expected vs found).
    pub detail: String,
}

impl Violation {
    fn to_json(&self) -> String {
        format!(
            "{{\"invariant\":\"{}\",\"site\":\"{}\",\"detail\":\"{}\"}}",
            self.invariant.name(),
            escape_json(&self.site),
            escape_json(&self.detail)
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}: {}", self.invariant, self.site, self.detail)
    }
}

/// Maximum number of detailed sites a report retains (counts keep
/// accumulating past the cap, matching the sanitizer's convention).
pub const MAX_SITES: usize = 32;

/// Aggregated verifier findings: exhaustive per-invariant counts and the
/// first [`MAX_SITES`] offending sites.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Total violations (never truncated).
    pub total: u64,
    /// Totals broken down by invariant class.
    pub by_invariant: BTreeMap<&'static str, u64>,
    /// The first [`MAX_SITES`] violations, in detection order.
    pub sites: Vec<Violation>,
    /// Violations beyond the site cap (counted, not retained).
    pub dropped_sites: u64,
    /// Number of invariant checks executed (clean or not) — distinguishes
    /// "clean because checked" from "clean because skipped".
    pub checks_run: u64,
}

impl VerifyReport {
    /// A report with nothing recorded.
    pub fn new() -> VerifyReport {
        VerifyReport::default()
    }

    /// True when every executed check passed.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Records one violation: bumps totals and the per-invariant
    /// breakdown, and retains the site if under the cap.
    pub fn record(&mut self, v: Violation) {
        self.total += 1;
        *self.by_invariant.entry(v.invariant.name()).or_default() += 1;
        if self.sites.len() < MAX_SITES {
            self.sites.push(v);
        } else {
            self.dropped_sites += 1;
        }
    }

    /// Notes one executed check (called by the validator whether or not
    /// the check passed).
    pub fn note_check(&mut self) {
        self.checks_run += 1;
    }

    /// Records `n` further violations of one invariant behind a single
    /// summary site — keeps per-invariant counts exact when a scan finds
    /// thousands of identical breaches without flooding the site list.
    pub fn record_bulk(&mut self, invariant: Invariant, site: &str, n: u64) {
        if n == 0 {
            return;
        }
        self.total += n;
        *self.by_invariant.entry(invariant.name()).or_default() += n;
        let summary = Violation {
            invariant,
            site: site.to_string(),
            detail: format!("... {n} further element(s) break the same rule"),
        };
        if self.sites.len() < MAX_SITES {
            self.sites.push(summary);
            self.dropped_sites += n.saturating_sub(1);
        } else {
            self.dropped_sites += n;
        }
    }

    /// One-line summary of the violation counts by invariant class, for
    /// embedding in rejection messages (`plan_match:1, ptr_monotone:3`).
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("clean ({} checks)", self.checks_run);
        }
        let by: Vec<String> = self
            .by_invariant
            .iter()
            .map(|(k, n)| format!("{k}:{n}"))
            .collect();
        format!("{} violation(s): {}", self.total, by.join(", "))
    }

    /// Count recorded against one invariant class.
    pub fn count(&self, inv: Invariant) -> u64 {
        self.by_invariant.get(inv.name()).copied().unwrap_or(0)
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: &VerifyReport) {
        self.total += other.total;
        self.checks_run += other.checks_run;
        for (k, n) in &other.by_invariant {
            *self.by_invariant.entry(k).or_default() += n;
        }
        for v in &other.sites {
            if self.sites.len() < MAX_SITES {
                self.sites.push(v.clone());
            } else {
                self.dropped_sites += 1;
            }
        }
        self.dropped_sites += other.dropped_sites;
    }

    /// Serializes the report as a JSON object for CI artifacts and the
    /// `--verify-plan-out` flag.
    pub fn to_json(&self) -> String {
        let by: Vec<String> = self
            .by_invariant
            .iter()
            .map(|(k, n)| format!("\"{k}\":{n}"))
            .collect();
        let sites: Vec<String> = self.sites.iter().map(|v| v.to_json()).collect();
        format!(
            "{{\"clean\":{},\"violations\":{},\"checks_run\":{},\"by_invariant\":{{{}}},\
             \"sites\":[{}],\"dropped_sites\":{}}}",
            self.is_clean(),
            self.total,
            self.checks_run,
            by.join(","),
            sites.join(","),
            self.dropped_sites
        )
    }

    /// Publishes the counts into a `dasp-trace` metrics registry under
    /// `verify.*` counter names.
    pub fn export_metrics(&self, registry: &dasp_trace::Registry) {
        registry.counter_add("verify.violations", self.total);
        registry.counter_add("verify.checks_run", self.checks_run);
        for (k, n) in &self.by_invariant {
            registry.counter_add(&format!("verify.{k}"), *n);
        }
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "verify: clean ({} checks)", self.checks_run);
        }
        writeln!(
            f,
            "verify: {} violation(s) across {} invariant class(es) ({} checks)",
            self.total,
            self.by_invariant.len(),
            self.checks_run
        )?;
        for (k, n) in &self.by_invariant {
            writeln!(f, "  {k}: {n}")?;
        }
        for v in &self.sites {
            writeln!(f, "  {v}")?;
        }
        if self.dropped_sites > 0 {
            writeln!(
                f,
                "  ... and {} more site(s) not retained",
                self.dropped_sites
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(inv: Invariant) -> Violation {
        Violation {
            invariant: inv,
            site: "long".to_string(),
            detail: "cid 99 >= cols 10".to_string(),
        }
    }

    #[test]
    fn record_bumps_totals_and_kinds() {
        let mut r = VerifyReport::new();
        r.record(v(Invariant::CidRange));
        r.record(v(Invariant::CidRange));
        r.record(v(Invariant::GatherBijection));
        assert_eq!(r.total, 3);
        assert_eq!(r.count(Invariant::CidRange), 2);
        assert_eq!(r.count(Invariant::GatherBijection), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn site_cap_drops_but_keeps_counting() {
        let mut r = VerifyReport::new();
        for _ in 0..(MAX_SITES + 7) {
            r.record(v(Invariant::RowRange));
        }
        assert_eq!(r.sites.len(), MAX_SITES);
        assert_eq!(r.dropped_sites, 7);
        assert_eq!(r.total, (MAX_SITES + 7) as u64);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = VerifyReport::new();
        a.record(v(Invariant::PtrMonotone));
        a.note_check();
        let mut b = VerifyReport::new();
        b.record(v(Invariant::PtrMonotone));
        b.record(v(Invariant::ShflMask));
        b.note_check();
        a.merge(&b);
        assert_eq!(a.total, 3);
        assert_eq!(a.checks_run, 2);
        assert_eq!(a.count(Invariant::PtrMonotone), 2);
        assert_eq!(a.count(Invariant::ShflMask), 1);
    }

    #[test]
    fn json_is_balanced_and_tagged() {
        let mut r = VerifyReport::new();
        r.record(v(Invariant::NnzPartition));
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"clean\":false"));
        assert!(j.contains("\"nnz_partition\":1"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn json_survives_adversarial_strings() {
        // Quotes, backslashes, a stray escape sequence, every control
        // character from NUL to U+001F, DEL, non-ASCII and a line
        // separator, in both site and detail.
        let control: String = (0u8..0x20).map(char::from).collect();
        let nasty = format!("q\"b\\s\\u00zz/{control}\u{7f}é✓\u{2028}");
        let mut r = VerifyReport::new();
        r.record(Violation {
            invariant: Invariant::CidRange,
            site: nasty.clone(),
            detail: nasty.clone(),
        });
        r.record(v(Invariant::RowRange));
        let j = r.to_json();
        assert_eq!(dasp_trace::validate_json(&j), Ok(()), "invalid JSON: {j:?}");
        assert!(j.contains("\\u0000") && j.contains("\\n") && j.contains("\\\""));
    }

    #[test]
    fn metrics_export_lands_in_registry() {
        let reg = dasp_trace::Registry::new();
        let mut r = VerifyReport::new();
        r.record(v(Invariant::PayloadSize));
        r.export_metrics(&reg);
        assert_eq!(reg.counter("verify.payload_size"), Some(1));
        assert_eq!(reg.counter("verify.violations"), Some(1));
    }
}
