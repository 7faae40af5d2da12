//! The one report every checker fills: [`Violation`] sites keyed by the
//! [`Invariant`] they break, aggregated into a bounded [`Report`].
//!
//! Three producers record here: `dasp-core`'s structural format checker,
//! the compute sanitizer ([`SanitizeProbe`](crate::SanitizeProbe)) and
//! `dasp-verify`'s kernel interpretation, which runs that same probe on
//! synthetic representatives. Counts are exact, per invariant and per
//! kernel region; only the site detail is capped at [`MAX_SITES`], and a
//! site past the cap is never formatted.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

use dasp_trace::escape_json;

/// The invariant classes the checkers enforce. Every variant has a paired
/// negative test (a planted breach its checker must flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariant {
    // ---- structural (pure function over matrix + plan) ----
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

    // ---- kernel (checked by `SanitizeProbe` over the `san_*` hooks) ----
    /// A shuffle consumed a value read from an out-of-mask source lane.
    ShflMask,
    /// An accumulator fragment slot was read with no MMA or clear having
    /// defined it since the warp began.
    FragInit,
    /// An x gather, or a y / staging access, fell outside its bound.
    AccessBounds,
    /// A y / staging element was read that no write in the launch (or
    /// pre-barrier epoch) produced.
    UninitRead,
    /// Two different warps wrote the same element within one launch.
    Race,
    /// One warp wrote the same element twice within one launch.
    DoubleWrite,
    /// Informational, never an error: out-of-mask shuffle reads whose
    /// results a predicate discards — the paper's extraction shuffles do
    /// this by design.
    ShflDiscarded,
}

const CLASSES: usize = Invariant::ShflDiscarded as usize + 1;

impl Invariant {
    /// Every class, in declaration order.
    pub const ALL: [Invariant; CLASSES] = [
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
        Invariant::ShflMask,
        Invariant::FragInit,
        Invariant::AccessBounds,
        Invariant::UninitRead,
        Invariant::Race,
        Invariant::DoubleWrite,
        Invariant::ShflDiscarded,
    ];

    /// Short machine-readable tag (JSON key, metric name suffix).
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
            Invariant::UninitRead => "uninit_read",
            Invariant::Race => "race",
            Invariant::DoubleWrite => "double_write",
            Invariant::ShflDiscarded => "shfl_discarded",
        }
    }

    /// False only for the informational [`Invariant::ShflDiscarded`].
    pub fn is_error(&self) -> bool {
        *self != Invariant::ShflDiscarded
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One breached-invariant site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant class broken.
    pub invariant: Invariant,
    /// Where: a format part (`"long"`, `"plan.short"`) or kernel region
    /// (`"dasp.long.phase2"`).
    pub site: String,
    /// The simulator warp active when a kernel check fired (`None` for
    /// structural checks, host-side reads and shard-merge detections,
    /// which happen outside any warp).
    pub warp: Option<usize>,
    /// The element the check fired on (x / y / staging index), where one
    /// applies.
    pub index: Option<usize>,
    /// Human-readable specifics (expected vs found, lanes, masks).
    pub detail: String,
}

impl Violation {
    fn to_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            "{{\"invariant\":\"{}\",\"site\":\"{}\",\"warp\":{},\"index\":{},\"detail\":\"{}\"}}",
            self.invariant.name(),
            escape_json(&self.site),
            opt(self.warp),
            opt(self.index),
            escape_json(&self.detail)
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.invariant, self.site)?;
        if let Some(w) = self.warp {
            write!(f, " (warp {w})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Exact per-invariant tallies (never truncated, unlike the site list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; CLASSES]);

impl Default for Counts {
    fn default() -> Counts {
        Counts([0; CLASSES])
    }
}

impl Counts {
    /// Total error-class breaches (everything but
    /// [`Invariant::ShflDiscarded`]).
    pub fn errors(&self) -> u64 {
        self.0.iter().sum::<u64>() - self[Invariant::ShflDiscarded]
    }

    /// The classes with a nonzero count, in declaration order.
    pub fn nonzero(&self) -> impl Iterator<Item = (Invariant, u64)> + '_ {
        Invariant::ALL
            .into_iter()
            .map(|inv| (inv, self[inv]))
            .filter(|&(_, n)| n > 0)
    }

    fn merge(&mut self, other: &Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    fn to_json(self) -> String {
        let by: Vec<String> = self
            .nonzero()
            .map(|(inv, n)| format!("\"{}\":{n}", inv.name()))
            .collect();
        format!("{{{}}}", by.join(","))
    }
}

impl Index<Invariant> for Counts {
    type Output = u64;
    fn index(&self, inv: Invariant) -> &u64 {
        &self.0[inv as usize]
    }
}

/// Maximum number of detailed sites a report retains (counts keep
/// accumulating past the cap, compute-sanitizer style).
pub const MAX_SITES: usize = 32;

/// Aggregated findings: exact per-invariant and per-region counts, the
/// number of checks executed, and the first [`MAX_SITES`] sites.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whole-run totals.
    pub counts: Counts,
    /// Totals by kernel region. A region a checked kernel entered is
    /// listed even when clean, so a clean report names what it covered.
    pub per_region: BTreeMap<&'static str, Counts>,
    /// The first [`MAX_SITES`] violations, in detection order.
    pub sites: Vec<Violation>,
    /// Violations beyond the site cap (counted, not retained).
    pub dropped_sites: u64,
    /// Checks executed, clean or not — distinguishes "clean because
    /// checked" from "clean because skipped".
    pub checks_run: u64,
}

impl Report {
    /// A report with nothing recorded.
    pub fn new() -> Report {
        Report::default()
    }

    /// True when no error-class breach was recorded (discarded shuffle
    /// reads are informational and do not dirty a run).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Total error-class breaches.
    pub fn errors(&self) -> u64 {
        self.counts.errors()
    }

    /// Count recorded against one invariant class.
    pub fn count(&self, inv: Invariant) -> u64 {
        self.counts[inv]
    }

    /// Notes one executed check.
    pub fn note_check(&mut self) {
        self.checks_run += 1;
    }

    /// Counts one breach of `invariant` — in `region`'s row too, when a
    /// kernel check fired — and retains the site `site` builds while
    /// fewer than [`MAX_SITES`] are held. `site` runs only then.
    pub fn record(
        &mut self,
        invariant: Invariant,
        region: Option<&'static str>,
        site: impl FnOnce() -> Violation,
    ) {
        let i = invariant as usize;
        self.counts.0[i] += 1;
        if let Some(r) = region {
            self.per_region.entry(r).or_default().0[i] += 1;
        }
        if self.sites.len() < MAX_SITES {
            self.sites.push(site());
        } else {
            self.dropped_sites += 1;
        }
    }

    /// Records `n` further breaches of one structural invariant behind a
    /// single summary site — keeps counts exact when a scan finds
    /// thousands of identical breaches without flooding the site list.
    pub fn record_bulk(&mut self, invariant: Invariant, site: &str, n: u64) {
        if n == 0 {
            return;
        }
        self.counts.0[invariant as usize] += n;
        if self.sites.len() < MAX_SITES {
            self.sites.push(Violation {
                invariant,
                site: site.to_string(),
                warp: None,
                index: None,
                detail: format!("... {n} further element(s) break the same rule"),
            });
            self.dropped_sites += n - 1;
        } else {
            self.dropped_sites += n;
        }
    }

    /// Folds another report into this one (shard, launch or layer merge).
    pub fn merge(&mut self, other: &Report) {
        self.counts.merge(&other.counts);
        for (region, c) in &other.per_region {
            self.per_region.entry(region).or_default().merge(c);
        }
        let room = MAX_SITES.saturating_sub(self.sites.len());
        let kept = other.sites.len().min(room);
        self.sites.extend_from_slice(&other.sites[..kept]);
        self.dropped_sites += (other.sites.len() - kept) as u64 + other.dropped_sites;
        self.checks_run += other.checks_run;
    }

    /// One-line summary of the error counts by class, for embedding in
    /// rejection messages (`plan_match:1, ptr_monotone:3`).
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("clean ({} checks)", self.checks_run);
        }
        let by: Vec<String> = self
            .counts
            .nonzero()
            .filter(|(inv, _)| inv.is_error())
            .map(|(inv, n)| format!("{inv}:{n}"))
            .collect();
        format!("{} violation(s): {}", self.errors(), by.join(", "))
    }

    /// Serializes the report as one JSON object (the `--verify-plan-out`
    /// and `--sanitize-out` artifacts). Count objects list nonzero
    /// classes only.
    pub fn to_json(&self) -> String {
        let regions: Vec<String> = self
            .per_region
            .iter()
            .map(|(r, c)| format!("\"{}\":{}", escape_json(r), c.to_json()))
            .collect();
        let sites: Vec<String> = self.sites.iter().map(Violation::to_json).collect();
        format!(
            "{{\"clean\":{},\"errors\":{},\"checks_run\":{},\"counts\":{},\"per_region\":{{{}}},\
             \"sites\":[{}],\"dropped_sites\":{}}}",
            self.is_clean(),
            self.errors(),
            self.checks_run,
            self.counts.to_json(),
            regions.join(","),
            sites.join(","),
            self.dropped_sites
        )
    }

    /// Publishes the report into a `dasp-trace` registry as counters
    /// `{prefix}.errors`, `{prefix}.checks_run` and `{prefix}.<class>`
    /// for every class with a nonzero count.
    pub fn export_metrics(&self, registry: &dasp_trace::Registry, prefix: &str) {
        registry.counter_add(&format!("{prefix}.errors"), self.errors());
        registry.counter_add(&format!("{prefix}.checks_run"), self.checks_run);
        for (inv, n) in self.counts.nonzero() {
            registry.counter_add(&format!("{prefix}.{inv}"), n);
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let info = self.count(Invariant::ShflDiscarded);
        if self.is_clean() {
            write!(f, "clean ({} checks", self.checks_run)?;
            if info > 0 {
                write!(f, ", {info} discarded shuffle read(s)")?;
            }
            if !self.per_region.is_empty() {
                let regions: Vec<&str> = self.per_region.keys().copied().collect();
                write!(
                    f,
                    " across {} region(s): {}",
                    regions.len(),
                    regions.join(", ")
                )?;
            }
            return write!(f, ")");
        }
        writeln!(
            f,
            "{} violation(s) ({} checks, {info} discarded shuffle read(s))",
            self.errors(),
            self.checks_run
        )?;
        for (inv, n) in self.counts.nonzero() {
            writeln!(f, "  {inv}: {n}")?;
        }
        for (region, c) in &self.per_region {
            if c.errors() > 0 {
                writeln!(f, "  in {region}: {} violation(s)", c.errors())?;
            }
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
            warp: None,
            index: None,
            detail: "cid 99 >= cols 10".to_string(),
        }
    }

    fn race(r: &mut Report) {
        r.record(Invariant::Race, Some("a"), || Violation {
            warp: Some(1),
            index: Some(7),
            ..v(Invariant::Race)
        });
    }

    #[test]
    fn record_bumps_totals_and_regions() {
        let mut r = Report::new();
        race(&mut r);
        r.record(Invariant::ShflDiscarded, Some("a"), || {
            v(Invariant::ShflDiscarded)
        });
        r.record(Invariant::CidRange, None, || v(Invariant::CidRange));
        r.record(Invariant::CidRange, None, || v(Invariant::CidRange));
        assert_eq!(r.count(Invariant::Race), 1);
        assert_eq!(r.count(Invariant::ShflDiscarded), 1);
        assert_eq!(r.count(Invariant::CidRange), 2);
        assert_eq!(r.errors(), 3);
        assert!(!r.is_clean());
        assert_eq!(r.per_region["a"][Invariant::Race], 1);
        assert_eq!(r.per_region.len(), 1, "structural breaches have no region");
        assert_eq!(r.sites.len(), 4);
    }

    #[test]
    fn discarded_shuffle_alone_is_clean() {
        let mut r = Report::new();
        r.record(Invariant::ShflDiscarded, Some("x"), || {
            v(Invariant::ShflDiscarded)
        });
        assert!(r.is_clean());
        assert!(r.to_string().starts_with("clean"), "{r}");
    }

    #[test]
    fn site_cap_drops_but_keeps_counting_and_formats_nothing_past_it() {
        let mut r = Report::new();
        for _ in 0..MAX_SITES {
            race(&mut r);
        }
        for _ in 0..5 {
            r.record(Invariant::Race, Some("a"), || {
                panic!("formatted past the cap")
            });
        }
        assert_eq!(r.sites.len(), MAX_SITES);
        assert_eq!(r.dropped_sites, 5);
        assert_eq!(r.count(Invariant::Race), (MAX_SITES + 5) as u64);
    }

    #[test]
    fn bulk_records_count_exactly_behind_one_site() {
        let mut r = Report::new();
        r.record_bulk(Invariant::RowRange, "short", 40);
        assert_eq!(r.count(Invariant::RowRange), 40);
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.dropped_sites, 39);
    }

    #[test]
    fn merge_sums_counts_regions_and_checks() {
        let mut a = Report::new();
        race(&mut a);
        a.record(Invariant::PtrMonotone, None, || v(Invariant::PtrMonotone));
        a.note_check();
        let mut b = Report::new();
        race(&mut b);
        b.record(Invariant::UninitRead, Some("c"), || {
            v(Invariant::UninitRead)
        });
        b.record(Invariant::PtrMonotone, None, || v(Invariant::PtrMonotone));
        b.note_check();
        a.merge(&b);
        assert_eq!(a.errors(), 5);
        assert_eq!(a.checks_run, 2);
        assert_eq!(a.count(Invariant::Race), 2);
        assert_eq!(a.count(Invariant::PtrMonotone), 2);
        assert_eq!(a.per_region["a"][Invariant::Race], 2);
        assert_eq!(a.per_region["c"][Invariant::UninitRead], 1);
        assert_eq!(a.sites.len(), 5);
    }

    #[test]
    fn json_parses_and_is_tagged() {
        let mut r = Report::new();
        race(&mut r);
        r.record(Invariant::NnzPartition, None, || v(Invariant::NnzPartition));
        let j = r.to_json();
        let doc = dasp_trace::Json::parse(&j).expect("valid JSON");
        assert_eq!(doc.get("clean"), Some(&dasp_trace::Json::Bool(false)));
        let counts = doc.get("counts").unwrap();
        assert_eq!(counts.get("race").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(
            counts.get("nnz_partition").and_then(|n| n.as_u64()),
            Some(1)
        );
        let site = &doc.get("sites").unwrap().as_arr().unwrap()[0];
        assert_eq!(site.get("invariant").unwrap().as_str(), Some("race"));
        assert_eq!(site.get("warp").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(site.get("index").and_then(|n| n.as_u64()), Some(7));
    }

    #[test]
    fn json_survives_adversarial_strings() {
        // Quotes, backslashes, a stray escape sequence, every control
        // character from NUL to U+001F, DEL, non-ASCII and a line
        // separator, in both site and detail.
        let control: String = (0u8..0x20).map(char::from).collect();
        let nasty = format!("q\"b\\s\\u00zz/{control}\u{7f}é✓\u{2028}");
        let mut r = Report::new();
        r.record(Invariant::CidRange, None, || Violation {
            site: nasty.clone(),
            detail: nasty.clone(),
            ..v(Invariant::CidRange)
        });
        r.record(Invariant::RowRange, None, || v(Invariant::RowRange));
        let j = r.to_json();
        assert_eq!(dasp_trace::validate_json(&j), Ok(()), "invalid JSON: {j:?}");
        assert!(j.contains("\\u0000") && j.contains("\\n") && j.contains("\\\""));
    }

    #[test]
    fn metrics_export_lands_in_registry_under_the_prefix() {
        let reg = dasp_trace::Registry::new();
        let mut r = Report::new();
        race(&mut r);
        r.record(Invariant::PayloadSize, None, || v(Invariant::PayloadSize));
        r.note_check();
        r.export_metrics(&reg, "verify");
        assert_eq!(reg.counter("verify.race"), Some(1));
        assert_eq!(reg.counter("verify.payload_size"), Some(1));
        assert_eq!(reg.counter("verify.errors"), Some(2));
        assert_eq!(reg.counter("verify.checks_run"), Some(1));
        assert_eq!(reg.counter("verify.uninit_read"), None);
    }
}
