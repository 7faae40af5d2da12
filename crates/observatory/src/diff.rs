//! Noise-aware regression comparison between two snapshots.
//!
//! Wall-clock medians are noisy, so a naive percent threshold either
//! false-positives on quiet machines or misses real slowdowns on loud
//! ones. The gate here requires **both** conditions:
//!
//! 1. the relative change exceeds the threshold (default 10%), and
//! 2. the absolute change exceeds `mad_factor` (default 2) times the
//!    combined standard error of the two medians.
//!
//! Each snapshot records the per-workload sample MAD; the uncertainty of
//! a *median* of `n` samples is about `1.4826 * MAD / sqrt(n)` (the
//! normal-consistent MAD scaling), and the two runs' errors add in
//! quadrature. Using the raw MAD sum instead would conflate sample
//! spread with median uncertainty: the suite's interleaved sampling
//! deliberately lets each series absorb machine drift, so raw MADs run
//! 5–10% of the median and a band of `3 * (mad_old + mad_new)` would
//! swallow real 20% slowdowns.
//!
//! The band additionally has a **relative drift floor** (default 15% of
//! the old median). Within-run statistics cannot see *between-run*
//! machine drift — on a loaded shared host an entire run's sweeps can be
//! 10–15% slower than a run a minute earlier, with every sample shifted
//! together so the MAD stays small. The floor encodes that a shift a
//! co-tenant can produce is not attributable to the code under test;
//! only slowdowns past both the standard-error band and the floor fail
//! the gate.
//!
//! Modeled GPU time is deterministic for a given build, so it gets a
//! plain (tighter) relative threshold with no noise band. A workload that
//! regresses on either axis fails the diff; a workload present in the
//! old snapshot but missing from the new one also fails (a silently
//! dropped workload must not pass a perf gate).

use crate::snapshot::{BenchSnapshot, Workload};
use dasp_trace::{escape_json, fmt_f64};

/// Thresholds for [`diff_snapshots`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Relative wall-clock change above which a slowdown is suspect.
    pub wall_threshold: f64,
    /// Noise multiplier: the absolute wall change must also exceed
    /// `mad_factor` times the combined standard error of the two medians
    /// (`1.4826 * mad / sqrt(reps)` per side, added in quadrature).
    pub mad_factor: f64,
    /// Floor on the wall noise band as a fraction of the old median,
    /// covering between-run machine drift invisible to within-run MADs
    /// (whole runs shift together on a loaded host). The band is
    /// `max(mad_factor * se, drift_floor * old_median)`.
    pub drift_floor: f64,
    /// Relative threshold for the deterministic modeled time.
    pub modeled_threshold: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            wall_threshold: 0.10,
            mad_factor: 2.0,
            drift_floor: 0.15,
            modeled_threshold: 0.02,
        }
    }
}

/// Per-workload outcome of a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise bands on every axis.
    Ok,
    /// Slower beyond threshold + noise on at least one axis.
    Regressed,
    /// Faster beyond threshold + noise (and regressed on no axis).
    Improved,
    /// Present only in the new snapshot.
    New,
    /// Present only in the old snapshot — fails the gate.
    Missing,
}

impl Verdict {
    /// Lower-case label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::New => "new",
            Verdict::Missing => "missing",
        }
    }
}

/// One workload's comparison.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Workload id.
    pub id: String,
    /// Outcome.
    pub verdict: Verdict,
    /// Old wall median, microseconds (0 for [`Verdict::New`]).
    pub wall_old_us: f64,
    /// New wall median, microseconds (0 for [`Verdict::Missing`]).
    pub wall_new_us: f64,
    /// Relative wall change (`new/old - 1`; 0 when either side absent).
    pub wall_rel: f64,
    /// Old modeled time, microseconds.
    pub modeled_old_us: f64,
    /// New modeled time, microseconds.
    pub modeled_new_us: f64,
    /// Relative modeled change.
    pub modeled_rel: f64,
    /// Human explanation when the verdict is not `Ok` (which axis, by how
    /// much, against what noise band).
    pub why: String,
}

/// The full comparison of two snapshots.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Sequence number of the old snapshot.
    pub old_seq: u64,
    /// Sequence number of the new snapshot.
    pub new_seq: u64,
    /// Thresholds used.
    pub config: DiffConfig,
    /// Per-workload rows, sorted by id.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Rows that fail the gate (regressed or missing).
    pub fn failures(&self) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
            .collect()
    }

    /// Whether the diff should fail a gate.
    pub fn has_regression(&self) -> bool {
        !self.failures().is_empty()
    }

    /// Renders the human comparison table plus a one-line verdict.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34}  {:>9}  {:>9}  {:>7}  {:>9}  {:>9}  {:>7}  verdict\n",
            "workload", "wall_old", "wall_new", "wall%", "model_old", "model_new", "model%"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<34}  {:>9.1}  {:>9.1}  {:>+6.1}%  {:>9.2}  {:>9.2}  {:>+6.1}%  {}{}\n",
                r.id,
                r.wall_old_us,
                r.wall_new_us,
                100.0 * r.wall_rel,
                r.modeled_old_us,
                r.modeled_new_us,
                100.0 * r.modeled_rel,
                r.verdict.label(),
                if r.why.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", r.why)
                }
            ));
        }
        let fails = self.failures();
        if fails.is_empty() {
            out.push_str(&format!(
                "\nPASS: no regressions across {} workloads (seq {} -> {}).\n",
                self.rows.len(),
                self.old_seq,
                self.new_seq
            ));
        } else {
            out.push_str(&format!(
                "\nFAIL: {} regression(s) (seq {} -> {}):\n",
                fails.len(),
                self.old_seq,
                self.new_seq
            ));
            for r in fails {
                out.push_str(&format!("  {}: {}\n", r.id, r.why));
            }
        }
        out
    }

    /// Machine-readable verdict JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str("  \"kind\": \"dasp-bench-diff\",\n");
        out.push_str(&format!("  \"old_seq\": {},\n", self.old_seq));
        out.push_str(&format!("  \"new_seq\": {},\n", self.new_seq));
        out.push_str(&format!(
            "  \"wall_threshold\": {},\n",
            fmt_f64(self.config.wall_threshold)
        ));
        out.push_str(&format!(
            "  \"mad_factor\": {},\n",
            fmt_f64(self.config.mad_factor)
        ));
        out.push_str(&format!(
            "  \"drift_floor\": {},\n",
            fmt_f64(self.config.drift_floor)
        ));
        out.push_str(&format!(
            "  \"modeled_threshold\": {},\n",
            fmt_f64(self.config.modeled_threshold)
        ));
        out.push_str(&format!("  \"regressions\": {},\n", self.failures().len()));
        out.push_str(&format!("  \"pass\": {},\n", !self.has_regression()));
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"verdict\": \"{}\", \
                 \"wall_old_us\": {}, \"wall_new_us\": {}, \"wall_rel\": {}, \
                 \"modeled_old_us\": {}, \"modeled_new_us\": {}, \"modeled_rel\": {}, \
                 \"why\": \"{}\"}}",
                escape_json(&r.id),
                r.verdict.label(),
                fmt_f64(r.wall_old_us),
                fmt_f64(r.wall_new_us),
                fmt_f64(r.wall_rel),
                fmt_f64(r.modeled_old_us),
                fmt_f64(r.modeled_new_us),
                fmt_f64(r.modeled_rel),
                escape_json(&r.why),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn rel(old: f64, new: f64) -> f64 {
    if old <= 0.0 {
        0.0
    } else {
        new / old - 1.0
    }
}

/// Compares `new` against `old` workload by workload.
pub fn diff_snapshots(old: &BenchSnapshot, new: &BenchSnapshot, cfg: DiffConfig) -> DiffReport {
    let mut rows = Vec::new();
    for ow in &old.workloads {
        match new.workload(&ow.id) {
            Some(nw) => rows.push(compare(ow, nw, &cfg)),
            None => rows.push(DiffRow {
                id: ow.id.clone(),
                verdict: Verdict::Missing,
                wall_old_us: ow.wall.median_us,
                wall_new_us: 0.0,
                wall_rel: 0.0,
                modeled_old_us: ow.modeled.us,
                modeled_new_us: 0.0,
                modeled_rel: 0.0,
                why: "workload missing from new snapshot".to_string(),
            }),
        }
    }
    for nw in &new.workloads {
        if old.workload(&nw.id).is_none() {
            rows.push(DiffRow {
                id: nw.id.clone(),
                verdict: Verdict::New,
                wall_old_us: 0.0,
                wall_new_us: nw.wall.median_us,
                wall_rel: 0.0,
                modeled_old_us: 0.0,
                modeled_new_us: nw.modeled.us,
                modeled_rel: 0.0,
                why: "new workload (no baseline)".to_string(),
            });
        }
    }
    rows.sort_by(|a, b| a.id.cmp(&b.id));
    DiffReport {
        old_seq: old.seq,
        new_seq: new.seq,
        config: cfg,
        rows,
    }
}

/// Standard error of a series' median: normal-consistent MAD scaling
/// over root-n.
fn median_se_us(w: &crate::snapshot::WallStats) -> f64 {
    1.4826 * w.mad_us / (w.reps.max(1) as f64).sqrt()
}

fn compare(ow: &Workload, nw: &Workload, cfg: &DiffConfig) -> DiffRow {
    let wall_rel = rel(ow.wall.median_us, nw.wall.median_us);
    let modeled_rel = rel(ow.modeled.us, nw.modeled.us);
    let se = (median_se_us(&ow.wall).powi(2) + median_se_us(&nw.wall).powi(2)).sqrt();
    let noise_us = (cfg.mad_factor * se).max(cfg.drift_floor * ow.wall.median_us);
    let wall_delta = nw.wall.median_us - ow.wall.median_us;

    // Both conditions must hold for wall verdicts: past the relative
    // threshold AND outside the combined noise band.
    let wall_signif = wall_rel.abs() > cfg.wall_threshold && wall_delta.abs() > noise_us;
    let wall_regressed = wall_signif && wall_delta > 0.0;
    let wall_improved = wall_signif && wall_delta < 0.0;

    let modeled_regressed = modeled_rel > cfg.modeled_threshold;
    let modeled_improved = modeled_rel < -cfg.modeled_threshold;

    let mut why = Vec::new();
    if wall_regressed {
        why.push(format!(
            "wall {:+.1}% exceeds {:.0}% and noise band ±{:.1}us",
            100.0 * wall_rel,
            100.0 * cfg.wall_threshold,
            noise_us
        ));
    }
    if modeled_regressed {
        why.push(format!(
            "modeled {:+.1}% exceeds {:.0}%",
            100.0 * modeled_rel,
            100.0 * cfg.modeled_threshold
        ));
    }

    let verdict = if wall_regressed || modeled_regressed {
        Verdict::Regressed
    } else if wall_improved || modeled_improved {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    DiffRow {
        id: ow.id.clone(),
        verdict,
        wall_old_us: ow.wall.median_us,
        wall_new_us: nw.wall.median_us,
        wall_rel,
        modeled_old_us: ow.modeled.us,
        modeled_new_us: nw.modeled.us,
        modeled_rel,
        why: why.join("; "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Modeled, OpsCounters, TrafficCounters, WallStats};

    fn workload(id: &str, median_us: f64, mad_us: f64, modeled_us: f64) -> Workload {
        Workload {
            id: id.to_string(),
            nnz: 1000,
            wall: WallStats {
                reps: 5,
                median_us,
                mad_us,
                min_us: median_us - mad_us,
                max_us: median_us + mad_us,
            },
            modeled: Modeled {
                us: modeled_us,
                random_share: 0.25,
                compute_share: 0.21,
                misc_share: 0.54,
                gflops: 100.0,
            },
            traffic: TrafficCounters::default(),
            ops: OpsCounters::default(),
        }
    }

    fn snapshot(seq: u64, workloads: Vec<Workload>) -> BenchSnapshot {
        BenchSnapshot {
            seq,
            git_rev: "test".to_string(),
            profile: "quick".to_string(),
            device: "a100".to_string(),
            executor: "seq".to_string(),
            reps: 5,
            workloads,
        }
    }

    #[test]
    fn noisy_shift_within_mad_band_is_not_a_regression() {
        // 12% slower clears the 10% threshold, but with MADs of 8us over
        // 5 reps each median's se is 1.4826*8/sqrt(5) = 5.3us, combined
        // 7.5us, band 2*7.5 = 15us — a 12us shift stays inside it. The
        // drift floor is lowered below the shift so the se band alone
        // carries this test.
        let old = snapshot(1, vec![workload("spmv/banded/dasp", 100.0, 8.0, 10.0)]);
        let new = snapshot(2, vec![workload("spmv/banded/dasp", 112.0, 8.0, 10.0)]);
        let cfg = DiffConfig {
            drift_floor: 0.05,
            ..DiffConfig::default()
        };
        let report = diff_snapshots(&old, &new, cfg);
        assert!(!report.has_regression(), "{}", report.render_table());
        assert_eq!(report.rows[0].verdict, Verdict::Ok);
    }

    #[test]
    fn between_run_drift_under_the_floor_is_not_a_regression() {
        // A whole run 13% slower with tiny MADs: within-run statistics
        // look rock solid (se band ~1us), but the default 15% drift
        // floor recognizes this as machine drift, not a code regression.
        let old = snapshot(1, vec![workload("spmv/banded/dasp", 100.0, 1.0, 10.0)]);
        let new = snapshot(2, vec![workload("spmv/banded/dasp", 113.0, 1.0, 10.0)]);
        let report = diff_snapshots(&old, &new, DiffConfig::default());
        assert!(!report.has_regression(), "{}", report.render_table());
        assert_eq!(report.rows[0].verdict, Verdict::Ok);
        // Zeroing the floor exposes the same shift as a regression.
        let no_floor = DiffConfig {
            drift_floor: 0.0,
            ..DiffConfig::default()
        };
        assert!(diff_snapshots(&old, &new, no_floor).has_regression());
    }

    #[test]
    fn planted_twenty_percent_slowdown_is_flagged_by_name() {
        let old = snapshot(
            1,
            vec![
                workload("spmv/banded/dasp", 100.0, 1.0, 10.0),
                workload("spmv/rmat/csr5", 200.0, 1.0, 20.0),
            ],
        );
        let new = snapshot(
            2,
            vec![
                workload("spmv/banded/dasp", 120.0, 1.0, 10.0),
                workload("spmv/rmat/csr5", 201.0, 1.0, 20.0),
            ],
        );
        let report = diff_snapshots(&old, &new, DiffConfig::default());
        assert!(report.has_regression());
        let fails = report.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].id, "spmv/banded/dasp");
        assert_eq!(fails[0].verdict, Verdict::Regressed);
        // The offending workload is named in both renderings.
        let table = report.render_table();
        assert!(table.contains("FAIL: 1 regression"), "{table}");
        assert!(table.contains("spmv/banded/dasp: wall"), "{table}");
        let json = report.to_json();
        assert!(dasp_trace::validate_json(&json).is_ok());
        assert!(json.contains("\"pass\": false"), "{json}");
        assert!(json.contains("\"verdict\": \"regressed\""), "{json}");
    }

    #[test]
    fn adversarial_ids_round_trip_through_the_verdict_json() {
        use crate::snapshot::tests::ADVERSARIAL;
        use dasp_trace::Json;
        let id = format!("spmv/{ADVERSARIAL}/dasp");
        let old = snapshot(1, vec![workload(&id, 100.0, 1.0, 10.0)]);
        let new = snapshot(2, vec![workload(&id, 150.0, 1.0, 10.0)]);
        let json = diff_snapshots(&old, &new, DiffConfig::default()).to_json();
        assert!(dasp_trace::validate_json(&json).is_ok(), "{json}");
        let doc = Json::parse(&json).unwrap();
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].req_str("id").unwrap(), id);
        assert!(rows[0].req_str("why").unwrap().contains("wall"));
    }

    #[test]
    fn identical_snapshots_pass_cleanly() {
        let snap = snapshot(1, vec![workload("spmv/banded/dasp", 100.0, 2.0, 10.0)]);
        let report = diff_snapshots(&snap, &snap, DiffConfig::default());
        assert!(!report.has_regression());
        assert!(report.render_table().contains("PASS"), "table");
        assert!(report.to_json().contains("\"pass\": true"));
    }

    #[test]
    fn large_speedup_is_reported_as_improvement_not_failure() {
        let old = snapshot(1, vec![workload("spmv/banded/dasp", 100.0, 1.0, 10.0)]);
        let new = snapshot(2, vec![workload("spmv/banded/dasp", 70.0, 1.0, 9.9)]);
        let report = diff_snapshots(&old, &new, DiffConfig::default());
        assert!(!report.has_regression());
        assert_eq!(report.rows[0].verdict, Verdict::Improved);
    }

    #[test]
    fn modeled_time_regression_needs_no_noise_band() {
        // Wall identical, but the deterministic model says 5% slower.
        let old = snapshot(1, vec![workload("spmv/banded/dasp", 100.0, 5.0, 10.0)]);
        let new = snapshot(2, vec![workload("spmv/banded/dasp", 100.0, 5.0, 10.5)]);
        let report = diff_snapshots(&old, &new, DiffConfig::default());
        assert!(report.has_regression());
        assert!(
            report.failures()[0].why.contains("modeled"),
            "{:?}",
            report.rows
        );
    }

    #[test]
    fn missing_workload_fails_and_new_workload_passes() {
        let old = snapshot(
            1,
            vec![
                workload("spmv/banded/dasp", 100.0, 1.0, 10.0),
                workload("spmv/banded/hyb", 150.0, 1.0, 15.0),
            ],
        );
        let new = snapshot(
            2,
            vec![
                workload("spmv/banded/dasp", 100.0, 1.0, 10.0),
                workload("spmv/banded/sell-c-sigma", 90.0, 1.0, 9.0),
            ],
        );
        let report = diff_snapshots(&old, &new, DiffConfig::default());
        assert!(report.has_regression());
        let by_id = |id: &str| report.rows.iter().find(|r| r.id == id).unwrap();
        assert_eq!(by_id("spmv/banded/hyb").verdict, Verdict::Missing);
        assert_eq!(by_id("spmv/banded/sell-c-sigma").verdict, Verdict::New);
        assert_eq!(report.failures().len(), 1);
    }

    #[test]
    fn custom_thresholds_change_the_gate() {
        let old = snapshot(1, vec![workload("w", 100.0, 0.5, 10.0)]);
        let new = snapshot(2, vec![workload("w", 106.0, 0.5, 10.0)]);
        // Default 10% threshold: 6% is fine.
        assert!(!diff_snapshots(&old, &new, DiffConfig::default()).has_regression());
        // Tightened to 5% with a matching floor: now it fails (the noise
        // band, 2 combined standard errors = 0.9us, is far below the 6us
        // shift).
        let tight = DiffConfig {
            wall_threshold: 0.05,
            drift_floor: 0.02,
            ..DiffConfig::default()
        };
        assert!(diff_snapshots(&old, &new, tight).has_regression());
        // Same thresholds but a huge mad_factor swallows it again.
        let forgiving = DiffConfig {
            wall_threshold: 0.05,
            mad_factor: 30.0,
            drift_floor: 0.02,
            ..DiffConfig::default()
        };
        assert!(!diff_snapshots(&old, &new, forgiving).has_regression());
    }
}
