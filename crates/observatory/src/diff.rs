//! Exact comparison between two snapshots.
//!
//! Every field a snapshot holds is deterministic: the suite pins the
//! device model and the sequential executor, and the model and counters
//! are pure functions of the kernels. So the gate has no threshold and no
//! noise band. A workload fails when it appears, disappears, or differs
//! in `nnz` or in any of its 13 modeled, traffic or ops fields; the only
//! way to move a modeled number is to commit a new `BENCH_<seq>.json` and
//! say why.

use crate::snapshot::{BenchSnapshot, Workload};
use dasp_trace::{escape_json, fmt_f64};

/// Per-workload outcome of a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every field identical.
    Ok,
    /// At least one field differs.
    Changed,
    /// Present only in the new snapshot.
    New,
    /// Present only in the old snapshot.
    Missing,
}

impl Verdict {
    /// Lower-case label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Changed => "changed",
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
    /// Old modeled time, microseconds (0 for [`Verdict::New`]).
    pub modeled_old_us: f64,
    /// New modeled time, microseconds (0 for [`Verdict::Missing`]).
    pub modeled_new_us: f64,
    /// Every differing field as `name old -> new`, or why the row is
    /// unpaired; empty when the verdict is `Ok`.
    pub why: String,
}

/// The full comparison of two snapshots.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Sequence number of the old snapshot.
    pub old_seq: u64,
    /// Sequence number of the new snapshot.
    pub new_seq: u64,
    /// Per-workload rows, sorted by id.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Rows that fail the gate: every row that is not `Ok`.
    pub fn failures(&self) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.verdict != Verdict::Ok)
            .collect()
    }

    /// Whether every workload is identical on both sides.
    pub fn passes(&self) -> bool {
        self.failures().is_empty()
    }

    /// Renders the human comparison table plus a one-line verdict.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34}  {:>9}  {:>9}  verdict\n",
            "workload", "model_old", "model_new"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<34}  {:>9.2}  {:>9.2}  {}\n",
                r.id,
                r.modeled_old_us,
                r.modeled_new_us,
                r.verdict.label(),
            ));
        }
        let fails = self.failures();
        if fails.is_empty() {
            out.push_str(&format!(
                "\nPASS: all {} workloads identical (seq {} -> {}).\n",
                self.rows.len(),
                self.old_seq,
                self.new_seq
            ));
        } else {
            out.push_str(&format!(
                "\nFAIL: {} workload(s) differ (seq {} -> {}):\n",
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
        out.push_str("  \"schema_version\": 2,\n");
        out.push_str("  \"kind\": \"dasp-bench-diff\",\n");
        out.push_str(&format!("  \"old_seq\": {},\n", self.old_seq));
        out.push_str(&format!("  \"new_seq\": {},\n", self.new_seq));
        out.push_str(&format!("  \"failures\": {},\n", self.failures().len()));
        out.push_str(&format!("  \"pass\": {},\n", self.passes()));
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"verdict\": \"{}\", \
                 \"modeled_old_us\": {}, \"modeled_new_us\": {}, \"why\": \"{}\"}}",
                escape_json(&r.id),
                r.verdict.label(),
                fmt_f64(r.modeled_old_us),
                fmt_f64(r.modeled_new_us),
                escape_json(&r.why),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Compares `new` against `old` workload by workload.
pub fn diff_snapshots(old: &BenchSnapshot, new: &BenchSnapshot) -> DiffReport {
    let mut rows = Vec::new();
    for ow in &old.workloads {
        rows.push(match new.workload(&ow.id) {
            Some(nw) => compare(ow, nw),
            None => DiffRow {
                id: ow.id.clone(),
                verdict: Verdict::Missing,
                modeled_old_us: ow.modeled.us,
                modeled_new_us: 0.0,
                why: "workload missing from new snapshot".to_string(),
            },
        });
    }
    for nw in &new.workloads {
        if old.workload(&nw.id).is_none() {
            rows.push(DiffRow {
                id: nw.id.clone(),
                verdict: Verdict::New,
                modeled_old_us: 0.0,
                modeled_new_us: nw.modeled.us,
                why: "workload absent from old snapshot".to_string(),
            });
        }
    }
    rows.sort_by(|a, b| a.id.cmp(&b.id));
    DiffReport {
        old_seq: old.seq,
        new_seq: new.seq,
        rows,
    }
}

fn compare(ow: &Workload, nw: &Workload) -> DiffRow {
    let mut why = Vec::new();
    let (om, nm) = (&ow.modeled, &nw.modeled);
    for (name, old, new) in [
        ("modeled.us", om.us, nm.us),
        ("modeled.random_share", om.random_share, nm.random_share),
        ("modeled.compute_share", om.compute_share, nm.compute_share),
        ("modeled.misc_share", om.misc_share, nm.misc_share),
        ("modeled.gflops", om.gflops, nm.gflops),
    ] {
        // By bit pattern: a 1-ulp move is a change.
        if old.to_bits() != new.to_bits() {
            why.push(format!("{name} {old} -> {new}"));
        }
    }
    let (ot, nt, oo, no) = (&ow.traffic, &nw.traffic, &ow.ops, &nw.ops);
    for (name, old, new) in [
        ("nnz", ow.nnz, nw.nnz),
        ("traffic.dram_bytes", ot.dram_bytes, nt.dram_bytes),
        ("traffic.bytes_val", ot.bytes_val, nt.bytes_val),
        ("traffic.bytes_idx", ot.bytes_idx, nt.bytes_idx),
        ("traffic.x_requests", ot.x_requests, nt.x_requests),
        ("traffic.x_hits", ot.x_hits, nt.x_hits),
        ("ops.mma_ops", oo.mma_ops, no.mma_ops),
        ("ops.fma_ops", oo.fma_ops, no.fma_ops),
        ("ops.launches", oo.launches, no.launches),
    ] {
        if old != new {
            why.push(format!("{name} {old} -> {new}"));
        }
    }
    DiffRow {
        id: ow.id.clone(),
        verdict: if why.is_empty() {
            Verdict::Ok
        } else {
            Verdict::Changed
        },
        modeled_old_us: ow.modeled.us,
        modeled_new_us: nw.modeled.us,
        why: why.join("; "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::{sample_snapshot, sample_workload};

    const ID: &str = "spmv/banded/dasp";

    /// Diffs the sample snapshot against a copy with `edit` applied.
    fn diff_after(edit: impl FnOnce(&mut BenchSnapshot)) -> DiffReport {
        let old = sample_snapshot();
        let mut new = old.clone();
        new.seq = 2;
        edit(&mut new);
        diff_snapshots(&old, &new)
    }

    fn edit_workload(edit: impl FnOnce(&mut Workload)) -> DiffReport {
        diff_after(|s| edit(s.workloads.iter_mut().find(|w| w.id == ID).unwrap()))
    }

    /// Asserts the diff fails on exactly one row, `id`, with `verdict`
    /// and a reason naming `needle`.
    fn assert_fails(report: &DiffReport, id: &str, verdict: Verdict, needle: &str) {
        let fails = report.failures();
        assert_eq!(fails.len(), 1, "{}", report.render_table());
        assert_eq!((fails[0].id.as_str(), fails[0].verdict), (id, verdict));
        assert!(fails[0].why.contains(needle), "{}", fails[0].why);
        assert!(report.render_table().contains("FAIL: 1 workload"));
        assert!(report.to_json().contains("\"pass\": false"));
    }

    #[test]
    fn identical_snapshots_pass_cleanly() {
        let report = diff_after(|_| {});
        assert!(report.passes());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(report.render_table().contains("PASS"), "table");
        assert!(report.to_json().contains("\"pass\": true"));
    }

    #[test]
    fn one_ulp_of_modeled_time_fails() {
        let report = edit_workload(|w| w.modeled.us = f64::from_bits(w.modeled.us.to_bits() + 1));
        assert_fails(&report, ID, Verdict::Changed, "modeled.us");
    }

    #[test]
    fn one_count_of_any_counter_fails() {
        for (needle, edit) in [
            (
                "traffic.x_hits",
                (|w| w.traffic.x_hits += 1) as fn(&mut Workload),
            ),
            ("traffic.x_hits", |w| w.traffic.x_hits -= 1),
            ("ops.mma_ops", |w| w.ops.mma_ops += 1),
            ("ops.mma_ops", |w| w.ops.mma_ops -= 1),
            ("nnz", |w| w.nnz += 1),
        ] {
            assert_fails(&edit_workload(edit), ID, Verdict::Changed, needle);
        }
    }

    #[test]
    fn new_and_missing_rows_fail() {
        let report = diff_after(|s| s.workloads.push(sample_workload("spmv/rmat/dasp", 9.0)));
        assert_fails(&report, "spmv/rmat/dasp", Verdict::New, "absent");
        let report = diff_after(|s| s.workloads.retain(|w| w.id != ID));
        assert_fails(&report, ID, Verdict::Missing, "missing");
    }

    #[test]
    fn adversarial_ids_round_trip_through_the_verdict_json() {
        use crate::snapshot::tests::ADVERSARIAL;
        use dasp_trace::Json;
        let id = format!("spmv/{ADVERSARIAL}/dasp");
        let old = BenchSnapshot {
            workloads: vec![sample_workload(&id, 10.0)],
            ..sample_snapshot()
        };
        let mut new = old.clone();
        new.workloads[0].modeled.us = 15.0;
        let json = diff_snapshots(&old, &new).to_json();
        assert!(dasp_trace::validate_json(&json).is_ok(), "{json}");
        let doc = Json::parse(&json).unwrap();
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].req_str("id").unwrap(), id);
        assert!(rows[0]
            .req_str("why")
            .unwrap()
            .contains("modeled.us 10 -> 15"));
    }
}
