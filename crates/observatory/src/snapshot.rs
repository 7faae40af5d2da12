//! The versioned `BENCH_<seq>.json` snapshot schema.
//!
//! A snapshot is one suite run frozen to disk: schema/version header,
//! provenance (git revision, device, executor, matrix profile, rep
//! count), and one entry per workload carrying the wall-clock series
//! summary, the roofline model's estimate, and the traffic/op counters.
//! Snapshots committed at the repo root (`BENCH_0001.json`,
//! `BENCH_0002.json`, …) form the performance trajectory; `dasp-bench
//! diff` compares any two.
//!
//! Emission is deterministic — workloads sort by id, keys are in fixed
//! order — so re-serializing a parsed snapshot is byte-stable.

use std::path::{Path, PathBuf};

use dasp_trace::{escape_json, fmt_f64, Json};

/// Schema version this crate writes and reads.
pub const SCHEMA_VERSION: u64 = 1;

/// The `kind` discriminator every snapshot carries.
pub const SNAPSHOT_KIND: &str = "dasp-bench-snapshot";

/// Summary of a wall-clock sample series for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WallStats {
    /// Number of timed repetitions.
    pub reps: u64,
    /// Median of the samples, microseconds.
    pub median_us: f64,
    /// Median absolute deviation (unscaled), microseconds — the noise
    /// floor the diff gate widens its bands by.
    pub mad_us: f64,
    /// Fastest sample, microseconds.
    pub min_us: f64,
    /// Slowest sample, microseconds.
    pub max_us: f64,
}

/// The roofline model's view of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Modeled {
    /// Estimated GPU kernel time, microseconds. Deterministic for a given
    /// build, so the diff gate holds it to a plain threshold with no
    /// noise band.
    pub us: f64,
    /// RANDOM ACCESS share of attributed time (0..=1).
    pub random_share: f64,
    /// COMPUTE share of attributed time (0..=1).
    pub compute_share: f64,
    /// MISC share of attributed time (0..=1).
    pub misc_share: f64,
    /// Throughput, GFlops.
    pub gflops: f64,
}

/// DRAM/cache traffic counters for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficCounters {
    /// Total DRAM bytes (streamed arrays + x-miss line fills).
    pub dram_bytes: u64,
    /// Matrix value bytes streamed.
    pub bytes_val: u64,
    /// Column-index bytes streamed.
    pub bytes_idx: u64,
    /// x-gather requests issued.
    pub x_requests: u64,
    /// x-gather requests served by the modeled L2.
    pub x_hits: u64,
}

/// Instruction counters for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpsCounters {
    /// `mma.m8n8k4` issues.
    pub mma_ops: u64,
    /// Scalar fused multiply-adds.
    pub fma_ops: u64,
    /// Kernel launches.
    pub launches: u64,
}

/// One workload's record in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Stable id, e.g. `spmv/banded/dasp` or `spmm/rmat/dasp/rhs8`.
    pub id: String,
    /// Matrix nonzeros (provenance; also catches profile mismatches).
    pub nnz: u64,
    /// Wall-clock series summary.
    pub wall: WallStats,
    /// Modeled GPU time and attribution.
    pub modeled: Modeled,
    /// Traffic counters.
    pub traffic: TrafficCounters,
    /// Instruction counters.
    pub ops: OpsCounters,
}

/// One full suite run, as written to `BENCH_<seq>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Sequence number in the trajectory (1-based).
    pub seq: u64,
    /// Short git revision the run was built from (`unknown` outside a
    /// checkout).
    pub git_rev: String,
    /// Matrix profile: `quick` or `full`.
    pub profile: String,
    /// Device model name, e.g. `a100`.
    pub device: String,
    /// Executor: `seq` or `par`.
    pub executor: String,
    /// Wall-clock repetitions per workload.
    pub reps: u64,
    /// Per-workload records, sorted by id.
    pub workloads: Vec<Workload>,
}

impl BenchSnapshot {
    /// Serializes to the canonical JSON form: fixed key order, workloads
    /// sorted by id, one workload per line for reviewable diffs.
    pub fn to_json(&self) -> String {
        let mut ws = self.workloads.clone();
        ws.sort_by(|a, b| a.id.cmp(&b.id));
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"kind\": \"{SNAPSHOT_KIND}\",\n"));
        out.push_str(&format!("  \"seq\": {},\n", self.seq));
        out.push_str(&format!(
            "  \"git_rev\": \"{}\",\n",
            escape_json(&self.git_rev)
        ));
        out.push_str(&format!(
            "  \"profile\": \"{}\",\n",
            escape_json(&self.profile)
        ));
        out.push_str(&format!(
            "  \"device\": \"{}\",\n",
            escape_json(&self.device)
        ));
        out.push_str(&format!(
            "  \"executor\": \"{}\",\n",
            escape_json(&self.executor)
        ));
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str("  \"workloads\": [");
        for (i, w) in ws.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            out.push_str(&workload_json(w));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses and schema-validates a snapshot document.
    pub fn from_json(text: &str) -> Result<BenchSnapshot, String> {
        let doc = Json::parse(text)?;
        let version = doc.req_u64("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let kind = doc.req_str("kind")?;
        if kind != SNAPSHOT_KIND {
            return Err(format!("not a bench snapshot (kind {kind:?})"));
        }
        let workloads_json = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing `workloads` array")?;
        let mut workloads = Vec::with_capacity(workloads_json.len());
        for (i, w) in workloads_json.iter().enumerate() {
            workloads.push(parse_workload(w).map_err(|e| format!("workloads[{i}]: {e}"))?);
        }
        workloads.sort_by(|a, b| a.id.cmp(&b.id));
        for pair in workloads.windows(2) {
            if pair[0].id == pair[1].id {
                return Err(format!("duplicate workload id {:?}", pair[0].id));
            }
        }
        Ok(BenchSnapshot {
            seq: doc.req_u64("seq")?,
            git_rev: doc.req_str("git_rev")?.to_string(),
            profile: doc.req_str("profile")?.to_string(),
            device: doc.req_str("device")?.to_string(),
            executor: doc.req_str("executor")?.to_string(),
            reps: doc.req_u64("reps")?,
            workloads,
        })
    }

    /// The workload with the given id, if present.
    pub fn workload(&self, id: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.id == id)
    }
}

fn workload_json(w: &Workload) -> String {
    format!(
        "{{\"id\": \"{}\", \"nnz\": {}, \
         \"wall\": {{\"reps\": {}, \"median_us\": {}, \"mad_us\": {}, \"min_us\": {}, \"max_us\": {}}}, \
         \"modeled\": {{\"us\": {}, \"random_share\": {}, \"compute_share\": {}, \"misc_share\": {}, \"gflops\": {}}}, \
         \"traffic\": {{\"dram_bytes\": {}, \"bytes_val\": {}, \"bytes_idx\": {}, \"x_requests\": {}, \"x_hits\": {}}}, \
         \"ops\": {{\"mma_ops\": {}, \"fma_ops\": {}, \"launches\": {}}}}}",
        escape_json(&w.id),
        w.nnz,
        w.wall.reps,
        fmt_f64(w.wall.median_us),
        fmt_f64(w.wall.mad_us),
        fmt_f64(w.wall.min_us),
        fmt_f64(w.wall.max_us),
        fmt_f64(w.modeled.us),
        fmt_f64(w.modeled.random_share),
        fmt_f64(w.modeled.compute_share),
        fmt_f64(w.modeled.misc_share),
        fmt_f64(w.modeled.gflops),
        w.traffic.dram_bytes,
        w.traffic.bytes_val,
        w.traffic.bytes_idx,
        w.traffic.x_requests,
        w.traffic.x_hits,
        w.ops.mma_ops,
        w.ops.fma_ops,
        w.ops.launches,
    )
}

fn parse_workload(w: &Json) -> Result<Workload, String> {
    let wall = w.get("wall").ok_or("missing `wall`")?;
    let modeled = w.get("modeled").ok_or("missing `modeled`")?;
    let traffic = w.get("traffic").ok_or("missing `traffic`")?;
    let ops = w.get("ops").ok_or("missing `ops`")?;
    Ok(Workload {
        id: w.req_str("id")?.to_string(),
        nnz: w.req_u64("nnz")?,
        wall: WallStats {
            reps: wall.req_u64("reps")?,
            median_us: wall.req_f64("median_us")?,
            mad_us: wall.req_f64("mad_us")?,
            min_us: wall.req_f64("min_us")?,
            max_us: wall.req_f64("max_us")?,
        },
        modeled: Modeled {
            us: modeled.req_f64("us")?,
            random_share: modeled.req_f64("random_share")?,
            compute_share: modeled.req_f64("compute_share")?,
            misc_share: modeled.req_f64("misc_share")?,
            gflops: modeled.req_f64("gflops")?,
        },
        traffic: TrafficCounters {
            dram_bytes: traffic.req_u64("dram_bytes")?,
            bytes_val: traffic.req_u64("bytes_val")?,
            bytes_idx: traffic.req_u64("bytes_idx")?,
            x_requests: traffic.req_u64("x_requests")?,
            x_hits: traffic.req_u64("x_hits")?,
        },
        ops: OpsCounters {
            mma_ops: ops.req_u64("mma_ops")?,
            fma_ops: ops.req_u64("fma_ops")?,
            launches: ops.req_u64("launches")?,
        },
    })
}

/// The next free sequence number in `dir`: one past the highest
/// `BENCH_<n>.json` present, or 1 in a fresh directory. Non-matching
/// files are ignored.
pub fn next_seq(dir: &Path) -> u64 {
    let mut max = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(num) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
            else {
                continue;
            };
            if let Ok(n) = num.parse::<u64>() {
                max = max.max(n);
            }
        }
    }
    max + 1
}

/// The canonical path for sequence number `seq` in `dir`:
/// `BENCH_0007.json` style (4-digit zero padding keeps lexicographic and
/// numeric order aligned for the first 9999 snapshots).
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("BENCH_{seq:04}.json"))
}

/// The short git revision of the working tree: the `DASP_GIT_REV`
/// environment override if set (CI sets it from its own metadata), else
/// `git rev-parse --short HEAD`, else `"unknown"`.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("DASP_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_workload(id: &str, median_us: f64, mad_us: f64) -> Workload {
        Workload {
            id: id.to_string(),
            nnz: 1000,
            wall: WallStats {
                reps: 5,
                median_us,
                mad_us,
                min_us: median_us - mad_us,
                max_us: median_us + 2.0 * mad_us,
            },
            modeled: Modeled {
                us: 12.5,
                random_share: 0.25,
                compute_share: 0.21,
                misc_share: 0.54,
                gflops: 100.0,
            },
            traffic: TrafficCounters {
                dram_bytes: 123456,
                bytes_val: 8000,
                bytes_idx: 4000,
                x_requests: 1000,
                x_hits: 900,
            },
            ops: OpsCounters {
                mma_ops: 64,
                fma_ops: 128,
                launches: 6,
            },
        }
    }

    pub(crate) fn sample_snapshot() -> BenchSnapshot {
        BenchSnapshot {
            seq: 1,
            git_rev: "abc1234".to_string(),
            profile: "quick".to_string(),
            device: "a100".to_string(),
            executor: "seq".to_string(),
            reps: 5,
            workloads: vec![
                sample_workload("spmv/banded/dasp", 100.0, 3.0),
                sample_workload("spmv/banded/csr-scalar", 220.0, 5.0),
                sample_workload("spmm/rmat/dasp/rhs8", 400.0, 9.0),
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_byte_stable() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        assert!(dasp_trace::validate_json(&json).is_ok(), "{json}");
        let back = BenchSnapshot::from_json(&json).unwrap();
        // Workloads come back sorted by id regardless of input order.
        assert_eq!(back.workloads.len(), 3);
        assert!(back.workloads.windows(2).all(|p| p[0].id < p[1].id));
        assert_eq!(
            back.workload("spmv/banded/dasp").unwrap().wall.median_us,
            100.0
        );
        // Re-serializing the parsed snapshot reproduces identical bytes.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn committed_snapshots_parse_and_round_trip_byte_stable() {
        for (name, text) in [
            ("BENCH_0001", include_str!("../../../BENCH_0001.json")),
            ("BENCH_0002", include_str!("../../../BENCH_0002.json")),
            ("BENCH_0003", include_str!("../../../BENCH_0003.json")),
        ] {
            let snap = BenchSnapshot::from_json(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!snap.workloads.is_empty(), "{name}");
            assert_eq!(snap.to_json(), text, "{name} re-serializes differently");
        }
    }

    /// Quotes, backslashes, every escape class, raw control characters,
    /// DEL, non-ASCII and a JSON-vs-JavaScript line separator.
    pub(crate) const ADVERSARIAL: &str =
        "q\"b\\s/\n\r\t\u{0}\u{1}\u{1f}\u{7f} caf\u{e9} \u{1f980} \u{2028}\\u0041";

    #[test]
    fn adversarial_strings_round_trip() {
        let mut snap = sample_snapshot();
        snap.git_rev = ADVERSARIAL.to_string();
        snap.profile = format!("{ADVERSARIAL}p");
        snap.device = format!("d{ADVERSARIAL}");
        snap.executor = "\\\"".to_string();
        snap.workloads[0].id = ADVERSARIAL.to_string();
        let json = snap.to_json();
        assert!(dasp_trace::validate_json(&json).is_ok(), "{json}");
        let back = BenchSnapshot::from_json(&json).unwrap();
        snap.workloads.sort_by(|a, b| a.id.cmp(&b.id));
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn from_json_rejects_wrong_schema_or_kind() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let wrong_version = json.replacen("\"schema_version\": 1", "\"schema_version\": 99", 1);
        assert!(BenchSnapshot::from_json(&wrong_version)
            .unwrap_err()
            .contains("schema_version"));
        let wrong_kind = json.replacen(SNAPSHOT_KIND, "something-else", 1);
        assert!(BenchSnapshot::from_json(&wrong_kind).is_err());
        assert!(BenchSnapshot::from_json("{}").is_err());
        assert!(BenchSnapshot::from_json("not json").is_err());
    }

    #[test]
    fn from_json_rejects_duplicate_and_malformed_workloads() {
        let mut snap = sample_snapshot();
        snap.workloads
            .push(sample_workload("spmv/banded/dasp", 1.0, 0.1));
        let err = BenchSnapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");

        let good = sample_snapshot().to_json();
        let no_wall = good.replacen("\"wall\"", "\"wal\"", 1);
        let err = BenchSnapshot::from_json(&no_wall).unwrap_err();
        assert!(err.contains("workloads[") && err.contains("wall"), "{err}");
    }

    #[test]
    fn seq_scanning_and_paths() {
        let dir = std::env::temp_dir().join(format!(
            "dasp-observatory-seq-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_seq(&dir), 1);
        std::fs::write(snapshot_path(&dir, 1), "{}").unwrap();
        std::fs::write(dir.join("BENCH_12.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_notanum.json"), "{}").unwrap();
        std::fs::write(dir.join("other.json"), "{}").unwrap();
        assert_eq!(next_seq(&dir), 13);
        assert_eq!(
            snapshot_path(&dir, 7)
                .file_name()
                .unwrap()
                .to_str()
                .unwrap(),
            "BENCH_0007.json"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn git_rev_prefers_env_override() {
        // Can't mutate the process env safely under the parallel test
        // runner; just assert the fallback path yields *something*.
        assert!(!git_rev().is_empty());
    }
}
