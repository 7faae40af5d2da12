//! Integration tests driving the binaries end to end.

use std::io::Write;
use std::process::Command;

fn bin(name: &str) -> Command {
    Command::new(
        env!(concat!("CARGO_BIN_EXE_", "dasp-experiments")).replace("dasp-experiments", name),
    )
}

/// Writes the 8×8 mixed-category fixture several tests share.
fn small_matrix(dir: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.mtx");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "%%MatrixMarket matrix coordinate real general").unwrap();
    writeln!(f, "8 8 12").unwrap();
    for (r, c, v) in [
        (1, 1, 2.0),
        (1, 2, 1.0),
        (2, 2, 3.0),
        (3, 3, 1.5),
        (3, 1, 0.5),
        (4, 4, 2.5),
        (5, 5, 1.0),
        (5, 6, 0.75),
        (6, 6, 4.0),
        (6, 1, 0.25),
        (7, 7, 1.25),
        (8, 8, 0.5),
    ] {
        writeln!(f, "{r} {c} {v}").unwrap();
    }
    path
}

#[test]
fn spmv_binary_verifies_a_matrix_market_file() {
    // Write a small general real matrix.
    let dir = std::env::temp_dir().join("dasp_cli_bin_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.mtx");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "%%MatrixMarket matrix coordinate real general").unwrap();
    writeln!(f, "6 6 8").unwrap();
    for (r, c, v) in [
        (1, 1, 2.0),
        (1, 4, -1.0),
        (2, 2, 3.0),
        (3, 3, 1.5),
        (4, 1, -1.0),
        (4, 4, 2.0),
        (5, 5, 1.0),
        (6, 6, 4.0),
    ] {
        writeln!(f, "{r} {c} {v}").unwrap();
    }
    drop(f);

    for method in ["dasp", "csr5", "cusparse-csr", "merge-csr"] {
        let out = bin("dasp-spmv")
            .arg(path.to_str().unwrap())
            .args(["--method", method, "--verify"])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{method}: {stdout}");
        assert!(stdout.contains("verify: OK"), "{method}: {stdout}");
        assert!(stdout.contains("estimated time"), "{method}: {stdout}");
    }
}

#[test]
fn spmv_binary_fp16_and_h800() {
    let dir = std::env::temp_dir().join("dasp_cli_bin_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("diag.mtx");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "%%MatrixMarket matrix coordinate real general").unwrap();
    writeln!(f, "4 4 4").unwrap();
    for i in 1..=4 {
        writeln!(f, "{i} {i} {}.5", i).unwrap();
    }
    drop(f);
    let out = bin("dasp-spmv")
        .arg(path.to_str().unwrap())
        .args(["--fp16", "--device", "h800", "--verify"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("H800"), "{stdout}");
    assert!(stdout.contains("fp16"), "{stdout}");
    assert!(stdout.contains("verify: OK"), "{stdout}");
}

#[test]
fn spmv_binary_rhs_reports_amortization() {
    let dir = std::env::temp_dir().join("dasp_cli_bin_test_rhs");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("band.mtx");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "%%MatrixMarket matrix coordinate real general").unwrap();
    writeln!(f, "48 48 144").unwrap();
    for i in 0..48 {
        writeln!(f, "{} {} 2.0", i + 1, i + 1).unwrap();
        writeln!(f, "{} {} -0.5", i + 1, (i + 1) % 48 + 1).unwrap();
        writeln!(f, "{} {} -0.25", i + 1, (i + 5) % 48 + 1).unwrap();
    }
    drop(f);
    for method in ["dasp", "csr-scalar"] {
        let out = bin("dasp-spmv")
            .arg(path.to_str().unwrap())
            .args(["--method", method, "--rhs", "8", "--verify"])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{method}: {stdout}");
        assert!(stdout.contains("8 right-hand sides"), "{method}: {stdout}");
        assert!(stdout.contains("8.00x amortized"), "{method}: {stdout}");
        assert!(stdout.contains("verify: OK"), "{method}: {stdout}");
    }
    // Methods without an SpMM kernel are rejected.
    let out = bin("dasp-spmv")
        .arg(path.to_str().unwrap())
        .args(["--method", "csr5", "--rhs", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("SpMM"), "{err}");
}

#[test]
fn spmv_binary_rejects_bad_input() {
    let out = bin("dasp-spmv").arg("/nonexistent.mtx").output().unwrap();
    assert!(!out.status.success());
    let out = bin("dasp-spmv")
        .args(["--method", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn experiments_binary_runs_cheap_targets() {
    let dir = std::env::temp_dir().join("dasp_cli_results");
    let out = bin("dasp-experiments")
        .args(["--out", dir.to_str().unwrap(), "table2", "fig12"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("Table 2"), "{stdout}");
    assert!(stdout.contains("Figure 12"), "{stdout}");
    assert!(dir.join("table2.csv").exists());
    assert!(dir.join("fig12_categories.csv").exists());
    // CSV sanity: 21 matrices + header.
    let csv = std::fs::read_to_string(dir.join("fig12_categories.csv")).unwrap();
    assert_eq!(csv.lines().count(), 22);
}

#[test]
fn tune_binary_sweeps_parameters() {
    let dir = std::env::temp_dir().join("dasp_cli_bin_test3");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.mtx");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "%%MatrixMarket matrix coordinate real general").unwrap();
    writeln!(f, "64 64 128").unwrap();
    for i in 0..64 {
        writeln!(f, "{} {} 1.0", i + 1, i + 1).unwrap();
        writeln!(f, "{} {} 0.5", i + 1, (i + 7) % 64 + 1).unwrap();
    }
    drop(f);
    let out = bin("dasp-tune")
        .arg(path.to_str().unwrap())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("paper defaults"), "{stdout}");
    // 5 max_len x 3 thresholds x 2 piecing = 30 rows + headers
    assert!(
        stdout
            .lines()
            .filter(|l| l.contains('x') && l.contains('.'))
            .count()
            >= 30
    );
}

#[test]
fn conflicting_precision_flags_are_rejected() {
    let dir = std::env::temp_dir().join("dasp_cli_bin_test4");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("one.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n",
    )
    .unwrap();
    let out = bin("dasp-spmv")
        .arg(path.to_str().unwrap())
        .args(["--fp16", "--fp32"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");
}

#[test]
fn experiments_binary_fails_when_a_csv_cannot_be_written() {
    // `--out` names a regular file, so no CSV can go under it.
    let dir = std::env::temp_dir().join("dasp_cli_unwritable_out");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not_a_dir");
    std::fs::write(&file, "").unwrap();
    let out = bin("dasp-experiments")
        .args(["--out", file.to_str().unwrap(), "table2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let csv = file.join("table2.csv");
    assert!(err.contains(csv.to_str().unwrap()), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("CSV outputs in"), "{stdout}");
}

#[test]
fn unknown_experiment_target_is_rejected() {
    let out = bin("dasp-experiments").arg("bogus123").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "{err}");
}

#[test]
fn spmv_binary_verify_plan_mode() {
    let dir = std::env::temp_dir().join("dasp_cli_verify_plan_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.mtx");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "%%MatrixMarket matrix coordinate real general").unwrap();
    writeln!(f, "8 8 12").unwrap();
    for (r, c, v) in [
        (1, 1, 2.0),
        (1, 2, -1.0),
        (1, 3, 0.5),
        (1, 4, 1.0),
        (1, 5, -0.5),
        (2, 2, 3.0),
        (2, 3, 1.0),
        (3, 3, 1.5),
        (4, 4, 2.0),
        (5, 5, 1.0),
        (6, 6, 4.0),
        (7, 7, -2.0),
    ] {
        writeln!(f, "{r} {c} {v}").unwrap();
    }
    drop(f);

    let report = dir.join("verify.json");
    let out = bin("dasp-spmv")
        .arg(path.to_str().unwrap())
        .args(["--verify-plan-out", report.to_str().unwrap(), "--fp32"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("verify: clean"), "{stdout}");
    assert!(stdout.contains("verify metrics:"), "{stdout}");
    // Standalone mode: no SpMV report follows the verdict.
    assert!(!stdout.contains("estimated time"), "{stdout}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"clean\":true"), "{json}");
}

#[test]
fn spmv_binary_sanitize_and_verify_reports_share_one_shape() {
    let path = small_matrix("dasp_cli_sanitize_out_test");
    let dir = path.parent().unwrap();
    let sanitize_json = dir.join("sanitize.json");
    let out = bin("dasp-spmv")
        .arg(path.to_str().unwrap())
        .args([
            "--verify",
            "--sanitize-out",
            sanitize_json.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("sanitize: clean"), "{stdout}");
    assert!(
        stdout.contains("dasp.short"),
        "clean line names the regions: {stdout}"
    );

    let verify_json = dir.join("verify.json");
    let out = bin("dasp-spmv")
        .arg(path.to_str().unwrap())
        .args(["--verify-plan-out", verify_json.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    let keys = |p: &std::path::Path| -> Vec<String> {
        let text = std::fs::read_to_string(p).unwrap();
        match dasp_trace::Json::parse(&text) {
            Ok(dasp_trace::Json::Obj(fields)) => fields.into_iter().map(|(k, _)| k).collect(),
            other => panic!("{}: not a JSON object: {other:?}", p.display()),
        }
    };
    let (sanitize_keys, verify_keys) = (keys(&sanitize_json), keys(&verify_json));
    assert_eq!(sanitize_keys, verify_keys);
    for key in [
        "clean",
        "errors",
        "checks_run",
        "counts",
        "per_region",
        "sites",
    ] {
        assert!(sanitize_keys.iter().any(|k| k == key), "missing {key}");
    }
}

#[test]
fn spmv_binary_compare_sanitize_covers_every_method() {
    let path = small_matrix("dasp_cli_compare_sanitize_test");
    let report = path.with_file_name("sanitize.json");
    let out = bin("dasp-spmv")
        .arg(path.to_str().unwrap())
        .args(["--compare", "--sanitize-out", report.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let text = std::fs::read_to_string(&report).unwrap();
    let json = dasp_trace::Json::parse(&text).expect("report parses");
    let regions: Vec<&str> = match json.get("per_region") {
        Some(dasp_trace::Json::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("per_region is not an object: {other:?}"),
    };
    // One kernel region per baseline (vendor BSR's best-of-2/4/8 runs
    // included) plus the DASP kernels.
    for region in [
        "bsr",
        "csr-scalar",
        "csr-vector",
        "csr5",
        "hyb",
        "lsrb-csr",
        "merge-csr",
        "sell",
        "tilespmv",
    ] {
        assert!(regions.contains(&region), "no {region} region: {regions:?}");
    }
    assert!(
        regions.iter().any(|r| r.starts_with("dasp.")),
        "no DASP region: {regions:?}"
    );
}

/// Runs `name` with stdout a pipe whose read end is already closed, so
/// its first write fails with a broken pipe.
fn run_with_closed_stdout(name: &str, args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    bin(name)
        .args(args)
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .expect("binary runs")
}

#[test]
fn binaries_exit_normally_when_stdout_closes() {
    let path = small_matrix("dasp_cli_closed_stdout_test");
    let m = path.to_str().unwrap();
    let verify_json = path.with_file_name("verify.json");
    let results = path.with_file_name("results");
    let snapshot = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0003.json");
    let runs: [(&str, Vec<&str>); 6] = [
        (
            "dasp-spmv",
            vec![m, "--verify-plan-out", verify_json.to_str().unwrap()],
        ),
        ("dasp-spmv", vec![m, "--verify", "--compare"]),
        ("dasp-tune", vec![m]),
        (
            "dasp-experiments",
            vec!["--out", results.to_str().unwrap(), "table2"],
        ),
        ("dasp-bench", vec!["diff", snapshot, snapshot]),
        ("dasp-serve", vec!["--clients", "1", "--requests", "2"]),
    ];
    for (name, args) in runs {
        let out = run_with_closed_stdout(name, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{name} {args:?}: {stderr}");
    }
    // The verdict still lands where it was asked for.
    let json = std::fs::read_to_string(&verify_json).unwrap();
    assert!(json.contains("\"clean\":true"), "{json}");
}

/// Replaces the first value of `"key": N` in a snapshot with `edit(N)`.
fn edit_first(snapshot: &str, key: &str, edit: impl Fn(&str) -> String) -> String {
    let tag = format!("\"{key}\": ");
    let start = snapshot.find(&tag).expect("key present") + tag.len();
    let len = snapshot[start..].find([',', '}']).expect("value ends");
    let value = &snapshot[start..start + len];
    format!(
        "{}{}{}",
        &snapshot[..start],
        edit(value),
        &snapshot[start + len..]
    )
}

#[test]
fn bench_record_matches_the_committed_head_exactly() {
    let dir = std::env::temp_dir().join("dasp_cli_bench_record_test");
    std::fs::create_dir_all(&dir).unwrap();
    let head = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0003.json");
    std::fs::copy(head, dir.join("BENCH_0003.json")).unwrap();
    let run = |args: &[&str]| {
        bin("dasp-bench")
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap()
    };

    // CI's own invocation: a bare file name, whose parent is "", still
    // stamps the directory's next sequence number.
    let out = run(&["record", "--out", "BENCH_ci.json"]);
    assert!(out.status.success(), "{out:?}");
    let fresh = std::fs::read_to_string(dir.join("BENCH_ci.json")).unwrap();
    assert!(fresh.contains("\"seq\": 4,"), "{fresh}");

    let out = run(&["diff", "BENCH_0003.json", "BENCH_ci.json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("PASS: all 72 workloads identical (seq 3 -> 4)"));

    // One ulp of modeled time, or one count of one counter, fails.
    let next_ulp = |v: &str| f64::from_bits(v.parse::<f64>().unwrap().to_bits() + 1).to_string();
    let plus_one = |v: &str| (v.parse::<u64>().unwrap() + 1).to_string();
    for (key, edited) in [
        ("us", edit_first(&fresh, "us", next_ulp)),
        ("x_hits", edit_first(&fresh, "x_hits", plus_one)),
    ] {
        std::fs::write(dir.join("BENCH_edit.json"), edited).unwrap();
        let out = run(&["diff", "BENCH_0003.json", "BENCH_edit.json"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{key}: {stdout}");
        assert!(stdout.contains(&format!(".{key} ")), "{key}: {stdout}");
    }
}
