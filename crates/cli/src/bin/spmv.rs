//! `dasp-spmv` — one-shot SpMV on a Matrix Market file.
//!
//! ```text
//! dasp-spmv MATRIX.mtx [--method dasp|csr5|tilespmv|lsrb-csr|cusparse-bsr|cusparse-csr|csr-scalar|merge-csr]
//!           [--device a100|h800] [--fp16] [--fp32] [--verify] [--compare]
//!           [--executor seq|par] [--threads N] [--trace OUT.json]
//!           [--refresh-values N] [--rhs N] [--reorder]
//!           [--sanitize] [--sanitize-out REPORT.json]
//!           [--verify-plan] [--verify-plan-out REPORT.json]
//! ```
//!
//! `--compare` runs every method on the matrix and prints a ranking table
//! instead of the single-method report.
//!
//! `--refresh-values N` demonstrates the analysis/execute split: the
//! matrix pattern is analyzed once into a reusable `DaspPlan`, values are
//! scattered in (`fill`), then refreshed `N` times through the O(nnz)
//! `update_values` path. The report shows how refresh time compares to a
//! full `from_csr` rebuild and after how many value updates the one-off
//! analysis breaks even.
//!
//! `--rhs N` batches N random right-hand sides and computes `Y = A X`
//! with the multi-RHS SpMM kernels (methods `dasp` and `csr-scalar`),
//! reporting the measured A-traffic amortization, the per-panel DRAM
//! split, and the estimated speedup against looping single-vector SpMV
//! over the same columns. Any width N >= 1 works: columns pack into
//! ceil(N/8) panels (the last stored masked, not padded) and the
//! A-resident sweep streams each A block once for all of them.
//!
//! `--reorder` turns on the plan-level row-similarity reordering pass:
//! medium rows of equal length are tie-broken by a minhash signature of
//! their column sets, bucketing overlapping rows into the same 8-row
//! blocks for x-locality. Results are bit-identical with and without the
//! flag (the format geometry depends only on the sorted length
//! sequence).
//!
//! `--executor par` fans the simulated warps out over host threads
//! (`--threads N` caps the count; default = available parallelism). The
//! output vector and the order-independent counters are bit-identical to
//! `seq`; only the x-cache hit/miss split becomes a per-shard
//! approximation, so keep the default `seq` for paper figures. Without the
//! flag the executor comes from `DASP_EXECUTOR`/`DASP_THREADS`.
//!
//! `--trace OUT.json` records preprocessing and kernel spans (with probe
//! counter deltas) and writes them as Chrome Trace Event Format — open the
//! file in Perfetto or `chrome://tracing`.
//!
//! `--sanitize` runs every kernel under the compute sanitizer (racecheck,
//! maskcheck, initcheck — see `dasp-sanitize`) in report mode, prints the
//! fleet-wide report, and exits non-zero if any error-class violation
//! fired. `--sanitize-out REPORT.json` (implies `--sanitize`)
//! additionally writes the structured report for CI artifacts — the same
//! JSON shape as `--verify-plan-out`. Output vectors are bit-identical
//! with and without the flag.
//!
//! `--verify-plan` is a standalone mode: it converts the matrix at the
//! selected precision, runs the static verifier (`dasp-verify`) — the
//! structural plan/format validator plus the kernels' interpretation
//! under the bounded sanitizer — prints the report, and exits non-zero on any
//! violation without executing a single SpMV. `--verify-plan-out
//! REPORT.json` (implies `--verify-plan`) writes the structured report
//! for CI artifacts. `--reorder` and the precision flags apply.
//!
//! Prints the estimated kernel time, GFlops, effective bandwidth and the
//! traffic counters for the chosen method on the simulated device.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::time::Instant;

use dasp_cli::outln;
use dasp_core::{DaspMatrix, DaspParams, DaspPlan, PlanCache};
use dasp_fp16::F16;
use dasp_matgen::dense_vector;
use dasp_perf::{a100, h800, measure_traced_with, DeviceModel, MethodKind};
use dasp_simt::Executor;
use dasp_sparse::mm::read_matrix_market;
use dasp_sparse::{Coo, Csr};
use dasp_trace::{chrome_trace_json, Tracer};

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut method = MethodKind::Dasp;
    let mut device = "a100".to_string();
    let mut fp16 = false;
    let mut fp32 = false;
    let mut verify = false;
    let mut compare = false;
    let mut trace_out: Option<String> = None;
    let mut executor: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut refresh_values: Option<usize> = None;
    let mut rhs: Option<usize> = None;
    let mut reorder = false;
    let mut sanitize = false;
    let mut sanitize_out: Option<String> = None;
    let mut verify_plan = false;
    let mut verify_plan_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--method" => match args.next().as_deref().and_then(MethodKind::by_name) {
                Some(m) => method = m,
                None => {
                    eprintln!("unknown or missing method");
                    return ExitCode::FAILURE;
                }
            },
            "--device" => match args.next() {
                Some(d) => device = d,
                None => {
                    eprintln!("--device requires a name");
                    return ExitCode::FAILURE;
                }
            },
            "--fp16" => fp16 = true,
            "--fp32" => fp32 = true,
            "--verify" => verify = true,
            "--compare" => compare = true,
            "--trace" => match args.next() {
                Some(p) => trace_out = Some(p),
                None => {
                    eprintln!("--trace requires an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--executor" => match args.next() {
                Some(e) if e == "seq" || e == "par" => executor = Some(e),
                _ => {
                    eprintln!("--executor requires seq or par");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match args.next().and_then(|t| t.parse::<usize>().ok()) {
                Some(t) if t > 0 => threads = Some(t),
                _ => {
                    eprintln!("--threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--refresh-values" => match args.next().and_then(|t| t.parse::<usize>().ok()) {
                Some(n) if n > 0 => refresh_values = Some(n),
                _ => {
                    eprintln!("--refresh-values requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--rhs" => match args.next().and_then(|t| t.parse::<usize>().ok()) {
                Some(n) if n > 0 => rhs = Some(n),
                _ => {
                    eprintln!("--rhs requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--reorder" => reorder = true,
            "--sanitize" => sanitize = true,
            "--sanitize-out" => match args.next() {
                Some(p) => {
                    sanitize = true;
                    sanitize_out = Some(p);
                }
                None => {
                    eprintln!("--sanitize-out requires an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--verify-plan" => verify_plan = true,
            "--verify-plan-out" => match args.next() {
                Some(p) => {
                    verify_plan = true;
                    verify_plan_out = Some(p);
                }
                None => {
                    eprintln!("--verify-plan-out requires an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                outln!(
                    "usage: dasp-spmv MATRIX.mtx [--method NAME] [--device a100|h800] [--fp16] [--fp32] [--verify] [--compare] [--executor seq|par] [--threads N] [--trace OUT.json] [--refresh-values N] [--rhs N] [--reorder] [--sanitize] [--sanitize-out REPORT.json] [--verify-plan] [--verify-plan-out REPORT.json]"
                );
                return ExitCode::SUCCESS;
            }
            p if !p.starts_with('-') => path = Some(p.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("missing input file; see --help");
        return ExitCode::FAILURE;
    };
    if fp16 && fp32 {
        eprintln!("--fp16 and --fp32 are mutually exclusive");
        return ExitCode::FAILURE;
    }
    let dev: DeviceModel = match device.as_str() {
        "a100" => a100(),
        "h800" => h800(),
        other => {
            eprintln!("unknown device {other}");
            return ExitCode::FAILURE;
        }
    };
    if sanitize {
        // Route every kernel entry through the sanitizer in *report* mode:
        // abort mode (DASP_SANITIZE=1) would panic at the first error, and
        // the CLI wants the complete fleet-wide report. Set before any
        // kernel runs — the mode is read once and cached.
        std::env::set_var("DASP_SANITIZE", "report");
    }
    // --threads alone implies the parallel executor; with neither flag the
    // DASP_EXECUTOR / DASP_THREADS environment picks (default seq).
    let exec = match (executor.as_deref(), threads) {
        (Some("par"), t) => Executor::par_with_threads(t),
        (Some(_), _) => Executor::seq(),
        (None, Some(t)) => Executor::par_with_threads(Some(t)),
        (None, None) => Executor::from_env(),
    };

    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let coo: Coo<f64> = match read_matrix_market(BufReader::new(file)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let csr = coo.to_csr();
    outln!(
        "{}: {} x {}, {} nonzeros; method {}; device {}; {}; executor {}",
        path,
        csr.rows,
        csr.cols,
        csr.nnz(),
        method.name(),
        dev.name,
        if fp16 {
            "fp16"
        } else if fp32 {
            "fp32"
        } else {
            "fp64"
        },
        exec.name()
    );

    // Disabled unless --trace was given; a disabled tracer makes every
    // traced path identical to the plain one.
    let tracer = if trace_out.is_some() {
        Tracer::new()
    } else {
        Tracer::disabled()
    };

    if verify_plan {
        // Standalone mode: convert at the selected precision, statically
        // verify the plan + format and interpret the kernels under the
        // bounded sanitizer, then exit. No SpMV runs; the exit code is the
        // verdict.
        fn run_verify<S: dasp_fp16::Scalar>(
            csr: &Csr<S>,
            params: DaspParams,
            out: Option<&str>,
        ) -> bool {
            let m = DaspMatrix::with_params(csr, params);
            let report = dasp_verify::verify_full(&m);
            outln!("verify: {}", report.to_string().trim_end());
            let registry = dasp_trace::Registry::new();
            report.export_metrics(&registry, "verify");
            outln!(
                "verify metrics: {}",
                dasp_trace::registry_to_json(&registry)
            );
            if let Some(path) = out {
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    eprintln!("cannot write verify report {path}: {e}");
                    return false;
                }
                outln!("verify report: {path}");
            }
            report.is_clean()
        }
        let params = DaspParams {
            reorder,
            ..DaspParams::default()
        };
        let clean = if fp16 {
            run_verify::<F16>(&csr.cast(), params, verify_plan_out.as_deref())
        } else if fp32 {
            run_verify::<f32>(&csr.cast(), params, verify_plan_out.as_deref())
        } else {
            run_verify::<f64>(&csr, params, verify_plan_out.as_deref())
        };
        return if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if compare {
        // Run the ranking at whichever precision the flags selected.
        fn rank<S: dasp_fp16::Scalar>(
            csr: &Csr<S>,
            dev: &DeviceModel,
            tracer: &Tracer,
            exec: &Executor,
        ) {
            let x: Vec<S> = dense_vector(csr.cols, 42)
                .iter()
                .map(|&v| S::from_f64(v))
                .collect();
            let mut rows: Vec<(MethodKind, f64, f64)> = MethodKind::all()
                .iter()
                .map(|&mk| {
                    let m = measure_traced_with(mk, csr, &x, dev, tracer, exec);
                    (mk, m.estimate.seconds, m.gflops)
                })
                .collect();
            rows.sort_by(|a, b| a.1.total_cmp(&b.1));
            outln!(
                "{:>13}  {:>12}  {:>9}  {:>8}",
                "method",
                "est. time us",
                "gflops",
                "vs best"
            );
            let best = rows[0].1;
            for (mk, t, g) in &rows {
                outln!(
                    "{:>13}  {:>12.3}  {:>9.2}  {:>7.2}x",
                    mk.name(),
                    t * 1e6,
                    g,
                    t / best
                );
            }
        }
        if fp16 {
            rank::<F16>(&csr.cast(), &dev, &tracer, &exec);
        } else if fp32 {
            rank::<f32>(&csr.cast(), &dev, &tracer, &exec);
        } else {
            rank::<f64>(&csr, &dev, &tracer, &exec);
        }
        if let Some(out) = &trace_out {
            if let Err(e) = write_trace(out, &tracer) {
                eprintln!("cannot write trace {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if sanitize && !sanitize_summary(sanitize_out.as_deref()) {
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if let Some(width) = rhs {
        if !matches!(method, MethodKind::Dasp | MethodKind::CsrScalar) {
            eprintln!(
                "--rhs needs an SpMM kernel; supported methods: dasp, csr-scalar (got {})",
                method.name()
            );
            return ExitCode::FAILURE;
        }
        let params = DaspParams {
            reorder,
            ..DaspParams::default()
        };
        let ok = if fp16 {
            rhs_report::<F16>(method, &csr.cast(), width, params, verify, &dev, &exec)
        } else if fp32 {
            rhs_report::<f32>(method, &csr.cast(), width, params, verify, &dev, &exec)
        } else {
            rhs_report::<f64>(method, &csr, width, params, verify, &dev, &exec)
        };
        let san_ok = !sanitize || sanitize_summary(sanitize_out.as_deref());
        return if ok && san_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let (m, want) = if fp16 {
        let h: Csr<F16> = csr.cast();
        let x64 = dense_vector(h.cols, 42);
        let x: Vec<F16> = x64.iter().map(|&v| F16::from_f64(v)).collect();
        let want = if verify {
            let h64: Csr<f64> = h.cast();
            let hx: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
            Some(h64.spmv_reference(&hx))
        } else {
            None
        };
        (
            measure_traced_with(method, &h, &x, &dev, &tracer, &exec),
            want,
        )
    } else if fp32 {
        let h: Csr<f32> = csr.cast();
        let x64 = dense_vector(h.cols, 42);
        let x: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        let want = if verify {
            let h64: Csr<f64> = h.cast();
            let hx: Vec<f64> = x.iter().map(|&v| v as f64).collect();
            Some(h64.spmv_reference(&hx))
        } else {
            None
        };
        (
            measure_traced_with(method, &h, &x, &dev, &tracer, &exec),
            want,
        )
    } else {
        let x = dense_vector(csr.cols, 42);
        let want = verify.then(|| csr.spmv_reference(&x));
        (
            measure_traced_with(method, &csr, &x, &dev, &tracer, &exec),
            want,
        )
    };

    if let Some(want) = want {
        let rel = if fp16 {
            0.05
        } else if fp32 {
            1e-4
        } else {
            1e-9
        };
        let bad =
            m.y.iter()
                .zip(&want)
                .filter(|(&a, &b)| (a - b).abs() > rel * b.abs().max(1.0))
                .count();
        if bad > 0 {
            eprintln!("VERIFY FAILED on {bad} rows");
            return ExitCode::FAILURE;
        }
        outln!("verify: OK ({} rows)", want.len());
    }

    let e = &m.estimate;
    outln!("estimated time : {:.3} us", e.seconds * 1e6);
    outln!("gflops         : {:.2}", m.gflops);
    outln!("bandwidth      : {:.2} GB/s", m.bandwidth_gbs);
    let (r, c, mi) = e.shares();
    outln!(
        "attribution    : random {:.1}%  compute {:.1}%  misc {:.1}%",
        r * 100.0,
        c * 100.0,
        mi * 100.0
    );
    let s = &m.stats;
    outln!(
        "traffic        : val {} B, idx {} B, meta {} B, y {} B, x-miss {} B ({} hits / {} misses)",
        s.bytes_val,
        s.bytes_idx,
        s.bytes_meta,
        s.bytes_y,
        s.bytes_x_miss,
        s.x_hits,
        s.x_misses
    );
    outln!(
        "instructions   : {} mma, {} fma, {} shfl, {} launches",
        s.mma_ops,
        s.fma_ops,
        s.shfl_ops,
        s.launches
    );
    if let Some(n) = refresh_values {
        if fp16 {
            refresh_demo::<F16>(&csr.cast(), n, &tracer, &exec);
        } else if fp32 {
            refresh_demo::<f32>(&csr.cast(), n, &tracer, &exec);
        } else {
            refresh_demo::<f64>(&csr, n, &tracer, &exec);
        }
    }
    if let Some(out) = &trace_out {
        if let Err(e) = write_trace(out, &tracer) {
            eprintln!("cannot write trace {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if sanitize && !sanitize_summary(sanitize_out.as_deref()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints the fleet-wide sanitizer report accumulated across every kernel
/// entry of the run, mirrors its counters into a `dasp-trace` metrics
/// registry (shown as one JSON line, the same shape the experiment
/// drivers dump), and optionally writes the structured report for CI
/// artifacts. Returns false if any error-class violation fired.
fn sanitize_summary(out: Option<&str>) -> bool {
    let report = dasp_sanitize::global_report();
    outln!("sanitize: {}", report.to_string().trim_end());
    let registry = dasp_trace::Registry::new();
    report.export_metrics(&registry, "sanitize");
    outln!(
        "sanitize metrics: {}",
        dasp_trace::registry_to_json(&registry)
    );
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write sanitize report {path}: {e}");
            return false;
        }
        outln!("sanitize report: {path}");
    }
    report.is_clean()
}

/// The `--rhs N` report: `Y = A X` for N random right-hand sides, SpMM vs
/// looped SpMV, with the A-traffic amortization and estimated speedup.
/// Returns false if `--verify` finds a mismatch.
#[allow(clippy::too_many_arguments)]
fn rhs_report<S: dasp_fp16::Scalar>(
    method: MethodKind,
    csr: &Csr<S>,
    width: usize,
    params: DaspParams,
    verify: bool,
    dev: &DeviceModel,
    exec: &Executor,
) -> bool {
    use dasp_perf::{measure_looped_spmv_with, measure_spmm_traced_with};
    use dasp_trace::Tracer;
    let columns: Vec<Vec<S>> = (0..width)
        .map(|j| {
            dense_vector(csr.cols, 42 + j as u64)
                .iter()
                .map(|&v| S::from_f64(v))
                .collect()
        })
        .collect();
    let b = dasp_sparse::DenseMat::from_columns(&columns);
    let spmm = measure_spmm_traced_with(method, csr, &b, params, dev, &Tracer::disabled(), exec);
    let looped = measure_looped_spmv_with(method, csr, &b, dev, exec);
    outln!(
        "-- multi-RHS SpMM, {width} right-hand sides ({} panels{}) --",
        b.num_panels(),
        if params.reorder { ", reordered" } else { "" }
    );
    outln!(
        "spmm           : {:.3} us, {:.2} gflops",
        spmm.estimate.seconds * 1e6,
        spmm.gflops
    );
    outln!(
        "looped spmv    : {:.3} us, {:.2} gflops",
        looped.estimate.seconds * 1e6,
        looped.gflops
    );
    outln!(
        "A+idx per RHS  : {:.0} B (spmm) vs {:.0} B (looped) -> {:.2}x amortized",
        spmm.a_idx_bytes_per_rhs,
        looped.a_idx_bytes_per_rhs,
        looped.a_idx_bytes_per_rhs / spmm.a_idx_bytes_per_rhs.max(1.0)
    );
    outln!(
        "est. speedup   : {:.2}x",
        looped.estimate.seconds / spmm.estimate.seconds
    );
    if let Some(pt) = &spmm.panel_traffic {
        outln!(
            "panel split    : shared {} B dram (val {} B, idx {} B)",
            pt.shared.dram_bytes(),
            pt.shared.bytes_val,
            pt.shared.bytes_idx
        );
        for (k, bin) in pt.panels.iter().enumerate() {
            outln!(
                "  panel {k:>3}    : {} B dram (val {} B, idx {} B, x-miss {} B)",
                bin.dram_bytes(),
                bin.bytes_val,
                bin.bytes_idx,
                bin.bytes_x_miss
            );
        }
    }
    if verify {
        let exact: Csr<f64> = csr.cast();
        let rel = match S::BYTES {
            2 => 0.05,
            4 => 1e-4,
            _ => 1e-9,
        };
        let mut bad = 0usize;
        for (j, col) in columns.iter().enumerate() {
            let x64: Vec<f64> = col.iter().map(|v| v.to_f64()).collect();
            let want = exact.spmv_reference(&x64);
            bad += spmm.y[j]
                .iter()
                .zip(&want)
                .filter(|(&a, &b)| (a - b).abs() > rel * b.abs().max(1.0))
                .count();
        }
        if bad > 0 {
            eprintln!("VERIFY FAILED on {bad} entries across {width} columns");
            return false;
        }
        outln!("verify: OK ({width} columns x {} rows)", csr.rows);
    }
    true
}

/// The `--refresh-values N` report: analysis vs. execute vs. full rebuild
/// timings, N rounds of O(nnz) `update_values`, and the break-even count
/// of value refreshes past which the one-off analysis has paid for itself.
fn refresh_demo<S: dasp_fp16::Scalar>(csr: &Csr<S>, n: usize, tracer: &Tracer, exec: &Executor) {
    let params = DaspParams::default();

    let t0 = Instant::now();
    let full = DaspMatrix::with_params_traced(csr, params, tracer);
    let full_us = t0.elapsed().as_secs_f64() * 1e6;

    let t0 = Instant::now();
    let plan = DaspPlan::analyze_traced_with(csr, params, tracer, exec);
    let analyze_us = t0.elapsed().as_secs_f64() * 1e6;
    let t0 = Instant::now();
    let mut filled = plan.fill_traced_with(csr, tracer, exec);
    let fill_us = t0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(filled, full, "plan fill must equal the direct build");

    let t0 = Instant::now();
    for _ in 0..n {
        filled
            .update_values_traced_with(&csr.vals, tracer, exec)
            .expect("same pattern");
    }
    let update_us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;

    // A second build through the cache hits the stored plan.
    let cache = PlanCache::new();
    let _ = DaspMatrix::with_params_cached(csr, params, &cache);
    let _ = DaspMatrix::with_params_cached(csr, params, &cache);

    outln!("-- analysis/execute split ({} value refreshes) --", n);
    outln!("full rebuild   : {full_us:.1} us (from_csr: analysis + values fused)");
    outln!("analysis       : {analyze_us:.1} us (pattern only, reusable DaspPlan)");
    outln!("execute (fill) : {fill_us:.1} us (values scattered through the plan)");
    outln!(
        "update_values  : {update_us:.1} us avg over {n} refreshes ({:.1}x faster than rebuild)",
        full_us / update_us.max(1e-9)
    );
    let saved = full_us - update_us;
    if saved > 0.0 {
        let k = ((analyze_us + fill_us - update_us) / saved).ceil().max(1.0);
        outln!(
            "break-even     : plan amortizes after {k:.0} value refresh{}",
            if k > 1.0 { "es" } else { "" }
        );
    } else {
        outln!("break-even     : never (refresh is not faster than rebuild here)");
    }
    outln!(
        "plan cache     : {} hit / {} miss across 2 cached builds",
        cache.hits(),
        cache.misses()
    );
}

/// Drains the tracer and writes its spans as Chrome Trace Event Format.
fn write_trace(path: &str, tracer: &Tracer) -> std::io::Result<()> {
    let trace = tracer.take_trace();
    std::fs::write(path, chrome_trace_json(&trace))?;
    outln!("trace          : {} spans -> {path}", trace.spans.len());
    Ok(())
}
