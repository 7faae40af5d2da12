//! `dasp-experiments` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! dasp-experiments [--out DIR] [--metrics-out DIR]
//!                  [fig1|fig2|fig9|fig10|fig11|fig12|fig13|table1|table2|all]
//! ```
//!
//! Each experiment prints a text summary and writes a CSV into the output
//! directory (default `./results`). A CSV that cannot be written stops the
//! run with exit status 1 and a message naming the file.
//!
//! `--metrics-out DIR` additionally runs an instrumented sweep and writes
//! `metrics.json` / `metrics.csv` (the metrics registry) and `trace.json`
//! (Chrome Trace Event Format, opens in Perfetto) into `DIR`.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dasp_cli::experiments::{
    ext2, ext3, ext4, ext_merge, fig01, fig02, fig09, fig10, fig11, fig12, fig13, metrics_dump,
    table1, table2,
};
use dasp_cli::outln;
use dasp_cli::output::{f2, f3, text_table, write_csv};
use dasp_perf::MethodKind;

fn main() -> ExitCode {
    let mut out_dir = PathBuf::from("results");
    let mut metrics_out: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => match args.next() {
                Some(d) => metrics_out = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--metrics-out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                outln!(
                    "usage: dasp-experiments [--out DIR] [--metrics-out DIR] \
                     [fig1|fig2|fig9|fig10|fig11|fig12|fig13|table1|table2|ext1|ext2|ext3|ext4|all]"
                );
                return ExitCode::SUCCESS;
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    const KNOWN: [&str; 14] = [
        "all", "table1", "table2", "fig1", "fig2", "fig9", "fig10", "fig11", "fig12", "fig13",
        "ext1", "ext2", "ext3", "ext4",
    ];
    for t in &targets {
        if !KNOWN.contains(&t.as_str()) {
            eprintln!("unknown experiment '{t}'; known: {}", KNOWN.join(", "));
            return ExitCode::FAILURE;
        }
    }
    let all = targets.iter().any(|t| t == "all");
    let want = |name: &str| all || targets.iter().any(|t| t == name);

    if let Err(e) = run_targets(want, &out_dir) {
        eprintln!("dasp-experiments: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(dir) = &metrics_out {
        if let Err(e) = run_metrics_dump(dir) {
            eprintln!("cannot write metrics to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    outln!("\nCSV outputs in {}", out_dir.display());
    ExitCode::SUCCESS
}

/// Runs every wanted experiment in paper order, stopping at the first
/// CSV that cannot be written.
fn run_targets(want: impl Fn(&str) -> bool, out: &Path) -> io::Result<()> {
    if want("table1") {
        run_table1();
    }
    if want("table2") {
        run_table2(out)?;
    }
    if want("fig1") {
        run_fig1(out)?;
    }
    if want("fig2") {
        run_fig2(out)?;
    }
    if want("fig9") {
        run_fig9(out)?;
    }
    if want("fig10") {
        run_fig10(out)?;
    }
    if want("fig11") {
        run_fig11(out)?;
    }
    if want("fig12") {
        run_fig12(out)?;
    }
    if want("fig13") {
        run_fig13(out)?;
    }
    if want("ext1") {
        run_ext_merge(out)?;
    }
    if want("ext2") {
        run_ext2(out)?;
    }
    if want("ext3") {
        run_ext3(out)?;
    }
    if want("ext4") {
        run_ext4(out)?;
    }
    Ok(())
}

fn run_metrics_dump(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let d = metrics_dump::run();
    std::fs::write(dir.join("metrics.json"), &d.metrics_json)?;
    std::fs::write(dir.join("metrics.csv"), &d.metrics_csv)?;
    std::fs::write(dir.join("trace.json"), &d.trace_json)?;
    outln!(
        "== Metrics dump: {} matrices, {} spans, {} metrics -> {} ==",
        d.matrices,
        d.spans,
        d.metrics,
        dir.display()
    );
    Ok(())
}

fn run_ext_merge(out: &Path) -> io::Result<()> {
    let f = ext_merge::run();
    outln!("== Extension: DASP vs related-work formats the paper cites ==");
    outln!(
        "vs merge-csr:    geomean {}x  max {}x  wins {}/{}  (load balance neutralized; remaining gap = MMA compute path)",
        f2(f.summary.geomean),
        f2(f.summary.max),
        f.summary.wins,
        f.summary.total
    );
    outln!(
        "vs sell-c-sigma: geomean {}x  max {}x  wins {}/{}",
        f2(f.summary_sell.geomean),
        f2(f.summary_sell.max),
        f.summary_sell.wins,
        f.summary_sell.total
    );
    outln!(
        "vs hyb:          geomean {}x  max {}x  wins {}/{}\n",
        f2(f.summary_hyb.geomean),
        f2(f.summary_hyb.max),
        f.summary_hyb.wins,
        f.summary_hyb.total
    );
    write_csv(
        out,
        "ext_related_work.csv",
        &[
            "matrix",
            "nnz",
            "dasp_gflops",
            "merge_gflops",
            "sell_gflops",
            "hyb_gflops",
        ],
        &f.rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.nnz.to_string(),
                    f3(r.dasp_gflops),
                    f3(r.merge_gflops),
                    f3(r.sell_gflops),
                    f3(r.hyb_gflops),
                ]
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(())
}

fn run_ext2(out: &Path) -> io::Result<()> {
    let f = ext2::run();
    outln!("== Extension 2: multi-RHS SpMM vs looped SpMV (A100 model) ==");
    for s in &f.summaries {
        outln!(
            "{}: geomean speedup {}x at width 8 (A+idx amortization {}x; \
             speedup < 8x because B gathers, y stores and MMA issues scale with the width)",
            s.precision,
            f2(s.speedup_w8),
            f2(s.amortization_w8)
        );
    }
    outln!();
    write_csv(
        out,
        "ext2_spmm_amortization.csv",
        &[
            "matrix",
            "nnz",
            "precision",
            "rhs_width",
            "spmm_a_idx_bytes_per_rhs",
            "looped_a_idx_bytes_per_rhs",
            "spmm_gflops",
            "looped_gflops",
            "speedup",
        ],
        &f.rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.nnz.to_string(),
                    r.precision.to_string(),
                    r.rhs_width.to_string(),
                    f2(r.spmm_a_idx_per_rhs),
                    f2(r.looped_a_idx_per_rhs),
                    f3(r.spmm_gflops),
                    f3(r.looped_gflops),
                    f3(r.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(())
}

fn run_ext3(out: &Path) -> io::Result<()> {
    let f = ext3::run();
    outln!("== Extension 3: large-N SpMM on RMAT, A-resident tiling (A100 model) ==");
    for s in &f.summaries {
        outln!(
            "N={:>3}: geomean {}x vs looped SpMM-8, {}x vs CSR-scalar \
             (max |fill delta| under reorder: {} — provably 0)",
            s.rhs_width,
            f2(s.speedup_vs_looped8),
            f2(s.speedup_vs_csr),
            s.max_fill_delta
        );
    }
    outln!();
    write_csv(
        out,
        "ext3_large_n_spmm.csv",
        &[
            "matrix",
            "precision",
            "rows",
            "nnz",
            "rhs_width",
            "tiled_gflops",
            "looped8_gflops",
            "csr_scalar_gflops",
            "speedup_vs_looped8",
            "speedup_vs_csr_scalar",
            "tiled_a_idx_bytes_per_rhs",
            "looped8_a_idx_bytes_per_rhs",
            "fill_rate",
            "fill_rate_reorder",
            "x_miss_delta_bytes",
        ],
        &f.rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.precision.to_string(),
                    r.rows.to_string(),
                    r.nnz.to_string(),
                    r.rhs_width.to_string(),
                    f3(r.tiled_gflops),
                    f3(r.looped8_gflops),
                    f3(r.csr_gflops),
                    f3(r.speedup_vs_looped8),
                    f3(r.speedup_vs_csr),
                    f2(r.tiled_a_idx_per_rhs),
                    f2(r.looped8_a_idx_per_rhs),
                    format!("{:.6}", r.fill_rate),
                    format!("{:.6}", r.fill_rate_reorder),
                    r.x_miss_delta.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(())
}

fn run_ext4(out: &Path) -> io::Result<()> {
    let f = ext4::run();
    outln!("== Extension 4: dasp-serve request coalescing under load (A100 model) ==");
    for s in &f.summaries {
        outln!(
            "{} x{:>2} clients: geomean modeled-throughput speedup {}x from coalescing",
            s.executor,
            s.clients,
            f2(s.speedup)
        );
    }
    outln!(
        "bit-identity mismatches across all cells: {} (must be 0)",
        f.mismatches
    );
    outln!();
    write_csv(
        out,
        "ext4_serve_latency.csv",
        &[
            "matrix",
            "rows",
            "nnz",
            "executor",
            "coalesce",
            "clients",
            "requests",
            "mismatches",
            "p50_us",
            "p99_us",
            "mean_batch_width",
            "batches",
            "modeled_busy_ms",
            "modeled_throughput_rps",
        ],
        &f.rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.rows.to_string(),
                    r.nnz.to_string(),
                    r.executor.to_string(),
                    r.coalesce.to_string(),
                    r.clients.to_string(),
                    r.requests.to_string(),
                    r.mismatches.to_string(),
                    f2(r.p50_us),
                    f2(r.p99_us),
                    f2(r.mean_batch_width),
                    r.batches.to_string(),
                    f3(r.modeled_busy_ms),
                    f2(r.modeled_throughput_rps),
                ]
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(())
}

fn run_table1() {
    let t = table1::run();
    outln!("== Table 1: hardware and algorithms ==");
    let rows: Vec<Vec<String>> = t
        .devices
        .iter()
        .map(|d| {
            vec![
                d.name.to_string(),
                f2(d.mem_bw_gbs),
                f2(d.fp64_tc_tflops),
                f2(d.fp16_tc_tflops),
            ]
        })
        .collect();
    outln!(
        "{}",
        text_table(&["device", "bw GB/s", "fp64 TC TF", "fp16 TC TF"], &rows)
    );
    outln!("algorithms: {}\n", t.algorithms.join(", "));
}

fn run_table2(out: &Path) -> io::Result<()> {
    let t = table2::run();
    outln!("== Table 2: 21 representative matrices (paper vs analog) ==");
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{}x{}", r.paper_shape.0, r.paper_shape.1),
                r.paper_nnz.to_string(),
                format!("{}x{}", r.analog_shape.0, r.analog_shape.1),
                r.analog_nnz.to_string(),
                f2(r.analog_mean_len),
                r.analog_max_len.to_string(),
            ]
        })
        .collect();
    outln!(
        "{}",
        text_table(
            &[
                "matrix",
                "paper size",
                "paper nnz",
                "analog size",
                "analog nnz",
                "mean len",
                "max len"
            ],
            &rows
        )
    );
    write_csv(
        out,
        "table2.csv",
        &[
            "matrix",
            "paper_rows",
            "paper_cols",
            "paper_nnz",
            "analog_rows",
            "analog_cols",
            "analog_nnz",
        ],
        &t.rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    r.paper_shape.0.to_string(),
                    r.paper_shape.1.to_string(),
                    r.paper_nnz.to_string(),
                    r.analog_shape.0.to_string(),
                    r.analog_shape.1.to_string(),
                    r.analog_nnz.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(())
}

fn run_fig1(out: &Path) -> io::Result<()> {
    let f = fig01::run();
    outln!("== Figure 1: FP64 bandwidth on large matrices (A100 model) ==");
    outln!(
        "matrices: {}   measured-peak: {} GB/s",
        f.rows.len(),
        f.peak_bw
    );
    outln!(
        "geomean bandwidth GB/s  csr5: {}  cusparse-csr: {}  dasp: {}\n",
        f2(f.geomeans.0),
        f2(f.geomeans.1),
        f2(f.geomeans.2)
    );
    write_csv(
        out,
        "fig01_bandwidth.csv",
        &["matrix", "nnz", "csr5_gbs", "cusparse_csr_gbs", "dasp_gbs"],
        &f.rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.nnz.to_string(),
                    f3(r.csr5),
                    f3(r.vendor_csr),
                    f3(r.dasp),
                ]
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(())
}

fn run_fig2(out: &Path) -> io::Result<()> {
    let f = fig02::run();
    outln!("== Figure 2: CSR SpMV time breakdown (A100 model) ==");
    outln!(
        "corpus mean shares   random: {:.1}%  compute: {:.1}%  misc: {:.1}%   (paper: 25.1 / 21.1 / 53.8)\n",
        100.0 * f.mean.0,
        100.0 * f.mean.1,
        100.0 * f.mean.2
    );
    write_csv(
        out,
        "fig02_breakdown.csv",
        &["matrix", "nnz", "random", "compute", "misc"],
        &f.rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.nnz.to_string(),
                    f3(r.random),
                    f3(r.compute),
                    f3(r.misc),
                ]
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(())
}

fn run_fig9(out: &Path) -> io::Result<()> {
    let f = fig09::run();
    outln!("== Figure 9: FP16 DASP vs cuSPARSE-CSR (corpus) ==");
    for d in &f.devices {
        outln!(
            "{}: geomean {}x  max {}x  wins {}/{}   (paper: 1.70x A100 / 1.75x H800)",
            d.device,
            f2(d.summary.geomean),
            f2(d.summary.max),
            d.summary.wins,
            d.summary.total
        );
        write_csv(
            out,
            &format!("fig09_fp16_{}.csv", d.device.to_lowercase()),
            &["matrix", "nnz", "dasp_gflops", "cusparse_gflops", "speedup"],
            &d.rows
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        r.nnz.to_string(),
                        f3(r.dasp_gflops),
                        f3(r.vendor_gflops),
                        f3(r.speedup),
                    ]
                })
                .collect::<Vec<_>>(),
        )?;
    }
    outln!();
    Ok(())
}

fn run_fig10(out: &Path) -> io::Result<()> {
    let f = fig10::run();
    outln!("== Figure 10: FP64, six methods on the A100 (corpus) ==");
    let paper = [
        ("csr5", 1.46),
        ("tilespmv", 2.09),
        ("lsrb-csr", 3.29),
        ("cusparse-bsr", 2.08),
        ("cusparse-csr", 1.52),
    ];
    let rows: Vec<Vec<String>> = f
        .speedups
        .iter()
        .map(|(m, s)| {
            let p = paper
                .iter()
                .find(|(n, _)| *n == m.name())
                .map(|(_, v)| format!("{v:.2}"))
                .unwrap_or_default();
            vec![
                m.name().to_string(),
                f2(s.geomean),
                f2(s.max),
                format!("{}/{}", s.wins, s.total),
                p,
            ]
        })
        .collect();
    outln!(
        "{}",
        text_table(
            &["dasp vs", "geomean", "max", "wins", "paper geomean"],
            &rows
        )
    );
    let header = [
        "matrix",
        "group",
        "nnz",
        "dasp",
        "csr5",
        "tilespmv",
        "lsrb_csr",
        "cusparse_bsr",
        "cusparse_csr",
    ];
    write_csv(
        out,
        "fig10_fp64_gflops.csv",
        &header,
        &f.rows
            .iter()
            .map(|r| {
                let mut v = vec![r.name.clone(), r.group.to_string(), r.nnz.to_string()];
                v.extend(r.gflops.iter().map(|&g| f3(g)));
                v
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(())
}

fn run_fig11(out: &Path) -> io::Result<()> {
    let f = fig11::run();
    outln!("== Figure 11a: FP64 GFlops, 21 representative matrices (A100) ==");
    let methods: Vec<&str> = MethodKind::fp64_set().iter().map(|m| m.name()).collect();
    let mut header = vec!["matrix"];
    header.extend(methods.iter().copied());
    let rows: Vec<Vec<String>> = f
        .fp64
        .iter()
        .map(|r| {
            let mut v = vec![r.name.to_string()];
            v.extend(r.gflops.iter().map(|&g| f2(g)));
            v
        })
        .collect();
    outln!("{}", text_table(&header, &rows));
    write_csv(out, "fig11a_fp64_representative.csv", &header, &rows)?;

    outln!("== Figure 11b: FP16 GFlops, 21 representative matrices ==");
    let header16 = [
        "matrix",
        "a100_dasp",
        "a100_cusparse",
        "h800_dasp",
        "h800_cusparse",
    ];
    let rows16: Vec<Vec<String>> = f
        .fp16
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                f2(r.a100.0),
                f2(r.a100.1),
                f2(r.h800.0),
                f2(r.h800.1),
            ]
        })
        .collect();
    outln!("{}", text_table(&header16, &rows16));
    write_csv(out, "fig11b_fp16_representative.csv", &header16, &rows16)?;
    Ok(())
}

fn run_fig12(out: &Path) -> io::Result<()> {
    let f = fig12::run();
    outln!("== Figure 12: category ratios, 21 representative matrices ==");
    let header = [
        "matrix",
        "rows_long",
        "rows_med",
        "rows_short",
        "rows_empty",
        "nnz_long",
        "nnz_med",
        "nnz_short",
        "fill_rate",
    ];
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                f3(r.row_ratio.0),
                f3(r.row_ratio.1),
                f3(r.row_ratio.2),
                f3(r.row_ratio.3),
                f3(r.nnz_ratio.0),
                f3(r.nnz_ratio.1),
                f3(r.nnz_ratio.2),
                f3(r.fill_rate),
            ]
        })
        .collect();
    outln!("{}", text_table(&header, &rows));
    write_csv(out, "fig12_categories.csv", &header, &rows)?;
    Ok(())
}

fn run_fig13(out: &Path) -> io::Result<()> {
    let f = fig13::run();
    outln!("== Figure 13: preprocessing cost (CPU wall-clock) ==");
    let fmt_row = |r: &fig13::Row| {
        vec![
            r.name.clone(),
            r.nnz.to_string(),
            f2(r.dasp_us),
            f2(r.csr5_us),
            f2(r.tilespmv_us),
            f2(r.bsr_us),
            f2(r.lsrb_us),
            f2(r.analyze_seq_us),
            f2(r.analyze_par4_us),
            f2(r.fill_us),
            f2(r.update_us),
            r.break_even.map_or_else(|| "-".into(), |k| k.to_string()),
        ]
    };
    // Print a decile summary instead of every matrix.
    let n = f.rows.len();
    let pick: Vec<usize> = (0..10).map(|k| k * n.saturating_sub(1) / 9).collect();
    let header = [
        "matrix",
        "nnz",
        "dasp_us",
        "csr5_us",
        "tilespmv_us",
        "bsr_us",
        "lsrb_us",
        "analyze_seq_us",
        "analyze_par4_us",
        "fill_us",
        "update_us",
        "break_even",
    ];
    let rows: Vec<Vec<String>> = pick.iter().map(|&i| fmt_row(&f.rows[i])).collect();
    outln!("{}", text_table(&header, &rows));
    let (refresh_speedup, par_speedup) = f.summary_ratios();
    outln!(
        "analysis/execute split: update_values is {refresh_speedup:.1}x faster than a full \
         rebuild (geomean); 4-thread analysis is {par_speedup:.2}x faster than sequential"
    );
    write_csv(
        out,
        "fig13_preprocessing.csv",
        &header,
        &f.rows.iter().map(fmt_row).collect::<Vec<_>>(),
    )?;
    Ok(())
}
