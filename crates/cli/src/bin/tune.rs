//! `dasp-tune` — sweep DASP's tunable parameters for one matrix and report
//! the best configuration under the modeled device.
//!
//! ```text
//! dasp-tune [MATRIX.mtx] [--device a100|h800]
//! ```
//!
//! Without a file it tunes a representative synthetic matrix. The sweep
//! covers the paper's three knobs: `MAX_LEN` (long/medium boundary),
//! `threshold` (regular-block fill cutoff) and short-row piecing, and
//! prints the modeled kernel time of every combination, best first.

use std::process::ExitCode;

use dasp_cli::outln;
use dasp_core::{DaspMatrix, DaspParams};
use dasp_matgen::dense_vector;
use dasp_perf::{a100, estimate, h800, DeviceModel, Precision};
use dasp_simt::CountingProbe;
use dasp_sparse::mm::read_matrix_market;
use dasp_sparse::{Coo, Csr};

fn modeled_time(csr: &Csr<f64>, params: DaspParams, dev: &DeviceModel) -> f64 {
    let d = DaspMatrix::with_params(csr, params);
    let x = dense_vector(csr.cols, 42);
    let mut probe = CountingProbe::new(dev.l2_cache());
    let _ = d.spmv(&x, &mut probe);
    estimate(&probe.stats(), dev, Precision::Fp64).seconds
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut device = "a100".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--device" => match args.next() {
                Some(d) => device = d,
                None => {
                    eprintln!("--device requires a name");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                outln!("usage: dasp-tune [MATRIX.mtx] [--device a100|h800]");
                return ExitCode::SUCCESS;
            }
            p if !p.starts_with('-') => path = Some(p.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let dev = match device.as_str() {
        "a100" => a100(),
        "h800" => h800(),
        other => {
            eprintln!("unknown device {other}");
            return ExitCode::FAILURE;
        }
    };

    let csr: Csr<f64> = match path {
        Some(p) => {
            let file = match std::fs::File::open(&p) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {p}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let coo: Coo<f64> = match read_matrix_market(std::io::BufReader::new(file)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot parse {p}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            outln!("tuning {p}");
            coo.to_csr()
        }
        None => {
            outln!("tuning a synthetic mixed-structure matrix (pass a .mtx path to tune your own)");
            dasp_matgen::circuit_like(40_000, 6, 4000, 7)
        }
    };
    outln!(
        "matrix: {} x {}, {} nonzeros; device {}",
        csr.rows,
        csr.cols,
        csr.nnz(),
        dev.name
    );

    let mut results: Vec<(DaspParams, f64)> = Vec::new();
    for &max_len in &[64usize, 128, 256, 512, 1024] {
        for &threshold in &[0.5f64, 0.75, 0.9] {
            for &short_piecing in &[true, false] {
                let params = DaspParams {
                    max_len,
                    threshold,
                    short_piecing,
                    ..DaspParams::default()
                };
                results.push((params, modeled_time(&csr, params, &dev)));
            }
        }
    }
    results.sort_by(|a, b| a.1.total_cmp(&b.1));

    outln!(
        "{:>8} {:>10} {:>8} {:>12} {:>9}",
        "max_len",
        "threshold",
        "piecing",
        "est time us",
        "vs best"
    );
    let best = results[0].1;
    for (p, t) in &results {
        outln!(
            "{:>8} {:>10.2} {:>8} {:>12.2} {:>8.2}x",
            p.max_len,
            p.threshold,
            p.short_piecing,
            t * 1e6,
            t / best
        );
    }
    let default_t = results
        .iter()
        .find(|(p, _)| *p == DaspParams::default())
        .map(|(_, t)| *t)
        .unwrap_or(best);
    outln!(
        "\npaper defaults (256 / 0.75 / piecing) are {:.2}x off the tuned best",
        default_t / best
    );
    ExitCode::SUCCESS
}
