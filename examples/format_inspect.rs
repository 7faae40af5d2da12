//! Format inspector: shows how DASP classifies and re-blocks matrices of
//! different shapes (the paper's Fig. 5 walkthrough, on real structures).
//!
//! ```text
//! cargo run --release --example format_inspect [path.mtx]
//! ```
//!
//! Without an argument it inspects one matrix per structural class from the
//! synthetic corpus; with a Matrix Market path it inspects that file.

use dasp_repro::dasp::format::Piecing;
use dasp_repro::dasp::{DaspMatrix, DaspParams};
use dasp_repro::matgen;
use dasp_repro::sparse::mm::read_matrix_market;
use dasp_repro::sparse::{Coo, Csr, RowStats};

fn inspect(name: &str, csr: &Csr<f64>) {
    let rs = RowStats::of(csr);
    let d = DaspMatrix::from_csr(csr);
    let s = d.category_stats();
    println!("\n== {name} ==");
    println!(
        "  shape {} x {}, nnz {}, row lengths mean {:.1} / max {} / {} empty",
        csr.rows, csr.cols, rs.nnz, rs.mean_len, rs.max_len, rs.empty_rows
    );
    println!(
        "  rows:     {:6} long   {:6} medium   {:6} short",
        s.rows_long, s.rows_medium, s.rows_short
    );
    println!(
        "  nonzeros: {:6} long   {:6} medium   {:6} short",
        s.nnz_long, s.nnz_medium, s.nnz_short
    );
    println!(
        "  long part:   {} groups of 64 ({} stored elems)",
        d.long.num_groups(),
        d.vals.long.len()
    );
    println!(
        "  medium part: {} row-blocks, {} regular elems + {} irregular",
        d.medium.num_rowblocks(),
        d.vals.reg.len(),
        d.vals.irreg.len()
    );
    println!(
        "  short part:  {} x 1&3-warps, {} x len4-warps, {} x 2&2-warps, {} singles",
        Piecing::OneThree.warps(&d.short),
        Piecing::Four.warps(&d.short),
        Piecing::TwoTwo.warps(&d.short),
        d.short.n1
    );
    println!("  zero-fill rate: {:.2}%", 100.0 * s.fill_rate());

    // The threshold parameter trades regular blocks against irregular
    // remainders; show the sensitivity the paper's 0.75 choice sits in.
    print!("  regular-part share by threshold:");
    for &th in &[0.25, 0.5, 0.75, 1.0] {
        let dt = DaspMatrix::with_params(
            csr,
            DaspParams {
                max_len: 256,
                threshold: th,
                ..DaspParams::default()
            },
        );
        let total = dt.vals.reg.len() + dt.vals.irreg.len();
        let share = if total == 0 {
            0.0
        } else {
            dt.vals.reg.len() as f64 / total as f64
        };
        print!("  {th:.2} -> {:.0}%", share * 100.0);
    }
    println!();
}

fn main() {
    let arg = std::env::args().nth(1);
    if let Some(path) = arg {
        let file = std::fs::File::open(&path).expect("cannot open matrix file");
        let coo: Coo<f64> =
            read_matrix_market(std::io::BufReader::new(file)).expect("cannot parse Matrix Market");
        inspect(&path, &coo.to_csr());
        return;
    }
    inspect("banded FEM (pwtk-like)", &matgen::banded(8000, 60, 52, 1));
    inspect(
        "2-D stencil (mc2depi-like)",
        &matgen::stencil2d(100, 100, 4, 2),
    );
    inspect("power-law graph (wiki-Talk-like)", &matgen::rmat(13, 8, 3));
    inspect(
        "circuit (dc2-like)",
        &matgen::circuit_like(20_000, 6, 3000, 4),
    );
    inspect(
        "LP / combinatorial (bibd-like)",
        &matgen::rectangular_long(40, 20_000, 6000, 5),
    );
}
