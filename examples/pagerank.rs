//! PageRank over a power-law web graph — the graph-processing workload the
//! paper's introduction motivates (SpMV is the inner loop of PageRank), on
//! exactly the kind of skewed matrix (`wiki-Talk`-like) where DASP's
//! long-rows strategy matters.
//!
//! ```text
//! cargo run --release --example pagerank
//! ```

use dasp_repro::dasp::{DaspMatrix, DaspParams};
use dasp_repro::matgen;
use dasp_repro::perf::{
    a100, measure, measure_looped_spmv_with, measure_spmm_traced_with, MethodKind,
};
use dasp_repro::simt::{Executor, NoProbe};
use dasp_repro::sparse::{Coo, Csr, DenseMat};
use dasp_repro::trace::Tracer;

/// Column-normalizes an adjacency matrix and transposes it, producing the
/// PageRank iteration matrix `M = A^T D^{-1}` (so `rank = M rank`).
fn pagerank_matrix(adj: &Csr<f64>) -> Csr<f64> {
    // out-degree of each vertex = row length
    let mut coo = Coo::new(adj.cols, adj.rows);
    for r in 0..adj.rows {
        let deg = adj.row_len(r);
        if deg == 0 {
            continue;
        }
        let w = 1.0 / deg as f64;
        for (c, _) in adj.row(r) {
            coo.push(c as usize, r, w);
        }
    }
    coo.to_csr()
}

fn main() {
    // A skewed R-MAT graph: a few vertices collect most of the edges.
    let adj = matgen::rmat(14, 8, 11);
    let m = pagerank_matrix(&adj);
    let n = m.rows;
    println!("graph: {} vertices, {} edges", n, adj.nnz());

    let dasp = DaspMatrix::from_csr(&m);
    let s = dasp.category_stats();
    println!(
        "DASP categories: {} long / {} medium / {} short rows ({:.1}% of nonzeros in long rows)",
        s.rows_long,
        s.rows_medium,
        s.rows_short,
        100.0 * s.nnz_long as f64 / s.nnz.max(1) as f64
    );

    // Power iteration with damping.
    let d = 0.85;
    let mut rank = vec![1.0 / n as f64; n];
    let mut iters = 0;
    let par = Executor::par(); // multi-threaded across CPU cores
    for k in 1..=200 {
        let mv = dasp.spmv_with(&rank, &mut NoProbe, &par);
        let mut delta = 0.0;
        let teleport = (1.0 - d) / n as f64;
        let mut next = vec![0.0; n];
        for i in 0..n {
            next[i] = teleport + d * mv[i];
        }
        // Redistribute the rank lost to dangling vertices.
        let lost = 1.0 - next.iter().sum::<f64>();
        for v in next.iter_mut() {
            *v += lost / n as f64;
        }
        for i in 0..n {
            delta += (next[i] - rank[i]).abs();
        }
        rank = next;
        iters = k;
        if delta < 1e-10 {
            break;
        }
    }
    println!("power iteration converged in {iters} iterations");

    let mut top: Vec<(usize, f64)> = rank.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top-5 vertices by rank:");
    for (v, r) in top.iter().take(5) {
        println!("  vertex {v:6}  rank {r:.6}  in-degree {}", m.row_len(*v));
    }

    // How would this SpMV fare on the modeled A100 vs the vendor library?
    let x = matgen::dense_vector(m.cols, 3);
    let dev = a100();
    let ours = measure(MethodKind::Dasp, &m, &x, &dev);
    let vendor = measure(MethodKind::VendorCsr, &m, &x, &dev);
    println!(
        "modeled A100 SpMV: dasp {:.1} GFlops vs cusparse-csr {:.1} GFlops ({:.2}x)",
        ours.gflops,
        vendor.gflops,
        vendor.estimate.seconds / ours.estimate.seconds
    );

    // Multi-seed personalized PageRank: 8 seed vertices, 8 rank vectors,
    // one SpMM per iteration — the batched matvecs fill all 8 MMA
    // B-columns, so the graph (A values + column indices) streams once
    // per iteration instead of once per seed.
    let seeds: Vec<usize> = top.iter().take(8).map(|&(v, _)| v).collect();
    let mut ranks: Vec<Vec<f64>> = seeds
        .iter()
        .map(|&s| {
            let mut r = vec![0.0; n];
            r[s] = 1.0;
            r
        })
        .collect();
    let mut iters_multi = 0;
    let mut last_delta = f64::INFINITY;
    let (mut b, mut y) = (DenseMat::zeros(0, 0), DenseMat::zeros(0, 0));
    for k in 1..=200 {
        let xs: Vec<&[f64]> = ranks.iter().map(|r| r.as_slice()).collect();
        dasp.spmv_batch_into(&xs, &mut b, &mut y, &mut NoProbe, &Tracer::disabled(), &par);
        let mvs: Vec<Vec<f64>> = (0..ranks.len()).map(|j| y.column(j)).collect();
        let mut max_delta = 0.0f64;
        for (s, (rank, mv)) in seeds.iter().zip(ranks.iter_mut().zip(&mvs)) {
            let mut next = vec![0.0; n];
            for i in 0..n {
                // Personalized teleport: jump back to this walk's seed.
                let jump = if i == *s { 1.0 - d } else { 0.0 };
                next[i] = jump + d * mv[i];
            }
            // Dangling mass also returns to the seed.
            let lost = 1.0 - next.iter().sum::<f64>();
            next[*s] += lost;
            let delta: f64 = next
                .iter()
                .zip(rank.iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            rank.copy_from_slice(&next);
            max_delta = max_delta.max(delta);
        }
        iters_multi = k;
        last_delta = max_delta;
        if max_delta < 1e-8 {
            break;
        }
    }
    println!(
        "personalized PageRank: 8 seeds, {iters_multi} lockstep iterations (max delta {last_delta:.1e})"
    );
    for (s, rank) in seeds.iter().zip(&ranks).take(3) {
        let mut top_p: Vec<(usize, f64)> = rank.iter().copied().enumerate().collect();
        top_p.sort_by(|a, b| b.1.total_cmp(&a.1));
        let (bv, br) = top_p[0];
        println!("  seed {s:6} -> top vertex {bv:6} (rank {br:.4})");
    }

    // The amortization, quantified on the modeled A100: one 8-wide SpMM
    // vs eight single-vector SpMVs.
    let b8 = DenseMat::from_columns(&ranks);
    let (params, off, seq) = (DaspParams::default(), Tracer::disabled(), Executor::seq());
    let spmm = measure_spmm_traced_with(MethodKind::Dasp, &m, &b8, params, &dev, &off, &seq);
    let looped = measure_looped_spmv_with(MethodKind::Dasp, &m, &b8, &dev, &seq);
    println!(
        "8-seed iteration traffic: spmm {:.2} MB A+idx vs looped {:.2} MB ({:.2}x est. speedup)",
        spmm.a_idx_bytes_per_rhs * 8.0 / 1e6,
        looped.a_idx_bytes_per_rhs * 8.0 / 1e6,
        looped.estimate.seconds / spmm.estimate.seconds
    );
}
