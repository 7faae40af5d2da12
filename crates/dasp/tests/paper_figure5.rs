//! A walkthrough of the paper's Fig. 5 example: a 20x20 matrix whose rows
//! split into long, medium and short categories, checked against the
//! blocking rules the figure illustrates.
//!
//! Fig. 5 draws 2x4 blocks for readability ("assuming m2n2k4"); the real
//! format uses 8x4. This test keeps the figure's *row structure* — two very
//! long rows, a band of medium rows, and an assortment of short rows — and
//! scales the category boundary down (`max_len = 8`) so a 20-column matrix
//! can exercise all three categories exactly as the figure does.

use dasp_core::format::Piecing;
use dasp_core::{DaspMatrix, DaspParams};
use dasp_simt::NoProbe;
use dasp_sparse::{Coo, Csr};

/// Rows: 0 and 1 long (> 8 nonzeros), 2..=9 medium (5..=8), 10..=19 short
/// (lengths cycling 1, 2, 3, 4, and one empty).
fn figure5_like() -> Csr<f64> {
    let mut m = Coo::<f64>::new(20, 20);
    let mut v = 0.0;
    let mut push = |r: usize, c: usize, m: &mut Coo<f64>| {
        v += 0.25;
        m.push(r, c, v);
    };
    for c in 0..17 {
        push(0, c, &mut m); // long: 17 nonzeros
    }
    for c in 0..12 {
        push(1, c, &mut m); // long: 12 nonzeros
    }
    for r in 2..10 {
        for k in 0..(5 + r % 4) {
            push(r, (r + 2 * k) % 20, &mut m); // medium: 5..=8
        }
    }
    for r in 10..19 {
        let len = r % 4 + 1; // 1..=4 cycling; row 19 left empty
        for k in 0..len {
            push(r, (r + 3 * k) % 20, &mut m);
        }
    }
    m.to_csr()
}

fn params() -> DaspParams {
    DaspParams {
        max_len: 8,
        ..DaspParams::default()
    }
}

#[test]
fn rows_fall_into_the_figures_categories() {
    let csr = figure5_like();
    let d = DaspMatrix::with_params(&csr, params());
    d.validate().unwrap();

    assert_eq!(d.long.rows, vec![0, 1], "rows 0 and 1 are the long rows");
    // Medium rows, sorted descending by length (stable).
    let mut med: Vec<u32> = d.medium.rows.clone();
    med.sort_unstable();
    assert_eq!(med, (2u32..10).collect::<Vec<_>>());
    let lens: Vec<usize> = d
        .medium
        .rows
        .iter()
        .map(|&r| csr.row_len(r as usize))
        .collect();
    assert!(lens.windows(2).all(|w| w[0] >= w[1]), "sorted descending");

    let s = d.category_stats();
    assert_eq!(s.rows_short, 9, "rows 10..19 minus the empty one");
    assert_eq!(s.rows_empty, 1);
}

#[test]
fn long_rows_are_grouped_in_64s_with_padding() {
    let d = DaspMatrix::with_params(&figure5_like(), params());
    // 17 and 12 nonzeros -> one 64-element group each, zero padded.
    assert_eq!(d.long.group_ptr, vec![0, 1, 2]);
    assert_eq!(d.vals.long.len(), 128);
    let pad = d.vals.long.iter().filter(|&&v| v == 0.0).count();
    assert_eq!(pad, 128 - 17 - 12);
}

#[test]
fn short_rows_are_pieced_like_the_figure() {
    let d = DaspMatrix::with_params(&figure5_like(), params());
    // Short lengths present: rows 10..19 cycle r%4+1 minus the empty row 19
    // (19 % 4 + 1 = 4... row 19 is empty because the loop stops at 19).
    // Lengths: r=10->3, 11->4, 12->1, 13->2, 14->3, 15->4, 16->1, 17->2, 18->3.
    // 1&3 piecing pairs the two 1s with two of the three 3s; the leftover 3
    // is padded into the 4s; the two 2s pair in 2&2.
    assert_eq!(Piecing::OneThree.warps(&d.short), 1);
    assert_eq!(Piecing::Four.warps(&d.short), 1); // two real 4s + one padded 3
    assert_eq!(Piecing::TwoTwo.warps(&d.short), 1);
    assert_eq!(d.short.n1, 0, "every 1 found a 3 to piece with");
    let s = d.category_stats();
    assert_eq!(s.nnz_short, 3 + 4 + 1 + 2 + 3 + 4 + 1 + 2 + 3);
}

#[test]
fn the_example_computes_correctly_through_all_categories() {
    let csr = figure5_like();
    let d = DaspMatrix::with_params(&csr, params());
    let x: Vec<f64> = (0..20).map(|i| 1.0 + i as f64 * 0.1).collect();
    let y = d.spmv(&x, &mut NoProbe);
    let want = csr.spmv_reference(&x);
    for (i, (&a, &b)) in y.iter().zip(&want).enumerate() {
        assert!((a - b).abs() < 1e-12, "row {i}: {a} vs {b}");
    }
    assert_eq!(y[19], 0.0, "the empty row stays zero");
    // And the format reconstructs the matrix exactly.
    assert_eq!(d.to_csr(), csr);
}
