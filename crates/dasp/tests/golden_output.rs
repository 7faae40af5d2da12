//! Pinned output bits: the FNV-1a hash of every `y` bit that `spmv` and
//! `spmm` produce on one all-category matrix, at f64 and `F16`.
//!
//! The other parity suites compare two paths of the same build (SpMM
//! against SpMV, par against seq, plan against rebuild). These hashes
//! compare against a record, so they catch a change that moves every
//! path alike: a new binary16 conversion, a reassociated accumulator, a
//! different rounding of `y`. The inputs hold ±0.0, values that round to
//! binary16 subnormals, values that overflow to ±Inf in `F16`, and a NaN.

use dasp_core::format::Piecing;
use dasp_core::DaspMatrix;
use dasp_fp16::{Scalar, F16};
use dasp_simt::{Executor, NoProbe};
use dasp_sparse::{Coo, Csr, DenseMat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const COLS: usize = 700;

/// Values planted among the random ones: signed zeros, binary16
/// subnormals (2^-24 ≈ 6.0e-8 up to 2^-14 ≈ 6.1e-5), large finite values
/// whose products overflow `F16`'s 65504, and values that are ±Inf in
/// `F16` already.
const SPECIAL: [f64; 8] = [0.0, -0.0, 3.0e-6, -4.0e-7, 6.0e4, -3.0e4, 7.0e4, -1.0e5];

/// Two long rows, medium rows, short rows of lengths 0..=4 (1&3 pairs,
/// 2&2 pairs, length-4 rows) and leftover singletons, as in
/// `spmm_parity.rs`. Every 7th short or medium row starts with a
/// [`SPECIAL`] value, the long rows carry zeros and subnormals, and one
/// medium row holds a NaN.
fn all_category_matrix() -> Csr<f64> {
    let lens = [300, 420]
        .into_iter()
        .chain((0..38).map(|r| 5 + (r * 13) % 200))
        .chain((0..160).map(|r| r % 5))
        .chain([1; 20]);
    let mut rng = SmallRng::seed_from_u64(25);
    let mut coo = Coo::new(220, COLS);
    for (r, len) in lens.enumerate() {
        for k in 0..len {
            let v = if r < 2 && k % 50 == 0 {
                SPECIAL[(k / 50) % 4]
            } else if r >= 2 && k == 0 && r % 7 == 0 {
                SPECIAL[(r / 7) % SPECIAL.len()]
            } else if r == 10 && k == 3 {
                f64::NAN
            } else {
                rng.gen_range(-1.0..1.0)
            };
            coo.push(r, (r * 17 + k * 3) % COLS, v);
        }
    }
    coo.to_csr()
}

/// Column `j` of the right-hand side: random in (-1, 1), with every 11th
/// element a finite [`SPECIAL`] value and one element +Inf in `F16`.
fn rhs_column(j: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(1000 + j as u64);
    (0..COLS)
        .map(|i| match i {
            _ if i == 100 + j % 7 => 7.0e4,
            _ if i % 11 == j % 11 => SPECIAL[(i / 11 + j) % 6],
            _ => rng.gen_range(-1.0..1.0),
        })
        .collect()
}

/// The output bit pattern that the hash reads. A NaN's sign bit is
/// cleared: the hardware picks it, and Rust leaves it unspecified.
trait OutBits: Scalar {
    fn out_bits(self) -> u64;
}

impl OutBits for f64 {
    fn out_bits(self) -> u64 {
        let b = self.to_bits();
        if self.is_nan() {
            b & !(1 << 63)
        } else {
            b
        }
    }
}

impl OutBits for F16 {
    fn out_bits(self) -> u64 {
        let b = self.to_bits();
        u64::from(if self.is_nan() { b & 0x7fff } else { b })
    }
}

fn fnv1a(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash<S: OutBits>(ys: &[S]) -> u64 {
    ys.iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &y| fnv1a(h, y.out_bits()))
}

/// `(width, hash)`: width 1 is `spmv`, the others `spmm`, whose output is
/// hashed column by column, so the pin does not depend on the panel
/// layout.
fn output_hashes<S: OutBits>() -> Vec<(usize, u64)> {
    let d = DaspMatrix::from_csr(&all_category_matrix().cast::<S>());
    let column = |j| -> Vec<S> { rhs_column(j).into_iter().map(S::from_f64).collect() };
    let exec = Executor::seq();
    let mut out = vec![(1, hash(&d.spmv_with(&column(0), &mut NoProbe, &exec)))];
    for width in [8, 128, 131] {
        let b = DenseMat::from_columns(&(0..width).map(column).collect::<Vec<_>>());
        let y = d.spmm_with(&b, &mut NoProbe, &exec);
        let ys: Vec<S> = (0..width).flat_map(|j| y.column(j)).collect();
        out.push((width, hash(&ys)));
    }
    out
}

#[test]
fn matrix_takes_every_path_and_f16_output_spans_the_special_classes() {
    let d = DaspMatrix::from_csr(&all_category_matrix());
    assert!(d.long.num_groups() > 0, "long rows");
    assert!(!d.medium.rows.is_empty(), "medium rows");
    assert!(d.short.n1 > 0, "leftover singletons");
    for piecing in Piecing::ALL {
        assert!(piecing.warps(&d.short) > 0, "{piecing:?} rows");
    }

    let h = DaspMatrix::from_csr(&all_category_matrix().cast::<F16>());
    let x: Vec<F16> = rhs_column(0).into_iter().map(F16::from_f64).collect();
    let y = h.spmv_with(&x, &mut NoProbe, &Executor::seq());
    let count = |f: fn(&F16) -> bool| y.iter().filter(|v| f(v)).count();
    assert!(count(|v| v.is_nan()) > 0, "a NaN row");
    assert!(count(|v| v.is_infinite()) > 0, "an overflowed row");
    assert!(count(|v| v.is_subnormal()) > 0, "a subnormal row");
    assert!(count(|v| v.to_f64() == 0.0) > 0, "a zero row");
}

#[test]
fn output_bits_match_the_golden_record() {
    #[rustfmt::skip]
    let f64_golden = vec![
        (1, 0x7da9_99d9_d4f1_ab0a), (8, 0x8544_cc21_3a4c_a6b4),
        (128, 0xb190_70a3_fcb7_2b79), (131, 0x820a_89d4_5414_7779),
    ];
    #[rustfmt::skip]
    let f16_golden = vec![
        (1, 0x995a_daef_5956_d0d1), (8, 0xdf33_1443_8eab_a928),
        (128, 0xefcc_f15a_b45a_bb67), (131, 0x67d3_0c1e_fef5_9ea9),
    ];
    assert_eq!(output_hashes::<f64>(), f64_golden, "f64 outputs");
    assert_eq!(output_hashes::<F16>(), f16_golden, "F16 outputs");
}
