//! The `mma.m8n8k4` matrix multiply-accumulate unit.
//!
//! This models the PTX instruction
//! `mma.sync.aligned.m8n8k4.row.col.f64.f64.f64.f64` (paper Listing 1) — a
//! warp-wide operation computing `D = A·B + C` for an 8×4 `A` (row-major), a
//! 4×8 `B` (column-major) and an 8×8 accumulator, with the operands
//! distributed over the 32 lanes of a warp exactly as the hardware does
//! (paper Fig. 4):
//!
//! * **A fragment** — one element per lane: lane `t` holds
//!   `A[t >> 2][t & 3]`.
//! * **B fragment** — one element per lane: lane `t` holds
//!   `B[t & 3][t >> 2]` (column-major: `k = t & 3`, `n = t >> 2`).
//! * **C/D fragment** — two elements per lane: lane `t` holds
//!   `C[t >> 2][2*(t & 3)]` in register 0 and `C[t >> 2][2*(t & 3) + 1]` in
//!   register 1.
//!
//! The diagonal elements `C[i][i]` — the per-row dot products DASP extracts —
//! therefore live on lanes `{0, 9, 18, 27}` (register 0, even rows) and
//! `{4, 13, 22, 31}` (register 1, odd rows), which is precisely why the
//! paper's reduction uses `shfl_down 9/18` and `shfl target*9`.
//!
//! For FP16 the same shape is used with `f32` accumulation, mirroring how
//! HMMA accumulates wider than its inputs (the real FP16 shapes are
//! m16n8k8/m16n8k16; DESIGN.md documents this substitution).

use dasp_fp16::Scalar;

use crate::warp::WARP_SIZE;

/// The M dimension of the MMA tile (rows of A and C).
pub const MMA_M: usize = 8;
/// The N dimension of the MMA tile (columns of B and C).
pub const MMA_N: usize = 8;
/// The K dimension of the MMA tile (columns of A, rows of B).
pub const MMA_K: usize = 4;

/// A C/D accumulator fragment: two registers per lane.
pub type AccFrag<S> = [[<S as Scalar>::Acc; 2]; WARP_SIZE];

/// Returns a zeroed accumulator fragment.
#[inline]
pub fn acc_zero<S: Scalar>() -> AccFrag<S> {
    [[S::acc_zero(); 2]; WARP_SIZE]
}

/// Executes one warp-wide `mma.m8n8k4`: `acc += A · B`, with the fragment
/// layout described in the module docs. `frag_a[lane]` and `frag_b[lane]`
/// are each lane's single A/B element.
#[inline]
pub fn mma_m8n8k4<S: Scalar>(
    acc: &mut AccFrag<S>,
    frag_a: &[S; WARP_SIZE],
    frag_b: &[S; WARP_SIZE],
) {
    // Reassemble the dense operands from the lane fragments, multiply, and
    // scatter back. The hardware does this wiring combinationally; doing it
    // explicitly keeps the layout contract in one place.
    let mut a = [[S::zero(); MMA_K]; MMA_M];
    let mut b = [[S::zero(); MMA_N]; MMA_K];
    for lane in 0..WARP_SIZE {
        a[lane >> 2][lane & 3] = frag_a[lane];
        b[lane & 3][lane >> 2] = frag_b[lane];
    }
    // Whole-row update: `C[row][col]` lives at lane `row*4 + (col>>1)`,
    // register `col & 1`, so a row of C is the four lanes `row*4..row*4+4`
    // flattened. Accumulating k-ascending per slot keeps the rounding chain
    // identical to a per-slot scalar loop, while the inner 8-wide column
    // loop (one broadcast `a[row][k]` times a contiguous `b[k][..]` row)
    // auto-vectorizes.
    for row in 0..MMA_M {
        let lanes = row * 4;
        let mut c_row = [S::acc_zero(); MMA_N];
        for col in 0..MMA_N {
            c_row[col] = acc[lanes + (col >> 1)][col & 1];
        }
        for k in 0..MMA_K {
            let av = a[row][k];
            for col in 0..MMA_N {
                c_row[col] = S::acc_mul_add(c_row[col], av, b[k][col]);
            }
        }
        for col in 0..MMA_N {
            acc[lanes + (col >> 1)][col & 1] = c_row[col];
        }
    }
}

/// Diagonal-only `mma.m8n8k4`: updates exactly the eight [`DIAG_SLOTS`]
/// positions `C[i][i]`, leaving every other accumulator slot untouched.
///
/// This is the interpreter shortcut for the SpMV diagonal trick: each MMA
/// issue deposits its eight row-segment dot products on the diagonal, and
/// the kernels declare exactly that via `san_frag_mma(DIAG_SLOTS)` — the
/// off-diagonal slots are never read (the sanitizer's initcheck enforces
/// it), so the 224 FMAs that would compute them are dead work. The eight
/// computed chains are the same k-ascending `acc_mul_add` sequences
/// [`mma_m8n8k4`] runs for those slots, so the diagonal is **bit-identical**
/// to the full issue. `A[i][k]` and `B[k][i]` both live at lane `i*4 + k`,
/// which is what makes the diagonal a per-lane product sum.
///
/// One modeling caveat (shared with the masked-A SpMM scheme, see the
/// `dasp-core` SpMM module docs): a non-finite A or B element would, on
/// hardware, contaminate off-diagonal slots too. This stack assumes finite
/// inputs; the sanitizer's slot contract is the guard.
#[inline]
pub fn mma_m8n8k4_diag<S: Scalar>(
    acc: &mut AccFrag<S>,
    frag_a: &[S; WARP_SIZE],
    frag_b: &[S; WARP_SIZE],
) {
    for i in 0..MMA_M {
        let (lane, reg) = diag_position(i);
        let mut c = acc[lane][reg];
        for k in 0..MMA_K {
            c = S::acc_mul_add(c, frag_a[i * 4 + k], frag_b[i * 4 + k]);
        }
        acc[lane][reg] = c;
    }
}

/// Row-segment `mma.m8n8k4` with B read straight from a row-major RHS
/// panel: updates exactly row `r` of `C` — the [`row_slots`]`(r)`
/// positions — as if `A` were masked to row `r`, `B` gathered from the
/// panel, and the full issue run.
///
/// This is the interpreter shortcut for the masked-A SpMM segment scheme.
/// Row segment `r`'s B fragment is `B[k][col] = panel[cids[r*4+k]*w + col]`
/// for the live `k` positions (bit `k` of `kmask`) and the `w` live
/// columns; every other position is an explicit zero. Rather than packing
/// that fragment lane by lane, each live `k` copies its `w` contiguous
/// panel elements as one row of a zeroed 4×8 B tile — a full panel
/// (`w == 8`) as one fixed-width 8-element row, a narrower one element
/// by element — and the tile then runs the full issue's row loop, whose
/// 8-wide column loop vectorizes.
/// Masked-off `k` positions and dead columns multiply an explicit zero,
/// so row `r`'s eight chains are the same k-ascending `acc_mul_add`
/// sequences [`mma_m8n8k4`] runs for those slots, the `a * 0` fills
/// included — bit-identical, non-finite `A[r][k]` too.
///
/// Rows other than `r` would only receive `0 * b` products — bit-inert on
/// an accumulator that started at `+0.0` (adding `±0.0` can never flip a
/// bit under round-to-nearest; see the `dasp-core` SpMM module docs for
/// the full argument), so they are skipped, and so is the A-side mask:
/// callers pass the **unmasked** block fragment, of which only the
/// `A[r][k]` lanes (`r*4 + k`) are read. The one departure from the full
/// issue: a non-finite B element leaves the other rows untouched, where
/// the full issue would turn their slots in its column into NaN.
/// Masked-off `k` positions read no panel element, so their `cids` may
/// hold anything.
// Always inlined: called out of line once per row segment, it made bare
// fp64 SpMM at panel widths 2–8 7–27% slower (2-vCPU x86-64 VM).
#[inline(always)]
pub fn mma_m8n8k4_row_panel<S: Scalar>(
    acc: &mut AccFrag<S>,
    frag_a: &[S; WARP_SIZE],
    panel: &[S],
    cids: &[u32; WARP_SIZE],
    w: usize,
    kmask: u32,
    r: usize,
) {
    debug_assert!((1..=MMA_N).contains(&w), "panel width {w}");
    let lanes = r * 4;
    let mut c_row = [S::acc_zero(); MMA_N];
    for col in 0..MMA_N {
        c_row[col] = acc[lanes + (col >> 1)][col & 1];
    }
    // B's row k is panel row cids[r*4+k], at the lane of A[r][k]; rows
    // outside kmask and the dead columns stay zero.
    let mut b = [[S::zero(); MMA_N]; MMA_K];
    for k in 0..MMA_K {
        if kmask >> k & 1 != 0 {
            let start = cids[lanes + k] as usize * w;
            let row = &panel[start..start + w];
            if w == MMA_N {
                b[k] = row.try_into().expect("row is MMA_N long");
            } else {
                // Element by element: `copy_from_slice` of a run-time
                // length is a `memcpy` call, which costs more than the
                // narrow row it copies.
                for (col, v) in b[k].iter_mut().enumerate() {
                    if let Some(x) = row.get(col) {
                        *v = *x;
                    }
                }
            }
        }
    }
    for k in 0..MMA_K {
        let av = frag_a[lanes + k];
        for col in 0..MMA_N {
            c_row[col] = S::acc_mul_add(c_row[col], av, b[k][col]);
        }
    }
    for col in 0..MMA_N {
        acc[lanes + (col >> 1)][col & 1] = c_row[col];
    }
}

/// Packs a dense row-major 8×4 matrix into an A fragment (test helper).
pub fn pack_a<S: Scalar>(dense: &[[S; MMA_K]; MMA_M]) -> [S; WARP_SIZE] {
    core::array::from_fn(|lane| dense[lane >> 2][lane & 3])
}

/// Packs a dense 4×8 matrix into a B fragment (test helper).
pub fn pack_b<S: Scalar>(dense: &[[S; MMA_N]; MMA_K]) -> [S; WARP_SIZE] {
    core::array::from_fn(|lane| dense[lane & 3][lane >> 2])
}

/// Unpacks a C/D fragment into a dense 8×8 matrix (test helper).
pub fn unpack_c<S: Scalar>(frag: &AccFrag<S>) -> [[S::Acc; MMA_N]; MMA_M] {
    let mut c = [[S::acc_zero(); MMA_N]; MMA_M];
    for (lane, regs) in frag.iter().enumerate() {
        for (reg, &v) in regs.iter().enumerate() {
            c[lane >> 2][2 * (lane & 3) + reg] = v;
        }
    }
    c
}

/// The (lane, register) pair holding the diagonal element `C[i][i]`.
///
/// Even rows sit in register 0 on lanes `{0, 9, 18, 27}`; odd rows in
/// register 1 on lanes `{4, 13, 22, 31}` — the positions targeted by the
/// paper's shuffle sequences.
#[inline]
pub const fn diag_position(i: usize) -> (usize, usize) {
    // lane = i*4 + i/2, reg = i & 1
    (i * 4 + i / 2, i & 1)
}

/// Accumulator-slot bitmask (bit `lane*2 + reg`) covering the eight
/// diagonal positions `C[i][i]` — the slots the SpMV row-segment scheme
/// deposits real results in. Kernels pass this to
/// [`crate::Probe::san_frag_mma`] so initcheck knows which fragment slots
/// an MMA defined.
pub const DIAG_SLOTS: u64 = {
    let mut m = 0u64;
    let mut i = 0;
    while i < MMA_M {
        let (lane, reg) = diag_position(i);
        m |= 1u64 << (lane * 2 + reg);
        i += 1;
    }
    m
};

/// Accumulator-slot bitmask covering all eight columns of row `r` of `C`
/// (`C[r][j]` lives at lane `r*4 + (j>>1)`, register `j&1`): the slots a
/// masked-A SpMM segment issue defines.
#[inline]
pub const fn row_slots(r: usize) -> u64 {
    0xffu64 << (r * 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_fp16::F16;

    fn dense_ref(a: &[[f64; MMA_K]; MMA_M], b: &[[f64; MMA_N]; MMA_K]) -> [[f64; MMA_N]; MMA_M] {
        let mut c = [[0.0; MMA_N]; MMA_M];
        for i in 0..MMA_M {
            for j in 0..MMA_N {
                for k in 0..MMA_K {
                    c[i][j] += a[i][k] * b[k][j];
                }
            }
        }
        c
    }

    fn arbitrary_a(seed: u64) -> [[f64; MMA_K]; MMA_M] {
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as i32 % 17) as f64 * 0.25
        };
        core::array::from_fn(|_| core::array::from_fn(|_| next()))
    }

    fn arbitrary_b(seed: u64) -> [[f64; MMA_N]; MMA_K] {
        let mut s = seed ^ 0xdead_beef;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as i32 % 13) as f64 * 0.5
        };
        core::array::from_fn(|_| core::array::from_fn(|_| next()))
    }

    #[test]
    fn matches_dense_gemm_fp64() {
        for seed in 0..32 {
            let a = arbitrary_a(seed);
            let b = arbitrary_b(seed);
            let mut acc = acc_zero::<f64>();
            mma_m8n8k4::<f64>(&mut acc, &pack_a(&a), &pack_b(&b));
            let got = unpack_c::<f64>(&acc);
            let want = dense_ref(&a, &b);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn accumulates_across_calls() {
        let a = arbitrary_a(1);
        let b = arbitrary_b(2);
        let mut acc = acc_zero::<f64>();
        mma_m8n8k4::<f64>(&mut acc, &pack_a(&a), &pack_b(&b));
        mma_m8n8k4::<f64>(&mut acc, &pack_a(&a), &pack_b(&b));
        let got = unpack_c::<f64>(&acc);
        let want = dense_ref(&a, &b);
        for i in 0..MMA_M {
            for j in 0..MMA_N {
                assert_eq!(got[i][j], 2.0 * want[i][j]);
            }
        }
    }

    #[test]
    fn slot_masks_match_the_layout() {
        // DIAG_SLOTS covers exactly the eight diag_position slots.
        let mut want = 0u64;
        for i in 0..MMA_M {
            let (lane, reg) = diag_position(i);
            want |= 1 << (lane * 2 + reg);
        }
        assert_eq!(DIAG_SLOTS, want);
        assert_eq!(DIAG_SLOTS.count_ones(), 8);
        // row_slots(r) covers C[r][0..8] = lanes r*4..r*4+4, both regs.
        for r in 0..MMA_M {
            let mut want = 0u64;
            for j in 0..MMA_N {
                let lane = r * 4 + (j >> 1);
                let reg = j & 1;
                want |= 1 << (lane * 2 + reg);
            }
            assert_eq!(row_slots(r), want, "row {r}");
        }
        // Every diagonal slot is in its own row's slot set.
        for r in 0..MMA_M {
            let (lane, reg) = diag_position(r);
            assert_ne!(row_slots(r) & (1 << (lane * 2 + reg)), 0);
        }
    }

    #[test]
    fn diag_positions_match_figure4() {
        let expected = [
            (0, 0),
            (4, 1),
            (9, 0),
            (13, 1),
            (18, 0),
            (22, 1),
            (27, 0),
            (31, 1),
        ];
        for (i, &(lane, reg)) in expected.iter().enumerate() {
            assert_eq!(diag_position(i), (lane, reg), "diag {i}");
        }
        // Cross-check against the unpack layout: place row dot-products so
        // that C[i][i] = 100 + i and verify lane/reg.
        let mut a = [[0.0f64; MMA_K]; MMA_M];
        let mut b = [[0.0f64; MMA_N]; MMA_K];
        for i in 0..MMA_M {
            a[i][0] = 100.0 + i as f64;
            b[0][i] = 1.0;
        }
        let mut acc = acc_zero::<f64>();
        mma_m8n8k4::<f64>(&mut acc, &pack_a(&a), &pack_b(&b));
        for i in 0..MMA_M {
            let (lane, reg) = diag_position(i);
            assert_eq!(acc[lane][reg], 100.0 + i as f64, "diag {i}");
        }
    }

    #[test]
    fn spmv_diagonal_trick() {
        // The core DASP idea: A holds 8 row-segments of nonzeros, each lane's
        // B element is x[col] for its own A element; the diagonal of C then
        // holds the 8 per-segment dot products.
        let mut a = [[0.0f64; MMA_K]; MMA_M];
        let mut x = [[0.0f64; MMA_N]; MMA_K];
        let mut want = [0.0f64; MMA_M];
        for r in 0..MMA_M {
            for k in 0..MMA_K {
                let av = (r * 4 + k + 1) as f64;
                let xv = 1.0 / (k + 1) as f64;
                a[r][k] = av;
                // lane for element (r,k) contributes B[k][r] = x value
                x[k][r] = xv;
                want[r] += av * xv;
            }
        }
        let mut acc = acc_zero::<f64>();
        mma_m8n8k4::<f64>(&mut acc, &pack_a(&a), &pack_b(&x));
        for (r, &w) in want.iter().enumerate() {
            let (lane, reg) = diag_position(r);
            assert!((acc[lane][reg] - w).abs() < 1e-12, "row {r}");
        }
    }

    #[test]
    fn fp16_inputs_accumulate_in_f32() {
        // 256 * 16 = 4096 products of 1*1 would overflow nothing, but a pure
        // f16 accumulator would lose precision at 2048+0.5; check a case
        // where f32 accumulation is observably wider.
        let a: [[F16; MMA_K]; MMA_M] =
            core::array::from_fn(|_| core::array::from_fn(|_| F16::from_f32(512.0)));
        let b: [[F16; MMA_N]; MMA_K] =
            core::array::from_fn(|_| core::array::from_fn(|_| F16::from_f32(1.0)));
        let mut acc = acc_zero::<F16>();
        mma_m8n8k4::<F16>(&mut acc, &pack_a(&a), &pack_b(&b));
        let c = unpack_c::<F16>(&acc);
        // each C element = sum of 4 products of 512 = 2048, exact in f32
        assert!(c.iter().flatten().all(|&v| v == 2048.0f32));
        // A second MMA adding 1.0 must be kept by the f32 accumulator even
        // though 2049 is not representable in f16 (spacing is 2 there).
        let mut a1 = [[F16::ZERO; MMA_K]; MMA_M];
        let mut b1 = [[F16::ZERO; MMA_N]; MMA_K];
        for r in 0..MMA_M {
            a1[r][0] = F16::ONE;
        }
        for n in 0..MMA_N {
            b1[0][n] = F16::ONE;
        }
        mma_m8n8k4::<F16>(&mut acc, &pack_a(&a1), &pack_b(&b1));
        let c = unpack_c::<F16>(&acc);
        assert!(c.iter().flatten().all(|&v| v == 2049.0f32));
    }

    #[test]
    fn diag_variant_matches_full_mma_bitwise() {
        for seed in 0..32 {
            let a = pack_a(&arbitrary_a(seed));
            let b = pack_b(&arbitrary_b(seed));
            // Start both accumulators from the same non-trivial state.
            let mut full = acc_zero::<f64>();
            for lane in 0..WARP_SIZE {
                full[lane][0] = (lane as f64) * 0.125;
                full[lane][1] = -(lane as f64) * 0.25 - 1.0;
            }
            let mut diag = full;
            mma_m8n8k4::<f64>(&mut full, &a, &b);
            mma_m8n8k4_diag::<f64>(&mut diag, &a, &b);
            for i in 0..MMA_M {
                let (lane, reg) = diag_position(i);
                assert_eq!(
                    full[lane][reg].to_bits(),
                    diag[lane][reg].to_bits(),
                    "seed {seed} diag {i}"
                );
            }
            // ...and the variant touched nothing else.
            for lane in 0..WARP_SIZE {
                for reg in 0..2 {
                    if DIAG_SLOTS & (1 << (lane * 2 + reg)) != 0 {
                        continue;
                    }
                    let want = if reg == 0 {
                        (lane as f64) * 0.125
                    } else {
                        -(lane as f64) * 0.25 - 1.0
                    };
                    assert_eq!(diag[lane][reg], want, "lane {lane} reg {reg}");
                }
            }
        }
    }

    /// Rows of panel storage in the row-panel tests: more than the eight
    /// distinct column ids a row segment could name.
    const PANEL_ROWS: usize = 11;

    /// A row-major panel of `PANEL_ROWS` rows and `w` columns.
    fn arbitrary_panel<S: Scalar>(w: usize, seed: u64) -> Vec<S> {
        let mut s = seed ^ 0x5eed;
        (0..PANEL_ROWS * w)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                S::from_f64(((s >> 33) as i32 % 11) as f64 * 0.5 - 2.0)
            })
            .collect()
    }

    fn arbitrary_cids(seed: u64) -> [u32; WARP_SIZE] {
        core::array::from_fn(|l| ((l as u64 * 7 + seed * 3) % PANEL_ROWS as u64) as u32)
    }

    /// A nonzero accumulator state: adding `±0.0` to it is exact, so the
    /// full issue's masked rows must come out unchanged.
    fn busy_acc<S: Scalar>() -> AccFrag<S> {
        core::array::from_fn(|lane| {
            [
                S::acc_from_f64(lane as f64 * 0.125 + 1.0),
                S::acc_from_f64(-(lane as f64) * 0.25 - 1.0),
            ]
        })
    }

    /// The full-issue reference for one row-panel issue: A masked to row
    /// `r`, and B packed from the panel with masked-off `k` positions and
    /// dead columns zeroed.
    fn masked_full_issue<S: Scalar>(
        acc: &mut AccFrag<S>,
        a: &[S; WARP_SIZE],
        panel: &[S],
        cids: &[u32; WARP_SIZE],
        w: usize,
        kmask: u32,
        r: usize,
    ) {
        let masked: [S; WARP_SIZE] =
            core::array::from_fn(|l| if l >> 2 == r { a[l] } else { S::zero() });
        let b: [[S; MMA_N]; MMA_K] = core::array::from_fn(|k| {
            core::array::from_fn(|col| {
                if kmask >> k & 1 != 0 && col < w {
                    panel[cids[r * 4 + k] as usize * w + col]
                } else {
                    S::zero()
                }
            })
        });
        mma_m8n8k4::<S>(acc, &masked, &pack_b(&b));
    }

    /// Each slot's bits, with every NaN read as one value: Rust leaves a
    /// NaN's sign and payload unspecified (a constant-folded `Inf * 0`
    /// and the hardware's differ), so only NaN-ness is comparable.
    fn acc_bits<S: Scalar>(acc: &AccFrag<S>) -> [[u64; MMA_N]; MMA_M] {
        unpack_c::<S>(acc).map(|row| {
            row.map(|v| {
                let v = S::acc_to_f64(v);
                if v.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
        })
    }

    fn row_panel_matches_masked_full_mma<S: Scalar>() {
        for w in 1..=MMA_N {
            for kmask in 0..16u32 {
                for r in 0..MMA_M {
                    let seed = (w * 131 + kmask as usize * 17 + r) as u64;
                    let a: [S; WARP_SIZE] = pack_a(&arbitrary_a(seed)).map(S::from_f64);
                    let panel = arbitrary_panel::<S>(w, seed);
                    let mut cids = arbitrary_cids(seed);
                    // A masked-off k reads no panel row: an id past the
                    // panel would panic if it did.
                    for k in (0..MMA_K).filter(|k| kmask >> k & 1 == 0) {
                        cids[r * 4 + k] = u32::MAX;
                    }
                    let mut full = busy_acc::<S>();
                    let mut seg = full;
                    masked_full_issue(&mut full, &a, &panel, &cids, w, kmask, r);
                    mma_m8n8k4_row_panel::<S>(&mut seg, &a, &panel, &cids, w, kmask, r);
                    assert_eq!(
                        acc_bits::<S>(&full),
                        acc_bits::<S>(&seg),
                        "{} w {w} kmask {kmask:#x} r {r}",
                        S::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn row_panel_variant_matches_masked_full_mma_bitwise() {
        // The SpMM contract: the row-panel issue reproduces a full MMA on
        // A masked to row r and B packed from the panel, on every slot —
        // the other rows' inert 0*b adds included — for every live width,
        // k mask and row.
        row_panel_matches_masked_full_mma::<f64>();
        row_panel_matches_masked_full_mma::<F16>();
    }

    fn inf_in_masked_k_gives_the_same_nan_row<S: Scalar>() {
        let (w, r, k) = (5, 3, 2);
        let kmask = 0xF & !(1 << k);
        let mut a: [S; WARP_SIZE] = pack_a(&arbitrary_a(9)).map(S::from_f64);
        a[r * 4 + k] = S::from_f64(f64::INFINITY);
        let panel = arbitrary_panel::<S>(w, 9);
        let cids = arbitrary_cids(9);
        let mut full = busy_acc::<S>();
        let mut seg = full;
        masked_full_issue(&mut full, &a, &panel, &cids, w, kmask, r);
        mma_m8n8k4_row_panel::<S>(&mut seg, &a, &panel, &cids, w, kmask, r);
        // Inf times the explicit zero of the masked-off k is NaN in every
        // column of row r, dead columns included, on both paths.
        let c = unpack_c::<S>(&seg);
        assert!(
            c[r].iter().all(|v| S::acc_to_f64(*v).is_nan()),
            "{}",
            S::NAME
        );
        assert_eq!(acc_bits::<S>(&full), acc_bits::<S>(&seg), "{}", S::NAME);
    }

    #[test]
    fn inf_a_in_a_masked_k_gives_the_full_mma_nan_row() {
        inf_in_masked_k_gives_the_same_nan_row::<f64>();
        inf_in_masked_k_gives_the_same_nan_row::<F16>();
    }

    fn non_finite_b_stays_in_its_row<S: Scalar>() {
        let (w, r, k, col) = (6, 5, 1, 4);
        let a: [S; WARP_SIZE] = pack_a(&arbitrary_a(4)).map(S::from_f64);
        let mut panel = arbitrary_panel::<S>(w, 4);
        let cids = arbitrary_cids(4);
        panel[cids[r * 4 + k] as usize * w + col] = S::from_f64(f64::INFINITY);
        let before = busy_acc::<S>();
        let (mut full, mut seg) = (before, before);
        masked_full_issue(&mut full, &a, &panel, &cids, w, 0xF, r);
        mma_m8n8k4_row_panel::<S>(&mut seg, &a, &panel, &cids, w, 0xF, r);
        let (before, full, seg) = (
            acc_bits::<S>(&before),
            acc_bits::<S>(&full),
            acc_bits::<S>(&seg),
        );
        assert_eq!(full[r], seg[r], "{} row {r}", S::NAME);
        for i in (0..MMA_M).filter(|&i| i != r) {
            // The row-panel issue never touches another row...
            assert_eq!(seg[i], before[i], "{} row {i}", S::NAME);
            // ...where the full issue's 0 * Inf turns that row's slot in
            // the Inf's column into NaN and leaves the rest alone.
            for j in 0..MMA_N {
                if j == col {
                    assert!(f64::from_bits(full[i][j]).is_nan(), "{} row {i}", S::NAME);
                } else {
                    assert_eq!(full[i][j], before[i][j], "{} row {i} col {j}", S::NAME);
                }
            }
        }
    }

    #[test]
    fn non_finite_b_departs_from_the_full_mma_only_off_its_row() {
        // The documented departure: the skipped rows would, on the full
        // issue, pick up 0 * Inf = NaN in the Inf's column.
        non_finite_b_stays_in_its_row::<f64>();
        non_finite_b_stays_in_its_row::<F16>();
    }

    #[test]
    fn zero_a_leaves_accumulator_unchanged() {
        let mut acc = acc_zero::<f64>();
        for lane in 0..WARP_SIZE {
            acc[lane][0] = lane as f64;
            acc[lane][1] = -(lane as f64);
        }
        let snapshot = acc;
        mma_m8n8k4::<f64>(&mut acc, &[0.0; WARP_SIZE], &[1.0; WARP_SIZE]);
        assert_eq!(acc, snapshot);
    }
}
