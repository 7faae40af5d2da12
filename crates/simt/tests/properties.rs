//! Property-based tests of the SIMT substrate: the MMA unit against a
//! dense GEMM oracle, shuffle algebra, and cache-model invariants.

use dasp_simt::mma::{acc_zero, mma_m8n8k4, pack_a, pack_b, unpack_c, MMA_K, MMA_M, MMA_N};
use dasp_simt::warp::{full_mask, per_lane, WARP_SIZE};
use dasp_simt::{shfl_sync, shfl_sync_var, warp_reduce, CacheModel, NoProbe};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    // Quarter-integers in a modest range: products and 4-term sums are
    // exact in f64, so the GEMM comparison can use equality.
    (-64i32..=64).prop_map(|v| v as f64 * 0.25)
}

proptest! {
    #[test]
    fn mma_equals_dense_gemm(
        a in proptest::collection::vec(small_f64(), MMA_M * MMA_K),
        b in proptest::collection::vec(small_f64(), MMA_K * MMA_N),
        c in proptest::collection::vec(small_f64(), MMA_M * MMA_N),
    ) {
        let ad: [[f64; MMA_K]; MMA_M] =
            core::array::from_fn(|i| core::array::from_fn(|k| a[i * MMA_K + k]));
        let bd: [[f64; MMA_N]; MMA_K] =
            core::array::from_fn(|k| core::array::from_fn(|j| b[k * MMA_N + j]));
        // Seed the accumulator fragment with C through the documented layout.
        let mut acc = acc_zero::<f64>();
        for lane in 0..WARP_SIZE {
            for reg in 0..2 {
                acc[lane][reg] = c[(lane >> 2) * MMA_N + 2 * (lane & 3) + reg];
            }
        }
        mma_m8n8k4::<f64>(&mut acc, &pack_a(&ad), &pack_b(&bd));
        let got = unpack_c::<f64>(&acc);
        for i in 0..MMA_M {
            for j in 0..MMA_N {
                let mut want = c[i * MMA_N + j];
                for k in 0..MMA_K {
                    want += ad[i][k] * bd[k][j];
                }
                prop_assert_eq!(got[i][j], want, "C[{}][{}]", i, j);
            }
        }
    }

    #[test]
    fn mma_is_linear_in_a(
        a1 in proptest::collection::vec(small_f64(), 32),
        a2 in proptest::collection::vec(small_f64(), 32),
        b in proptest::collection::vec(small_f64(), 32),
    ) {
        let fa1: [f64; 32] = core::array::from_fn(|l| a1[l]);
        let fa2: [f64; 32] = core::array::from_fn(|l| a2[l]);
        let fsum: [f64; 32] = core::array::from_fn(|l| a1[l] + a2[l]);
        let fb: [f64; 32] = core::array::from_fn(|l| b[l]);
        let mut acc_sep = acc_zero::<f64>();
        mma_m8n8k4::<f64>(&mut acc_sep, &fa1, &fb);
        mma_m8n8k4::<f64>(&mut acc_sep, &fa2, &fb);
        let mut acc_sum = acc_zero::<f64>();
        mma_m8n8k4::<f64>(&mut acc_sum, &fsum, &fb);
        prop_assert_eq!(acc_sep, acc_sum);
    }

    #[test]
    fn broadcast_equals_variable_shuffle_with_constant_source(
        vals in proptest::collection::vec(any::<i64>(), 32),
        src in 0usize..32,
    ) {
        let v: [i64; 32] = core::array::from_fn(|l| vals[l]);
        let a = shfl_sync(&mut NoProbe, full_mask(), v, src);
        let srcs: [i32; 32] = [src as i32; 32];
        let b = shfl_sync_var(&mut NoProbe, full_mask(), v, &srcs, full_mask());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn warp_reduce_sum_equals_lane_sum(vals in proptest::collection::vec(-1000i64..1000, 32)) {
        let v: [i64; 32] = core::array::from_fn(|l| vals[l]);
        let out = warp_reduce(&mut NoProbe, full_mask(), v, |a, b| a + b);
        prop_assert_eq!(out[0], vals.iter().sum::<i64>());
    }

    #[test]
    fn cache_replay_after_reset_is_identical(
        addrs in proptest::collection::vec(0u64..100_000, 1..400),
        capacity_pow in 8u32..16,
        ways in 1usize..8,
    ) {
        let mut c = CacheModel::new(1u64 << capacity_pow, 64, ways);
        let first: Vec<bool> = addrs.iter().map(|&a| c.access_run(a, 1)).collect();
        // The first touch of a line always misses.
        prop_assert!(!first[0]);
        // Replaying the exact trace after reset classifies it identically.
        c.reset();
        let again: Vec<bool> = addrs.iter().map(|&a| c.access_run(a, 1)).collect();
        prop_assert_eq!(first, again);
    }

    #[test]
    fn cache_second_pass_of_small_set_all_hits(
        n in 1usize..64,
        stride_half in 0u64..8,
    ) {
        // n distinct lines in a 64-line, 8-set cache. An odd stride visits
        // the sets uniformly, so <= 64 lines never exceed any set's 8 ways
        // (an even stride could pile every line into one set and conflict).
        let stride = 2 * stride_half + 1;
        let mut c = CacheModel::new(64 * 128, 128, 8);
        for i in 0..n as u64 {
            c.access_run(i * 128 * stride, 1);
        }
        for i in 0..n as u64 {
            prop_assert!(c.access_run(i * 128 * stride, 1), "second pass must be all hits");
        }
    }

    #[test]
    fn per_lane_matches_manual_loop(seed in any::<u64>()) {
        let v = per_lane(|l| seed.wrapping_mul(l as u64 + 1));
        for (l, &x) in v.iter().enumerate() {
            prop_assert_eq!(x, seed.wrapping_mul(l as u64 + 1));
        }
    }
}
