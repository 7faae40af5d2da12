//! The leftover length-1 rows kernel (paper Algorithm 5).
//!
//! The singletons that remain after 1&3 piecing are computed on the basic
//! CUDA cores: one thread per row, a single multiply, no MMA involvement.

use dasp_fp16::Scalar;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice};

use crate::format::ShortPart;

/// Number of warps the singleton kernel launches for `part` (one thread
/// per leftover row, grouped into warps of 32).
pub fn short1_warps<S: Scalar>(part: &ShortPart<S>) -> usize {
    part.n1.div_ceil(dasp_simt::WARP_SIZE)
}

/// Runs the scalar singleton kernel under the given executor, scattering
/// results into `y`.
pub fn spmv_short1_with<S: Scalar, P: ShardableProbe>(
    part: &ShortPart<S>,
    x: &[S],
    y: &mut [S],
    probe: &mut P,
    exec: &Executor,
) {
    let shared = SharedSlice::new(y);
    exec.run(short1_warps(part), probe, |w, p| {
        short1_warp(part, x, &shared, w, p)
    });
}

/// Warp body: warp `w`'s 32 threads each compute one singleton row's
/// product.
pub fn short1_warp<S: Scalar, P: Probe>(
    part: &ShortPart<S>,
    x: &[S],
    y: &SharedSlice<S>,
    w: usize,
    probe: &mut P,
) {
    const WARP: usize = 32;
    probe.warp_begin(w);
    probe.san_region("dasp.short1");
    // The kernel's last warp runs with n1 % 32 live threads.
    let live = (w + 1) * WARP;
    if live > part.n1 {
        probe.divergence((live - part.n1) as u64);
    }
    let (lo, hi) = (w * WARP, live.min(part.n1));
    let n = hi - lo;
    // One coalesced access per array for the whole warp: the lane math
    // runs over stack arrays the compiler vectorizes, and each probe
    // boundary is crossed once instead of per thread.
    let mut xi = [0usize; WARP];
    let mut writes = [0usize; WARP];
    for (lane, t) in (lo..hi).enumerate() {
        xi[lane] = part.cids[part.off1() + t] as usize;
        writes[lane] = part.perm1[t] as usize;
    }
    probe.load_val(n as u64, S::BYTES);
    probe.load_idx(n as u64, 4);
    probe.load_x(&xi[..n], S::BYTES);
    probe.fma(n as u64);
    for (lane, t) in (lo..hi).enumerate() {
        let v = S::mul_to_acc(part.vals[part.off1() + t], x[xi[lane]]);
        y.write(writes[lane], S::from_acc(v));
    }
    probe.san_write(space::Y, &writes[..n]);
    probe.store_y(n as u64, S::BYTES);
    probe.warp_end(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    #[test]
    fn singletons_compute_products() {
        // All rows length 1 and no length-3 rows, so every row stays in the
        // scalar category.
        let n = 10;
        let mut coo = Coo::<f64>::new(n, n);
        for r in 0..n {
            coo.push(r, (r * 3) % n, (r + 1) as f64);
        }
        let csr = coo.to_csr();
        let rows: Vec<(u32, Vec<(u32, f64)>)> =
            (0..n).map(|r| (r as u32, csr.row(r).collect())).collect();
        let part = ShortPart::build(rows);
        assert_eq!(part.n1, n);
        let x: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let mut y = vec![0.0f64; n];
        spmv_short1_with(&part, &x, &mut y, &mut NoProbe, &Executor::seq());
        let want = csr.spmv_reference(&x);
        assert_eq!(y, want);
    }

    #[test]
    fn counters_reflect_one_element_per_row() {
        let mut coo = Coo::<f64>::new(5, 5);
        for r in 0..5 {
            coo.push(r, r, 2.0);
        }
        let csr = coo.to_csr();
        let rows: Vec<(u32, Vec<(u32, f64)>)> =
            (0..5).map(|r| (r as u32, csr.row(r).collect())).collect();
        let part = ShortPart::build(rows);
        let x = vec![1.0f64; 5];
        let mut y = vec![0.0f64; 5];
        let mut probe = CountingProbe::a100();
        spmv_short1_with(&part, &x, &mut y, &mut probe, &Executor::seq());
        let s = probe.stats();
        assert_eq!(s.fma_ops, 5);
        assert_eq!(s.mma_ops, 0);
        assert_eq!(s.bytes_val, 40);
        assert_eq!(y, vec![2.0; 5]);
    }
}
