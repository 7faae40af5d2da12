//! Seeded inputs. Every matrix and vector the benchmark hands to the
//! program comes from here, derived from the run's `--seed`, so the same
//! seed always gives the same inputs.

use dasp_matgen as matgen;
use dasp_sparse::Csr;

/// A generated matrix with the class name it was drawn from.
pub struct Named {
    /// Generator class (`rmat`, `banded`, ...).
    pub name: &'static str,
    /// The matrix.
    pub csr: Csr<f64>,
}

/// Derives an independent sub-seed for input `tag` of a run seeded with
/// `seed` (splitmix64 finalizer, so nearby seeds give unrelated streams).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for arrival schedules and request
/// choices (splitmix64).
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0, 0)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `base` scaled by `scale`, never below `min`.
fn sized(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(min)
}

/// The five-class mix covering DASP's three row categories at both
/// x-locality extremes: long rows (`circuit_like`, `rmat`), medium rows
/// (`banded`) and short rows (`stencil2d` at 4 points, `uniform_random`
/// at 3 per row). At `scale` 1 each holds about 0.2 M nonzeros.
pub fn five_class_mix(seed: u64, scale: f64) -> Vec<Named> {
    let side = sized(220, scale.sqrt(), 8);
    let rmat_bits = (15.0 + scale.log2()).round().clamp(6.0, 20.0) as u32;
    vec![
        Named {
            name: "circuit_like",
            csr: matgen::circuit_like(
                sized(60_000, scale, 400),
                4,
                sized(3_000, scale, 300),
                mix(seed, 1),
            ),
        },
        Named {
            name: "rmat",
            csr: matgen::rmat(rmat_bits, 6, mix(seed, 2)),
        },
        Named {
            name: "banded",
            csr: matgen::banded(sized(16_000, scale, 200), 32, 12, mix(seed, 3)),
        },
        Named {
            name: "stencil2d",
            csr: matgen::stencil2d(side, side, 4, mix(seed, 4)),
        },
        Named {
            name: "uniform_random",
            csr: {
                let n = sized(60_000, scale, 400);
                matgen::uniform_random(n, n, 3, mix(seed, 5))
            },
        },
    ]
}

/// The two resident matrices of the serving stage: `rmat` (long and short
/// rows) and `banded` (medium rows), about 0.1 M nonzeros each at
/// `scale` 1.
pub fn serve_pair(seed: u64, scale: f64) -> Vec<Named> {
    let rmat_bits = (14.0 + scale.log2()).round().clamp(6.0, 20.0) as u32;
    vec![
        Named {
            name: "rmat",
            csr: matgen::rmat(rmat_bits, 6, mix(seed, 11)),
        },
        Named {
            name: "banded",
            csr: matgen::banded(sized(8_000, scale, 200), 32, 12, mix(seed, 12)),
        },
    ]
}

/// A seeded input vector of length `n` in `[-1, 1)`.
pub fn vector(n: usize, seed: u64, tag: u64) -> Vec<f64> {
    matgen::dense_vector(n, mix(seed, tag))
}
