//! The counting probe's x-cache model against an independent LRU, end to
//! end on the DASP kernels.
//!
//! [`CacheModel`] classifies touches in two representations: per-line
//! last-touch ticks while every touch since the reset is below S·W lines
//! (sets × ways, where no set can overflow), and per-set tag lists after
//! the first touch at or above S·W. Here a probe built on a plain
//! per-element LRU — one list per set, no batching, no tick array — sees
//! the same SpMV and SpMM launches, and the cache-dependent counters must
//! agree exactly: on the A100 geometry (dense mode throughout), on a tiny
//! cache that spills in the middle of a launch, and on `x`/B footprints
//! of exactly S·W lines and just past them.

use dasp_core::DaspMatrix;
use dasp_fp16::{Scalar, F16};
use dasp_simt::{CacheModel, CountingProbe, Executor, Probe, ShardableProbe};
use dasp_sparse::{Coo, Csr, DenseMat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Line size of every geometry below.
const LINE: u64 = 128;

/// A per-element LRU cache as a probe: every slice a kernel passes is
/// cut into one-element touches, in order.
#[derive(Clone)]
struct LruProbe {
    sets: u64,
    ways: usize,
    /// Each set's lines, least recently used first.
    lru: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
    first_line: Option<u64>,
    max_line: u64,
}

impl LruProbe {
    fn new(capacity: u64, ways: usize) -> Self {
        let sets = (capacity / LINE / ways as u64).max(1);
        LruProbe {
            sets,
            ways,
            lru: vec![Vec::new(); sets as usize],
            hits: 0,
            misses: 0,
            first_line: None,
            max_line: 0,
        }
    }
}

impl Probe for LruProbe {
    fn kernel_launch(&mut self, _blocks: u64, _warps_per_block: u64) {}
    fn load_val(&mut self, _elems: u64, _bytes_per: u64) {}
    fn load_idx(&mut self, _elems: u64, _bytes_per: u64) {}
    fn load_meta(&mut self, _elems: u64, _bytes_per: u64) {}
    fn store_y(&mut self, _elems: u64, _bytes_per: u64) {}
    fn load_x(&mut self, indices: &[usize], bytes_per: u64) {
        for &i in indices {
            self.touch(i, bytes_per);
        }
    }
    fn load_x_rows(&mut self, starts: &[usize], len: usize, bytes_per: u64) {
        for &s in starts {
            for i in s..s + len {
                self.touch(i, bytes_per);
            }
        }
    }
    fn mma(&mut self) {}
    fn fma(&mut self, _n: u64) {}
    fn shfl(&mut self, _n: u64) {}
}

impl LruProbe {
    /// One touch of `x[index]` against the per-set LRU lists.
    fn touch(&mut self, index: usize, bytes_per: u64) {
        let line = index as u64 * bytes_per / LINE;
        self.first_line.get_or_insert(line);
        self.max_line = self.max_line.max(line);
        let set = &mut self.lru[(line % self.sets) as usize];
        if let Some(i) = set.iter().position(|&l| l == line) {
            set.remove(i);
            self.hits += 1;
        } else {
            if set.len() == self.ways {
                set.remove(0);
            }
            self.misses += 1;
        }
        set.push(line);
    }
}

/// The counting probe's shard contract: zeroed counters, warm cache. The
/// launches here run on the sequential executor, so only the fleet
/// sanitizer (`DASP_SANITIZE`) forks, once per call.
impl ShardableProbe for LruProbe {
    fn fork_shard(&self) -> Self {
        LruProbe {
            hits: 0,
            misses: 0,
            first_line: None,
            max_line: 0,
            ..self.clone()
        }
    }
    fn merge_shard(&mut self, shard: Self) {
        self.hits += shard.hits;
        self.misses += shard.misses;
        self.first_line = self.first_line.or(shard.first_line);
        self.max_line = self.max_line.max(shard.max_line);
    }
}

/// A cache geometry: capacity in bytes and ways, 128-byte lines.
#[derive(Clone, Copy, Debug)]
struct Geometry {
    capacity: u64,
    ways: usize,
}

impl Geometry {
    const A100: Geometry = Geometry {
        capacity: 40 * 1024 * 1024,
        ways: 16,
    };
    /// 32 sets x 4 ways: S·W = 128 lines, 16 KiB.
    const SMALL: Geometry = Geometry {
        capacity: 16 * 1024,
        ways: 4,
    };

    /// S·W: the number of lines the dense representation covers.
    fn lines(self) -> u64 {
        self.capacity / LINE
    }
}

/// A banded matrix whose row windows slide from the first column to the
/// last (the last row always touches column `cols - 1`), with a short /
/// medium / long row-length mix covering every DASP kernel. Early warps
/// touch low lines and late ones high lines, so a cache smaller than the
/// footprint spills in the middle of a launch.
fn banded(rows: usize, cols: usize, seed: u64) -> Csr<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, cols);
    let span = cols.min(640);
    for r in 0..rows {
        let lo = r * (cols - span) / (rows - 1);
        let len = match rng.gen_range(0..10) {
            0..=5 => rng.gen_range(0..=4usize),
            6..=8 => rng.gen_range(5..=256),
            _ => rng.gen_range(257..=600),
        }
        .min(span);
        let mut cs: Vec<usize> = Vec::with_capacity(len + 1);
        if r == rows - 1 {
            cs.push(cols - 1);
        }
        while cs.len() < len {
            let c = lo + rng.gen_range(0..span);
            if !cs.contains(&c) {
                cs.push(c);
            }
        }
        for c in cs {
            coo.push(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    coo.to_csr()
}

/// SpMV when `width` is `None`, else SpMM at that width, on a random
/// right-hand side.
fn launch<S: Scalar, P: ShardableProbe>(
    d: &DaspMatrix<S>,
    width: Option<usize>,
    seed: u64,
    probe: &mut P,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut column = || -> Vec<S> {
        (0..d.cols)
            .map(|_| S::from_f64(rng.gen_range(-1.0..1.0)))
            .collect()
    };
    match width {
        None => drop(d.spmv_with(&column(), probe, &Executor::seq())),
        Some(w) => {
            let columns: Vec<Vec<S>> = (0..w).map(|_| column()).collect();
            drop(d.spmm_with(&DenseMat::from_columns(&columns), probe, &Executor::seq()));
        }
    }
}

/// Runs one launch under a counting probe on geometry `g` and under the
/// reference LRU, asserts `x_hits`, `x_misses` and `bytes_x_miss` agree,
/// and returns the first and the highest line the launch touched.
fn check<S: Scalar>(csr: &Csr<f64>, width: Option<usize>, g: Geometry) -> (u64, u64) {
    let d = DaspMatrix::<S>::from_csr(&csr.cast());
    let mut counting = CountingProbe::new(CacheModel::new(g.capacity, LINE, g.ways));
    launch(&d, width, 7, &mut counting);
    let mut reference = LruProbe::new(g.capacity, g.ways);
    launch(&d, width, 7, &mut reference);
    let s = counting.stats();
    assert_eq!(
        (s.x_hits, s.x_misses, s.bytes_x_miss),
        (reference.hits, reference.misses, reference.misses * LINE),
        "{g:?}, {} bytes, width {width:?}: counting probe vs reference LRU",
        S::BYTES
    );
    assert!(reference.misses > 0);
    (reference.first_line.unwrap(), reference.max_line)
}

/// SpMV, then SpMM at each width.
const WIDTHS: [Option<usize>; 5] = [None, Some(1), Some(8), Some(13), Some(128)];

#[test]
fn a100_geometry_matches_reference() {
    let csr = banded(120, 900, 1);
    for width in WIDTHS {
        let (_, max) = check::<f64>(&csr, width, Geometry::A100);
        assert!(max < Geometry::A100.lines());
        check::<F16>(&csr, width, Geometry::A100);
    }
}

#[test]
fn tiny_cache_spilling_mid_launch_matches_reference() {
    // A 4-way cache of a quarter of the `x`/B footprint: each launch
    // starts below S·W, in dense mode, then spills and evicts.
    fn quarter<S: Scalar>(csr: &Csr<f64>, width: Option<usize>) {
        let footprint = (csr.cols as u64 * width.unwrap_or(1) as u64 * S::BYTES).div_ceil(LINE);
        let g = Geometry {
            capacity: footprint / 16 * 4 * LINE,
            ways: 4,
        };
        let (first, max) = check::<S>(csr, width, g);
        assert!(
            first < g.lines() && max >= g.lines(),
            "{g:?}, {} bytes, width {width:?}",
            S::BYTES
        );
    }
    let csr = banded(120, 3000, 2);
    for width in WIDTHS {
        quarter::<f64>(&csr, width);
        quarter::<F16>(&csr, width);
    }
}

/// The `x`/B footprint at exactly S·W lines (the highest line touched is
/// S·W - 1: dense throughout) and one row past it (the first touch of a
/// line at or above S·W spills).
#[test]
fn footprint_at_and_past_the_dense_limit_matches_reference() {
    fn at_and_past<S: Scalar>(width: Option<usize>) {
        let g = Geometry::SMALL;
        let row_bytes = width.unwrap_or(1) as u64 * S::BYTES;
        let cols = (g.lines() * LINE / row_bytes) as usize;
        let exact = banded(120, cols, 3);
        assert_eq!(check::<S>(&exact, width, g).1, g.lines() - 1);
        let past = banded(120, cols + 1, 4);
        assert!(check::<S>(&past, width, g).1 >= g.lines());
    }
    for width in WIDTHS {
        at_and_past::<f64>(width);
        at_and_past::<F16>(width);
    }
}
