//! CSR -> DASP conversion (the preprocessing step of paper Fig. 13).
//!
//! The build is an *analysis/execute* pipeline: a cheap sequential counting
//! pass over `csr.row_ptr` fixes every element's destination slot, then the
//! copy work fans out over the configured [`Executor`] in contiguous
//! chunks. No stage stages elements in per-row `Vec`s — the part builders
//! read straight from the borrowed CSR arrays — and every write is
//! position-based through a [`SharedSlice`](dasp_simt::SharedSlice), so the
//! output is bit-identical whichever executor runs it.

use dasp_fp16::Scalar;
use dasp_simt::{Executor, NoProbe, SharedSlice};
use dasp_sparse::Csr;
use dasp_trace::{Span, Tracer};

use crate::consts::DaspParams;
use crate::format::{DaspMatrix, LongPart, MediumPart, Piecing, ShortPart};

/// Rows per categorize chunk: classifying a row is a two-load affair, so
/// chunks must stay large for the fan-out to pay.
const MIN_CHUNK_CATEGORIZE: usize = 4096;

/// Splits `items` into contiguous chunks for `exec`, returning
/// `(n_chunks, chunk_len)` (the last chunk may be short).
///
/// Sequential executors — and inputs too small to split `2 * min_chunk`
/// ways — get a single chunk. Parallel executors get at most 8 chunks per
/// thread (cheap dynamic balance without shredding the input) and no chunk
/// smaller than `min_chunk`.
pub(crate) fn chunk_plan(exec: &Executor, items: usize, min_chunk: usize) -> (usize, usize) {
    let min_chunk = min_chunk.max(1);
    if items == 0 {
        return (0, 1);
    }
    if let Executor::Par(p) = exec {
        if items >= 2 * min_chunk {
            let threads = p
                .threads()
                .or_else(|| std::thread::available_parallelism().map(|n| n.get()).ok())
                .unwrap_or(1);
            let chunks = items.div_ceil(min_chunk).min(threads * 8).max(1);
            let chunk = items.div_ceil(chunks);
            return (items.div_ceil(chunk), chunk);
        }
    }
    (1, items)
}

/// Runs `body(chunk_index)` for every chunk of a [`chunk_plan`].
///
/// The parallel branch re-arms the executor with a zero inline-fallback
/// threshold: chunk counts are far below the warp-count threshold the
/// kernels tune for, but each chunk here carries `min_chunk`-scale work.
pub(crate) fn run_planned<F>(exec: &Executor, n_chunks: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    match exec {
        Executor::Par(p) if n_chunks > 1 => {
            Executor::Par(p.with_seq_threshold(0)).run(n_chunks, &mut NoProbe, |c, _| body(c));
        }
        _ => {
            for c in 0..n_chunks {
                body(c);
            }
        }
    }
}

/// Fans `body(lo, hi)` out over contiguous `items` ranges sized by
/// [`chunk_plan`]. The workhorse of every build phase.
pub(crate) fn run_chunks<F>(exec: &Executor, items: usize, min_chunk: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let (n_chunks, chunk) = chunk_plan(exec, items, min_chunk);
    run_planned(exec, n_chunks, |c| {
        body(c * chunk, ((c + 1) * chunk).min(items))
    });
}

/// Classifies rows and builds all three category parts.
pub(crate) fn build<S: Scalar>(csr: &Csr<S>, params: DaspParams) -> DaspMatrix<S> {
    build_traced(csr, params, &Tracer::disabled())
}

/// [`build`] with tracing, on the environment-selected executor.
pub(crate) fn build_traced<S: Scalar>(
    csr: &Csr<S>,
    params: DaspParams,
    tracer: &Tracer,
) -> DaspMatrix<S> {
    build_traced_with(csr, params, tracer, &Executor::from_env())
}

/// [`build`] with each preprocessing phase wrapped in a span: a
/// `preprocess` root with `preprocess.categorize`, `preprocess.sort`, and
/// `preprocess.build.{long,medium,short}` children. With a disabled
/// tracer the spans are inert and this *is* the plain build path.
pub(crate) fn build_traced_with<S: Scalar>(
    csr: &Csr<S>,
    params: DaspParams,
    tracer: &Tracer,
    exec: &Executor,
) -> DaspMatrix<S> {
    assert!(
        params.max_len > 4,
        "MAX_LEN must exceed the short-row bound"
    );
    let root = tracer.span("preprocess");
    let (long, medium, short) = build_under(csr, params, &root, exec, |j| csr.vals[j], S::zero());
    DaspMatrix {
        rows: csr.rows,
        cols: csr.cols,
        nnz: csr.nnz(),
        long,
        medium,
        short,
        params,
        plan: None,
    }
}

/// Per-chunk categorize output: row ids by category, in row order.
#[derive(Default)]
struct Buckets {
    long: Vec<u32>,
    medium: Vec<u32>,
    short: Vec<u32>,
}

/// The three category parts, each holding one value per slot.
pub(crate) type Parts<V> = (LongPart<V>, MediumPart<V>, ShortPart<V>);

/// The phase pipeline, recording its spans as children of `root` (which
/// [`build_traced_with`] names `preprocess`; [`DaspPlan::analyze`] reuses
/// this under its own root so analysis traces read identically).
///
/// Only `csr`'s pattern steers the layout. Each slot holding CSR element
/// `j` gets `val(j)` and every padding slot gets `pad`: the matrix build
/// copies `csr.vals[j]` with zero padding, analysis records `j` itself.
///
/// [`DaspPlan::analyze`]: crate::format::DaspPlan::analyze
pub(crate) fn build_under<S: Scalar, V: Copy + Send>(
    csr: &Csr<S>,
    params: DaspParams,
    root: &Span,
    exec: &Executor,
    val: impl Fn(usize) -> V + Sync,
    pad: V,
) -> Parts<V> {
    // Categorize: each chunk classifies its row range into id buckets;
    // concatenating buckets in chunk order reproduces the sequential
    // row-order scan exactly.
    let mut long_ids: Vec<u32> = Vec::new();
    let mut medium_ids: Vec<u32> = Vec::new();
    let mut short_ids: Vec<u32> = Vec::new();
    {
        let mut sp = root.child("preprocess.categorize");
        let (n_chunks, chunk) = chunk_plan(exec, csr.rows, MIN_CHUNK_CATEGORIZE);
        let mut buckets: Vec<Buckets> = (0..n_chunks).map(|_| Buckets::default()).collect();
        {
            let shared = SharedSlice::new(&mut buckets);
            run_planned(exec, n_chunks, |c| {
                let mut b = Buckets::default();
                for i in c * chunk..((c + 1) * chunk).min(csr.rows) {
                    let len = csr.row_len(i);
                    if len == 0 {
                        continue; // empty rows belong to no category
                    }
                    if len > params.max_len {
                        b.long.push(i as u32);
                    } else if len > 4 {
                        b.medium.push(i as u32);
                    } else {
                        b.short.push(i as u32);
                    }
                }
                shared.write(c, b);
            });
        }
        for b in buckets {
            long_ids.extend_from_slice(&b.long);
            medium_ids.extend_from_slice(&b.medium);
            short_ids.extend_from_slice(&b.short);
        }
        sp.add_arg("rows_long", long_ids.len());
        sp.add_arg("rows_medium", medium_ids.len());
        sp.add_arg("rows_short", short_ids.len());
    }

    {
        // Stable descending sort by length (paper §3.2: "sorted in a
        // stable descending order"). With `params.reorder` on, equal
        // lengths additionally order by a minhash similarity signature of
        // the row's column set, bucketing overlapping rows into the same
        // 8-row block for x-locality; the length sequence — and therefore
        // every piece of block geometry and the fill rate — is unchanged.
        let mut sp = root.child("preprocess.sort");
        let before = medium_ids.clone();
        if params.reorder {
            medium_ids.sort_by_cached_key(|&id| {
                let i = id as usize;
                let cols = &csr.col_idx[csr.row_ptr[i]..csr.row_ptr[i + 1]];
                (
                    std::cmp::Reverse(csr.row_len(i)),
                    crate::format::reorder::signature(cols),
                )
            });
        } else {
            medium_ids.sort_by_key(|&id| std::cmp::Reverse(csr.row_len(id as usize)));
        }
        let moved = before
            .iter()
            .zip(&medium_ids)
            .filter(|(a, b)| a != b)
            .count();
        sp.add_arg("rows_sorted", medium_ids.len());
        sp.add_arg("moved", moved);
        sp.add_arg("reorder", params.reorder);
    }

    let long = {
        let mut sp = root.child("preprocess.build.long");
        let long = LongPart::build_csr(csr, &long_ids, &val, pad, exec);
        sp.add_arg("groups", long.num_groups());
        long
    };
    let medium = {
        let mut sp = root.child("preprocess.build.medium");
        let medium = MediumPart::build_csr(csr, &medium_ids, params.threshold, &val, pad, exec);
        sp.add_arg("rowblocks", medium.num_rowblocks());
        medium
    };
    let short = {
        let mut sp = root.child("preprocess.build.short");
        let short = ShortPart::build_csr(csr, &short_ids, params.short_piecing, &val, pad, exec);
        // The MMA sections' warps; the singleton warps are not counted.
        let warps: usize = Piecing::ALL.iter().map(|p| p.warps(&short)).sum();
        sp.add_arg("warps", warps);
        short
    };
    (long, medium, short)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_sparse::Coo;

    /// A matrix with rows in every category:
    /// row 0: 300 nonzeros (long), row 1: empty, row 2: 10 (medium),
    /// rows 3..20: 6 each (medium), rows 20..40: lengths 1..=4 cycling.
    fn mixed() -> Csr<f64> {
        let mut m = Coo::new(40, 400);
        for c in 0..300 {
            m.push(0, c, 1.0);
        }
        for c in 0..10 {
            m.push(2, c * 3, 2.0);
        }
        for r in 3..20 {
            for c in 0..6 {
                m.push(r, c * 7 + r, 3.0);
            }
        }
        for r in 20..40 {
            let len = (r - 20) % 4 + 1;
            for c in 0..len {
                m.push(r, c * 11 + r, 4.0);
            }
        }
        m.to_csr()
    }

    /// The pre-refactor build path: per-row element collects, append-based
    /// part builders. The zero-copy path must reproduce it bit for bit.
    fn reference_build(csr: &Csr<f64>, params: DaspParams) -> DaspMatrix<f64> {
        let mut long_rows: Vec<(u32, Vec<(u32, f64)>)> = Vec::new();
        let mut medium_rows: Vec<(u32, Vec<(u32, f64)>)> = Vec::new();
        let mut short_rows: Vec<(u32, Vec<(u32, f64)>)> = Vec::new();
        for i in 0..csr.rows {
            let len = csr.row_len(i);
            if len == 0 {
                continue;
            }
            let elems: Vec<(u32, f64)> = csr.row(i).collect();
            if len > params.max_len {
                long_rows.push((i as u32, elems));
            } else if len > 4 {
                medium_rows.push((i as u32, elems));
            } else {
                short_rows.push((i as u32, elems));
            }
        }
        medium_rows.sort_by_key(|(_, e)| std::cmp::Reverse(e.len()));
        let mut long = LongPart::empty();
        for (r, elems) in &long_rows {
            long.push_row(*r, elems);
        }
        let medium = MediumPart::build(&medium_rows, params.threshold);
        let short = if params.short_piecing {
            ShortPart::build(short_rows)
        } else {
            ShortPart::build_padded_only(short_rows)
        };
        DaspMatrix {
            rows: csr.rows,
            cols: csr.cols,
            nnz: csr.nnz(),
            long,
            medium,
            short,
            params,
            plan: None,
        }
    }

    #[test]
    fn zero_copy_build_is_bit_identical_to_reference() {
        let m = mixed();
        for piecing in [true, false] {
            let params = DaspParams {
                short_piecing: piecing,
                ..DaspParams::default()
            };
            let want = reference_build(&m, params);
            let seq = build_traced_with(&m, params, &Tracer::disabled(), &Executor::seq());
            let par = build_traced_with(
                &m,
                params,
                &Tracer::disabled(),
                &Executor::par_with_threads(Some(4)),
            );
            assert_eq!(seq, want);
            assert_eq!(par, want);
        }
    }

    #[test]
    fn chunk_plan_shapes() {
        let seq = Executor::seq();
        let par = Executor::par_with_threads(Some(4));
        // Sequential: always one chunk.
        assert_eq!(chunk_plan(&seq, 10_000, 64), (1, 10_000));
        // Empty: no chunks.
        assert_eq!(chunk_plan(&par, 0, 64), (0, 1));
        // Too small to split: one chunk.
        assert_eq!(chunk_plan(&par, 100, 64), (1, 100));
        // Splittable: chunks cover the input exactly, none below min.
        let (n, chunk) = chunk_plan(&par, 10_000, 64);
        assert!(n > 1);
        assert!(chunk >= 64);
        assert!((n - 1) * chunk < 10_000 && n * chunk >= 10_000);
    }

    #[test]
    fn run_chunks_covers_every_item_once() {
        let par = Executor::par_with_threads(Some(4));
        let n = 5000;
        let mut hits = vec![0u8; n];
        {
            let shared = SharedSlice::new(&mut hits);
            run_chunks(&par, n, 16, |lo, hi| {
                for i in lo..hi {
                    shared.write(i, 1);
                }
            });
        }
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn categories_partition_the_rows() {
        let m = mixed();
        let d = DaspMatrix::from_csr(&m);
        let s = d.category_stats();
        assert_eq!(s.rows_long, 1);
        assert_eq!(s.rows_medium, 18);
        assert_eq!(s.rows_short, 20);
        assert_eq!(s.rows_empty, 1);
        assert_eq!(
            s.rows_long + s.rows_medium + s.rows_short + s.rows_empty,
            40
        );
        assert_eq!(s.nnz_long + s.nnz_medium + s.nnz_short, m.nnz());
    }

    #[test]
    fn medium_rows_sorted_descending_and_stable() {
        let m = mixed();
        let d = DaspMatrix::from_csr(&m);
        let lens: Vec<usize> = d
            .medium
            .rows
            .iter()
            .map(|&r| m.row_len(r as usize))
            .collect();
        for w in lens.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // Rows 3..20 all have length 6; stability keeps original order.
        assert_eq!(
            &d.medium.rows[1..],
            (3u32..20).collect::<Vec<_>>().as_slice()
        );
    }

    #[test]
    fn sort_span_reports_rows_sorted_and_moved() {
        let m = mixed();
        let tracer = Tracer::new();
        let _ = DaspMatrix::from_csr_traced(&m, &tracer);
        let trace = tracer.take_trace();
        let sort = trace
            .spans
            .iter()
            .find(|s| s.name == "preprocess.sort")
            .expect("sort span recorded");
        let arg = |key: &str| {
            sort.args
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .expect("sort span arg")
        };
        // 18 medium rows; row 2 (len 10, the longest) is already first in
        // row order, so the stable sort keeps every row in place.
        assert_eq!(arg("rows_sorted"), "18");
        assert_eq!(arg("moved"), "0");
    }

    #[test]
    fn sort_span_counts_moved_rows() {
        // Two medium rows in ascending length order: both move.
        let mut m = Coo::<f64>::new(2, 100);
        for c in 0..5 {
            m.push(0, c, 1.0);
        }
        for c in 0..90 {
            m.push(1, c, 1.0);
        }
        let tracer = Tracer::new();
        let _ = DaspMatrix::from_csr_traced(&m.to_csr(), &tracer);
        let trace = tracer.take_trace();
        let sort = trace
            .spans
            .iter()
            .find(|s| s.name == "preprocess.sort")
            .expect("sort span recorded");
        assert!(sort.args.contains(&("rows_sorted".into(), "2".into())));
        assert!(sort.args.contains(&("moved".into(), "2".into())));
    }

    #[test]
    fn boundary_lengths_classify_per_paper() {
        // len 4 -> short; len 5 -> medium; len 256 -> medium; len 257 -> long
        let mut m = Coo::<f64>::new(4, 300);
        for c in 0..4 {
            m.push(0, c, 1.0);
        }
        for c in 0..5 {
            m.push(1, c, 1.0);
        }
        for c in 0..256 {
            m.push(2, c, 1.0);
        }
        for c in 0..257 {
            m.push(3, c, 1.0);
        }
        let d = DaspMatrix::from_csr(&m.to_csr());
        assert_eq!(d.short.num_rows(), 1);
        assert_eq!(d.medium.rows, vec![2, 1]);
        assert_eq!(d.long.rows, vec![3]);
    }

    #[test]
    fn custom_max_len_moves_the_boundary() {
        let mut m = Coo::<f64>::new(2, 300);
        for c in 0..100 {
            m.push(0, c, 1.0);
        }
        for c in 0..20 {
            m.push(1, c, 1.0);
        }
        let d = DaspMatrix::with_params(
            &m.to_csr(),
            DaspParams {
                max_len: 64,
                ..DaspParams::default()
            },
        );
        assert_eq!(d.long.rows, vec![0]);
        assert_eq!(d.medium.rows, vec![1]);
    }

    #[test]
    fn fill_rate_is_small_for_friendly_structure() {
        // All rows length 4: zero fill needed at all.
        let mut m = Coo::<f64>::new(64, 64);
        for r in 0..64 {
            for c in 0..4 {
                m.push(r, (r + c * 16) % 64, 1.0);
            }
        }
        let d = DaspMatrix::from_csr(&m.to_csr());
        assert_eq!(d.category_stats().fill_rate(), 0.0);
    }

    #[test]
    fn empty_matrix_builds() {
        let m = Csr::<f64>::empty(10, 10);
        let d = DaspMatrix::from_csr(&m);
        let s = d.category_stats();
        assert_eq!(s.rows_empty, 10);
        assert_eq!(s.nnz, 0);
    }
}
