//! Warp-program executors: run a kernel's warp body sequentially or across
//! CPU threads, with instrumentation in both cases.
//!
//! A kernel in this workspace is written **once** as a *warp body* — a
//! closure `|warp_id, probe|` that computes one warp's share of the output
//! and scatters it through a [`SharedSlice`](crate::SharedSlice). An
//! executor decides how the `0..n_warps` bodies run:
//!
//! * [`SeqExecutor`] runs them in order on the calling thread, threading a
//!   single [`Probe`] through. Deterministic, and the cache model inside a
//!   [`CountingProbe`](crate::CountingProbe) sees `x` accesses in exactly
//!   the order a sequential sweep issues them — this is the measurement
//!   path behind the paper figures.
//! * [`ParExecutor`] chunks warps contiguously over `std::thread::scope`.
//!   Each thread gets a probe shard ([`ShardableProbe::fork_shard`]) and
//!   shards are merged back in chunk order
//!   ([`ShardableProbe::merge_shard`], which sums via
//!   `KernelStats::merge`). Order-independent counters — bytes, FMA/MMA
//!   ops, shuffles, launches, divergence — are bit-equal to the
//!   sequential run; cache hit-rates are per-shard approximations (each
//!   shard starts from a copy of the parent cache).
//!
//! [`Executor`] is the runtime-selectable pairing of the two, with
//! [`Executor::from_env`] reading `DASP_EXECUTOR` / `DASP_THREADS` so the
//! whole stack (tests included) can be flipped to the parallel path without
//! code changes.
//!
//! # Scratch-arena lifetime
//!
//! Kernels lease per-launch working buffers from the thread-local
//! [`WarpScratch`](crate::WarpScratch) arena rather than allocating fresh.
//! The arena is per OS thread, which lines up with both executors: under
//! [`SeqExecutor`] every warp body runs on the calling thread and leases
//! recycle through that thread's pool; under [`ParExecutor`] each
//! `dasp-shard-N` worker leases from its own pool, so no lease ever
//! crosses a thread. Leases must be taken and dropped *inside* one
//! launch (typically a whole-launch buffer leased before the `run` call
//! on the sequential path, or per-warp buffers leased inside the body on
//! either path) — a `ScratchLease` is not `Send` and cannot be captured
//! by the parallel body by value. Probe shards reuse their cache arrays
//! the same way: [`ShardableProbe::merge_shard`] drops the shard, which
//! parks its cache body in the merging thread's pool, so repeated
//! parallel launches stop allocating after warm-up.

use std::sync::OnceLock;

use crate::probe::{Probe, ShardableProbe};

/// Warp count below which [`ParExecutor`] runs inline on the calling
/// thread: spawn overhead dwarfs the work for tiny grids.
pub const DEFAULT_SEQ_THRESHOLD: usize = 64;

/// Runs warp bodies in order on the calling thread.
///
/// The loosest bounds of the executors: any [`Probe`] (not necessarily
/// shardable) and an `FnMut` body. Kernels' sequential compatibility
/// wrappers and unit tests go through this directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqExecutor;

impl SeqExecutor {
    /// Runs `body(warp_id, probe)` for every warp in `0..n_warps`,
    /// sequentially and in order. Cache-model state inside the probe
    /// evolves in warp order.
    pub fn run<P, F>(&self, n_warps: usize, probe: &mut P, mut body: F)
    where
        P: Probe,
        F: FnMut(usize, &mut P),
    {
        for w in 0..n_warps {
            body(w, probe);
        }
    }
}

/// Fans warp bodies out over CPU threads in contiguous chunks, with
/// per-thread probe shards merged back in chunk order.
#[derive(Debug, Clone, Copy)]
pub struct ParExecutor {
    threads: Option<usize>,
    seq_threshold: usize,
}

impl Default for ParExecutor {
    fn default() -> Self {
        ParExecutor::new()
    }
}

impl ParExecutor {
    /// An executor using `available_parallelism` threads and the default
    /// inline-fallback threshold ([`DEFAULT_SEQ_THRESHOLD`]).
    pub fn new() -> Self {
        ParExecutor {
            threads: None,
            seq_threshold: DEFAULT_SEQ_THRESHOLD,
        }
    }

    /// Overrides the thread count. `None` (the default) means
    /// `available_parallelism`; `Some(1)` degenerates to the sequential
    /// path.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the warp count below which the executor runs inline
    /// instead of spawning threads. Set to 0 to always spawn.
    pub fn with_seq_threshold(mut self, seq_threshold: usize) -> Self {
        self.seq_threshold = seq_threshold;
        self
    }

    /// The configured thread count, or `None` for `available_parallelism`.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The configured inline-fallback threshold.
    pub fn seq_threshold(&self) -> usize {
        self.seq_threshold
    }

    fn resolved_threads(&self, n_warps: usize) -> usize {
        self.threads
            .or_else(|| std::thread::available_parallelism().map(|n| n.get()).ok())
            .unwrap_or(1)
            .min(n_warps.max(1))
    }

    /// Runs `body(warp_id, probe)` for every warp in `0..n_warps` across
    /// CPU threads.
    ///
    /// Warps are distributed in contiguous chunks; thread `t` executes its
    /// chunk in warp order against a probe shard forked from `probe`, and
    /// shards are merged back in chunk order once every thread joins, so
    /// the merged order-independent counters equal a sequential run's.
    /// Writes inside `body` must be disjoint between warps (use
    /// [`SharedSlice`](crate::SharedSlice)).
    ///
    /// Falls back to running inline on the calling thread — full
    /// sequential semantics, including exact cache-model state — when only
    /// one thread is available or `n_warps` is below the configured
    /// threshold.
    pub fn run<P, F>(&self, n_warps: usize, probe: &mut P, body: F)
    where
        P: ShardableProbe,
        F: Fn(usize, &mut P) + Sync,
    {
        let threads = self.resolved_threads(n_warps);
        if threads <= 1 || n_warps < self.seq_threshold {
            for w in 0..n_warps {
                body(w, probe);
            }
            return;
        }
        let chunk = n_warps.div_ceil(threads);
        // Fork all shards up front on the calling thread so the fork order
        // (and thus any warm state copied from the parent) is
        // deterministic and independent of thread scheduling.
        let mut shards: Vec<(usize, usize, P)> = (0..threads)
            .map(|t| (t * chunk, ((t + 1) * chunk).min(n_warps)))
            .filter(|&(lo, hi)| lo < hi)
            .map(|(lo, hi)| (lo, hi, probe.fork_shard()))
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .drain(..)
                .enumerate()
                .map(|(t, (lo, hi, mut shard))| {
                    let body = &body;
                    // Named threads so trace exports can group shard spans
                    // under `dasp-shard-N` tracks instead of anonymous tids.
                    std::thread::Builder::new()
                        .name(format!("dasp-shard-{t}"))
                        .spawn_scoped(scope, move || {
                            for w in lo..hi {
                                body(w, &mut shard);
                            }
                            shard
                        })
                        .expect("spawn executor shard thread")
                })
                .collect();
            // Join and merge in chunk order: deterministic merge sequence.
            for h in handles {
                let shard = h.join().expect("executor worker thread panicked");
                probe.merge_shard(shard);
            }
        });
    }
}

/// A runtime-selectable executor: the sequential measurement path or the
/// multi-threaded path, behind one `run` call.
#[derive(Debug, Clone, Copy)]
pub enum Executor {
    /// In-order on the calling thread ([`SeqExecutor`]).
    Seq(SeqExecutor),
    /// Chunked over CPU threads ([`ParExecutor`]).
    Par(ParExecutor),
}

impl Executor {
    /// The sequential executor.
    pub fn seq() -> Self {
        Executor::Seq(SeqExecutor)
    }

    /// The parallel executor with default configuration.
    pub fn par() -> Self {
        Executor::Par(ParExecutor::new())
    }

    /// A parallel executor with an explicit thread count.
    pub fn par_with_threads(threads: Option<usize>) -> Self {
        Executor::Par(ParExecutor::new().with_threads(threads))
    }

    /// The process-wide default executor, selected by environment:
    /// `DASP_EXECUTOR=par` (optionally with `DASP_THREADS=N`) picks the
    /// parallel executor, anything else — including unset — the
    /// sequential one. Read once and cached for the process lifetime.
    pub fn from_env() -> Self {
        static DEFAULT: OnceLock<Executor> = OnceLock::new();
        *DEFAULT.get_or_init(|| match std::env::var("DASP_EXECUTOR").as_deref() {
            Ok("par") => {
                let threads = std::env::var("DASP_THREADS")
                    .ok()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n > 0);
                Executor::par_with_threads(threads)
            }
            _ => Executor::seq(),
        })
    }

    /// Whether this is the parallel variant.
    pub fn is_par(&self) -> bool {
        matches!(self, Executor::Par(_))
    }

    /// Short name for logs and CLI echo: `"seq"` or `"par"`.
    pub fn name(&self) -> &'static str {
        match self {
            Executor::Seq(_) => "seq",
            Executor::Par(_) => "par",
        }
    }

    /// Runs `body(warp_id, probe)` for every warp in `0..n_warps` under
    /// the selected strategy. See [`SeqExecutor::run`] and
    /// [`ParExecutor::run`] for the respective guarantees.
    pub fn run<P, F>(&self, n_warps: usize, probe: &mut P, body: F)
    where
        P: ShardableProbe,
        F: Fn(usize, &mut P) + Sync,
    {
        match self {
            Executor::Seq(e) => e.run(n_warps, probe, body),
            Executor::Par(e) => e.run(n_warps, probe, body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheModel;
    use crate::grid::SharedSlice;
    use crate::probe::{CountingProbe, NoProbe};

    #[test]
    fn sequential_executor_visits_in_order() {
        let mut seen = Vec::new();
        let mut probe = NoProbe;
        SeqExecutor.run(5, &mut probe, |w, _| seen.push(w));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sequential_executor_threads_probe() {
        let mut probe = CountingProbe::new(CacheModel::new(1024, 64, 2));
        SeqExecutor.run(3, &mut probe, |_, p| p.fma(2));
        assert_eq!(probe.stats().fma_ops, 6);
    }

    #[test]
    fn parallel_executor_covers_every_warp_once() {
        let n = 500;
        let mut out = vec![0u32; n];
        {
            let shared = SharedSlice::new(&mut out);
            let mut probe = NoProbe;
            ParExecutor::new().run(n, &mut probe, |w, _| shared.write(w, w as u32 + 1));
        }
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32 + 1);
        }
    }

    #[test]
    fn parallel_executor_small_counts_run_inline() {
        let n = 7;
        let mut out = vec![0u32; n];
        {
            let shared = SharedSlice::new(&mut out);
            let mut probe = NoProbe;
            ParExecutor::new().run(n, &mut probe, |w, _| shared.write(w, 9));
        }
        assert!(out.iter().all(|&v| v == 9));
    }

    #[test]
    fn parallel_merge_matches_sequential_counters() {
        let n = 300;
        // Real kernels open every warp body with `warp_begin`; the
        // warp-local x-sector run state depends on it, so the synthetic
        // body follows the same contract.
        let body = |w: usize, p: &mut CountingProbe| {
            p.warp_begin(w);
            p.fma((w % 7) as u64 + 1);
            p.load_val(w as u64, 8);
            p.load_x(&[w * 3 % 64], 8);
            p.divergence((w % 5) as u64);
        };
        let mut seq = CountingProbe::new(CacheModel::new(4096, 64, 4));
        SeqExecutor.run(n, &mut seq, body);
        let mut par = CountingProbe::new(CacheModel::new(4096, 64, 4));
        ParExecutor::new()
            .with_threads(Some(4))
            .with_seq_threshold(0)
            .run(n, &mut par, body);
        assert_eq!(
            seq.stats().order_independent(),
            par.stats().order_independent()
        );
        // Every x request is still accounted, even if hit/miss splits
        // differ per shard.
        assert_eq!(
            par.stats().x_hits + par.stats().x_misses,
            par.stats().x_requests
        );
    }

    #[test]
    fn parallel_threshold_and_threads_are_configurable() {
        let e = ParExecutor::new()
            .with_threads(Some(3))
            .with_seq_threshold(10);
        assert_eq!(e.threads(), Some(3));
        assert_eq!(e.seq_threshold(), 10);
        // threshold 10 with 9 warps: runs inline, still covers all warps.
        let mut out = vec![0u8; 9];
        {
            let shared = SharedSlice::new(&mut out);
            e.run(9, &mut NoProbe, |w, _| shared.write(w, 1));
        }
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn parallel_worker_threads_are_named() {
        use std::sync::Mutex;
        let names = Mutex::new(Vec::new());
        let mut probe = NoProbe;
        ParExecutor::new()
            .with_threads(Some(2))
            .with_seq_threshold(0)
            .run(8, &mut probe, |_, _| {
                let name = std::thread::current()
                    .name()
                    .unwrap_or_default()
                    .to_string();
                names.lock().unwrap().push(name);
            });
        let names = names.into_inner().unwrap();
        assert_eq!(names.len(), 8);
        assert!(
            names.iter().all(|n| n.starts_with("dasp-shard-")),
            "unnamed shard threads: {names:?}"
        );
    }

    #[test]
    fn single_thread_parallel_is_exactly_sequential() {
        // threads=1 takes the inline path: identical cache evolution, so
        // even the order-dependent fields match.
        let body = |w: usize, p: &mut CountingProbe| p.load_x(&[w % 97], 8);
        let mut seq = CountingProbe::new(CacheModel::new(1024, 64, 2));
        SeqExecutor.run(200, &mut seq, body);
        let mut par = CountingProbe::new(CacheModel::new(1024, 64, 2));
        ParExecutor::new()
            .with_threads(Some(1))
            .run(200, &mut par, body);
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn executor_enum_dispatches_and_names() {
        assert_eq!(Executor::seq().name(), "seq");
        assert_eq!(Executor::par().name(), "par");
        assert!(Executor::par().is_par());
        assert!(!Executor::seq().is_par());
        let mut probe = NoProbe;
        let mut count = 0usize;
        // Seq variant accepts FnMut-style state via interior capture; here
        // we just count through a SharedSlice-free body.
        let counter = std::sync::atomic::AtomicUsize::new(0);
        Executor::seq().run(4, &mut probe, |_, _| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        count += counter.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(count, 4);
    }
}
