//! A warp-accurate software SIMT substrate standing in for a CUDA GPU.
//!
//! The DASP paper's kernels are written against three pieces of NVIDIA
//! hardware/ISA surface:
//!
//! 1. the PTX `mma.sync.aligned.m8n8k4.row.col.f64` tensor-core instruction
//!    and its per-lane fragment layout (paper Fig. 4),
//! 2. the warp shuffle instructions `__shfl_sync` (with one source lane
//!    or a per-lane one) and `__shfl_down_sync`,
//! 3. the SIMT grid/block/warp execution model.
//!
//! None of those exist on a CPU, so this crate implements them as a
//! simulator. A *warp* is represented as plain arrays of 32 lane values
//! (`[T; 32]`); warp-level instructions are functions over those arrays with
//! the exact semantics of their PTX counterparts, including the fragment
//! distribution of `m8n8k4`. Kernels written against this substrate are
//! line-by-line translations of the paper's Algorithms 2–5, and any
//! lane-indexing mistake produces wrong results exactly as it would on a GPU.
//!
//! The substrate is also *instrumented*: kernels thread a [`Probe`] through
//! every memory access and arithmetic issue, so a run yields a
//! [`KernelStats`] record (bytes moved per array, x-vector cache behaviour,
//! MMA/FMA/shuffle counts, launch geometry). The `dasp-perf` crate feeds
//! those counters to a roofline device model to estimate GPU execution time;
//! see DESIGN.md for the substitution argument.
//!
//! # Example: the diagonal trick on the raw unit
//!
//! ```
//! use dasp_simt::mma::{acc_zero, diag_position, mma_m8n8k4, pack_a, pack_b};
//!
//! // A holds 8 row-segments of 4 nonzeros; each lane's B element is the
//! // x value of its own A element. The per-segment dot products appear on
//! // the accumulator diagonal.
//! let a = [[1.0f64; 4]; 8];
//! let mut b = [[0.0f64; 8]; 4];
//! for n in 0..8 {
//!     for k in 0..4 {
//!         b[k][n] = (n + 1) as f64; // x values for segment n
//!     }
//! }
//! let mut acc = acc_zero::<f64>();
//! mma_m8n8k4::<f64>(&mut acc, &pack_a(&a), &pack_b(&b));
//! for row in 0..8 {
//!     let (lane, reg) = diag_position(row);
//!     assert_eq!(acc[lane][reg], 4.0 * (row + 1) as f64);
//! }
//! ```
//!
//! # Module map
//!
//! * [`warp`] — warp width, lane-id helpers, lane-array constructors.
//! * [`shuffle`] — `shfl_sync`/`shfl_sync_var`/`shfl_down_sync` plus a
//!   tree `warp_reduce`, each mask-checked through its probe.
//! * [`mma`] — the `m8n8k4` MMA unit with the PTX fragment layout, and
//!   pack/unpack helpers used by tests.
//! * [`probe`] — the [`Probe`] trait, the zero-cost [`NoProbe`], the
//!   [`CountingProbe`] with an LRU cache model for x accesses, and
//!   [`ShardableProbe`] for instrumented parallel runs.
//! * [`cache`] — a set-associative LRU cache simulator.
//! * [`exec`] — the warp-program executors: [`SeqExecutor`],
//!   [`ParExecutor`] (sharded probes, merged counters), and the
//!   runtime-selectable [`Executor`].
//! * [`grid`] — the [`grid::SharedSlice`] disjoint-write wrapper warp
//!   bodies scatter through.
//! * [`scratch`] — the per-thread [`WarpScratch`] arena executors and
//!   kernels lease per-launch buffers from.

#![warn(missing_docs)]
// Lane loops index several warp registers at once (`out[lane]`,
// `var[lane]`, `acc[lane]`): iterator rewrites obscure the lockstep-SIMT
// reading, so the range-loop lint is disabled for this crate.
#![allow(clippy::needless_range_loop)]

pub mod cache;
pub mod exec;
pub mod grid;
pub mod mma;
pub mod probe;
pub mod scratch;
pub mod shuffle;
pub mod warp;

pub use cache::CacheModel;
pub use exec::{Executor, ParExecutor, SeqExecutor, DEFAULT_SEQ_THRESHOLD};
pub use grid::SharedSlice;
pub use mma::{mma_m8n8k4, AccFrag};
pub use probe::{
    space, CountingProbe, KernelStats, NoProbe, PanelTraffic, Probe, ShardableProbe, TrafficBin,
    XBatch, SECTOR_BYTES,
};
pub use scratch::{ScratchLease, WarpScratch};
pub use shuffle::{shfl_down_sync, shfl_sync, shfl_sync_var, warp_reduce, ShflEvent, ShflOp};
pub use warp::{full_mask, lane_ids, lanes, WARP_SIZE};
