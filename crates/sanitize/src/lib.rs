//! dasp-sanitize: the one check core of the DASP workspace — a
//! compute-sanitizer for the SIMT simulator and the report every checker
//! fills.
//!
//! [`SanitizeProbe`] wraps any [`dasp_simt::Probe`] and checks the
//! warp-program discipline the kernels rely on over the `san_*` hooks
//! they emit, without forking any kernel body. Its checks, modeled on
//! NVIDIA's `compute-sanitizer` tools, are named by the [`Invariant`]
//! each enforces:
//!
//! * **racecheck** (`race`, `double_write`) — element-granularity shadow
//!   write sets over every [`dasp_simt::SharedSlice`] scatter target,
//!   catching cross-warp write-write overlap and same-warp double writes
//!   within a launch;
//! * **maskcheck** (`shfl_mask`) — the [`dasp_simt::shuffle`] functions
//!   report out-of-mask source reads (release builds included);
//!   reads a later predicate discards are the informational
//!   `shfl_discarded` class, which the paper's extraction shuffles
//!   produce by design;
//! * **initcheck** (`frag_init`, `uninit_read`) — poison tracking over
//!   MMA accumulator fragment slots and never-written scatter elements
//!   (the long kernel's `warpVal` staging, the segmented baselines'
//!   carries);
//! * **boundscheck** (`access_bounds`) — x gathers and y / staging
//!   accesses against the [`Bounds`] given at construction (none in
//!   fleet mode).
//!
//! The probe implements [`dasp_simt::ShardableProbe`], so findings merge
//! across `ParExecutor` shards exactly like `KernelStats` do. They land in
//! a [`Report`] of [`Violation`]s: exact per-invariant and per-region
//! counts, the first [`MAX_SITES`] sites, JSON and `dasp-trace` metrics
//! export. The same report carries `dasp-core`'s structural format check
//! and `dasp-verify`'s kernel interpretation, which runs this probe with
//! bounds on synthetic representatives.
//!
//! # Fleet mode: `DASP_SANITIZE`
//!
//! Setting `DASP_SANITIZE=1` (or `abort`) makes every kernel verb wrap
//! its probe in a [`SanitizeProbe`] transparently — the DASP funnels
//! `spmv_into`/`spmm_into` (which every other DASP verb goes through) and
//! each baseline's `spmv_with` plus `CsrScalar::spmm_with`, all through
//! the one [`fleet!`] re-dispatch. Any error-class violation panics
//! with the report, so `DASP_SANITIZE=1 cargo test` fails on the first
//! detected bug. `DASP_SANITIZE=report`
//! collects into the process-global report (see [`global_report`])
//! without aborting — the mode the `dasp-spmv --sanitize` flag uses.
//!
//! Sanitizing never perturbs results: the wrapper forwards every
//! counting method to the wrapped probe, so `y` is bit-identical with
//! and without the sanitizer. The one observable difference in fleet
//! mode is the `CountingProbe` cache model: the wrap runs on a forked
//! shard (warm cache copy) whose post-run cache state is discarded at
//! merge, so hit/miss classifications across *repeated* runs are
//! per-run approximations — order-independent counters stay exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod probe;
mod report;

pub use probe::{Bounds, SanitizeProbe};
pub use report::{Counts, Invariant, Report, Violation, MAX_SITES};

use std::sync::{Mutex, OnceLock};

use dasp_simt::ShardableProbe;

/// How the fleet-wide sanitizer behaves, from `DASP_SANITIZE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizeMode {
    /// Unset / `0` / `off`: entry points run unwrapped (zero overhead).
    Off,
    /// `report`: wrap, collect into the global report, never panic.
    Report,
    /// `1`, `true`, `abort`, ...: wrap and panic on any error-class
    /// violation, so test suites fail loudly.
    Abort,
}

fn parse_mode(v: Option<&str>) -> SanitizeMode {
    match v.map(str::trim) {
        None | Some("") | Some("0") | Some("off") | Some("false") => SanitizeMode::Off,
        Some("report") => SanitizeMode::Report,
        _ => SanitizeMode::Abort,
    }
}

/// The process-wide sanitize mode, read from `DASP_SANITIZE` once (the
/// same caching discipline as [`dasp_simt::Executor::from_env`]).
pub fn mode() -> SanitizeMode {
    static MODE: OnceLock<SanitizeMode> = OnceLock::new();
    *MODE.get_or_init(|| parse_mode(std::env::var("DASP_SANITIZE").ok().as_deref()))
}

/// True when entry points should fleet-wrap their probes.
pub fn enabled() -> bool {
    mode() != SanitizeMode::Off
}

fn global() -> &'static Mutex<Report> {
    static GLOBAL: OnceLock<Mutex<Report>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Report::new()))
}

/// Merges a report into the process-global accumulator (what
/// [`global_report`] snapshots and `dasp-spmv --sanitize` prints).
pub fn publish(report: &Report) {
    global().lock().unwrap().merge(report);
}

/// Snapshot of everything published so far in this process.
pub fn global_report() -> Report {
    global().lock().unwrap().clone()
}

/// Clears the process-global report (test isolation).
pub fn reset_global() {
    *global().lock().unwrap() = Report::new();
}

/// Runs a kernel entry's body under the fleet sanitizer when
/// `DASP_SANITIZE` is on — the one re-dispatch every SpMV/SpMM verb goes
/// through.
///
/// `fleet!(entry, probe => body)` evaluates `body` with `probe` (a
/// `&mut P` for some [`ShardableProbe`] `P`) rebound to a
/// [`SanitizeProbe`] forked from it, then hands the shard back through
/// [`fleet_finish`]; with sanitizing off, or when `probe` is already a
/// sanitizer, `body` runs on `probe` itself. A macro rather than a
/// function because `body` is instantiated at two probe types.
#[macro_export]
macro_rules! fleet {
    ($entry:expr, $probe:ident => $body:expr) => {
        if $crate::enabled() && !$probe.sanitizing() {
            let mut sanitizer = $crate::SanitizeProbe::forked(&*$probe);
            let out = {
                let $probe = &mut sanitizer;
                $body
            };
            $crate::fleet_finish($entry, sanitizer, $probe);
            out
        } else {
            $body
        }
    };
}

/// Finishes a fleet-wrapped run: merges the sanitizer's forked shard back
/// into the caller's probe, publishes the findings globally, and — in
/// [`SanitizeMode::Abort`] — panics with the report if any error-class
/// violation fired. `entry` names the wrapped entry point for the panic
/// message.
pub fn fleet_finish<P: ShardableProbe>(
    entry: &'static str,
    sanitizer: SanitizeProbe<P>,
    parent: &mut P,
) {
    let (inner, report) = sanitizer.into_parts();
    parent.merge_shard(inner);
    let clean = report.is_clean();
    publish(&report);
    if !clean && mode() == SanitizeMode::Abort {
        panic!("DASP_SANITIZE caught violations in `{entry}`: {report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::{space, NoProbe, Probe};

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode(None), SanitizeMode::Off);
        assert_eq!(parse_mode(Some("")), SanitizeMode::Off);
        assert_eq!(parse_mode(Some("0")), SanitizeMode::Off);
        assert_eq!(parse_mode(Some("off")), SanitizeMode::Off);
        assert_eq!(parse_mode(Some("report")), SanitizeMode::Report);
        assert_eq!(parse_mode(Some("1")), SanitizeMode::Abort);
        assert_eq!(parse_mode(Some("true")), SanitizeMode::Abort);
        assert_eq!(parse_mode(Some("abort")), SanitizeMode::Abort);
    }

    #[test]
    fn publish_accumulates_globally() {
        // Serialized against other tests by the global lock itself; use a
        // distinctive region so concurrent publishes don't confuse us.
        let mut r = Report::new();
        let mut p = SanitizeProbe::new(NoProbe);
        p.warp_begin(0);
        p.san_region("lib-test-region");
        p.san_write(space::Y, &[0]);
        p.san_write(space::Y, &[0]);
        r.merge(p.report());
        publish(&r);
        let g = global_report();
        assert!(g.per_region["lib-test-region"][Invariant::DoubleWrite] >= 1);
    }
}
