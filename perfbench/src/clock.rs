//! Timing around the program's public calls. Each timed call gets a span
//! named `<layer>.<op>` under its stage span (`stage.<name>`), so a traced
//! run folds into per-layer self time with `dasp_observatory::CallTree`;
//! the same boundaries feed the untraced run's wall-clock and CPU-time
//! accumulators.

use std::collections::BTreeMap;
use std::time::Instant;

use dasp_observatory::CallTree;
use dasp_trace::{Span, Tracer};

use crate::host::thread_cpu_secs;

/// Accumulated wall time and work for one call site.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    /// Total wall nanoseconds.
    pub ns: u64,
    /// Total CPU nanoseconds of the calling thread.
    pub cpu_ns: u64,
    /// Total work units (nonzeros, nonzero-columns or matrices).
    pub work: u64,
}

/// Times the calls of one stage pass.
pub struct Clock {
    stage_name: &'static str,
    stage: Span,
    acc: BTreeMap<&'static str, Acc>,
}

impl Clock {
    /// Opens the stage span `stage` (inert when `tracer` is disabled).
    pub fn new(tracer: &Tracer, stage: &'static str) -> Clock {
        Clock {
            stage_name: stage,
            stage: tracer.span(stage),
            acc: BTreeMap::new(),
        }
    }

    /// The stage span, for spans opened on other threads.
    pub fn stage(&self) -> &Span {
        &self.stage
    }

    /// Runs `f` inside a `name` span and adds its wall time and `work`
    /// to the accumulator for `name`.
    pub fn time<T>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> T) -> T {
        let span = self.stage.child(name);
        let cpu = thread_cpu_secs();
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let ns = t.elapsed().as_nanos() as u64;
        let cpu_ns = ((thread_cpu_secs() - cpu) * 1e9) as u64;
        drop(span);
        let a = self.acc.entry(name).or_default();
        a.ns += ns;
        a.cpu_ns += cpu_ns;
        a.work += work;
        out
    }

    /// Total wall nanoseconds of the calls named in `names`.
    pub fn total_ns(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.acc.get(n))
            .map(|a| a.ns)
            .sum()
    }

    /// Total thread CPU nanoseconds of the calls named in `names`.
    pub fn total_cpu_ns(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.acc.get(n))
            .map(|a| a.cpu_ns)
            .sum()
    }

    /// Closes the stage span and returns the accumulators.
    pub fn finish(self) -> Timings {
        Timings {
            stage: self.stage_name,
            acc: self.acc,
        }
    }
}

/// A finished stage's accumulators.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    /// The stage span name.
    pub stage: &'static str,
    /// Accumulators by call-site name.
    pub acc: BTreeMap<&'static str, Acc>,
}

impl Timings {
    /// Adds another slice's accumulators of the same stage.
    pub fn merge(&mut self, other: Timings) {
        self.stage = other.stage;
        for (name, a) in other.acc {
            let t = self.acc.entry(name).or_default();
            t.ns += a.ns;
            t.cpu_ns += a.cpu_ns;
            t.work += a.work;
        }
    }

    /// The accumulator for `name` (zero if never called).
    pub fn get(&self, name: &str) -> Acc {
        self.acc.get(name).copied().unwrap_or_default()
    }

    /// Self nanoseconds of the `name` spans under this stage in `tree`,
    /// per unit of work recorded for `name`.
    pub fn self_ns_per_work(&self, tree: &CallTree, name: &str) -> f64 {
        let work = self.get(name).work.max(1) as f64;
        self_us(tree, &[self.stage, name]) as f64 * 1e3 / work
    }
}

/// Repeated times of one unit of work, each with the host's slowdown
/// when it ran.
#[derive(Debug, Default, Clone)]
pub struct Sampled {
    /// Work per repetition.
    pub work: u64,
    /// Seconds of each repetition.
    pub secs: Vec<f64>,
    /// The host's slowdown ([`crate::host::Control::slowdown`]) at each
    /// repetition.
    pub slowdown: Vec<f64>,
}

impl Sampled {
    /// Records one repetition and the host's slowdown when it ran.
    pub fn push(&mut self, secs: f64, slowdown: f64) {
        self.secs.push(secs);
        self.slowdown.push(slowdown);
    }

    /// Median seconds of one repetition at the reference host speed.
    fn normalized_secs(&self) -> f64 {
        let v: Vec<f64> = self
            .secs
            .iter()
            .zip(&self.slowdown)
            .map(|(s, k)| s / k)
            .collect();
        median(&v)
    }
}

/// Work per second at the reference host speed over a set of units: one
/// repetition's work of every sampled unit over the sum of each unit's
/// median control-normalised time.
pub fn median_rate(units: &[Sampled]) -> f64 {
    let sampled = units.iter().filter(|u| !u.secs.is_empty());
    let (work, secs) = sampled.fold((0u64, 0.0), |(w, s), u| {
        (w + u.work, s + u.normalized_secs())
    });
    work as f64 / secs
}

/// Linear-interpolated `q`-quantile of `v` (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Exclusive microseconds of the call-tree node at `path` (0 if absent).
pub fn self_us(tree: &CallTree, path: &[&str]) -> u64 {
    tree.nodes()
        .find(|n| n.path.iter().map(String::as_str).eq(path.iter().copied()))
        .map_or(0, |n| n.excl_us)
}

/// Microseconds per layer on the driving thread: spans named
/// `<layer>.<op>` fold their exclusive time into `<layer>`, and the other
/// stage spans (`stage.*`, the benchmark's own checking and bookkeeping)
/// fold into `bench`. The serve stage counts whole into `serve`, as its
/// wall time: while it runs the driving thread only waits on the server,
/// and its `serve.request` spans, open concurrently on the load threads
/// from submit to reply, would count that wall time once per request in
/// flight.
pub fn layer_self_us(tree: &CallTree) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for n in tree.nodes() {
        let (layer, us) = match (n.path[0].as_str(), n.name().split_once('.')) {
            (SERVE_STAGE, _) if n.path.len() == 1 => ("serve", n.incl_us),
            (SERVE_STAGE, _) => continue,
            (_, Some(("stage", _)) | None) => ("bench", n.excl_us),
            (_, Some((layer, _))) => (layer, n.excl_us),
        };
        *out.entry(layer.to_string()).or_default() += us;
    }
    out
}

/// The serve stage's span name.
pub const SERVE_STAGE: &str = "stage.serve";
