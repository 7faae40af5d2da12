//! The repository benchmark: three seeded workloads over the DASP stack,
//! reached only through each layer's public functions.
//!
//! Every run executes three stages, each timed from outside around the
//! program's public calls and each checking every output:
//!
//! - **ingest** ([`ingest`]): CSR → analyze → fill → verify → write/read →
//!   SpMV → refresh → SpMV. Format and verify do the work.
//! - **simulate** ([`simulate`]): counted SpMV/SpMM under the A100 L2
//!   model plus the roofline estimate, fp64 and `F16`. The probe and
//!   kernels do the work.
//! - **serve** ([`serve`]): a `Server` under open-loop load. The
//!   dispatcher, its window and the coalesced kernels do the work.
//!
//! A workload gives its own stage [`HOME_SHARE`] of the measured time and
//! each other stage the rest in equal parts, so a layer's optimisation
//! moves its home workload's time while every end-to-end metric is still
//! measured in every workload.
//!
//! Every host-time figure is read at the reference host speed: divided by
//! how much slower than its reference the benchmark's own control ran
//! just before ([`host`]), so the host's slow and fast spells cancel out.

pub mod check;
pub mod clock;
pub mod host;
pub mod ingest;
pub mod inputs;
pub mod serve;
pub mod simulate;

use std::time::{Duration, Instant};

use dasp_observatory::CallTree;
use dasp_serve::metrics;
use dasp_trace::{chrome_trace_json, Tracer};

use check::Tally;
use clock::{layer_self_us, median, quantile, Timings};
use host::Control;
use ingest::{IngestResult, IngestState};
use serve::{ServeResult, ServeState};
use simulate::{geomean, SimResult, SimState};

/// Share of the measured time a workload gives its own stage.
pub const HOME_SHARE: f64 = 0.6;

/// A seed held out from tuning: later performance claims are confirmed
/// on it.
pub const HELD_OUT_SEED: u64 = 90_001;

/// The three workloads, named after the stage each one weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// New matrices arrive.
    Ingest,
    /// The paper-reproduction path on prebuilt matrices.
    Simulate,
    /// Tenants query resident matrices through the server.
    Serve,
}

impl Workload {
    /// Every workload, in stage order.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Simulate, Workload::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Simulate => "simulate",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The share of measured time each stage gets, in stage order.
    fn shares(self) -> [f64; 3] {
        let away = (1.0 - HOME_SHARE) / 2.0;
        let mut s = [away; 3];
        s[self as usize] = HOME_SHARE;
        s
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed for every generated input and arrival schedule.
    pub seed: u64,
    /// Measured seconds (set-up excluded).
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) rather than the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Input size factor; 1 is the benchmark's size.
    pub scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Corrupts one expected serve reply (self-test of the checks).
    pub plant_wrong_reply: bool,
}

impl RunConfig {
    /// The benchmark's settings for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            scale: 1.0,
            setup_reps: 5,
            plant_wrong_reply: false,
        }
    }
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations failed or wrong.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Chrome trace JSON of the traced pass (traced run only).
    pub chrome_trace: Option<String>,
    /// Hot-region table of the traced pass (traced run only).
    pub hot_table: Option<String>,
}

impl Outcome {
    /// Whether every checked operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything a run sets up before measuring.
struct Setup {
    ingest: IngestState,
    sim: SimState,
    serve: ServeState,
}

impl Setup {
    fn build(cfg: &RunConfig) -> Setup {
        Setup {
            ingest: IngestState::setup(cfg.seed, cfg.scale),
            sim: SimState::setup(cfg.seed, cfg.scale),
            serve: ServeState::setup(cfg.seed, cfg.scale, cfg.trace, cfg.plant_wrong_reply),
        }
    }
}

/// Cycles per pass. Each cycle gives every stage one slice, so each
/// stage samples the whole pass and a burst of host contention lands in
/// few of its samples; metrics read those samples at their median.
pub const CYCLES: usize = 15;

/// Expected phase-1 refreshes in the shortest serve episode of a run of
/// `seconds` (an away-stage slice), when every `every`-th request is one.
pub fn shortest_episode_refreshes(seconds: f64, every: u64) -> f64 {
    let away = (1.0 - HOME_SHARE) / 2.0;
    serve::expected_refreshes(seconds * away / CYCLES as f64, every)
}

/// One pass: [`CYCLES`] cycles over the three stages.
struct Pass {
    ingest: IngestResult,
    sim: SimResult,
    serve: ServeResult,
}

impl Pass {
    fn run(
        setup: &mut Setup,
        control: &mut Control,
        shares: [f64; 3],
        seconds: f64,
        tracer: &Tracer,
    ) -> Pass {
        let slice = |i: usize| Duration::from_secs_f64(seconds * shares[i] / CYCLES as f64);
        let mut pass = Pass {
            ingest: setup.ingest.result(),
            sim: setup.sim.result(),
            serve: ServeResult::default(),
        };
        for _ in 0..CYCLES {
            setup
                .ingest
                .run(slice(0), tracer, control, &mut pass.ingest);
            setup.sim.run(slice(1), tracer, control, &mut pass.sim);
            setup.serve.run(slice(2), tracer, control, &mut pass.serve);
        }
        setup.sim.complete(tracer, control, &mut pass.sim);
        pass
    }

    fn tally(&self) -> Tally {
        let mut t = self.ingest.tally;
        t.add(self.sim.tally);
        t.add(self.serve.tally);
        t
    }

    /// Host seconds per unit of the `w` stage's work: per ingested
    /// nonzero, per counted nonzero-column, per phase-2 completion.
    fn unit_secs(&self, w: Workload) -> f64 {
        1.0 / match w {
            Workload::Ingest => self.ingest.nnz_per_s(),
            Workload::Simulate => self.sim.counted_nnz_per_s(),
            Workload::Serve => median(&self.serve.capacity_rps),
        }
    }
}

/// Runs the benchmark: set-up `setup_reps` times, then one untraced pass
/// (end-to-end metrics), or an untraced and a traced pass of half the time
/// each (per-layer metrics and the tracing overhead).
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut control = Control::new();
    let mut setup_secs = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..cfg.setup_reps.max(1) {
        if let Some(old) = setup.take() {
            old.serve.shutdown();
        }
        let t = Instant::now();
        setup = Some(Setup::build(cfg));
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    let shares = cfg.workload.shares();

    let mut outcome = if cfg.trace {
        let half = cfg.seconds / 2.0;
        let plain = Pass::run(&mut setup, &mut control, shares, half, &Tracer::disabled());
        let tracer = Tracer::new();
        let traced = Pass::run(&mut setup, &mut control, shares, half, &tracer);
        let trace = tracer.take_trace();
        let tree = CallTree::from_trace(&trace);
        let overhead = traced.unit_secs(cfg.workload) / plain.unit_secs(cfg.workload);
        let mut tally = plain.tally();
        tally.add(traced.tally());
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: per_layer(&traced, &setup.sim, &tree, overhead, &control),
            chrome_trace: Some(chrome_trace_json(&trace)),
            hot_table: Some(tree.render_hot_table(40)),
        }
    } else {
        let pass = Pass::run(
            &mut setup,
            &mut control,
            shares,
            cfg.seconds,
            &Tracer::disabled(),
        );
        let tally = pass.tally();
        let mut metrics = end_to_end(&pass, tally);
        // Set-up is timed once per repetition, too rarely to pair each
        // with a recent control reading; it is scaled by the whole run's.
        let setup_s = median(&setup_secs) / control.run_slowdown();
        metrics.push(metric("setup_s", setup_s, "s"));
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            chrome_trace: None,
            hot_table: None,
        }
    };
    setup.serve.shutdown();
    outcome.metrics.sort_by_key(|m| m.name);
    outcome
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced pass, except set-up time and
/// memory, which the run adds.
fn end_to_end(p: &Pass, tally: Tally) -> Vec<Metric> {
    let gflops = |fp16: bool| geomean(p.sim.calls().filter(|c| c.fp16 == fp16).map(|c| c.gflops()));
    vec![
        metric(
            "ok_share",
            (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        metric("ingest_nnz_per_s", p.ingest.nnz_per_s(), "nnz/s"),
        metric("sim_nnz_per_s", p.sim.counted_nnz_per_s(), "nnz.col/s"),
        metric("modeled_gflops_fp64", gflops(false), "GFLOP/s"),
        metric("modeled_gflops_fp16", gflops(true), "GFLOP/s"),
        metric("spmv_p50_us", median(&p.serve.spmv_p50_us), "us"),
        metric("refresh_p50_us", median(&p.serve.refresh_p50_us), "us"),
        metric("capacity_rps", median(&p.serve.capacity_rps), "req/s"),
    ]
}

/// Layers that own spans, in report order (`bench` is the benchmark's own
/// checking and bookkeeping inside the stage spans).
const LAYERS: [(&str, &str); 9] = [
    ("bench", "layer.bench.self_share"),
    ("format", "layer.format.self_share"),
    ("verify", "layer.verify.self_share"),
    ("kernel", "layer.kernel.self_share"),
    ("simt", "layer.simt.self_share"),
    ("perf", "layer.perf.self_share"),
    ("fp16", "layer.fp16.self_share"),
    ("sparse", "layer.sparse.self_share"),
    ("serve", "layer.serve.self_share"),
];

/// The per-layer metrics of a traced pass.
fn per_layer(
    p: &Pass,
    sim: &SimState,
    tree: &CallTree,
    overhead: f64,
    control: &Control,
) -> Vec<Metric> {
    let ing: &Timings = &p.ingest.timings;
    let st: &Timings = &p.sim.timings;
    let sum =
        |f: fn(&dasp_simt::KernelStats) -> u64| p.sim.calls().map(|c| f(&c.stats)).sum::<u64>();
    let t_random: f64 = p.sim.calls().map(|c| c.est.t_random).sum();
    let t_compute: f64 = p.sim.calls().map(|c| c.est.t_compute).sum();
    let t_misc: f64 = p.sim.calls().map(|c| c.est.t_misc).sum();
    let t_total = t_random + t_compute + t_misc;
    let s = &p.serve;
    let layer_us = layer_self_us(tree);
    let total_us = layer_us.values().sum::<u64>().max(1) as f64;

    // Self time of the benchmark's span around each call, per unit of work.
    let timed: [(&'static str, &Timings, &str); 14] = [
        ("format.analyze_ns_per_nnz", ing, "format.analyze"),
        ("format.fill_ns_per_nnz", ing, "format.fill"),
        ("format.write_ns_per_nnz", ing, "format.write"),
        ("format.read_ns_per_nnz", ing, "format.read"),
        ("format.update_ns_per_nnz", ing, "format.update"),
        ("verify.structural_ns_per_nnz", ing, "verify.structural"),
        ("kernel.spmv_ns_per_nnz", st, "kernel.spmv"),
        ("kernel.spmm8_ns_per_nnz_col", st, "kernel.spmm8"),
        ("kernel.spmm128_ns_per_nnz_col", st, "kernel.spmm128"),
        ("simt.spmv_ns_per_nnz", st, "simt.spmv"),
        ("simt.spmm8_ns_per_nnz_col", st, "simt.spmm8"),
        ("simt.spmm128_ns_per_nnz_col", st, "simt.spmm128"),
        ("fp16.spmv_ns_per_nnz", st, "fp16.spmv"),
        ("sparse.reference_ns_per_nnz", st, "sparse.reference"),
    ];
    let mut out: Vec<Metric> = timed
        .iter()
        .map(|&(name, t, span)| metric(name, t.self_ns_per_work(tree, span), "ns/nnz"))
        .collect();
    out.extend([
        metric("format.fill_rate", sim.fill_rate, "ratio"),
        metric("format.bytes_per_nnz", sim.bytes_per_nnz, "B/nnz"),
        metric(
            "verify.kernels_us",
            ing.self_ns_per_work(tree, "verify.kernels") / 1e3,
            "us",
        ),
        metric("simt.probe_overhead", p.sim.probe_overhead(), "ratio"),
        metric("model.dram_bytes", sum(|s| s.dram_bytes()) as f64, "B"),
        metric(
            "model.x_hit_rate",
            sum(|s| s.x_hits) as f64 / sum(|s| s.x_requests).max(1) as f64,
            "ratio",
        ),
        metric("model.mma_ops", sum(|s| s.mma_ops) as f64, "count"),
        metric("model.random_share", t_random / t_total, "ratio"),
        metric("model.compute_share", t_compute / t_total, "ratio"),
        metric("model.misc_share", t_misc / t_total, "ratio"),
        metric(
            "model.speedup_vs_csr_scalar",
            sim.speedup_vs_csr_scalar(&p.sim),
            "ratio",
        ),
        metric(
            "serve.queue_wait_p50_us",
            s.queue_wait.as_ref().map_or(f64::NAN, |h| h.quantile(0.5)),
            "us",
        ),
        metric("serve.batch_width_mean.p1", s.batch_width_mean(0), "count"),
        metric("serve.batch_width_mean.p2", s.batch_width_mean(1), "count"),
        metric(
            "serve.flush_window_share",
            s.flush_share(metrics::FLUSH_WINDOW),
            "ratio",
        ),
        metric(
            "serve.flush_full_share",
            s.flush_share(metrics::FLUSH_FULL),
            "ratio",
        ),
        metric(
            "serve.flush_barrier_share",
            s.flush_share(metrics::FLUSH_BARRIER),
            "ratio",
        ),
        metric("serve.spmv_p99_us", quantile(&s.spmv_us, 0.99), "us"),
        metric("serve.spmv_samples", s.spmv_us.len() as f64, "count"),
        metric(
            "serve.gen_late_p99_us",
            quantile(&s.gen_late_us, 0.99),
            "us",
        ),
        metric(
            "serve.host_sleep_late_p99_us",
            quantile(&s.sleep_late_us, 0.99),
            "us",
        ),
        metric("trace.overhead", overhead, "ratio"),
        metric("host.control_us", median(&control.all) * 1e6, "us"),
    ]);
    for (layer, name) in LAYERS {
        let us = layer_us.get(layer).copied().unwrap_or(0);
        out.push(metric(name, us as f64 / total_us, "ratio"));
    }
    out
}

/// Peak resident set of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
