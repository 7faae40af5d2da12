//! The serve stage: one `Server` with two resident matrices under
//! open-loop load from seeded Poisson arrivals.
//!
//! Phase 1 offers a fixed rate well under capacity, with every sixth
//! request a value refresh, so the dispatcher and its batching window set
//! latency. Phase 2 keeps a fixed SpMV backlog per matrix, well under the
//! queue cap, so the coalesced width-8 kernels set capacity. Every reply
//! is checked bit for bit: refreshes alternate between `A` and `2A`, and
//! scaling by two is exact, so the expected SpMV reply is `y` or `2y` by
//! the number of refreshes queued ahead of it.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dasp_core::{DaspParams, DaspPlan};
use dasp_serve::{metrics, Reply, ServeConfig, ServeError, Server, ServerHandle, Ticket, Work};
use dasp_simt::{Executor, NoProbe};
use dasp_trace::{Histogram, Registry, Span, Tracer};

use crate::check::{same_bits, Tally};
use crate::clock::{median, Clock, SERVE_STAGE};
use crate::host::{Control, KeepAwake};
use crate::inputs::{mix, serve_pair, vector, Rng};

/// Phase-1 offered load per matrix, requests per second: an eighth or less
/// of the phase-2 capacity (4000 to 6000 SpMVs per second over both
/// matrices on a 2-vCPU host), so the batching window, not queueing, sets
/// latency.
const RATE_PER_MATRIX: f64 = 250.0;
/// Fewest refreshes the shortest phase 1 of a run should hold, so every
/// episode's refresh median rests on at least this many samples.
pub const MIN_REFRESHES: f64 = 20.0;
/// Every `REFRESH_EVERY`-th phase-1 request to a matrix is a refresh: the
/// lowest write share (one in six) at which the shortest phase 1 of a
/// benchmark run still expects [`MIN_REFRESHES`] refreshes. The self-test
/// checks this against `BENCHMARK.json`'s `run_seconds`.
pub const REFRESH_EVERY: u64 = 6;
/// Phase-2 SpMV requests kept outstanding per matrix.
const BACKLOG: usize = 16;
/// Input vectors per matrix: the server's `max_batch`, so a full
/// coalesced phase-2 panel carries eight distinct columns.
const X_POOL: usize = 8;
/// Share of the stage's budget given to phase 1.
const PHASE1_SHARE: f64 = 0.6;
/// Resident matrices.
const MATRICES: usize = 2;
/// Host control runs at the start of each episode.
const CONTROL_RUNS: usize = 5;
/// How long before a request is due the generator stops sleeping and
/// spins; covers the usual sleep overshoot on a virtual machine.
const SPIN: Duration = Duration::from_micros(300);
/// Sleep used to measure the host's bare `thread::sleep` lateness.
const CALIBRATION_SLEEP: Duration = Duration::from_millis(1);
/// Tenants only label the server's per-tenant metrics (dispatch is per
/// matrix); four, as the workload specifies.
const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];

/// Expected refreshes in the phase 1 of an episode of `episode_secs`
/// when every `every`-th request is one.
pub fn expected_refreshes(episode_secs: f64, every: u64) -> f64 {
    MATRICES as f64 * RATE_PER_MATRIX * episode_secs * PHASE1_SHARE / every as f64
}

/// The serving configuration, every field pinned so no environment
/// variable (`DASP_EXECUTOR`, `DASP_PLAN_CACHE_CAP`) can move it.
fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        batch_window: Duration::from_micros(200),
        max_batch: 8,
        coalesce: true,
        queue_cap: 1024,
        executor: Executor::seq(),
        plan_cache_cap: Some(4),
        model: None,
        traced: false,
    }
}

/// A resident matrix with its inputs and expected replies.
struct Resident {
    name: &'static str,
    /// Values of `A` and `2A`, CSR order.
    values: [Vec<f64>; 2],
    xs: Vec<Vec<f64>>,
    /// Expected replies per value version (`A`, `2A`) and input.
    want: [Vec<Vec<f64>>; 2],
    /// Phase-1 requests sent so far, over all episodes.
    sent: u64,
}

/// The value version (0 for `A`, 1 for `2A`) after `sent` phase-1
/// requests, every [`REFRESH_EVERY`]-th of them a refresh.
fn version(sent: u64) -> usize {
    (sent / REFRESH_EVERY % 2) as usize
}

/// The running server and its matrices.
pub struct ServeState {
    server: Server<f64>,
    mats: Vec<Resident>,
    seed: u64,
    episodes: u64,
    /// Whether phase 1 also measures bare sleep lateness (traced runs
    /// only: the extra thread's wake-ups would add to the latencies the
    /// untraced run reports).
    calibrate: bool,
}

/// What the serve episodes of one pass measured. Each episode is a
/// phase 1 followed by a phase 2.
#[derive(Debug, Default)]
pub struct ServeResult {
    /// Checked replies and refreshes.
    pub tally: Tally,
    /// Median phase-1 SpMV latency of each episode, microseconds at the
    /// reference host speed.
    pub spmv_p50_us: Vec<f64>,
    /// Median phase-1 refresh latency of each episode, microseconds at
    /// the reference host speed.
    pub refresh_p50_us: Vec<f64>,
    /// Phase-2 SpMV completions per second of each episode, at the
    /// reference host speed.
    pub capacity_rps: Vec<f64>,

    /// Every phase-1 SpMV latency, due to reply, microseconds.
    pub spmv_us: Vec<f64>,
    /// How late the generators submitted, microseconds.
    pub gen_late_us: Vec<f64>,
    /// Bare `thread::sleep` lateness during phase 1, microseconds.
    pub sleep_late_us: Vec<f64>,
    /// Phase-1 queue waits from the server registry.
    pub queue_wait: Option<Histogram>,
    /// Batch-width sum and count in phase 1 and phase 2.
    pub widths: [(f64, u64); 2],
    /// Flushes by cause, in [`FLUSH_KINDS`] order.
    pub flushes: [u64; 5],
}

impl ServeResult {
    /// Mean coalesced batch width in phase `p` (0 or 1).
    pub fn batch_width_mean(&self, p: usize) -> f64 {
        self.widths[p].0 / self.widths[p].1 as f64
    }

    /// Share of all flushes caused by `kind`.
    pub fn flush_share(&self, kind: &str) -> f64 {
        let i = FLUSH_KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("a flush kind");
        self.flushes[i] as f64 / self.flushes.iter().sum::<u64>() as f64
    }
}

impl ServeState {
    /// Starts the server and registers both matrices through the
    /// admission verify. `calibrate` adds the sleep-lateness thread;
    /// `plant_wrong_reply` corrupts one expected reply, to prove the
    /// checks count it.
    pub fn setup(seed: u64, scale: f64, calibrate: bool, plant_wrong_reply: bool) -> ServeState {
        let server = Server::start(config());
        let exec = Executor::seq();
        let mats = serve_pair(seed, scale)
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let off = Tracer::disabled();
                let plan =
                    DaspPlan::analyze_traced_with(&m.csr, DaspParams::default(), &off, &exec);
                let dm = plan.fill_traced_with(&m.csr, &off, &exec);
                let xs: Vec<Vec<f64>> = (0..X_POOL as u64)
                    .map(|j| vector(m.csr.cols, seed, 500 + 10 * i as u64 + j))
                    .collect();
                let ys: Vec<Vec<f64>> = xs
                    .iter()
                    .map(|x| dm.spmv_with(x, &mut NoProbe, &exec))
                    .collect();
                let mut want = [ys.clone(), ys];
                for y in want[1].iter_mut().flatten() {
                    *y *= 2.0;
                }
                if plant_wrong_reply {
                    want[0][0][0] += 1.0;
                }
                server
                    .register_matrix(m.name, dm)
                    .expect("a freshly built matrix passes admission");
                Resident {
                    name: m.name,
                    values: [
                        m.csr.vals.clone(),
                        m.csr.vals.iter().map(|v| v * 2.0).collect(),
                    ],
                    xs,
                    want,
                    sent: 0,
                }
            })
            .collect::<Vec<_>>();
        assert_eq!(mats.len(), MATRICES);
        ServeState {
            server,
            mats,
            seed,
            episodes: 0,
            calibrate,
        }
    }

    /// Drains and stops the server.
    pub fn shutdown(self) {
        self.server.shutdown();
    }

    /// Runs one episode, phase 1 then phase 2, within `budget`.
    pub fn run(
        &mut self,
        budget: Duration,
        tracer: &Tracer,
        control: &mut Control,
        out: &mut ServeResult,
    ) {
        for _ in 0..CONTROL_RUNS {
            control.sample();
        }
        let slowdown = control.slowdown();
        let clock = Clock::new(tracer, SERVE_STAGE);
        let registry = self.server.registry().clone();
        let handle = self.server.handle();
        let seed = mix(self.seed, 9000 + self.episodes);
        self.episodes += 1;

        let _awake = KeepAwake::start();
        self.warm_up(&handle, &mut out.tally);
        let before = Snapshot::take(&registry);
        let phase1 = budget.mul_f64(PHASE1_SHARE);
        let (spmv_us, refresh_us) = self.phase1(&handle, phase1, seed, clock.stage(), out);
        let mid = Snapshot::take(&registry);
        let capacity = self.phase2(&handle, budget - phase1, clock.stage(), &mut out.tally);
        let after = Snapshot::take(&registry);

        // A short episode can miss a kind of request entirely.
        if !spmv_us.is_empty() {
            out.spmv_p50_us.push(median(&spmv_us) / slowdown);
        }
        if !refresh_us.is_empty() {
            out.refresh_p50_us.push(median(&refresh_us) / slowdown);
        }
        out.capacity_rps.push(capacity * slowdown);
        out.spmv_us.extend(spmv_us);
        let waited = since(&mid.queue_wait, &before.queue_wait);
        out.queue_wait = Some(match out.queue_wait.take() {
            None => waited,
            Some(h) => plus(&h, &waited),
        });
        for (p, (a, b)) in [(&before, &mid), (&mid, &after)].into_iter().enumerate() {
            out.widths[p].0 += b.width_sum - a.width_sum;
            out.widths[p].1 += b.width_count - a.width_count;
        }
        for (i, n) in out.flushes.iter_mut().enumerate() {
            *n += after.flushes[i] - before.flushes[i];
        }
    }

    /// Untimed requests before an episode: one SpMV and one refresh to
    /// the current values per matrix, so the server's threads are awake
    /// and the matrices back in cache after the other stages ran.
    /// Refreshing to the current values leaves the expected replies as
    /// they are; both replies are checked.
    fn warm_up(&self, handle: &ServerHandle<f64>, tally: &mut Tally) {
        for m in &self.mats {
            let v = version(m.sent);
            let spmv = handle.spmv(TENANTS[0], m.name, m.xs[0].clone());
            tally.record(is_vector(&spmv.and_then(Ticket::wait), &m.want[v][0]));
            let values = m.values[v].clone();
            let refresh = handle.submit(TENANTS[0], m.name, Work::Refresh { values });
            tally.record(matches!(
                refresh.and_then(Ticket::wait),
                Ok(Reply::Refreshed)
            ));
        }
    }

    /// Open-loop arrivals at a fixed rate; one generator and one reply
    /// collector per matrix, plus, when calibrating, a thread measuring
    /// bare sleep lateness. Returns the SpMV and refresh latencies.
    fn phase1(
        &mut self,
        handle: &ServerHandle<f64>,
        dur: Duration,
        seed: u64,
        stage: &Span,
        out: &mut ServeResult,
    ) -> (Vec<f64>, Vec<f64>) {
        let start = Instant::now();
        let end = start + dur;
        let (sent_counts, latencies) = std::thread::scope(|s| {
            let sleeper = self.calibrate.then(|| {
                s.spawn(move || {
                    let mut late = Vec::new();
                    while Instant::now() < end {
                        let t = Instant::now();
                        std::thread::sleep(CALIBRATION_SLEEP);
                        late.push(us(t.elapsed().saturating_sub(CALIBRATION_SLEEP)));
                    }
                    late
                })
            });
            let mut lanes = Vec::new();
            for (k, m) in self.mats.iter().enumerate() {
                let (tx, rx) = mpsc::channel::<Pending>();
                let handle = handle.clone();
                let mut rng = Rng::new(mix(seed, k as u64));
                let gen = s.spawn(move || {
                    let mut late = Vec::new();
                    let mut sent = m.sent;
                    let mut due = start;
                    loop {
                        due += Duration::from_secs_f64(-(1.0 - rng.unit()).ln() / RATE_PER_MATRIX);
                        if due >= end {
                            break;
                        }
                        sent += 1;
                        // The payload is built before the request is due,
                        // so its copy is not timed as latency.
                        let tenant = TENANTS[rng.below(TENANTS.len())];
                        let (work, expect) = if sent.is_multiple_of(REFRESH_EVERY) {
                            let values = m.values[version(sent)].clone();
                            (Work::Refresh { values }, None)
                        } else {
                            let xi = rng.below(X_POOL);
                            let x = m.xs[xi].clone();
                            (Work::Spmv { x }, Some((version(sent), xi)))
                        };
                        wait_until(due);
                        let span = stage.child("serve.request");
                        late.push(us(Instant::now().saturating_duration_since(due)));
                        let pending = Pending {
                            due,
                            expect,
                            ticket: handle.submit(tenant, m.name, work),
                            span,
                        };
                        if tx.send(pending).is_err() {
                            break;
                        }
                    }
                    (late, sent)
                });
                let want = &m.want;
                let collector = s.spawn(move || {
                    let mut r = Collected::default();
                    for p in rx {
                        let reply = p.ticket.and_then(Ticket::wait);
                        let lat = us(p.due.elapsed());
                        drop(p.span);
                        match p.expect {
                            Some((v, xi)) => {
                                r.spmv_us.push(lat);
                                r.tally.record(is_vector(&reply, &want[v][xi]));
                            }
                            None => {
                                r.refresh_us.push(lat);
                                r.tally.record(matches!(reply, Ok(Reply::Refreshed)));
                            }
                        }
                    }
                    r
                });
                lanes.push((gen, collector));
            }
            let mut sent_counts = Vec::new();
            let mut latencies = (Vec::new(), Vec::new());
            for (gen, collector) in lanes {
                let (late, sent) = gen.join().expect("generator thread");
                let r = collector.join().expect("collector thread");
                out.gen_late_us.extend(late);
                latencies.0.extend(r.spmv_us);
                latencies.1.extend(r.refresh_us);
                out.tally.add(r.tally);
                sent_counts.push(sent);
            }
            if let Some(sleeper) = sleeper {
                out.sleep_late_us
                    .extend(sleeper.join().expect("calibration thread"));
            }
            (sent_counts, latencies)
        });
        for (m, n) in self.mats.iter_mut().zip(sent_counts) {
            m.sent = n;
        }
        latencies
    }

    /// A closed backlog of `BACKLOG` SpMVs per matrix; returns completions
    /// per second within `dur`.
    fn phase2(
        &self,
        handle: &ServerHandle<f64>,
        dur: Duration,
        stage: &Span,
        tally: &mut Tally,
    ) -> f64 {
        let start = Instant::now();
        let end = start + dur;
        let results: Vec<(u64, Tally)> = std::thread::scope(|s| {
            let lanes: Vec<_> = self
                .mats
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    let handle = handle.clone();
                    s.spawn(move || {
                        let want = &m.want[version(m.sent)];
                        let submit = |i: usize| {
                            let xi = i % X_POOL;
                            let span = stage.child("serve.request");
                            let t = handle.spmv(TENANTS[k], m.name, m.xs[xi].clone());
                            (xi, t, span)
                        };
                        let mut queue: VecDeque<_> = (0..BACKLOG).map(submit).collect();
                        let mut next = BACKLOG;
                        let (mut done, mut tally) = (0u64, Tally::default());
                        while let Some((xi, ticket, span)) = queue.pop_front() {
                            let reply = ticket.and_then(Ticket::wait);
                            drop(span);
                            tally.record(is_vector(&reply, &want[xi]));
                            if Instant::now() < end {
                                done += 1;
                                queue.push_back(submit(next));
                                next += 1;
                            }
                        }
                        (done, tally)
                    })
                })
                .collect();
            lanes
                .into_iter()
                .map(|l| l.join().expect("backlog thread"))
                .collect()
        });
        let mut done = 0;
        for (d, t) in results {
            done += d;
            tally.add(t);
        }
        done as f64 / dur.as_secs_f64()
    }
}

/// A submitted phase-1 request on its way to the collector.
struct Pending {
    due: Instant,
    /// For an SpMV, the value version and input index it expects.
    expect: Option<(usize, usize)>,
    ticket: Result<Ticket<f64>, ServeError>,
    span: Span,
}

#[derive(Default)]
struct Collected {
    spmv_us: Vec<f64>,
    refresh_us: Vec<f64>,
    tally: Tally,
}

fn is_vector(reply: &Result<Reply<f64>, ServeError>, want: &[f64]) -> bool {
    matches!(reply, Ok(Reply::Vector(y)) if same_bits(y, want))
}

/// Sleeps until shortly before `deadline`, then spins to it, so the
/// generator's own wake-up delay stays out of the latencies it times.
fn wait_until(deadline: Instant) {
    if let Some(d) = deadline.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(d);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Flush causes the server counts.
pub const FLUSH_KINDS: [&str; 5] = [
    metrics::FLUSH_WINDOW,
    metrics::FLUSH_FULL,
    metrics::FLUSH_BARRIER,
    metrics::FLUSH_DRAIN,
    metrics::FLUSH_SOLO,
];

/// The registry readings an episode differences between phases.
struct Snapshot {
    queue_wait: Histogram,
    width_count: u64,
    width_sum: f64,
    flushes: [u64; 5],
}

impl Snapshot {
    fn take(r: &Registry) -> Snapshot {
        let width = r.histogram(metrics::BATCH_WIDTH);
        Snapshot {
            queue_wait: r
                .histogram(metrics::QUEUE_WAIT_US)
                .unwrap_or_else(|| Histogram::new(&metrics::latency_bounds())),
            width_count: width.as_ref().map_or(0, |h| h.count),
            width_sum: width.as_ref().map_or(0.0, |h| h.sum),
            flushes: FLUSH_KINDS.map(|k| r.counter(k).unwrap_or(0)),
        }
    }
}

/// The observations `h` recorded since `earlier`. Bucket edges stay
/// clamped by the cumulative min and max, as in the registry's own
/// quantile readout.
fn since(h: &Histogram, earlier: &Histogram) -> Histogram {
    let mut d = h.clone();
    for (c, e) in d.counts.iter_mut().zip(&earlier.counts) {
        *c -= e;
    }
    d.count -= earlier.count;
    d.sum -= earlier.sum;
    d
}

/// The observations of `a` and `b` together (same bounds).
fn plus(a: &Histogram, b: &Histogram) -> Histogram {
    let mut d = a.clone();
    for (c, e) in d.counts.iter_mut().zip(&b.counts) {
        *c += e;
    }
    d.count += b.count;
    d.sum += b.sum;
    d.min = a.min.min(b.min);
    d.max = a.max.max(b.max);
    d
}
