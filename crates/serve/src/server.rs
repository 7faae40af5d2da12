//! The server: dispatcher thread, per-matrix FIFO queues with
//! coalescing, and the worker pool.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dasp_core::format::GATHER_PADDING;
use dasp_core::{DaspMatrix, DaspParams, PlanCache};
use dasp_fp16::Scalar;
use dasp_perf::{estimate, precision_of};
use dasp_simt::{CountingProbe, Executor, NoProbe, ShardableProbe};
use dasp_solver::{power_iteration, LinearOperator, PowerOptions};
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::{Registry, Trace, Tracer};

use crate::config::ServeConfig;
use crate::metrics;
use crate::request::{RejectReason, Reply, ServeError, Ticket, Work};

/// A resident matrix registered with the server.
struct Slot<S: Scalar> {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Locked only by the (single) worker executing this matrix's current
    /// job — the dispatcher's one-inflight-per-matrix rule means the lock
    /// is never contended, it just proves exclusivity to the borrow
    /// checker across the refresh path.
    matrix: Mutex<DaspMatrix<S>>,
}

/// State shared by the handle, dispatcher, and workers.
struct Inner<S: Scalar> {
    registry: Arc<Registry>,
    plan_cache: PlanCache,
    slots: Mutex<HashMap<String, Arc<Slot<S>>>>,
    traces: Mutex<Vec<Trace>>,
    config: ServeConfig,
}

impl<S: Scalar> Inner<S> {
    fn new(config: ServeConfig) -> Inner<S> {
        let config = config.normalized();
        Inner {
            registry: Arc::new(Registry::new()),
            plan_cache: config.build_plan_cache(),
            slots: Mutex::new(HashMap::new()),
            traces: Mutex::new(Vec::new()),
            config,
        }
    }

    fn slot(&self, name: &str) -> Option<Arc<Slot<S>>> {
        self.slots.lock().expect("slots lock").get(name).cloned()
    }

    fn make_resident(&self, name: &str, m: DaspMatrix<S>) -> RegisterInfo {
        let info = RegisterInfo {
            rows: m.rows,
            cols: m.cols,
            nnz: m.nnz,
            replaced: false,
        };
        let slot = Arc::new(Slot {
            rows: m.rows,
            cols: m.cols,
            nnz: m.nnz,
            matrix: Mutex::new(m),
        });
        let replaced = self
            .slots
            .lock()
            .expect("slots lock")
            .insert(name.to_string(), slot)
            .is_some();
        self.registry.counter_add(metrics::MATRICES_REGISTERED, 1);
        self.plan_cache.export_metrics(&self.registry);
        RegisterInfo { replaced, ..info }
    }
}

/// One queued request.
struct Envelope<S: Scalar> {
    tenant: String,
    matrix: String,
    work: Work<S>,
    reply: mpsc::Sender<Reply<S>>,
    submitted: Instant,
}

/// Dispatcher inbox messages.
enum Msg<S: Scalar> {
    Req(Envelope<S>),
    Done { matrix: String },
    Shutdown,
}

/// One dispatched batch, bound for a worker.
struct Job<S: Scalar> {
    matrix: String,
    slot: Arc<Slot<S>>,
    batch: Vec<Envelope<S>>,
}

/// What [`Server::register`] reports about the freshly resident matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterInfo {
    /// Rows of the registered matrix.
    pub rows: usize,
    /// Columns of the registered matrix.
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Whether a matrix previously registered under the same name was
    /// replaced.
    pub replaced: bool,
}

/// Everything the server hands back when it drains and stops: the metric
/// registry (counters, latency histograms, queue stats) and, when
/// [`ServeConfig::traced`] was set, each worker's collected trace.
#[derive(Debug)]
pub struct ShutdownReport {
    /// The server's metric registry.
    pub registry: Arc<Registry>,
    /// Per-worker traces (empty unless [`ServeConfig::traced`]).
    pub traces: Vec<Trace>,
}

/// A cheap, cloneable submission handle. Safe to share across client
/// threads; each request gets its own reply channel ([`Ticket`]).
pub struct ServerHandle<S: Scalar> {
    tx: mpsc::Sender<Msg<S>>,
    closed: Arc<AtomicBool>,
    registry: Arc<Registry>,
}

impl<S: Scalar> Clone for ServerHandle<S> {
    fn clone(&self) -> Self {
        ServerHandle {
            tx: self.tx.clone(),
            closed: self.closed.clone(),
            registry: self.registry.clone(),
        }
    }
}

impl<S: Scalar> ServerHandle<S> {
    /// Submits one unit of work against a resident matrix.
    ///
    /// An SpMV `x` or SpMM column holding NaN or Inf is refused here, with
    /// [`RejectReason::NonFinite`] on the returned ticket: the masked MMA
    /// turns `0 · Inf` into NaN, so such an `x` would break the rule that a
    /// coalesced reply equals the solo one. The O(cols) scan runs on the
    /// submitting thread, not on the dispatcher every matrix shares.
    pub fn submit(
        &self,
        tenant: &str,
        matrix: &str,
        work: Work<S>,
    ) -> Result<Ticket<S>, ServeError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        let (reply, rx) = mpsc::channel();
        if let Some(detail) = work.non_finite() {
            self.registry.counter_add(metrics::REJECTED, 1);
            let _ = reply.send(Reply::Rejected(RejectReason::NonFinite { detail }));
            return Ok(Ticket { rx });
        }
        let env = Envelope {
            tenant: tenant.to_string(),
            matrix: matrix.to_string(),
            work,
            reply,
            submitted: Instant::now(),
        };
        self.tx
            .send(Msg::Req(env))
            .map_err(|_| ServeError::Closed)?;
        Ok(Ticket { rx })
    }

    /// Submits `y = A x`. Concurrent `spmv` calls against the same matrix
    /// coalesce into one panel batch; the reply is bit-identical either
    /// way.
    pub fn spmv(&self, tenant: &str, matrix: &str, x: Vec<S>) -> Result<Ticket<S>, ServeError> {
        self.submit(tenant, matrix, Work::Spmv { x })
    }

    /// Submits a multi-vector `Y = A B` at the caller's own width.
    pub fn spmm(
        &self,
        tenant: &str,
        matrix: &str,
        columns: Vec<Vec<S>>,
    ) -> Result<Ticket<S>, ServeError> {
        self.submit(tenant, matrix, Work::Spmm { columns })
    }

    /// Submits an in-place value refresh (CSR nonzero order). Acts as an
    /// ordering barrier in the matrix's FIFO: requests submitted before it
    /// see the old values, requests after it see the new.
    pub fn refresh(
        &self,
        tenant: &str,
        matrix: &str,
        values: Vec<S>,
    ) -> Result<Ticket<S>, ServeError> {
        self.submit(tenant, matrix, Work::Refresh { values })
    }

    /// Submits a power-iteration (PageRank-style) dominant-eigenpair
    /// solve on the resident matrix, computed in f64.
    pub fn pagerank(
        &self,
        tenant: &str,
        matrix: &str,
        opts: PowerOptions,
    ) -> Result<Ticket<S>, ServeError> {
        self.submit(tenant, matrix, Work::PageRank { opts })
    }
}

/// The serving engine: owns the dispatcher and worker threads, the
/// resident-matrix table, and the metric registry. See the crate docs for
/// the architecture.
pub struct Server<S: Scalar> {
    inner: Arc<Inner<S>>,
    tx: mpsc::Sender<Msg<S>>,
    closed: Arc<AtomicBool>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<S: Scalar> Server<S> {
    /// Starts the dispatcher and worker threads.
    pub fn start(config: ServeConfig) -> Server<S> {
        let inner = Arc::new(Inner::new(config));

        let (tx, rx) = mpsc::channel::<Msg<S>>();
        let (job_tx, job_rx) = mpsc::channel::<Job<S>>();
        let job_rx = Arc::new(Mutex::new(job_rx));

        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = inner.clone();
                let job_rx = job_rx.clone();
                let done = tx.clone();
                std::thread::Builder::new()
                    .name(format!("dasp-serve-worker-{i}"))
                    .spawn(move || worker_loop(inner, job_rx, done))
                    .expect("spawn worker")
            })
            .collect();
        let dispatcher = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("dasp-serve-dispatcher".to_string())
                .spawn(move || dispatcher_loop(inner, rx, job_tx))
                .expect("spawn dispatcher")
        };

        Server {
            inner,
            tx,
            closed: Arc::new(AtomicBool::new(false)),
            dispatcher: Some(dispatcher),
            workers,
        }
    }

    /// Builds `csr` into the resident DASP format (through the shared
    /// plan cache, so same-pattern registrations skip analysis) and makes
    /// it addressable under `name`.
    ///
    /// The CSR is untrusted: a malformed one is refused with
    /// [`RejectReason::InvalidCsr`] before any conversion runs, so it can
    /// never panic the converter.
    pub fn register(&self, name: &str, csr: &Csr<S>) -> Result<RegisterInfo, ServeError> {
        self.register_with_params(name, csr, DaspParams::default())
    }

    /// [`Server::register`] with explicit format parameters. Parameters
    /// or a size the converter does not accept (`max_len <= 4`, `nnz` at
    /// or past [`GATHER_PADDING`]) are refused with
    /// [`RejectReason::InvalidParams`].
    pub fn register_with_params(
        &self,
        name: &str,
        csr: &Csr<S>,
        params: DaspParams,
    ) -> Result<RegisterInfo, ServeError> {
        if let Err(e) = csr.validate() {
            return Err(self.reject(RejectReason::InvalidCsr(e)));
        }
        let detail = if params.max_len <= 4 {
            format!(
                "max_len {} must exceed the short-row bound 4",
                params.max_len
            )
        } else if csr.nnz() >= GATHER_PADDING as usize {
            format!("nnz {} reaches the gather index limit", csr.nnz())
        } else {
            let m = DaspMatrix::with_params_cached(csr, params, &self.inner.plan_cache);
            return Ok(self.inner.make_resident(name, m));
        };
        Err(self.reject(RejectReason::InvalidParams { detail }))
    }

    /// Registers an already-converted matrix, but only after it passes
    /// static verification ([`dasp_verify::verify_full`]): a matrix whose
    /// plan breaks a kernel invariant is refused with
    /// [`RejectReason::InvalidPlan`] *before* it becomes resident, so a
    /// corrupt registration can never corrupt results or fault a worker.
    /// This path is for matrices that arrive pre-built (e.g. deserialized
    /// from untrusted bytes); [`Server::register`] builds them with the
    /// in-process converter instead.
    pub fn register_matrix(
        &self,
        name: &str,
        m: DaspMatrix<S>,
    ) -> Result<RegisterInfo, ServeError> {
        let report = dasp_verify::verify_full(&m);
        if !report.is_clean() {
            return Err(self.reject(RejectReason::InvalidPlan {
                detail: report.summary(),
            }));
        }
        Ok(self.inner.make_resident(name, m))
    }

    /// Reads a `DASPFMT2` blob and admits it through the same
    /// verification gate as [`Server::register_matrix`]. Decode errors
    /// (truncation, corruption, wrong scalar width) surface as
    /// [`RejectReason::InvalidPlan`] too — the bytes never panic the
    /// server or reach residency.
    pub fn register_serialized(
        &self,
        name: &str,
        bytes: &mut impl std::io::Read,
    ) -> Result<RegisterInfo, ServeError> {
        let m = DaspMatrix::<S>::read_from(bytes).map_err(|e| {
            self.reject(RejectReason::InvalidPlan {
                detail: format!("decode failed: {e}"),
            })
        })?;
        self.register_matrix(name, m)
    }

    /// Counts a refused registration and wraps its reason.
    fn reject(&self, reason: RejectReason) -> ServeError {
        self.inner
            .registry
            .counter_add(metrics::MATRICES_REJECTED, 1);
        ServeError::Rejected(reason)
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServerHandle<S> {
        ServerHandle {
            tx: self.tx.clone(),
            closed: self.closed.clone(),
            registry: self.inner.registry.clone(),
        }
    }

    /// The server's metric registry (live; snapshot at any time).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// Stops admitting work, drains every queue (pending requests still
    /// execute and reply), joins all threads, and returns the final
    /// metrics and traces.
    pub fn shutdown(self) -> ShutdownReport {
        let Server {
            inner,
            tx,
            closed,
            mut dispatcher,
            workers,
        } = self;
        closed.store(true, Ordering::Release);
        let _ = tx.send(Msg::Shutdown);
        drop(tx);
        if let Some(d) = dispatcher.take() {
            let _ = d.join();
        }
        for w in workers {
            let _ = w.join();
        }
        inner.plan_cache.export_metrics(&inner.registry);
        let traces = std::mem::take(&mut *inner.traces.lock().expect("traces lock"));
        ShutdownReport {
            registry: inner.registry.clone(),
            traces,
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

struct MatrixQueue<S: Scalar> {
    pending: VecDeque<Envelope<S>>,
    inflight: bool,
}

impl<S: Scalar> Default for MatrixQueue<S> {
    fn default() -> Self {
        MatrixQueue {
            pending: VecDeque::new(),
            inflight: false,
        }
    }
}

fn dispatcher_loop<S: Scalar>(
    inner: Arc<Inner<S>>,
    rx: mpsc::Receiver<Msg<S>>,
    job_tx: mpsc::Sender<Job<S>>,
) {
    let mut queues: HashMap<String, MatrixQueue<S>> = HashMap::new();
    let wait_bounds = metrics::latency_bounds();
    let mut draining = false;
    let mut peak_depth = 0usize;

    loop {
        if draining && queues.values().all(|q| q.pending.is_empty() && !q.inflight) {
            break;
        }
        let Ok(msg) = rx.recv() else { break };
        match msg {
            Msg::Req(env) => {
                if draining {
                    reject(&inner, env, RejectReason::ShuttingDown);
                } else {
                    admit(&inner, &mut queues, env);
                }
            }
            Msg::Done { matrix } => {
                if let Some(q) = queues.get_mut(&matrix) {
                    q.inflight = false;
                }
            }
            Msg::Shutdown => draining = true,
        }

        for (name, q) in queues.iter_mut() {
            try_flush(&inner, name, q, &job_tx, draining, &wait_bounds);
        }

        let depth: usize = queues.values().map(|q| q.pending.len()).sum();
        peak_depth = peak_depth.max(depth);
        inner.registry.gauge_set(metrics::QUEUE_DEPTH, depth as f64);
        inner
            .registry
            .gauge_set(metrics::QUEUE_DEPTH_PEAK, peak_depth as f64);
    }
    // Dropping job_tx here ends the worker loops.
}

fn admit<S: Scalar>(
    inner: &Inner<S>,
    queues: &mut HashMap<String, MatrixQueue<S>>,
    env: Envelope<S>,
) {
    let Some(slot) = inner.slot(&env.matrix) else {
        reject(inner, env, RejectReason::UnknownMatrix);
        return;
    };
    if let Err(detail) = validate(&env.work, &slot) {
        reject(inner, env, RejectReason::BadShape { detail });
        return;
    }
    let q = queues.entry(env.matrix.clone()).or_default();
    if q.pending.len() >= inner.config.queue_cap {
        let reason = RejectReason::QueueFull {
            depth: q.pending.len(),
            cap: inner.config.queue_cap,
        };
        reject(inner, env, reason);
        return;
    }
    inner.registry.counter_add(metrics::ACCEPTED, 1);
    inner
        .registry
        .counter_add(&metrics::tenant_requests(&env.tenant), 1);
    q.pending.push_back(env);
}

/// Shape-checks a request against its target so workers never see
/// malformed work (validation failures reject at admission instead of
/// panicking a worker thread).
fn validate<S: Scalar>(work: &Work<S>, slot: &Slot<S>) -> Result<(), String> {
    match work {
        Work::Spmv { x } => {
            if x.len() != slot.cols {
                return Err(format!(
                    "x has {} elements, matrix has {} columns",
                    x.len(),
                    slot.cols
                ));
            }
        }
        Work::Spmm { columns } => {
            for (j, c) in columns.iter().enumerate() {
                if c.len() != slot.cols {
                    return Err(format!(
                        "column {j} has {} elements, matrix has {} columns",
                        c.len(),
                        slot.cols
                    ));
                }
            }
        }
        Work::Refresh { values } => {
            if values.len() != slot.nnz {
                return Err(format!(
                    "refresh carries {} values, matrix has {} nonzeros",
                    values.len(),
                    slot.nnz
                ));
            }
        }
        Work::PageRank { .. } => {
            if slot.rows != slot.cols {
                return Err(format!(
                    "power iteration needs a square matrix, got {}x{}",
                    slot.rows, slot.cols
                ));
            }
        }
    }
    Ok(())
}

fn reject<S: Scalar>(inner: &Inner<S>, env: Envelope<S>, reason: RejectReason) {
    inner.registry.counter_add(metrics::REJECTED, 1);
    let _ = env.reply.send(Reply::Rejected(reason));
}

/// Dispatches the queue head of an idle matrix at once (work-conserving):
/// a lone SpMV goes out at width 1, and the SpMVs that queued while the
/// previous job ran go out together, up to `max_batch`.
fn try_flush<S: Scalar>(
    inner: &Inner<S>,
    name: &str,
    q: &mut MatrixQueue<S>,
    job_tx: &mpsc::Sender<Job<S>>,
    draining: bool,
    wait_bounds: &[f64],
) {
    // One job per matrix in flight: the per-matrix FIFO guarantee that
    // makes refresh an ordering barrier.
    if q.inflight || q.pending.is_empty() {
        return;
    }
    let head_is_spmv = matches!(q.pending[0].work, Work::Spmv { .. });
    let width = if !head_is_spmv || !inner.config.coalesce {
        inner.registry.counter_add(metrics::FLUSH_SOLO, 1);
        1
    } else {
        let run = q
            .pending
            .iter()
            .take_while(|e| matches!(e.work, Work::Spmv { .. }))
            .count();
        let width = run.min(inner.config.max_batch);
        let cause = if width >= inner.config.max_batch {
            metrics::FLUSH_FULL
        } else if run < q.pending.len() {
            metrics::FLUSH_BARRIER
        } else if draining {
            metrics::FLUSH_DRAIN
        } else {
            metrics::FLUSH_WINDOW
        };
        inner.registry.counter_add(cause, 1);
        width
    };

    let now = Instant::now();
    let batch: Vec<Envelope<S>> = q.pending.drain(..width).collect();
    for env in &batch {
        let waited = now.duration_since(env.submitted).as_secs_f64() * 1e6;
        inner
            .registry
            .observe(metrics::QUEUE_WAIT_US, waited, wait_bounds);
    }
    let slot = inner.slot(name).expect("slot validated at admission");
    q.inflight = true;
    let _ = job_tx.send(Job {
        matrix: name.to_string(),
        slot,
        batch,
    });
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

/// Per-worker reusable state: the panel/output scratch (allocated once,
/// reused across every coalesced batch), the tracer, and cached histogram
/// bounds.
struct Scratch<S: Scalar> {
    b: DenseMat<S>,
    y: DenseMat<S>,
    tracer: Tracer,
    lat_bounds: Vec<f64>,
    modeled_bounds: Vec<f64>,
    width_bounds: Vec<f64>,
}

impl<S: Scalar> Scratch<S> {
    fn new(traced: bool) -> Self {
        Scratch {
            b: DenseMat::zeros(0, 0),
            y: DenseMat::zeros(0, 0),
            tracer: if traced {
                Tracer::new()
            } else {
                Tracer::disabled()
            },
            lat_bounds: metrics::latency_bounds(),
            modeled_bounds: metrics::modeled_bounds(),
            width_bounds: metrics::width_bounds(),
        }
    }
}

fn worker_loop<S: Scalar>(
    inner: Arc<Inner<S>>,
    job_rx: Arc<Mutex<mpsc::Receiver<Job<S>>>>,
    done: mpsc::Sender<Msg<S>>,
) {
    let mut scratch = Scratch::new(inner.config.traced);
    loop {
        let job = {
            let rx = job_rx.lock().expect("job rx lock");
            rx.recv()
        };
        let Ok(job) = job else { break };
        let matrix = job.matrix.clone();
        execute_job(&inner, &mut scratch, job);
        let _ = done.send(Msg::Done { matrix });
    }
    if inner.config.traced {
        inner
            .traces
            .lock()
            .expect("traces lock")
            .push(scratch.tracer.take_trace());
    }
}

fn execute_job<S: Scalar>(inner: &Inner<S>, scratch: &mut Scratch<S>, job: Job<S>) {
    let width = job.batch.len();
    inner
        .registry
        .observe(metrics::BATCH_WIDTH, width as f64, &scratch.width_bounds);
    let mut span = scratch.tracer.span("serve.batch");
    span.add_arg("matrix", &job.matrix);
    span.add_arg("kind", job.batch[0].work.kind());
    span.add_arg("width", width);

    let mut m = job.slot.matrix.lock().expect("matrix lock");
    match &inner.config.model {
        Some(dev) => {
            let mut probe = CountingProbe::new(dev.l2_cache());
            run_batch(inner, scratch, &mut m, job.batch, &mut probe);
            let est = estimate(&probe.stats(), dev, precision_of::<S>());
            inner.registry.observe(
                metrics::MODELED_BATCH_US,
                est.seconds * 1e6,
                &scratch.modeled_bounds,
            );
        }
        None => {
            let mut probe = NoProbe;
            run_batch(inner, scratch, &mut m, job.batch, &mut probe);
        }
    }
}

fn run_batch<S: Scalar, P: ShardableProbe>(
    inner: &Inner<S>,
    scratch: &mut Scratch<S>,
    m: &mut DaspMatrix<S>,
    batch: Vec<Envelope<S>>,
    probe: &mut P,
) {
    let exec = inner.config.executor;
    let coalesced = batch.len() > 1 || matches!(batch[0].work, Work::Spmv { .. });
    if coalesced {
        // A batch wider than 1 is SpMV-only by construction.
        let xs: Vec<&[S]> = batch
            .iter()
            .map(|e| match &e.work {
                Work::Spmv { x } => x.as_slice(),
                _ => unreachable!("coalesced batches contain only SpMV requests"),
            })
            .collect();
        m.spmv_batch_into(
            &xs,
            &mut scratch.b,
            &mut scratch.y,
            probe,
            &scratch.tracer,
            &exec,
        );
        for (j, env) in batch.into_iter().enumerate() {
            let y = scratch.y.column(j);
            finish(inner, env, Reply::Vector(y), &scratch.lat_bounds);
        }
        return;
    }

    let env = batch.into_iter().next().expect("non-empty batch");
    match &env.work {
        Work::Spmv { .. } => unreachable!("handled by the coalesced path"),
        Work::Spmm { columns } => {
            let k = columns.len();
            scratch.b.reset(m.cols, k);
            for (j, c) in columns.iter().enumerate() {
                scratch.b.set_column(j, c);
            }
            scratch.y.reset(m.rows, k);
            m.spmm_into(&scratch.b, &mut scratch.y, probe, &scratch.tracer, &exec);
            let ys: Vec<Vec<S>> = (0..k).map(|j| scratch.y.column(j)).collect();
            finish(inner, env, Reply::Columns(ys), &scratch.lat_bounds);
        }
        Work::Refresh { values } => {
            let reply = match m.update_values_traced_with(values, &scratch.tracer, &exec) {
                Ok(()) => {
                    inner.registry.counter_add(metrics::REFRESHES, 1);
                    Reply::Refreshed
                }
                Err(e) => Reply::Failed(e.to_string()),
            };
            finish(inner, env, reply, &scratch.lat_bounds);
        }
        Work::PageRank { opts } => {
            let op = ProbedF64Op {
                m,
                probe: RefCell::new(probe),
                exec,
            };
            let reply = match power_iteration(&op, *opts) {
                Ok(r) => Reply::Eigen(r),
                Err(e) => Reply::Failed(e.to_string()),
            };
            finish(inner, env, reply, &scratch.lat_bounds);
        }
    }
}

/// Records the request's end-to-end latency and outcome, then replies.
fn finish<S: Scalar>(inner: &Inner<S>, env: Envelope<S>, reply: Reply<S>, lat_bounds: &[f64]) {
    let lat_us = env.submitted.elapsed().as_secs_f64() * 1e6;
    inner
        .registry
        .observe(metrics::LATENCY_US, lat_us, lat_bounds);
    inner
        .registry
        .observe(&metrics::tenant_latency_us(&env.tenant), lat_us, lat_bounds);
    let outcome = if matches!(reply, Reply::Failed(_)) {
        metrics::FAILED
    } else {
        metrics::COMPLETED
    };
    inner.registry.counter_add(outcome, 1);
    let _ = env.reply.send(reply);
}

/// [`LinearOperator`] adapter for the PageRank path: applies the resident
/// `DaspMatrix<S>` in f64 by converting through [`Scalar::from_f64`] /
/// [`Scalar::to_f64`], threading the worker's probe through the shared
/// `apply(&self, ..)` interface via a `RefCell`.
struct ProbedF64Op<'a, S: Scalar, P: ShardableProbe> {
    m: &'a DaspMatrix<S>,
    probe: RefCell<&'a mut P>,
    exec: Executor,
}

impl<S: Scalar, P: ShardableProbe> LinearOperator for ProbedF64Op<'_, S, P> {
    fn rows(&self) -> usize {
        self.m.rows
    }

    fn cols(&self) -> usize {
        self.m.cols
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let xs: Vec<S> = x.iter().map(|&v| S::from_f64(v)).collect();
        let mut probe = self.probe.borrow_mut();
        let ys = self.m.spmv_with(&xs, &mut **probe, &self.exec);
        for (o, v) in y.iter_mut().zip(ys) {
            *o = v.to_f64();
        }
    }
}

/// Deterministic dispatcher tests: `dispatcher_loop` runs on its own
/// thread against a fake worker. The test owns the job channel, runs each
/// job itself through the real worker path (`execute_job`, so replies go
/// through `spmv_batch_into`) and sends `Msg::Done` when it chooses, so
/// what queues behind an in-flight job is decided by the test, not by
/// thread timing.
#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    /// How long a test waits for a job or reply it is owed; reached only
    /// when the dispatcher is broken.
    const PATIENCE: Duration = Duration::from_secs(10);

    struct Harness {
        inner: Arc<Inner<f64>>,
        handle: ServerHandle<f64>,
        jobs: mpsc::Receiver<Job<f64>>,
        dispatcher: JoinHandle<()>,
        scratch: Scratch<f64>,
    }

    impl Harness {
        fn start(config: ServeConfig) -> Harness {
            let inner = Arc::new(Inner::new(ServeConfig {
                executor: Executor::seq(),
                ..config
            }));
            let (tx, rx) = mpsc::channel();
            let (job_tx, jobs) = mpsc::channel();
            let dispatcher = {
                let inner = inner.clone();
                std::thread::spawn(move || dispatcher_loop(inner, rx, job_tx))
            };
            let handle = ServerHandle {
                tx,
                closed: Arc::new(AtomicBool::new(false)),
                registry: inner.registry.clone(),
            };
            Harness {
                inner,
                handle,
                jobs,
                dispatcher,
                scratch: Scratch::new(false),
            }
        }

        /// A harness with `csr` resident as `"m"`, and the matrix built
        /// the same way for computing solo replies.
        fn with_matrix(config: ServeConfig, csr: &Csr<f64>) -> (Harness, DaspMatrix<f64>) {
            let h = Harness::start(config);
            let m = DaspMatrix::with_params_cached(csr, DaspParams::default(), &h.inner.plan_cache);
            h.inner.make_resident("m", m);
            (h, DaspMatrix::from_csr(csr))
        }

        fn spmv(&self, x: &[f64]) -> Ticket<f64> {
            self.handle.spmv("t", "m", x.to_vec()).unwrap()
        }

        /// The next job the dispatcher sends.
        fn job(&self) -> Job<f64> {
            self.jobs.recv_timeout(PATIENCE).expect("a dispatched job")
        }

        /// Asserts that the dispatcher, having handled every message sent
        /// so far, sent no job. The dispatcher answers a request for an
        /// unknown matrix in order, so its reply marks that point.
        fn idle(&self) {
            let t = self.handle.spmv("t", "unknown", vec![0.0]).unwrap();
            assert_eq!(
                t.wait(),
                Err(ServeError::Rejected(RejectReason::UnknownMatrix))
            );
            assert!(self.jobs.try_recv().is_err(), "unexpected dispatch");
        }

        /// Runs `job` as a worker would, then reports it done.
        fn finish(&mut self, job: Job<f64>) -> usize {
            let (width, matrix) = (job.batch.len(), job.matrix.clone());
            execute_job(&self.inner, &mut self.scratch, job);
            self.handle.tx.send(Msg::Done { matrix }).unwrap();
            width
        }

        /// Drains (running every job still owed) and stops the dispatcher.
        fn shutdown(mut self) -> Arc<Registry> {
            self.handle.tx.send(Msg::Shutdown).unwrap();
            loop {
                match self.jobs.recv_timeout(PATIENCE) {
                    Ok(job) => {
                        self.finish(job);
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    Err(mpsc::RecvTimeoutError::Timeout) => panic!("dispatcher did not drain"),
                }
            }
            self.dispatcher.join().expect("dispatcher thread");
            self.inner.registry.clone()
        }
    }

    fn vectors(cols: usize, n: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|j| dasp_matgen::dense_vector(cols, 50 + j))
            .collect()
    }

    #[test]
    fn lone_spmv_on_idle_matrix_dispatches_at_width_one() {
        let csr = dasp_matgen::banded(96, 4, 5, 11);
        let (mut h, d) = Harness::with_matrix(ServeConfig::default(), &csr);
        let x = dasp_matgen::dense_vector(csr.cols, 1);
        let t = h.spmv(&x);
        // No Done, no flush and no timer: the idle matrix takes it at once.
        let job = h.job();
        assert_eq!(h.finish(job), 1);
        assert_eq!(t.wait_vector().unwrap(), d.spmv(&x, &mut NoProbe));
        let reg = h.shutdown();
        assert_eq!(reg.counter(metrics::FLUSH_WINDOW), Some(1));
    }

    /// k SpMVs queued behind an in-flight job leave together at its
    /// `Done`: one job of width k for every partial width, `max_batch`
    /// then the rest past it, each reply bit-identical to solo.
    #[test]
    fn partial_panels_flush_at_their_width() {
        let csr = dasp_matgen::banded(96, 4, 5, 11);
        let xs = vectors(csr.cols, 9);
        for k in 1..=xs.len() {
            let (mut h, d) = Harness::with_matrix(ServeConfig::default(), &csr);
            let lead = h.spmv(&xs[0]);
            let first = h.job();
            let tickets: Vec<_> = xs[..k].iter().map(|x| h.spmv(x)).collect();
            h.idle();
            assert_eq!(h.finish(first), 1);
            let widths: Vec<usize> = xs[..k].chunks(8).map(|c| c.len()).collect();
            for &w in &widths {
                let job = h.job();
                h.idle();
                assert_eq!(h.finish(job), w, "k = {k}");
            }
            assert_eq!(lead.wait_vector().unwrap(), d.spmv(&xs[0], &mut NoProbe));
            for (j, t) in tickets.into_iter().enumerate() {
                let want = d.spmv(&xs[j], &mut NoProbe);
                assert_eq!(t.wait_vector().unwrap(), want, "k = {k}, column {j}");
            }
            let reg = h.shutdown();
            let full = (k / 8) as u64;
            assert_eq!(reg.counter(metrics::FLUSH_FULL).unwrap_or(0), full);
            let window = 1 + u64::from(k % 8 != 0);
            assert_eq!(reg.counter(metrics::FLUSH_WINDOW), Some(window));
        }
    }

    /// A refresh is an ordering barrier: the SpMV queued ahead of it
    /// leaves alone and sees the old values; the one behind it waits for
    /// the refresh and sees the new ones, bit for bit.
    #[test]
    fn refresh_orders_against_inflight_spmv() {
        let csr = dasp_matgen::banded(128, 3, 6, 7);
        let mut csr_new = csr.clone();
        for v in csr_new.vals.iter_mut() {
            *v *= 2.0;
        }
        let (mut h, d_old) = Harness::with_matrix(ServeConfig::default(), &csr);
        let x = dasp_matgen::dense_vector(csr.cols, 3);
        let before = d_old.spmv(&x, &mut NoProbe);
        let after = DaspMatrix::from_csr(&csr_new).spmv(&x, &mut NoProbe);
        assert_ne!(before, after);

        let t_lead = h.spmv(&x);
        let lead = h.job();
        let t_before = h.spmv(&x);
        let t_refresh = h.handle.refresh("t", "m", csr_new.vals.clone()).unwrap();
        let t_after = h.spmv(&x);
        h.idle();
        h.finish(lead);
        for kind in ["spmv", "refresh", "spmv"] {
            let job = h.job();
            h.idle();
            assert_eq!(job.batch[0].work.kind(), kind);
            assert_eq!(h.finish(job), 1);
        }
        assert_eq!(t_lead.wait_vector().unwrap(), before);
        assert_eq!(t_before.wait_vector().unwrap(), before);
        assert!(matches!(t_refresh.wait().unwrap(), Reply::Refreshed));
        assert_eq!(t_after.wait_vector().unwrap(), after);

        let reg = h.shutdown();
        assert_eq!(reg.counter(metrics::REFRESHES), Some(1));
        assert_eq!(reg.counter(metrics::FLUSH_BARRIER), Some(1));
        assert_eq!(reg.counter(metrics::FLUSH_SOLO), Some(1));
        assert_eq!(reg.counter(metrics::FLUSH_WINDOW), Some(2));
    }

    /// The queue cap counts what waits behind the in-flight job.
    #[test]
    fn queue_full_while_matrix_in_flight() {
        let csr = dasp_matgen::banded(64, 2, 4, 1);
        let config = ServeConfig {
            queue_cap: 1,
            ..ServeConfig::default()
        };
        let (mut h, d) = Harness::with_matrix(config, &csr);
        let x = dasp_matgen::dense_vector(csr.cols, 2);
        let want = d.spmv(&x, &mut NoProbe);
        let t0 = h.spmv(&x);
        let j0 = h.job();
        let t1 = h.spmv(&x);
        assert_eq!(
            h.spmv(&x).wait(),
            Err(ServeError::Rejected(RejectReason::QueueFull {
                depth: 1,
                cap: 1
            }))
        );
        h.finish(j0);
        let j1 = h.job();
        h.finish(j1);
        assert_eq!(t0.wait_vector().unwrap(), want);
        assert_eq!(t1.wait_vector().unwrap(), want);
        h.shutdown();
    }

    #[test]
    fn wait_timeout_gives_up_behind_an_unfinished_job() {
        let csr = dasp_matgen::banded(64, 2, 4, 1);
        let (mut h, d) = Harness::with_matrix(ServeConfig::default(), &csr);
        let x = dasp_matgen::dense_vector(csr.cols, 4);
        let t0 = h.spmv(&x);
        let j0 = h.job();
        let t1 = h.spmv(&x);
        let short = Duration::from_millis(20);
        assert_eq!(t1.wait_timeout(short), Err(ServeError::TimedOut));
        h.finish(j0);
        let j1 = h.job();
        h.finish(j1);
        let want = Reply::Vector(d.spmv(&x, &mut NoProbe));
        assert_eq!(t0.wait_timeout(PATIENCE), Ok(want.clone()));
        assert_eq!(t1.wait_timeout(PATIENCE), Ok(want));
        h.shutdown();
    }

    /// A NaN or Inf in `x` or an SpMM column is refused at submission,
    /// and the finite requests queued around the refused one still
    /// coalesce bit-identically.
    #[test]
    fn non_finite_inputs_are_refused_and_neighbours_stay_bit_identical() {
        let csr = dasp_matgen::banded(96, 4, 5, 11);
        let xs = vectors(csr.cols, 3);
        let (mut h, d) = Harness::with_matrix(ServeConfig::default(), &csr);
        let lead = h.spmv(&xs[0]);
        let j0 = h.job();
        let t1 = h.spmv(&xs[1]);
        let mut inf = xs[1].clone();
        inf[5] = f64::INFINITY;
        let mut nan = xs[2].clone();
        nan[7] = f64::NAN;
        let refused = [
            h.spmv(&inf),
            h.handle.spmm("t", "m", vec![xs[2].clone(), nan]).unwrap(),
        ];
        let t2 = h.spmv(&xs[2]);
        for t in refused {
            assert!(
                matches!(
                    t.wait(),
                    Err(ServeError::Rejected(RejectReason::NonFinite { .. }))
                ),
                "a non-finite input must be refused"
            );
        }
        h.idle();
        h.finish(j0);
        let j1 = h.job();
        assert_eq!(h.finish(j1), 2);
        for (t, x) in [(lead, &xs[0]), (t1, &xs[1]), (t2, &xs[2])] {
            assert_eq!(t.wait_vector().unwrap(), d.spmv(x, &mut NoProbe));
        }
        h.shutdown();
    }

    /// Refresh values are admitted unscanned because a non-finite matrix
    /// value keeps coalesced ≡ solo: after an Inf and a NaN are refreshed
    /// in, a coalesced panel still answers every column bit for bit (NaN
    /// payloads included) as the solo SpMV of the same matrix does.
    #[test]
    fn non_finite_matrix_values_keep_coalesced_equal_to_solo() {
        // R-MAT rows span the short, medium and long kernels; one
        // non-finite value lands in a row of each length class.
        let csr = dasp_matgen::rmat(9, 8, 17);
        let mut bad = csr.clone();
        let lens: Vec<usize> = csr.row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        let classes: [fn(usize) -> bool; 4] = [
            |n| n == 1,
            |n| (2..=4).contains(&n),
            |n| (5..=64).contains(&n),
            |n| n > 64,
        ];
        for (k, class) in classes.iter().enumerate() {
            let r = lens
                .iter()
                .position(|&n| class(n))
                .expect("a row of the class");
            bad.vals[csr.row_ptr[r]] = [f64::INFINITY, f64::NAN][k % 2];
        }
        let d_bad = DaspMatrix::from_csr(&bad);
        let xs = vectors(csr.cols, 3);
        let (mut h, _) = Harness::with_matrix(ServeConfig::default(), &csr);
        let lead = h.spmv(&xs[0]);
        let j0 = h.job();
        let refresh = h.handle.refresh("t", "m", bad.vals.clone()).unwrap();
        let tickets: Vec<_> = xs.iter().map(|x| h.spmv(x)).collect();
        h.finish(j0);
        let j1 = h.job();
        assert_eq!(j1.batch[0].work.kind(), "refresh");
        h.finish(j1);
        let j2 = h.job();
        assert_eq!(h.finish(j2), xs.len());
        lead.wait_vector().unwrap();
        assert!(matches!(refresh.wait().unwrap(), Reply::Refreshed));
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for (t, x) in tickets.into_iter().zip(&xs) {
            let solo = d_bad.spmv(x, &mut NoProbe);
            assert!(solo.iter().any(|e| !e.is_finite()));
            assert_eq!(bits(&t.wait_vector().unwrap()), bits(&solo));
        }
        h.shutdown();
    }
}
