//! Request, reply, and ticket types of the serving API.

use std::sync::mpsc;
use std::time::Duration;

use dasp_fp16::Scalar;
use dasp_solver::{PowerOptions, PowerResult};
use dasp_sparse::csr::CsrError;

/// One unit of work against a resident matrix.
#[derive(Debug, Clone)]
pub enum Work<S: Scalar> {
    /// Single-vector `y = A x` — the coalescible request kind: concurrent
    /// `Spmv`s against one matrix merge into a panel batch.
    Spmv {
        /// The input vector (`cols` elements).
        x: Vec<S>,
    },
    /// Multi-vector `Y = A B`, dispatched solo at its own width.
    Spmm {
        /// The input columns (each `cols` elements).
        columns: Vec<Vec<S>>,
    },
    /// In-place value refresh through the plan's O(nnz) scatter
    /// ([`dasp_core::DaspMatrix::update_values`]) — an ordering barrier
    /// in the matrix's FIFO.
    Refresh {
        /// New values in CSR nonzero order (`nnz` elements).
        values: Vec<S>,
    },
    /// Dominant-eigenpair PageRank-style power iteration on the resident
    /// matrix, computed in f64.
    PageRank {
        /// Stopping criteria.
        opts: PowerOptions,
    },
}

impl<S: Scalar> Work<S> {
    /// Short name for metrics and spans.
    pub fn kind(&self) -> &'static str {
        match self {
            Work::Spmv { .. } => "spmv",
            Work::Spmm { .. } => "spmm",
            Work::Refresh { .. } => "refresh",
            Work::PageRank { .. } => "pagerank",
        }
    }

    /// Names the first NaN or Inf in the payload, if any.
    pub(crate) fn non_finite(&self) -> Option<String> {
        match self {
            Work::Spmv { x } => first_non_finite(x).map(|(i, e)| format!("x[{i}] is {e}")),
            Work::Spmm { columns } => columns.iter().enumerate().find_map(|(j, c)| {
                first_non_finite(c).map(|(i, e)| format!("column {j} element {i} is {e}"))
            }),
            Work::Refresh { .. } | Work::PageRank { .. } => None,
        }
    }
}

/// The index and value of the first NaN or Inf in `v`. It runs on every
/// submission and nearly every payload is finite, so chunks are first
/// tested without branches: `d - d` is `+0.0` for a finite `d` and NaN
/// otherwise, and a NaN sticks in a sum, which eight independent sums let
/// the compiler vectorize. Only a chunk that fails is searched.
fn first_non_finite<S: Scalar>(v: &[S]) -> Option<(usize, f64)> {
    const CHUNK: usize = 256;
    let finite = |c: &[S]| {
        let mut sums = [0.0f64; 8];
        let lanes = c.chunks_exact(8);
        let tail: f64 = lanes
            .remainder()
            .iter()
            .map(|e| e.to_f64() - e.to_f64())
            .sum();
        for l in lanes {
            for (s, e) in sums.iter_mut().zip(l) {
                *s += e.to_f64() - e.to_f64();
            }
        }
        sums.iter().sum::<f64>() + tail == 0.0
    };
    let k = v.chunks(CHUNK).position(|c| !finite(c))? * CHUNK;
    v[k..]
        .iter()
        .map(|e| e.to_f64())
        .enumerate()
        .find(|(_, e)| !e.is_finite())
        .map(|(i, e)| (k + i, e))
}

/// Why the server refused a request without executing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The matrix queue is at its admission cap.
    QueueFull {
        /// Requests already queued for the matrix.
        depth: usize,
        /// The configured cap.
        cap: usize,
    },
    /// No matrix registered under the requested name.
    UnknownMatrix,
    /// The request's dimensions do not match the matrix.
    BadShape {
        /// Human-readable mismatch description.
        detail: String,
    },
    /// An SpMV `x` or an SpMM column holds a NaN or an infinity. A
    /// coalesced panel multiplies the masked-out zeros of each A fragment
    /// by every `x` lane, and `0 · Inf` is NaN, so such an `x` would not
    /// get its solo reply. Refresh values are not scanned: a non-finite
    /// matrix value meets only zeroed-out fragment rows, never the
    /// product of another row, so it keeps coalesced ≡ solo, and the
    /// scan would cost a full extra pass over `nnz` values per refresh.
    NonFinite {
        /// Which element is not finite.
        detail: String,
    },
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// Static verification rejected the matrix at admission: its plan or
    /// converted format breaks a kernel invariant, so making it resident
    /// could corrupt results or fault a worker.
    InvalidPlan {
        /// The verifier's summary (violation counts by invariant).
        detail: String,
    },
    /// The CSR handed to [`Server::register`](crate::Server::register)
    /// fails [`Csr::validate`](dasp_sparse::Csr::validate); converting it
    /// could index out of bounds.
    InvalidCsr(CsrError),
    /// The format parameters or the input size are outside what the
    /// converter accepts (`max_len <= 4`, or `nnz` reaching the gather
    /// index limit).
    InvalidParams {
        /// Which precondition failed.
        detail: String,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, cap } => {
                write!(f, "queue full ({depth} pending, cap {cap})")
            }
            RejectReason::UnknownMatrix => write!(f, "unknown matrix"),
            RejectReason::BadShape { detail } => write!(f, "bad shape: {detail}"),
            RejectReason::NonFinite { detail } => write!(f, "non-finite input: {detail}"),
            RejectReason::ShuttingDown => write!(f, "server shutting down"),
            RejectReason::InvalidPlan { detail } => write!(f, "invalid plan: {detail}"),
            RejectReason::InvalidCsr(e) => write!(f, "invalid CSR: {e}"),
            RejectReason::InvalidParams { detail } => write!(f, "invalid params: {detail}"),
        }
    }
}

/// The server's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<S: Scalar> {
    /// SpMV result (`rows` elements), bit-identical to a direct
    /// [`dasp_core::DaspMatrix::spmv`] of the same `x` — whether it ran
    /// solo or coalesced into a panel batch.
    Vector(Vec<S>),
    /// SpMM result columns, each bit-identical to the single-vector SpMV
    /// of the matching input column.
    Columns(Vec<Vec<S>>),
    /// Value refresh applied.
    Refreshed,
    /// Power-iteration result.
    Eigen(PowerResult),
    /// Refused before execution.
    Rejected(RejectReason),
    /// Accepted but failed during execution (e.g. refresh on a matrix
    /// without a plan, or a solver breakdown).
    Failed(String),
}

/// Errors surfaced by [`Ticket::wait`] and the submission API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server has shut down; the request was not submitted.
    Closed,
    /// The reply channel dropped without an answer (server torn down
    /// mid-request).
    Dropped,
    /// The server refused the request.
    Rejected(RejectReason),
    /// The request ran and failed.
    Failed(String),
    /// [`Ticket::wait_timeout`] ran out before the reply arrived. The
    /// request is still queued or running; the ticket can wait again.
    TimedOut,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "server closed"),
            ServeError::Dropped => write!(f, "reply channel dropped"),
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::Failed(e) => write!(f, "failed: {e}"),
            ServeError::TimedOut => write!(f, "timed out waiting for the reply"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A pending response: blocks on [`Ticket::wait`] until the server
/// answers. Dropping the ticket abandons the response (the request still
/// executes).
#[derive(Debug)]
pub struct Ticket<S: Scalar> {
    pub(crate) rx: mpsc::Receiver<Reply<S>>,
}

impl<S: Scalar> Ticket<S> {
    /// Blocks until the reply arrives.
    pub fn wait(self) -> Result<Reply<S>, ServeError> {
        settle(self.rx.recv().map_err(|_| ServeError::Dropped))
    }

    /// Blocks until the reply arrives or `timeout` passes, whichever is
    /// first; the latter is [`ServeError::TimedOut`], after which the
    /// ticket may wait again.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Reply<S>, ServeError> {
        settle(self.rx.recv_timeout(timeout).map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => ServeError::TimedOut,
            mpsc::RecvTimeoutError::Disconnected => ServeError::Dropped,
        }))
    }

    /// [`Ticket::wait`] for an SpMV request: unwraps the vector reply.
    pub fn wait_vector(self) -> Result<Vec<S>, ServeError> {
        match self.wait()? {
            Reply::Vector(y) => Ok(y),
            other => Err(ServeError::Failed(format!(
                "expected a vector reply, got {}",
                reply_kind(&other)
            ))),
        }
    }

    /// [`Ticket::wait`] for an SpMM request: unwraps the column replies.
    pub fn wait_columns(self) -> Result<Vec<Vec<S>>, ServeError> {
        match self.wait()? {
            Reply::Columns(ys) => Ok(ys),
            other => Err(ServeError::Failed(format!(
                "expected column replies, got {}",
                reply_kind(&other)
            ))),
        }
    }
}

/// Turns a refusal or a failure reply into its error.
fn settle<S: Scalar>(reply: Result<Reply<S>, ServeError>) -> Result<Reply<S>, ServeError> {
    match reply? {
        Reply::Rejected(r) => Err(ServeError::Rejected(r)),
        Reply::Failed(e) => Err(ServeError::Failed(e)),
        r => Ok(r),
    }
}

fn reply_kind<S: Scalar>(r: &Reply<S>) -> &'static str {
    match r {
        Reply::Vector(_) => "vector",
        Reply::Columns(_) => "columns",
        Reply::Refreshed => "refreshed",
        Reply::Eigen(_) => "eigen",
        Reply::Rejected(_) => "rejected",
        Reply::Failed(_) => "failed",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every position a non-finite value can take in the chunked scan:
    /// the first lane, a lane boundary, a chunk boundary, the last full
    /// lane group and the remainder past it.
    #[test]
    fn first_non_finite_finds_every_position() {
        let clean: Vec<f64> = (0..301).map(|i| i as f64 - 150.5).collect();
        assert_eq!(first_non_finite(&clean), None);
        for at in [0, 7, 8, 255, 256, 295, 296, 300] {
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut v = clean.clone();
                v[at] = bad;
                let (i, e) = first_non_finite(&v).expect("a non-finite value");
                assert_eq!(i, at);
                assert_eq!(e.to_bits(), bad.to_bits());
            }
        }
    }
}
