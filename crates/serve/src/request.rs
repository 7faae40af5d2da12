//! Request, reply, and ticket types of the serving API.

use std::sync::mpsc;

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
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "server closed"),
            ServeError::Dropped => write!(f, "reply channel dropped"),
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::Failed(e) => write!(f, "failed: {e}"),
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
        match self.rx.recv() {
            Ok(Reply::Rejected(r)) => Err(ServeError::Rejected(r)),
            Ok(Reply::Failed(e)) => Err(ServeError::Failed(e)),
            Ok(r) => Ok(r),
            Err(_) => Err(ServeError::Dropped),
        }
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
