//! Integration tests for the serving layer: coalesced-vs-solo
//! bit-identity across precisions and executors, admission control,
//! graceful drain, and metrics. The dispatch policy itself (batch widths,
//! refresh ordering, the queue cap behind an in-flight job) is pinned
//! deterministically by the fake-worker tests in `src/server.rs`.

use dasp_core::DaspMatrix;
use dasp_fp16::{Scalar, F16};
use dasp_serve::{
    metrics, run_closed_loop, ClientSpec, LoadSpec, RejectReason, Reply, ServeConfig, ServeError,
    Server,
};
use dasp_simt::{Executor, NoProbe};
use dasp_solver::{power_iteration, PowerOptions};
use dasp_sparse::Csr;

/// A server configured for deterministic tests: one worker, the
/// sequential executor.
fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        executor: Executor::seq(),
        ..ServeConfig::default()
    }
}

fn cast_vec<S: Scalar>(v: &[f64]) -> Vec<S> {
    v.iter().map(|&x| S::from_f64(x)).collect()
}

/// Coalesced replies must be byte-for-byte what a direct solo `spmv`
/// computes — under concurrency, for every precision and executor.
fn coalesced_matches_direct<S: Scalar>(exec: Executor) {
    let csr: Csr<S> = dasp_matgen::uniform_random(160, 120, 7, 42).cast();
    let d = DaspMatrix::from_csr(&csr);
    let xs: Vec<Vec<S>> = (0..8)
        .map(|j| cast_vec(&dasp_matgen::dense_vector(csr.cols, j)))
        .collect();
    let expected: Vec<Vec<S>> = xs.iter().map(|x| d.spmv(x, &mut NoProbe)).collect();

    let server = Server::<S>::start(ServeConfig {
        workers: 2,
        executor: exec,
        ..ServeConfig::default()
    });
    server.register("m", &csr).unwrap();
    let clients: Vec<ClientSpec<S>> = (0..4)
        .map(|c| ClientSpec {
            tenant: format!("tenant-{c}"),
            matrix: "m".to_string(),
            xs: xs.clone(),
            expected: Some(expected.clone()),
        })
        .collect();
    let report = run_closed_loop(
        &server,
        &clients,
        LoadSpec {
            requests_per_client: 24,
        },
    );
    assert_eq!(report.requests, 96);
    assert_eq!(report.failures, 0);
    assert_eq!(
        report.mismatches, 0,
        "coalesced replies must be bit-identical to direct spmv"
    );
    server.shutdown();
}

#[test]
fn coalesced_bit_identity_f64() {
    coalesced_matches_direct::<f64>(Executor::seq());
    coalesced_matches_direct::<f64>(Executor::par());
}

#[test]
fn coalesced_bit_identity_f32() {
    coalesced_matches_direct::<f32>(Executor::seq());
    coalesced_matches_direct::<f32>(Executor::par());
}

#[test]
fn coalesced_bit_identity_f16() {
    coalesced_matches_direct::<F16>(Executor::seq());
    coalesced_matches_direct::<F16>(Executor::par());
}

/// SpMM requests dispatch solo at the caller's width; every output
/// column is bit-identical to the matching single-vector SpMV.
#[test]
fn spmm_requests_match_columnwise_spmv() {
    let csr = dasp_matgen::uniform_random(100, 90, 5, 9);
    let d = DaspMatrix::from_csr(&csr);
    let columns: Vec<Vec<f64>> = (0..5)
        .map(|j| dasp_matgen::dense_vector(csr.cols, 70 + j))
        .collect();
    let expected: Vec<Vec<f64>> = columns.iter().map(|c| d.spmv(c, &mut NoProbe)).collect();

    let server = Server::<f64>::start(test_config());
    server.register("m", &csr).unwrap();
    let got = server
        .handle()
        .spmm("t", "m", columns)
        .unwrap()
        .wait_columns()
        .unwrap();
    assert_eq!(got, expected);
    server.shutdown();
}

/// PageRank requests reproduce the direct power iteration exactly
/// (f64 resident matrix, identity conversions, bit-identical kernels).
#[test]
fn pagerank_matches_direct_power_iteration() {
    let csr = dasp_matgen::stencil2d(12, 12, 5, 5);
    let d = DaspMatrix::from_csr(&csr);
    let opts = PowerOptions {
        tol: 1e-10,
        max_iters: 2_000,
    };
    let direct = power_iteration(&d, opts).unwrap();

    let server = Server::<f64>::start(test_config());
    server.register("m", &csr).unwrap();
    let reply = server
        .handle()
        .pagerank("t", "m", opts)
        .unwrap()
        .wait()
        .unwrap();
    let Reply::Eigen(served) = reply else {
        panic!("expected an eigen reply");
    };
    assert_eq!(served.eigenvalue.to_bits(), direct.eigenvalue.to_bits());
    assert_eq!(served.eigenvector, direct.eigenvector);
    assert_eq!(served.iterations, direct.iterations);
    server.shutdown();
}

/// Admission control: unknown matrices, shape mismatches and non-finite
/// inputs reject deterministically without executing.
#[test]
fn admission_rejects_bad_requests() {
    let csr = dasp_matgen::banded(64, 2, 4, 1);
    let server = Server::<f64>::start(test_config());
    server.register("m", &csr).unwrap();
    let h = server.handle();

    let unknown = h.spmv("t", "nope", vec![0.0; 64]).unwrap().wait();
    assert_eq!(
        unknown,
        Err(ServeError::Rejected(RejectReason::UnknownMatrix))
    );

    let short = h.spmv("t", "m", vec![0.0; 3]).unwrap().wait();
    assert!(
        matches!(
            short,
            Err(ServeError::Rejected(RejectReason::BadShape { .. }))
        ),
        "got {short:?}"
    );

    let bad_refresh = h.refresh("t", "m", vec![1.0; 2]).unwrap().wait();
    assert!(matches!(
        bad_refresh,
        Err(ServeError::Rejected(RejectReason::BadShape { .. }))
    ));

    let mut x = dasp_matgen::dense_vector(csr.cols, 2);
    h.spmv("t", "m", x.clone()).unwrap().wait_vector().unwrap();
    x[9] = f64::NEG_INFINITY;
    let inf = h.spmv("t", "m", x).unwrap().wait();
    match inf {
        Err(ServeError::Rejected(RejectReason::NonFinite { detail })) => {
            assert_eq!(detail, "x[9] is -inf");
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.registry.counter(metrics::REJECTED), Some(4));
    assert_eq!(report.registry.counter(metrics::COMPLETED), Some(1));
}

/// Shutdown drains: every request accepted before shutdown still
/// executes and replies; the handle then refuses new work.
#[test]
fn shutdown_drains_accepted_requests() {
    let csr = dasp_matgen::uniform_random(80, 80, 4, 33);
    let d = DaspMatrix::from_csr(&csr);
    let xs: Vec<Vec<f64>> = (0..12)
        .map(|j| dasp_matgen::dense_vector(csr.cols, j))
        .collect();
    let expected: Vec<Vec<f64>> = xs.iter().map(|x| d.spmv(x, &mut NoProbe)).collect();

    let server = Server::<f64>::start(test_config());
    server.register("m", &csr).unwrap();
    let h = server.handle();
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| h.spmv("t", "m", x.clone()).unwrap())
        .collect();
    let report = server.shutdown();
    for (j, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait_vector().unwrap(), expected[j], "drained request {j}");
    }
    assert_eq!(report.registry.counter(metrics::COMPLETED), Some(12));
    assert_eq!(
        h.spmv("t", "m", xs[0].clone()).unwrap_err(),
        ServeError::Closed
    );
}

/// The serve config's plan-cache capacity is honored and evictions are
/// published through the server's registry.
#[test]
fn plan_cache_capacity_and_eviction_metric() {
    let a = dasp_matgen::banded(60, 2, 3, 1);
    let b = dasp_matgen::uniform_random(70, 70, 4, 2);
    let server = Server::<f64>::start(ServeConfig {
        plan_cache_cap: Some(1),
        ..test_config()
    });
    server.register("a", &a).unwrap();
    assert_eq!(
        server.registry().gauge("format.plan_cache.evictions"),
        Some(0.0)
    );
    server.register("b", &b).unwrap();
    assert_eq!(
        server.registry().gauge("format.plan_cache.evictions"),
        Some(1.0),
        "registering a second pattern must evict from a capacity-1 cache"
    );
    // Same pattern again: a cache hit, no analysis, no eviction.
    let info = server.register("b2", &b).unwrap();
    assert_eq!(info.nnz, b.vals.len());
    assert_eq!(server.registry().gauge("format.plan_cache.hits"), Some(1.0));
    server.shutdown();
}

/// Per-tenant counters and latency histograms appear under the tenant's
/// own metric names.
#[test]
fn per_tenant_metrics_are_recorded() {
    let csr = dasp_matgen::banded(48, 2, 3, 4);
    let server = Server::<f64>::start(ServeConfig::default());
    server.register("m", &csr).unwrap();
    let h = server.handle();
    let x = dasp_matgen::dense_vector(csr.cols, 0);
    for _ in 0..3 {
        h.spmv("alice", "m", x.clone())
            .unwrap()
            .wait_vector()
            .unwrap();
    }
    h.spmv("bob", "m", x.clone())
        .unwrap()
        .wait_vector()
        .unwrap();

    let report = server.shutdown();
    assert_eq!(
        report.registry.counter(&metrics::tenant_requests("alice")),
        Some(3)
    );
    assert_eq!(
        report.registry.counter(&metrics::tenant_requests("bob")),
        Some(1)
    );
    let alice = report
        .registry
        .histogram(&metrics::tenant_latency_us("alice"))
        .expect("alice latency histogram");
    assert_eq!(alice.count, 3);
    assert_eq!(report.registry.counter(metrics::ACCEPTED), Some(4));
}

/// With a device model configured, every batch records a modeled time,
/// and tracing collects `serve.batch` spans.
#[test]
fn modeled_time_and_traces_are_collected() {
    let csr = dasp_matgen::banded(72, 3, 4, 6);
    let server = Server::<f64>::start(ServeConfig {
        model: Some(dasp_perf::a100()),
        traced: true,
        ..test_config()
    });
    server.register("m", &csr).unwrap();
    let h = server.handle();
    let x = dasp_matgen::dense_vector(csr.cols, 1);
    let t0 = h.spmv("t", "m", x.clone()).unwrap();
    let t1 = h.spmv("t", "m", x).unwrap();
    t0.wait_vector().unwrap();
    t1.wait_vector().unwrap();

    // Whether the two coalesce depends on timing (the first dispatches at
    // once); either way each batch gets one modeled time and one span, and
    // the spans' widths add up to the two requests.
    let report = server.shutdown();
    let batches = report
        .registry
        .histogram(metrics::BATCH_WIDTH)
        .expect("batch width histogram")
        .count;
    let modeled = report
        .registry
        .histogram(metrics::MODELED_BATCH_US)
        .expect("modeled batch histogram");
    assert_eq!(modeled.count, batches);
    assert!(modeled.sum > 0.0);
    let widths: Vec<u64> = report
        .traces
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == "serve.batch")
        .map(|s| {
            let (_, w) = s.args.iter().find(|(k, _)| k == "width").expect("width");
            w.parse().expect("a width")
        })
        .collect();
    assert_eq!(widths.len() as u64, batches);
    assert_eq!(widths.iter().sum::<u64>(), 2);
}

/// Static verification gates admission: a corrupted matrix is refused
/// with `InvalidPlan` before residency, corrupt bytes are refused at
/// decode, and the dispatcher/workers keep serving other matrices
/// throughout.
#[test]
fn registration_rejects_invalid_plans_and_keeps_serving() {
    let good = dasp_matgen::banded(64, 2, 4, 1);
    let server = Server::<f64>::start(test_config());
    server.register("good", &good).unwrap();

    // A structurally broken matrix: its nnz no longer partitions across
    // the categories.
    let mut broken = DaspMatrix::from_csr(&dasp_matgen::banded(32, 1, 3, 2));
    broken.nnz += 1;
    let err = server.register_matrix("broken", broken).unwrap_err();
    match &err {
        ServeError::Rejected(RejectReason::InvalidPlan { detail }) => {
            assert!(detail.contains("nnz_partition"), "got: {detail}");
        }
        other => panic!("expected InvalidPlan, got {other:?}"),
    }

    // Corrupt serialized bytes bounce at decode with the same reason.
    let mut blob = Vec::new();
    DaspMatrix::from_csr(&dasp_matgen::banded(32, 1, 3, 2))
        .write_to(&mut blob)
        .unwrap();
    blob.truncate(blob.len() / 2);
    let err = server
        .register_serialized("trunc", &mut blob.as_slice())
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::Rejected(RejectReason::InvalidPlan { .. })
    ));

    // A pristine pre-built matrix passes the same gate.
    let mut blob = Vec::new();
    DaspMatrix::from_csr(&dasp_matgen::banded(32, 1, 3, 2))
        .write_to(&mut blob)
        .unwrap();
    let info = server
        .register_serialized("prebuilt", &mut blob.as_slice())
        .unwrap();
    assert_eq!(info.rows, 32);

    // The rejections never reached a queue or worker: requests against
    // resident matrices still serve, and "broken" was never registered.
    let h = server.handle();
    let x = dasp_matgen::dense_vector(good.cols, 3);
    h.spmv("t", "good", x).unwrap().wait_vector().unwrap();
    let miss = h.spmv("t", "broken", vec![0.0; 33]).unwrap().wait();
    assert_eq!(miss, Err(ServeError::Rejected(RejectReason::UnknownMatrix)));

    let report = server.shutdown();
    assert_eq!(report.registry.counter(metrics::MATRICES_REJECTED), Some(2));
    assert_eq!(
        report.registry.counter(metrics::MATRICES_REGISTERED),
        Some(2)
    );
}

/// Untrusted CSR registration: each malformed CSR and a `max_len` at the
/// short-row bound is refused with a typed reason before any conversion
/// (no panic), and a resident matrix keeps answering bit-identically.
#[test]
fn register_rejects_malformed_csr_and_keeps_serving() {
    let good = dasp_matgen::uniform_random(200, 100, 6, 5);
    let server = Server::<f64>::start(test_config());
    server.register("good", &good).unwrap();
    let h = server.handle();
    let x = dasp_matgen::dense_vector(good.cols, 9);
    let expected = DaspMatrix::from_csr(&good).spmv(&x, &mut NoProbe);
    let ask = |x: &[f64]| {
        h.spmv("t", "good", x.to_vec())
            .unwrap()
            .wait_vector()
            .unwrap()
    };
    let before = ask(&x);
    assert_eq!(before, expected);

    type Mutation = (&'static str, fn(&mut Csr<f64>));
    let mutations: [Mutation; 5] = [
        ("column >= cols", |c| c.col_idx[3] = c.cols as u32),
        ("short row_ptr", |c| {
            c.row_ptr.pop();
        }),
        ("row_ptr past nnz", |c| *c.row_ptr.last_mut().unwrap() += 1),
        ("short vals", |c| {
            c.vals.pop();
        }),
        ("decreasing row_ptr", |c| c.row_ptr.swap(10, 11)),
    ];
    for (what, mutate) in mutations {
        let mut bad = good.clone();
        mutate(&mut bad);
        match server.register("bad", &bad) {
            Err(ServeError::Rejected(RejectReason::InvalidCsr(_))) => {}
            other => panic!("{what}: expected InvalidCsr, got {other:?}"),
        }
    }
    let params = dasp_core::DaspParams {
        max_len: 4,
        ..Default::default()
    };
    match server.register_with_params("bad", &good, params) {
        Err(ServeError::Rejected(RejectReason::InvalidParams { detail })) => {
            assert!(detail.contains("max_len 4"), "{detail}");
        }
        other => panic!("max_len 4: expected InvalidParams, got {other:?}"),
    }

    assert_eq!(ask(&x), before, "the resident matrix must answer unchanged");
    let miss = h.spmv("t", "bad", x.clone()).unwrap().wait();
    assert_eq!(miss, Err(ServeError::Rejected(RejectReason::UnknownMatrix)));
    let report = server.shutdown();
    assert_eq!(report.registry.counter(metrics::MATRICES_REJECTED), Some(6));
    assert_eq!(
        report.registry.counter(metrics::MATRICES_REGISTERED),
        Some(1)
    );
}
