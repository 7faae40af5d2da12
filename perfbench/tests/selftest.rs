//! Self-test of the benchmark at tiny sizes: every workload checks clean,
//! modeled numbers repeat exactly, the printed metric names are the ones
//! `BENCHMARK.json` declares, and a planted wrong reply is counted.

use dasp_observatory::Json;
use dasp_perfbench::serve::{MIN_REFRESHES, REFRESH_EVERY};
use dasp_perfbench::{run, shortest_episode_refreshes, Outcome, RunConfig, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        scale: 0.02,
        setup_reps: 1,
        ..RunConfig::new(workload, seed, 0.6, trace)
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let mut out: Vec<(String, String)> = json
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.req_str("name").expect("name").to_string(),
                m.req_str("unit").expect("unit").to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

fn printed(o: &Outcome) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = o
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    out.sort();
    out
}

#[test]
fn every_workload_checks_clean() {
    for w in Workload::ALL {
        let o = run(&tiny(w, 3, false));
        assert!(o.attempted > 0, "{}: nothing checked", w.name());
        assert_eq!(
            o.failed,
            0,
            "{}: {} of {} failed",
            w.name(),
            o.failed,
            o.attempted
        );
        assert_eq!(o.metric("ok_share"), Some(1.0), "{}", w.name());
        assert!(
            o.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{o:?}"
        );
    }
}

#[test]
fn modeled_numbers_repeat_exactly() {
    let bits = |o: &Outcome, prefix: &str| -> Vec<(String, u64)> {
        o.metrics
            .iter()
            .filter(|m| m.name.starts_with(prefix))
            .map(|m| (m.name.to_string(), m.value.to_bits()))
            .collect()
    };
    let a = run(&tiny(Workload::Simulate, 5, false));
    let b = run(&tiny(Workload::Simulate, 5, false));
    assert_eq!(bits(&a, "modeled_gflops"), bits(&b, "modeled_gflops"));
    assert_eq!(bits(&a, "modeled_gflops").len(), 2);
    let a = run(&tiny(Workload::Simulate, 5, true));
    let b = run(&tiny(Workload::Simulate, 5, true));
    assert_eq!(bits(&a, "model."), bits(&b, "model."));
    assert_eq!(bits(&a, "model.").len(), 7);
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let plain = run(&tiny(Workload::Serve, 7, false));
    assert_eq!(printed(&plain), declared("end_to_end"));
    let traced = run(&tiny(Workload::Ingest, 7, true));
    assert_eq!(printed(&traced), declared("per_layer"));
    // Serve's share is its stage's wall time, not the sum of its
    // concurrent request spans, so it stays a minority on ingest.
    let serve = traced
        .metric("layer.serve.self_share")
        .expect("serve share");
    assert!(serve < 0.5, "serve share {serve} on ingest");
}

#[test]
fn refresh_share_is_the_lowest_that_fills_every_episode() {
    let secs = benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(shortest_episode_refreshes(secs, REFRESH_EVERY) >= MIN_REFRESHES);
    assert!(shortest_episode_refreshes(secs, REFRESH_EVERY + 1) < MIN_REFRESHES);
}

#[test]
fn planted_wrong_reply_is_counted_as_failed() {
    let cfg = RunConfig {
        plant_wrong_reply: true,
        ..tiny(Workload::Serve, 9, false)
    };
    let o = run(&cfg);
    assert!(o.failed > 0, "a wrong expected reply went unnoticed");
    assert!(!o.correct());
    assert!(o.metric("ok_share").is_some_and(|s| s < 1.0));
}

#[test]
fn host_time_is_read_at_the_reference_speed() {
    use dasp_perfbench::clock::{median_rate, Sampled};
    // The same unit timed in a spell twice as slow as the reference and
    // in one at the reference speed reads the same rate.
    let mut slow = Sampled {
        work: 100,
        ..Sampled::default()
    };
    slow.push(2.0, 2.0);
    let mut fast = Sampled {
        work: 100,
        ..Sampled::default()
    };
    fast.push(1.0, 1.0);
    assert_eq!(median_rate(&[slow]), 100.0);
    assert_eq!(median_rate(&[fast]), 100.0);
}
