//! The metric namespace is documented in one place, DESIGN.md's Metrics
//! table. This test drives a small server through an SpMV, an SpMM and a
//! refresh, exports a plan cache into the same registry, and checks that
//! every metric name the registry holds falls under a prefix the table
//! lists.

use dasp_core::{DaspMatrix, PlanCache};
use dasp_serve::{ServeConfig, Server};
use dasp_simt::Executor;

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// The first-column prefixes of the Metrics table, one pattern each.
fn documented_prefixes() -> Vec<String> {
    let table = DESIGN
        .split_once("Metrics (registry keys):")
        .expect("DESIGN.md has a Metrics table")
        .1;
    let rows = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2); // header and separator
    let mut prefixes = Vec::new();
    for row in rows {
        let cell = row.split('|').nth(1).expect("a first cell");
        prefixes.extend(cell.split('`').skip(1).step_by(2).map(str::to_string));
    }
    prefixes
}

/// Whether `name` falls under `pattern`, a dotted prefix whose segments
/// are literals, `<placeholder>` (any one segment) or `{a,b}` (one of
/// the listed segments), ending in `*` (one or more further segments).
fn falls_under(name: &str, pattern: &str) -> bool {
    let want: Vec<&str> = pattern.split('.').collect();
    let (head, last) = want.split_at(want.len() - 1);
    assert_eq!(last, ["*"], "prefix {pattern} must end in .*");
    let got: Vec<&str> = name.split('.').collect();
    got.len() > head.len()
        && head.iter().zip(&got).all(|(w, g)| {
            if w.starts_with('<') && w.ends_with('>') {
                true
            } else if let Some(alts) = w.strip_prefix('{').and_then(|w| w.strip_suffix('}')) {
                alts.split(',').any(|a| a == *g)
            } else {
                w == g
            }
        })
}

#[test]
fn the_table_parses_and_the_matcher_matches() {
    let prefixes = documented_prefixes();
    for p in ["serve.*", "format.plan_cache.*", "solver.{cg,bicgstab}.*"] {
        assert!(prefixes.iter().any(|q| q == p), "{p} in {prefixes:?}");
    }
    assert!(falls_under(
        "solver.cg.iterations",
        "solver.{cg,bicgstab}.*"
    ));
    assert!(!falls_under(
        "solver.gmres.iterations",
        "solver.{cg,bicgstab}.*"
    ));
    assert!(falls_under("spmv.dasp.gflops", "spmv.<method>.*"));
    assert!(!falls_under("serve", "serve.*"));
}

#[test]
fn every_served_metric_is_documented() {
    let csr = dasp_matgen::banded(96, 3, 5, 7);
    let server = Server::<f64>::start(ServeConfig {
        workers: 1,
        executor: Executor::seq(),
        ..ServeConfig::default()
    });
    server.register("m", &csr).unwrap();
    let h = server.handle();
    let x = dasp_matgen::dense_vector(csr.cols, 1);
    h.spmv("tenant-a", "m", x.clone()).unwrap().wait().unwrap();
    h.spmm("tenant-b", "m", vec![x.clone(), x])
        .unwrap()
        .wait()
        .unwrap();
    let doubled: Vec<f64> = csr.vals.iter().map(|v| v * 2.0).collect();
    h.refresh("tenant-a", "m", doubled).unwrap().wait().unwrap();

    let cache = PlanCache::new();
    let _ = DaspMatrix::from_csr_cached(&csr, &cache);
    cache.export_metrics(server.registry());
    let report = server.shutdown();

    let prefixes = documented_prefixes();
    let names: Vec<String> = report
        .registry
        .snapshot()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for name in [
        "serve.requests.completed",
        "serve.refreshes",
        "format.plan_cache.evictions",
    ] {
        assert!(names.iter().any(|n| n == name), "{name} in {names:?}");
    }
    for name in &names {
        assert!(
            prefixes.iter().any(|p| falls_under(name, p)),
            "metric {name} falls under no prefix of DESIGN.md's Metrics table {prefixes:?}"
        );
    }
}
