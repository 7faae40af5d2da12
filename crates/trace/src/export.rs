//! Exporters: Chrome Trace Event Format for spans, JSON and CSV for the
//! metrics registry.

use dasp_simt::KernelStats;

use crate::json::{escape_json, fmt_f64};
use crate::registry::{MetricValue, Registry};
use crate::span::Trace;

/// The `(name, value)` pairs of a [`KernelStats`], in declaration order.
/// Shared by every exporter so field naming stays consistent across the
/// Chrome trace `args`, registry JSON, and CSV.
pub(crate) fn stats_fields(s: &KernelStats) -> [(&'static str, u64); 16] {
    [
        ("bytes_val", s.bytes_val),
        ("bytes_idx", s.bytes_idx),
        ("bytes_meta", s.bytes_meta),
        ("bytes_y", s.bytes_y),
        ("x_requests", s.x_requests),
        ("x_hits", s.x_hits),
        ("x_misses", s.x_misses),
        ("bytes_x_miss", s.bytes_x_miss),
        ("mma_ops", s.mma_ops),
        ("fma_ops", s.fma_ops),
        ("shfl_ops", s.shfl_ops),
        ("warps", s.warps),
        ("blocks", s.blocks),
        ("launches", s.launches),
        ("divergent_regions", s.divergent_regions),
        ("inactive_lanes", s.inactive_lanes),
    ]
}

/// Serializes a [`Trace`] to the Chrome Trace Event Format (the JSON
/// object form): one `"ph": "X"` complete event per span, with the span's
/// [`KernelStats`] delta and string args flattened into the event `args`.
///
/// Non-empty traces open with `"ph": "M"` metadata events — a
/// `process_name` for the process and one `thread_name`/`thread_sort_index`
/// pair per logical thread appearing in the trace — so spans recorded on
/// executor shard threads (spawned as `dasp-shard-N`) group under named
/// tracks in trace viewers instead of anonymous tids. Tids are listed in
/// ascending order, keeping the export deterministic for a given trace.
///
/// The output opens directly in Perfetto or `chrome://tracing`. Span ids
/// and parents are preserved under `args.span_id` / `args.parent_id` so
/// the hierarchy survives even in viewers that only use ts/dur nesting.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    if !trace.spans.is_empty() {
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"dasp\"}}",
        );
        first = false;
        let tids: std::collections::BTreeSet<u64> = trace.spans.iter().map(|s| s.tid).collect();
        for tid in tids {
            out.push_str(&format!(
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}\
                 ,{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"sort_index\":{tid}}}}}",
                escape_json(&crate::span::thread_name(tid)),
            ));
        }
    }
    for s in &trace.spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"cat\":\"dasp\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"span_id\":{}",
            escape_json(&s.name),
            s.tid,
            s.start_us,
            s.dur_us,
            s.id
        ));
        if let Some(p) = s.parent {
            out.push_str(&format!(",\"parent_id\":{p}"));
        }
        if let Some(st) = &s.stats {
            for (k, v) in stats_fields(st) {
                out.push_str(&format!(",\"{k}\":{v}"));
            }
        }
        for (k, v) in &s.args {
            out.push_str(&format!(",\"{}\":\"{}\"", escape_json(k), escape_json(v)));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Serializes a [`Registry`] snapshot to a JSON object keyed by metric
/// name. Counters become integers, gauges numbers, histograms objects
/// with `bounds`/`counts`/`count`/`sum`/`min`/`max`/`mean` plus the
/// estimated `p50`/`p90`/`p99` quantiles
/// ([`Histogram::quantile`](crate::registry::Histogram::quantile)).
///
/// The export is byte-stable: identical registry contents produce
/// identical bytes regardless of metric registration order (snapshots are
/// name-ordered), so consecutive dumps diff cleanly.
pub fn registry_to_json(registry: &Registry) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (name, value) in registry.snapshot() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":", escape_json(&name)));
        match value {
            MetricValue::Counter(c) => {
                out.push_str(&format!("{{\"type\":\"counter\",\"value\":{c}}}"))
            }
            MetricValue::Gauge(g) => {
                out.push_str(&format!("{{\"type\":\"gauge\",\"value\":{}}}", fmt_f64(g)))
            }
            MetricValue::Histogram(h) => {
                let bounds: Vec<String> = h.bounds.iter().map(|b| fmt_f64(*b)).collect();
                let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
                out.push_str(&format!(
                    "{{\"type\":\"histogram\",\"bounds\":[{}],\"counts\":[{}],\
                     \"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
                     \"p50\":{},\"p90\":{},\"p99\":{}}}",
                    bounds.join(","),
                    counts.join(","),
                    h.count,
                    fmt_f64(h.sum),
                    fmt_f64(if h.count == 0 { 0.0 } else { h.min }),
                    fmt_f64(if h.count == 0 { 0.0 } else { h.max }),
                    fmt_f64(h.mean()),
                    fmt_f64(h.quantile(0.50)),
                    fmt_f64(h.quantile(0.90)),
                    fmt_f64(h.quantile(0.99))
                ));
            }
        }
    }
    out.push('}');
    out
}

/// Quotes one CSV field per RFC 4180 when it needs it: fields containing
/// commas, double quotes, or newlines are wrapped in double quotes with
/// inner quotes doubled; everything else passes through unchanged. The
/// workspace's one CSV escaper, as [`escape_json`] is its JSON one.
pub fn escape_csv(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes a [`Registry`] snapshot to CSV with header
/// `metric,type,value,detail`. Counter/gauge rows carry the value;
/// histogram rows carry the observation count in `value` and a
/// `bound<=B:N`-per-bucket summary plus sum/min/max/mean and the
/// p50/p90/p99 quantile estimates in `detail`. Like the JSON export, the
/// bytes depend only on registry contents, never on registration order.
pub fn registry_to_csv(registry: &Registry) -> String {
    let mut out = String::from("metric,type,value,detail\n");
    for (name, value) in registry.snapshot() {
        match value {
            MetricValue::Counter(c) => {
                out.push_str(&format!("{},counter,{c},\n", escape_csv(&name)));
            }
            MetricValue::Gauge(g) => {
                out.push_str(&format!("{},gauge,{},\n", escape_csv(&name), fmt_f64(g)));
            }
            MetricValue::Histogram(h) => {
                let mut detail: Vec<String> = h
                    .bounds
                    .iter()
                    .zip(&h.counts)
                    .map(|(b, c)| format!("le{}:{c}", fmt_f64(*b)))
                    .collect();
                detail.push(format!("inf:{}", h.counts[h.bounds.len()]));
                detail.push(format!("sum:{}", fmt_f64(h.sum)));
                detail.push(format!(
                    "min:{}",
                    fmt_f64(if h.count == 0 { 0.0 } else { h.min })
                ));
                detail.push(format!(
                    "max:{}",
                    fmt_f64(if h.count == 0 { 0.0 } else { h.max })
                ));
                detail.push(format!("mean:{}", fmt_f64(h.mean())));
                detail.push(format!("p50:{}", fmt_f64(h.quantile(0.50))));
                detail.push(format!("p90:{}", fmt_f64(h.quantile(0.90))));
                detail.push(format!("p99:{}", fmt_f64(h.quantile(0.99))));
                out.push_str(&format!(
                    "{},histogram,{},{}\n",
                    escape_csv(&name),
                    h.count,
                    escape_csv(&detail.join(","))
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use crate::span::Tracer;

    fn sample_trace() -> Trace {
        let tracer = Tracer::new();
        {
            let root = tracer.span("spmv");
            let mut k = root.child("spmv.kernel.long");
            k.set_stats(KernelStats {
                bytes_val: 64,
                mma_ops: 2,
                ..Default::default()
            });
            k.add_arg("note", "has \"quotes\", commas\nand newlines");
        }
        tracer.take_trace()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let json = chrome_trace_json(&sample_trace());
        validate_json(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"spmv.kernel.long\""));
        assert!(json.contains("\"mma_ops\":2"));
        assert!(json.contains("\"parent_id\":"));
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let json = chrome_trace_json(&Trace::default());
        validate_json(&json).unwrap();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn registry_json_is_valid_and_typed() {
        let r = Registry::new();
        r.counter_add("spmv.runs", 2);
        r.gauge_set("spmv.x_hit_rate", 0.875);
        r.observe("warp.nnz", 12.0, &[8.0, 32.0]);
        let json = registry_to_json(&r);
        validate_json(&json).expect("registry JSON must be valid");
        assert!(json.contains("\"spmv.runs\":{\"type\":\"counter\",\"value\":2}"));
        assert!(json.contains("\"type\":\"gauge\",\"value\":0.875"));
        assert!(json.contains("\"type\":\"histogram\""));
        assert!(json.contains("\"counts\":[0,1,0]"));
        // Quantiles surface next to the classic summary stats; a
        // single-observation histogram pins all of them to the value.
        assert!(json.contains("\"p50\":12,\"p90\":12,\"p99\":12"));
    }

    #[test]
    fn registry_exports_are_byte_stable_across_registration_order() {
        let fill = |names: &[&str]| {
            let r = Registry::new();
            for n in names {
                match *n {
                    "c" => r.counter_add("spmv.runs", 1),
                    "g" => r.gauge_set("spmv.gflops", 2.5),
                    _ => r.observe("warp.nnz", 3.0, &[4.0]),
                }
            }
            r
        };
        let a = fill(&["c", "g", "h"]);
        let b = fill(&["h", "c", "g"]);
        assert_eq!(registry_to_json(&a), registry_to_json(&b));
        assert_eq!(registry_to_csv(&a), registry_to_csv(&b));
    }

    #[test]
    fn chrome_trace_names_process_and_threads() {
        // A span recorded on an explicitly named thread must surface that
        // name in a thread_name metadata event — the same path that names
        // the executor's dasp-shard-N workers.
        let tracer = Tracer::new();
        std::thread::Builder::new()
            .name("dasp-shard-test".to_string())
            .spawn({
                let tracer = tracer.clone();
                move || drop(tracer.span("shard.work"))
            })
            .expect("spawn named thread")
            .join()
            .expect("join named thread");
        drop(tracer.span("main.work"));
        let json = chrome_trace_json(&tracer.take_trace());
        validate_json(&json).expect("trace with metadata must be valid JSON");
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"args\":{\"name\":\"dasp\"}"));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"dasp-shard-test\""));
        assert!(json.contains("\"name\":\"thread_sort_index\""));
        // Metadata precedes the first complete event.
        assert!(json.find("\"ph\":\"M\"").unwrap() < json.find("\"ph\":\"X\"").unwrap());
    }

    #[test]
    fn registry_csv_has_header_and_rows() {
        let r = Registry::new();
        r.counter_add("a,b", 1); // comma in name forces quoting
        r.gauge_set("g", 1.5);
        r.observe("h", 3.0, &[4.0]);
        let csv = registry_to_csv(&r);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("metric,type,value,detail"));
        assert!(csv.contains("\"a,b\",counter,1,"));
        assert!(csv.contains("g,gauge,1.5,"));
        assert!(csv.contains("h,histogram,1,"));
        assert!(csv.contains("le4:1"));
    }
}
