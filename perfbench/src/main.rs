//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|simulate|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the run's context (seed, held-out seed, git revision, CPU
//! count and every `DASP_*` variable). A traced run also writes a Chrome
//! trace and a hot-region table under `.bench_out/`.

use std::process::ExitCode;

use dasp_perfbench::{run, RunConfig, Workload, HELD_OUT_SEED};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <ingest|simulate|serve> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag needs a valid value");
    };
    if std::env::var_os("DASP_SANITIZE").is_some() {
        eprintln!("perfbench: refusing to run with DASP_SANITIZE set; it reroutes every kernel");
        return ExitCode::from(2);
    }

    keep_freed_memory();
    println!("# context {}", context(workload, seed, seconds, trace));
    let out = run(&RunConfig::new(workload, seed, seconds, trace));
    if let Some(bad) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} was not measured", bad.name);
        return ExitCode::FAILURE;
    }
    if let (Some(chrome), Some(hot)) = (&out.chrome_trace, &out.hot_table) {
        let dir = format!(".bench_out/{}-seed{seed}", workload.name());
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(format!("{dir}/trace.json"), chrome))
            .and_then(|()| std::fs::write(format!("{dir}/hot.txt"), hot));
        if let Err(e) = written {
            eprintln!("perfbench: writing {dir}: {e}");
            return ExitCode::FAILURE;
        }
        eprint!("{hot}");
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

/// Tells glibc's allocator to keep freed memory mapped: serve blocks up
/// to 32 MB from the heap instead of fresh mappings, and never trim it.
/// Ingest allocates and frees megabytes per matrix; by default every
/// round trip goes back to the kernel, and the page faults on the next
/// first touch (about a tenth of a run's time, handled by the hypervisor
/// at a speed that varies from minute to minute) would be measured as the
/// program's. The allocations themselves are still timed.
fn keep_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: plain integer settings, made before any other thread runs.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    if !ok {
        eprintln!("perfbench: mallopt refused; freed memory goes back to the kernel");
    }
}

/// The run's context as a JSON object.
fn context(workload: Workload, seed: u64, seconds: f64, trace: bool) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DASP_"))
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    env.sort();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {seconds}, \"trace\": {trace}, \"git_rev\": \"{rev}\", \"nproc\": {nproc}, \"dasp_env\": {{{}}}}}",
        workload.name(),
        env.join(", ")
    )
}
