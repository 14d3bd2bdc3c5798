//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload (see `workloads.rs` and `perfbench/DESIGN.md`) on
//! inputs generated from the seed, measures for the given seconds, checks
//! the outputs and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics of untraced repetitions; `--trace 1` the per-layer
//! metrics of a traced run, whose spans are written to
//! `perfbench/out/trace-<workload>.jsonl`. `--tiny` shrinks every input
//! (the smoke test). Exits non-zero when any operation or check failed.

mod inputs;
mod layers;
mod probe;
mod procs;
mod steal;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

/// Bytes per megabyte in every `*_mb` metric.
pub const MB: f64 = 1024.0 * 1024.0;

/// Workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "star-local",
    "highcard-remote",
    "serve-predict",
    "durable-paged",
];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("iter_ms_p50", "ms"),
    ("train_rmse", "target"),
    ("peak_rss_mb", "MB"),
    ("predict1_p50_ms", "ms"),
    ("predict1024_p50_ms", "ms"),
    ("scores_per_s", "1/s"),
];

/// Per-layer metrics: name and unit. Which end-to-end metric each should
/// move, and on which workload, is recorded in `perfbench/DESIGN.md`.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("trainer.self_ms", "ms"),
    ("backend.message.calls", "count"),
    ("backend.message.ms", "ms"),
    ("backend.split.calls", "count"),
    ("backend.split.ms", "ms"),
    ("backend.update.calls", "count"),
    ("backend.update.ms", "ms"),
    ("backend.other.calls", "count"),
    ("backend.other.ms", "ms"),
    ("backend.load.ms", "ms"),
    ("backend.predict.calls", "count"),
    ("backend.predict.ms", "ms"),
    ("sqlparse.print_us_per_stmt", "us"),
    ("sqlparse.parse_us_per_stmt", "us"),
    ("sqlparse.bytes_per_stmt", "bytes"),
    ("engine.statements", "count"),
    ("engine.queries", "count"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.pool_evictions", "count"),
    ("storage.spilled_mb", "MB"),
    ("storage.page_file_mb", "MB"),
    ("wal.mb", "MB"),
    ("wal.records", "count"),
    ("checkpoint.count", "count"),
    ("checkpoint.mb", "MB"),
    ("engine.open_ms", "ms"),
    ("sharded.self_ms", "ms"),
    ("sharded.fanout_selects", "count"),
    ("sharded.broadcasts", "count"),
    ("sharded.pushdown_splits", "count"),
    ("sharded.split_rounds", "count"),
    ("sharded.rows_shipped", "count"),
    ("remote.execute.calls", "count"),
    ("remote.execute.ms", "ms"),
    ("remote.split_open.calls", "count"),
    ("remote.split_open.ms", "ms"),
    ("remote.split_round.calls", "count"),
    ("remote.split_round.ms", "ms"),
    ("remote.other.calls", "count"),
    ("remote.other.ms", "ms"),
    ("remote.predict.calls", "count"),
    ("remote.predict.ms", "ms"),
    ("remote.bytes_sent_mb", "MB"),
    ("remote.bytes_recv_mb", "MB"),
    ("remote.split_bytes_recv_mb", "MB"),
    ("serve.merge_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("host.probe_ms", "ms"),
    ("predict1_p99_ms", "ms"),
    ("predict1024_p99_ms", "ms"),
    ("server_rss_mb", "MB"),
    ("reopen_s", "s"),
    ("write_amp", "ratio"),
    ("error_rate", "ratio"),
];

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.trace = value()? == "1",
            "--tiny" => opts.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            opts.workload
        ));
    }
    Ok(opts)
}

/// Where the benchmark writes traces and scratch databases: inside its
/// own directory of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for no samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() as f64 * q).ceil() as usize).clamp(1, s.len()) - 1]
}

/// The 99th percentile, which needs 1000 samples to leave ten beyond it;
/// with fewer, the highest percentile that still leaves ten beyond it.
pub fn p99(v: &[f64]) -> f64 {
    let q = 1.0 - 10.0 / v.len().max(1) as f64;
    percentile(v, q.clamp(0.5, 0.99))
}

/// End-to-end metrics of the untraced samples the host disturbed least
/// (see `steal.rs`), request latencies at the reference host speed (see
/// `probe.rs`).
fn end_to_end(m: &workloads::Measure) -> Vec<(&'static str, f64)> {
    let p50_1 = median(&m.calm_latencies(1, true));
    let p50_1024 = median(&m.calm_latencies(1024, true));
    let iter_ms: Vec<f64> = probe::calm_secs(&m.iters, true)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    vec![
        ("setup_s", median(&probe::calm_wall_secs(&m.setup_s))),
        ("train_s", median(&probe::calm_secs(&m.train_s, true))),
        ("iter_ms_p50", median(&iter_ms)),
        ("train_rmse", m.train_rmse),
        ("peak_rss_mb", procs::self_peak_rss_mb()),
        ("predict1_p50_ms", p50_1),
        ("predict1024_p50_ms", p50_1024),
        // The closed loop alternates the two batch sizes: keys per pair of
        // requests over the median pair's time.
        ("scores_per_s", 1025.0 / (p50_1 + p50_1024).max(1e-12) * 1e3),
    ]
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let m = match workloads::run(&opts) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    let (table, metrics): (&[(&str, &str)], _) = if opts.trace {
        let path = out_dir().join(format!("trace-{}.jsonl", opts.workload));
        if let Err(e) = m.tracer.as_ref().expect("traced run").write_spans(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        (&PER_LAYER, layers::per_layer(&m))
    } else {
        (&END_TO_END, end_to_end(&m))
    };
    let stolen = |v: &[probe::Timed]| v.iter().filter(|t| t.sample.steal > 0).count();
    eprintln!(
        "{} seed {}: {} set-ups, {} untraced + {} traced training runs, {} scoring requests \
         in {} slices; samples with steal: {} set-ups, {} training runs, {} slices",
        opts.workload,
        opts.seed,
        m.setup_s.len(),
        m.train_s.len(),
        m.traced_train_s.len(),
        m.requests.len(),
        m.slices.len(),
        stolen(&m.setup_s),
        stolen(&m.train_s),
        stolen(&m.slices),
    );
    let raw: Vec<String> = m
        .train_s
        .iter()
        .map(|t| {
            format!(
                "{:.3}s/{}/{:.3}ms",
                t.sample.secs, t.sample.steal, t.probe_ms
            )
        })
        .collect();
    eprintln!(
        "  training runs (seconds/steal ticks/probe): {}",
        raw.join(" ")
    );
    let reps: Vec<String> = m.rep_secs.iter().map(|s| format!("{s:.2}s")).collect();
    eprintln!("  repetitions: {}", reps.join(" "));
    eprintln!(
        "  host probe: median {:.3} ms over {} slices; times are reported at a {} ms probe",
        median(&m.slices.iter().map(|s| s.probe_ms).collect::<Vec<_>>()),
        m.slices.len(),
        probe::REFERENCE_MS,
    );
    for scale in [false, true] {
        eprintln!(
            "  {}: train_s {:.6} predict1_p50_ms {:.6} predict1024_p50_ms {:.6}",
            if scale { "scaled" } else { "unscaled" },
            median(&probe::calm_secs(&m.train_s, scale)),
            median(&m.calm_latencies(1, scale)),
            median(&m.calm_latencies(1024, scale)),
        );
    }
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, v)| v);
        eprintln!("  {name:<28} {value:>16.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        );
    }
    let correct = m.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        m.attempted.max(1),
        m.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A JSON number with every digit of the measurement (non-finite values
/// become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
