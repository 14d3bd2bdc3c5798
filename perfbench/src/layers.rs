//! Per-layer metrics of a traced run: span self times, the program's own
//! counters sampled around each traced training run, and a replay of the
//! captured statement stream through the SQL printer and parser.
//!
//! Units of work: train-phase layers are reported per training run,
//! scoring-phase layers (`backend.predict`, `remote.predict`,
//! `serve.merge`) per scoring request.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use joinboost::backend::{BackendStats, SqlBackend};
use joinboost_engine::{BufferPoolStats, Database};
use joinboost_sql::parse_statement;

use crate::probe::calm_secs;
use crate::trace::{covered_ns, span_class, Captured, Class, Span};
use crate::workloads::Measure;
use crate::{median, p99, MB};

/// The program's counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub backend: BackendStats,
    pub wal_bytes: u64,
    pub wal_records: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub pool: BufferPoolStats,
}

impl Counters {
    pub fn of_backend(b: &dyn SqlBackend) -> Counters {
        Counters {
            backend: b.stats(),
            ..Counters::default()
        }
    }

    pub fn of_engine(db: &Database) -> Counters {
        let s = db.stats();
        Counters {
            backend: SqlBackend::stats(db),
            wal_bytes: s.wal_bytes,
            wal_records: s.wal_records,
            checkpoints: s.checkpoints,
            checkpoint_bytes: s.checkpoint_bytes_written,
            pool: db.bufferpool_stats().unwrap_or_default(),
        }
    }

    /// Counter growth since `before`.
    pub fn minus(&self, before: &Counters) -> Counters {
        let (a, b) = (&self.backend, &before.backend);
        Counters {
            backend: BackendStats {
                statements: a.statements - b.statements,
                selects: a.selects - b.selects,
                fanout_selects: a.fanout_selects - b.fanout_selects,
                broadcast_statements: a.broadcast_statements - b.broadcast_statements,
                replicated_statements: a.replicated_statements - b.replicated_statements,
                coordinator_selects: a.coordinator_selects - b.coordinator_selects,
                pushdown_splits: a.pushdown_splits - b.pushdown_splits,
                split_rounds: a.split_rounds - b.split_rounds,
                rows_shipped: a.rows_shipped - b.rows_shipped,
                text_round_trips: a.text_round_trips - b.text_round_trips,
                bytes_sent: a.bytes_sent - b.bytes_sent,
                bytes_received: a.bytes_received - b.bytes_received,
                split_bytes_sent: a.split_bytes_sent - b.split_bytes_sent,
                split_bytes_received: a.split_bytes_received - b.split_bytes_received,
            },
            wal_bytes: self.wal_bytes - before.wal_bytes,
            wal_records: self.wal_records - before.wal_records,
            checkpoints: self.checkpoints - before.checkpoints,
            checkpoint_bytes: self.checkpoint_bytes - before.checkpoint_bytes,
            pool: BufferPoolStats {
                hits: self.pool.hits - before.pool.hits,
                misses: self.pool.misses - before.pool.misses,
                evictions: self.pool.evictions - before.pool.evictions,
                spilled_bytes: self.pool.spilled_bytes - before.pool.spilled_bytes,
            },
        }
    }
}

/// Counter growth over one traced training run.
pub struct TrainSample {
    pub delta: Counters,
}

/// Calls and summed milliseconds of one kind of span.
#[derive(Default, Clone, Copy)]
struct Tally {
    calls: f64,
    ms: f64,
}

impl Tally {
    fn add(&mut self, s: &Span) {
        self.calls += 1.0;
        self.ms += s.ms();
    }

    fn per(self, n: f64) -> Tally {
        Tally {
            calls: self.calls / n,
            ms: self.ms / n,
        }
    }
}

/// Every per-layer metric of a traced run, in `(name, value)` form; units
/// come from the metric table in `main.rs`.
pub fn per_layer(m: &Measure) -> Vec<(&'static str, f64)> {
    let tracer = m.tracer.as_ref().expect("a traced run");
    let spans = tracer.spans();
    let statements = tracer.take_statements();
    let classes: Vec<Class> = statements
        .iter()
        .map(|c| match c {
            Captured::Ast(s) => Class::of(s),
            Captured::Text(t) => parse_statement(t).map_or(Class::Other, |s| Class::of(&s)),
        })
        .collect();
    let is_layer = |s: &Span| s.name.starts_with("backend.") || s.name.starts_with("remote.");
    let iv = |pred: &dyn Fn(&Span) -> bool| -> Vec<(u64, u64)> {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    };
    let backend_iv = iv(&|s| s.name.starts_with("backend."));
    let remote_iv = iv(&|s| s.name.starts_with("remote."));
    let trains: Vec<&Span> = spans.iter().filter(|s| s.name == "train").collect();
    let n_train = trains.len().max(1) as f64;
    let request_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.id)
        .collect();
    let requests = request_ids.len().max(1) as f64;
    let parent_of: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    // Caused by a scoring request, directly or through the backend call
    // that fanned it out (the oracle comparison after scoring is not).
    let in_request = |s: &Span| {
        request_ids.contains(&s.parent)
            || parent_of
                .get(&s.parent)
                .is_some_and(|p| request_ids.contains(p))
    };
    let in_train = |s: &Span| {
        trains
            .iter()
            .any(|t| s.start_ns >= t.start_ns && s.end_ns <= t.end_ns)
    };

    // Self times inside the training runs.
    let (mut trainer_self, mut sharded_self) = (0u64, 0u64);
    for t in &trains {
        let backend = covered_ns(t.start_ns, t.end_ns, &backend_iv);
        trainer_self += (t.end_ns - t.start_ns) - backend;
        if !remote_iv.is_empty() {
            sharded_self += backend.saturating_sub(covered_ns(t.start_ns, t.end_ns, &remote_iv));
        }
    }

    let mut class_tally = [Tally::default(); 4];
    let [mut load, mut predict, mut merge] = [Tally::default(); 3];
    let mut remote = [Tally::default(); 5];
    const REMOTE: [&str; 5] = [
        "remote.execute",
        "remote.split_open",
        "remote.split_round",
        "remote.other",
        "remote.predict",
    ];
    for s in &spans {
        match s.name {
            "backend.load" => load.add(s),
            "backend.predict" if in_request(s) => predict.add(s),
            "serve.merge" if in_request(s) => merge.add(s),
            "backend.stmt" | "backend.other" if in_train(s) => {
                class_tally[span_class(s, &classes).unwrap_or(Class::Other) as usize].add(s);
            }
            name if name.starts_with("remote.") => {
                let i = REMOTE
                    .iter()
                    .position(|&r| r == name)
                    .expect("a remote span");
                if (name == "remote.predict" && in_request(s)) || in_train(s) {
                    remote[i].add(s);
                }
            }
            _ => {}
        }
    }
    let class_tally = class_tally.map(|t| t.per(n_train));
    let remote_train = [remote[0], remote[1], remote[2], remote[3]].map(|t| t.per(n_train));
    let remote_predict = remote[4].per(requests);
    let load = load.per(n_train);
    let predict = predict.per(requests);
    let merge = merge.per(requests);

    // Share of the traced windows' wall-clock that named layers account
    // for (the trainer's self time plus every layer span below it).
    let named = iv(&|s| s.name == "train" || is_layer(s) || s.name == "serve.merge");
    let (mut covered, mut wall) = (0u64, 0u64);
    for w in spans.iter().filter(|s| s.name == "window") {
        covered += covered_ns(w.start_ns, w.end_ns, &named);
        wall += w.end_ns - w.start_ns;
    }
    let coverage = covered as f64 / wall.max(1) as f64;

    let (print_us, parse_us, bytes) = replay(&statements);

    let mean = |f: &dyn Fn(&Counters) -> f64| -> f64 {
        m.samples.iter().map(|s| f(&s.delta)).sum::<f64>() / m.samples.len().max(1) as f64
    };
    let hits = mean(&|c| c.pool.hits as f64);
    let misses = mean(&|c| c.pool.misses as f64);
    let ms = |ns: u64| ns as f64 / 1e6 / n_train;

    let mut out = vec![
        ("trainer.self_ms", ms(trainer_self)),
        ("backend.message.calls", class_tally[0].calls),
        ("backend.message.ms", class_tally[0].ms),
        ("backend.split.calls", class_tally[1].calls),
        ("backend.split.ms", class_tally[1].ms),
        ("backend.update.calls", class_tally[2].calls),
        ("backend.update.ms", class_tally[2].ms),
        ("backend.other.calls", class_tally[3].calls),
        ("backend.other.ms", class_tally[3].ms),
        ("backend.load.ms", load.ms),
        ("backend.predict.calls", predict.calls),
        ("backend.predict.ms", predict.ms),
        ("sqlparse.print_us_per_stmt", print_us),
        ("sqlparse.parse_us_per_stmt", parse_us),
        ("sqlparse.bytes_per_stmt", bytes),
        ("engine.statements", mean(&|c| c.backend.statements as f64)),
        ("engine.queries", mean(&|c| c.backend.selects as f64)),
        ("storage.pool_hit_rate", hits / (hits + misses).max(1.0)),
        ("storage.pool_evictions", mean(&|c| c.pool.evictions as f64)),
        (
            "storage.spilled_mb",
            mean(&|c| c.pool.spilled_bytes as f64 / MB),
        ),
        ("storage.page_file_mb", median(&m.page_file_mb)),
        ("wal.mb", mean(&|c| c.wal_bytes as f64 / MB)),
        ("wal.records", mean(&|c| c.wal_records as f64)),
        ("checkpoint.count", mean(&|c| c.checkpoints as f64)),
        ("checkpoint.mb", mean(&|c| c.checkpoint_bytes as f64 / MB)),
        ("engine.open_ms", median(&m.open_ms)),
        ("sharded.self_ms", ms(sharded_self)),
        (
            "sharded.fanout_selects",
            mean(&|c| c.backend.fanout_selects as f64),
        ),
        (
            "sharded.broadcasts",
            mean(&|c| c.backend.broadcast_statements as f64),
        ),
        (
            "sharded.pushdown_splits",
            mean(&|c| c.backend.pushdown_splits as f64),
        ),
        (
            "sharded.split_rounds",
            mean(&|c| c.backend.split_rounds as f64),
        ),
        (
            "sharded.rows_shipped",
            mean(&|c| c.backend.rows_shipped as f64),
        ),
    ];
    let [execute, split_open, split_round, other] = remote_train;
    out.extend([
        ("remote.execute.calls", execute.calls),
        ("remote.execute.ms", execute.ms),
        ("remote.split_open.calls", split_open.calls),
        ("remote.split_open.ms", split_open.ms),
        ("remote.split_round.calls", split_round.calls),
        ("remote.split_round.ms", split_round.ms),
        ("remote.other.calls", other.calls),
        ("remote.other.ms", other.ms),
    ]);
    out.extend([
        ("remote.predict.calls", remote_predict.calls),
        ("remote.predict.ms", remote_predict.ms),
        (
            "remote.bytes_sent_mb",
            mean(&|c| c.backend.bytes_sent as f64 / MB),
        ),
        (
            "remote.bytes_recv_mb",
            mean(&|c| c.backend.bytes_received as f64 / MB),
        ),
        (
            "remote.split_bytes_recv_mb",
            mean(&|c| c.backend.split_bytes_received as f64 / MB),
        ),
        ("serve.merge_ms", merge.ms),
        (
            "trace.overhead_ms",
            (median(&calm_secs(&m.traced_train_s, true))
                - median(&calm_secs(m.train_s.get(1..).unwrap_or_default(), true)))
                * 1e3,
        ),
        ("trace.coverage", coverage),
        (
            "host.probe_ms",
            median(&m.slices.iter().map(|s| s.probe_ms).collect::<Vec<_>>()),
        ),
        ("predict1_p99_ms", p99(&m.calm_latencies(1, true))),
        ("predict1024_p99_ms", p99(&m.calm_latencies(1024, true))),
        ("server_rss_mb", m.server_rss_mb),
        ("reopen_s", median(&m.reopen_s)),
        ("write_amp", median(&m.write_amp)),
        ("error_rate", m.failed as f64 / m.attempted.max(1) as f64),
    ]);
    out
}

/// Replay the captured statements through the printer and the parser:
/// mean microseconds to print and to parse one statement, and its mean
/// length in bytes.
fn replay(statements: &[Captured]) -> (f64, f64, f64) {
    let (mut print_ns, mut parse_ns, mut bytes) = (0u128, 0u128, 0usize);
    for c in statements {
        let ast = match c {
            Captured::Ast(s) => (**s).clone(),
            Captured::Text(t) => match parse_statement(t) {
                Ok(s) => s,
                Err(_) => continue,
            },
        };
        let t0 = Instant::now();
        let text = ast.to_string();
        print_ns += t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let parsed = parse_statement(&text);
        parse_ns += t1.elapsed().as_nanos();
        debug_assert!(parsed.is_ok());
        bytes += text.len();
    }
    let n = statements.len().max(1) as f64;
    (
        print_ns as f64 / 1e3 / n,
        parse_ns as f64 / 1e3 / n,
        bytes as f64 / n,
    )
}
