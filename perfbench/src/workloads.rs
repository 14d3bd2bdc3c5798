//! The four workloads. Each generates its inputs from the seed, sets the
//! program up through its public API, measures for the run's seconds and
//! checks the outputs outside the timed region.
//!
//! A training workload repeats a whole lifecycle for the run's seconds:
//! set up, train, then deploy the model with [`FactorizedScorer`] four
//! times over, scoring each deployment closed-loop (one client, batch 1
//! and batch 1024 alternating) for a quarter of the scoring window, which
//! lasts as long as the training did (between a twentieth and a tenth of
//! the run; the last repetition scores to the end of the run).
//! `serve-predict` sets up (training included) five times and scores
//! against each deployment's shard servers for a fifth of the run. Pooling
//! the scoring of several deployments keeps one process placement or heap
//! layout from deciding the latencies. In a traced run the repetitions
//! alternate between untraced and traced, so the tracing overhead is
//! measured in the same process.

use std::cell::Cell;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use joinboost::backend::{RemoteConnection, RemoteOptions, ShardTransport, SqlBackend};
use joinboost::predict::{materialize_features, targets};
use joinboost::{
    train_gbm_cb, Dataset, FactorizedScorer, GbmModel, JoinScorer, Scorer, ShardedBackend,
    TrainParams,
};
use joinboost_engine::{Database, EngineConfig, Table};
use joinboost_semiring::loss::rmse;

use crate::inputs::{favorita_star, highcard_star, Rng, Star};
use crate::layers::{self, TrainSample};
use crate::probe::{self, Probe, Timed};
use crate::procs::{spawn_servers, ShardServer};
use crate::steal::{Sample, Stopwatch};
use crate::trace::{TracedBackend, TracedTransport, Tracer};
use crate::{Opts, MB};

/// Shard server processes of the remote workloads (`nproc` = 2).
const SHARDS: usize = 2;
/// Deployments `serve-predict` sets up and scores in an untraced run.
const DEPLOYMENTS: usize = 5;
/// Keys of the oracle comparison after scoring.
const ORACLE_SAMPLE: usize = 512;

/// Everything one run measured, before it is turned into metrics.
#[derive(Default)]
pub struct Measure {
    pub setup_s: Vec<Timed>,
    pub train_s: Vec<Timed>,
    pub traced_train_s: Vec<Timed>,
    /// Boosting iterations of the untraced training runs.
    pub iters: Vec<Timed>,
    pub train_rmse: f64,
    /// Wall-clock seconds of every repetition.
    pub rep_secs: Vec<f64>,
    /// Scoring requests, in order.
    pub requests: Vec<Request>,
    /// Consecutive slices of the scoring window, with their steal and the
    /// host speed around them.
    pub slices: Vec<Timed>,
    pub probe: Probe,
    pub reopen_s: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub write_amp: Vec<f64>,
    pub page_file_mb: Vec<f64>,
    pub server_rss_mb: f64,
    /// Operations and correctness checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Counters sampled around each traced training run.
    pub samples: Vec<TrainSample>,
    pub tracer: Option<Arc<Tracer>>,
}

impl Measure {
    /// Latencies of the `batch`-key requests made in the scoring slices
    /// the host disturbed least, each less the steal of its slice (as a
    /// share of the slice) and, when `scale`, at the reference host speed
    /// by its slice's probe time (see `probe.rs`).
    pub fn calm_latencies(&self, batch: u32, scale: bool) -> Vec<f64> {
        let calm: HashSet<usize> = probe::calm(&self.slices).into_iter().collect();
        // A slice's time as reported over its wall-clock time.
        let factor = |i: usize| {
            let slice = &self.slices[i];
            slice.secs(scale) / slice.sample.secs.max(1e-9)
        };
        self.requests
            .iter()
            .filter(|r| r.batch == batch && calm.contains(&(r.slice as usize)))
            .map(|r| r.ms * factor(r.slice as usize))
            .collect()
    }

    /// Record a set-up that took `sample`, with the host speed around it
    /// (`probed` is the probe time before it).
    fn end_setup(&mut self, probed: f64, sample: Sample) {
        let after = self.probe.time_ms();
        self.setup_s.push(Timed {
            sample,
            probe_ms: (probed + after) / 2.0,
        });
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {e}");
                None
            }
        }
    }

    /// Close a repetition: a traced one is a window of the traced run.
    fn end_rep(&mut self, tracer: Option<&Arc<Tracer>>, start: Instant) {
        self.rep_secs.push(start.elapsed().as_secs_f64());
        if let Some(t) = tracer {
            t.window(start);
        }
    }

    /// The tracer, when repetition `rep` of a traced run is a traced one
    /// (odd repetitions; even ones measure the untraced baseline, the
    /// first of them warming up).
    fn tracer_for(&self, rep: usize) -> Option<Arc<Tracer>> {
        let tracer = self.tracer.clone().filter(|_| rep % 2 == 1)?;
        tracer.set_run(rep as u32);
        Some(tracer)
    }
}

pub fn run(opts: &Opts) -> Result<Measure, String> {
    let mut m = Measure {
        tracer: opts.trace.then(Tracer::new),
        ..Measure::default()
    };
    match opts.workload.as_str() {
        "star-local" => star_local(opts, &mut m)?,
        "highcard-remote" => highcard_remote(opts, &mut m)?,
        "serve-predict" => serve_predict(opts, &mut m)?,
        "durable-paged" => durable_paged(opts, &mut m)?,
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// Shared pieces.
// ---------------------------------------------------------------------------

/// The dyadic recipe: power-of-two learning rate and leaf grid, so models
/// trained over shards or pages are bit-identical to in-memory training.
fn dyadic_params(iterations: usize) -> TrainParams {
    TrainParams {
        num_iterations: iterations,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..TrainParams::default()
    }
}

fn load(backend: &dyn SqlBackend, tables: Vec<(String, Table)>) -> Result<(), String> {
    for (name, t) in tables {
        backend.create_table(&name, t).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn dataset<'a>(backend: &'a dyn SqlBackend, star: &Star) -> Result<Dataset<'a>, String> {
    Dataset::new(backend, star.graph.clone(), &star.fact, &star.target).map_err(|e| e.to_string())
}

/// One training call: the model, the whole call and every boosting
/// iteration, each with the host speed during it.
struct Trained {
    model: GbmModel,
    whole: Timed,
    iters: Vec<Timed>,
}

/// Train once. The callback times every boosting iteration, and the probe
/// between iterations, outside their times: an iteration's host speed is
/// the mean of the probes before and after it, the whole call's the mean
/// of its iterations' weighted by their times.
fn train(set: &Dataset, params: &TrainParams, probe: &mut Probe) -> Result<Trained, String> {
    let mut iters: Vec<Timed> = Vec::with_capacity(params.num_iterations);
    let mut probing = 0.0;
    let mut before = probe.time_ms();
    let whole = Stopwatch::start();
    let mut iter = whole.clone();
    let model = train_gbm_cb(set, params, |_, _| {
        let sample = iter.sample();
        let t0 = Instant::now();
        let after = probe.time_ms();
        probing += t0.elapsed().as_secs_f64();
        iters.push(Timed {
            sample,
            probe_ms: (before + after) / 2.0,
        });
        before = after;
        iter = Stopwatch::start();
        true
    })
    .map_err(|e| e.to_string())?;
    let mut sample = whole.sample();
    sample.secs -= probing;
    let secs: f64 = iters.iter().map(|t| t.sample.secs).sum();
    let probe_ms = if secs > 0.0 {
        iters
            .iter()
            .map(|t| t.sample.secs * t.probe_ms)
            .sum::<f64>()
            / secs
    } else {
        before
    };
    Ok(Trained {
        model,
        whole: Timed { sample, probe_ms },
        iters,
    })
}

/// Train one repetition, traced or not, and record it; returns the model
/// and how long training took.
fn train_rep(
    m: &mut Measure,
    tracer: Option<&Arc<Tracer>>,
    set: &Dataset,
    params: &TrainParams,
    stats: &dyn Fn() -> layers::Counters,
) -> Result<(GbmModel, Sample), String> {
    let before = stats();
    let probe = &mut m.probe;
    let t = match tracer {
        Some(t) => t.span("train", || train(set, params, probe))?,
        None => train(set, params, probe)?,
    };
    if tracer.is_some() {
        m.traced_train_s.push(t.whole);
        m.samples.push(TrainSample {
            delta: stats().minus(&before),
        });
    } else {
        m.train_s.push(t.whole);
        m.iters.extend(t.iters);
    }
    Ok((t.model, t.whole.sample))
}

/// Bit-level model equality (`==` on f64 would accept 0.0 == -0.0).
fn same_bits(a: &GbmModel, b: &GbmModel) -> bool {
    a.init_score.to_bits() == b.init_score.to_bits()
        && a.trees.len() == b.trees.len()
        && a.trees.iter().zip(&b.trees).all(|(ta, tb)| {
            ta.nodes.len() == tb.nodes.len()
                && ta.nodes.iter().zip(&tb.nodes).all(|(na, nb)| {
                    na.split == nb.split
                        && na.value.to_bits() == nb.value.to_bits()
                        && na.weight.to_bits() == nb.weight.to_bits()
                })
        })
}

/// Training RMSE of `model` over the materialized join of `set`.
fn train_rmse(set: &Dataset, model: &GbmModel) -> Result<f64, String> {
    let t = materialize_features(set).map_err(|e| e.to_string())?;
    let ys = targets(&t).map_err(|e| e.to_string())?;
    Ok(rmse(&ys, &model.predict(&t)))
}

/// Set-ups made back to back at the start of an untraced run, on top of
/// the one per training repetition: set-up takes milliseconds and varies
/// with allocator state, so its median needs more samples.
const EXTRA_SETUPS: usize = 8;

/// Run `once` (a full set-up, torn down after it reports its time)
/// [`EXTRA_SETUPS`] times.
fn setup_burst(
    m: &mut Measure,
    opts: &Opts,
    mut once: impl FnMut() -> Result<Sample, String>,
) -> Result<(), String> {
    if !opts.trace {
        for _ in 0..EXTRA_SETUPS {
            let probed = m.probe.time_ms();
            let sample = once()?;
            m.end_setup(probed, sample);
        }
    }
    Ok(())
}

/// The run's deadline and its repetitions.
struct Window {
    start: Instant,
    end: Duration,
    /// Traced runs alternate untraced and traced repetitions and end on a
    /// traced one.
    paired: bool,
    /// Length of the last finished repetition.
    last_rep: Cell<Duration>,
}

impl Window {
    fn new(opts: &Opts) -> Window {
        Window {
            start: Instant::now(),
            end: Duration::from_secs_f64(opts.seconds),
            paired: opts.trace,
            last_rep: Cell::new(Duration::ZERO),
        }
    }

    /// Start another repetition after `done` of them, the last taking
    /// `last`? At least two (four when paired: a warm-up, then traced,
    /// untraced, traced); more while another still fits the run.
    fn another_rep(&self, done: usize, last: Duration) -> bool {
        self.last_rep.set(last);
        done < self.least()
            || (self.paired && done % 2 == 1)
            || self.start.elapsed() + last <= self.end
    }

    /// When the scoring of repetition `rep` (counted from 0), started at
    /// `rep_start`, ends if it starts now. It lasts as long as the
    /// repetition's training took, within a twentieth and a tenth of the
    /// run, so latencies are sampled over much of the run and training
    /// still repeats. When another repetition, as long as this one or the
    /// last, would not fit after it, it lasts to the end of the run.
    fn score_until(&self, rep: usize, rep_start: Instant, trained: &Sample) -> Instant {
        let trained = Duration::from_secs_f64(trained.secs);
        let share = trained.clamp(self.end / 20, self.end / 10);
        let until = Instant::now() + share;
        let end = self.start + self.end;
        let rep_len = (rep_start.elapsed() + share).max(self.last_rep.get());
        let last = rep + 1 >= self.least() && !self.paired && until + rep_len > end;
        if last {
            until.max(end)
        } else {
            until
        }
    }

    /// Repetitions a run makes at least: two, four when paired (a warm-up,
    /// then traced, untraced, traced).
    fn least(&self) -> usize {
        if self.paired {
            4
        } else {
            2
        }
    }
}

/// One scoring request: its batch size, latency and scoring-window slice.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub batch: u32,
    pub ms: f64,
    pub slice: u32,
}

/// Most scoring requests one traced repetition records.
const TRACED_REQUESTS: usize = 5_000;

/// Length of one slice of the scoring window: the unit at which steal is
/// counted for requests too short to count it one by one.
const SLICE: Duration = Duration::from_millis(200);

/// Closed-loop scoring: one client, batch 1 and batch 1024 alternating,
/// random keys in `0..keys`, until `until` (at least two requests of each
/// size). `score` returns how many keys were found. The host-speed probe
/// is timed before the first slice and after every slice.
fn score_loop(
    m: &mut Measure,
    rng: &mut Rng,
    keys: u64,
    until: Instant,
    tracer: Option<&Arc<Tracer>>,
    score: &mut dyn FnMut(&[i64]) -> Result<usize, String>,
) {
    let mut probed = m.probe.time_ms();
    let mut slice = Stopwatch::start();
    // A traced run keeps every span in memory: bound how many requests
    // it records.
    let cap = if tracer.is_some() {
        TRACED_REQUESTS
    } else {
        usize::MAX
    };
    let mut n = 0usize;
    while (Instant::now() < until && n < cap) || n < 4 {
        let batch = if n.is_multiple_of(2) { 1 } else { 1024 };
        let ks: Vec<i64> = (0..batch).map(|_| rng.below(keys) as i64).collect();
        let t0 = Instant::now();
        let r = match tracer {
            Some(t) => t.span("request", || score(&ks)),
            None => score(&ks),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let r = r.and_then(|found| {
            (found == batch)
                .then_some(())
                .ok_or_else(|| format!("{found} of {batch} predict keys scored"))
        });
        if m.op(r).is_some() {
            m.requests.push(Request {
                batch: batch as u32,
                ms,
                slice: m.slices.len() as u32,
            });
        }
        n += 1;
        if slice.elapsed_secs() >= SLICE.as_secs_f64() {
            probed = end_slice(m, &slice, probed);
            slice = Stopwatch::start();
        }
    }
    end_slice(m, &slice, probed);
}

/// Record a slice that ends now, then time the probe: the slice's host
/// speed is the mean of the probe times before (`before`) and after it.
/// Returns the probe time after it.
fn end_slice(m: &mut Measure, slice: &Stopwatch, before: f64) -> f64 {
    let sample = slice.sample();
    let after = m.probe.time_ms();
    m.slices.push(Timed {
        sample,
        probe_ms: (before + after) / 2.0,
    });
    after
}

/// Scores for a batch of predict keys (`None`: key not in the join).
type ScoreFn<'a> = dyn FnMut(&[i64]) -> Result<Vec<Option<f64>>, String> + 'a;

/// Compare the deployed scorer with the materialized-join oracle on a
/// seeded key sample, bit for bit.
fn check_oracle(
    m: &mut Measure,
    rng: &mut Rng,
    keys: u64,
    oracle: &JoinScorer,
    score: &mut ScoreFn,
) {
    let sample: Vec<i64> = (0..ORACLE_SAMPLE).map(|_| rng.below(keys) as i64).collect();
    let ok = match (oracle.score_batch(&sample), score(&sample)) {
        (Ok(want), Ok(got)) => {
            want.len() == got.len()
                && want
                    .iter()
                    .zip(&got)
                    .all(|(w, g)| w.is_some() && w.map(f64::to_bits) == g.map(f64::to_bits))
        }
        (w, g) => {
            eprintln!("oracle comparison failed: {:?} / {:?}", w.err(), g.err());
            false
        }
    };
    m.check(
        ok,
        "deployed scores match the JoinScorer oracle on a key sample",
    );
}

fn count_found(scores: Vec<Option<f64>>) -> usize {
    scores.iter().filter(|s| s.is_some()).count()
}

/// A trained model ready to deploy: its dataset, the model, the inputs
/// and the materialized-join oracle of the same model.
type Deployed<'a, 'b> = (&'a Dataset<'b>, &'a GbmModel, &'a Star, &'a JoinScorer);

/// Deployments a training repetition scores, each for an equal share of
/// its scoring window: every deployment writes fresh message tables, and
/// pooling several keeps one table layout from deciding the latencies.
const DEPLOYS_PER_REP: u32 = 4;

/// Deploy a model on the backend it was trained on [`DEPLOYS_PER_REP`]
/// times, one after the other. Each deployment is scored closed-loop for
/// its share of the time until `until`, compared with the oracle on a key
/// sample and then dropped.
fn score_deployed(
    m: &mut Measure,
    rng: &mut Rng,
    until: Instant,
    tracer: Option<&Arc<Tracer>>,
    (set, model, star, oracle): Deployed,
) -> Result<(), String> {
    let keys = star.fact_rows() as u64;
    let share = until.saturating_duration_since(Instant::now()) / DEPLOYS_PER_REP;
    for _ in 0..DEPLOYS_PER_REP {
        let until = Instant::now() + share;
        let scorer = FactorizedScorer::compile(set, model, &star.key).map_err(|e| e.to_string())?;
        let mut score = |ks: &[i64]| scorer.score_batch(ks).map_err(|e| e.to_string());
        score_loop(m, rng, keys, until, tracer, &mut |ks| {
            score(ks).map(count_found)
        });
        check_oracle(m, rng, keys, oracle, &mut score);
        for table in scorer.spec().tables() {
            set.db
                .drop_table_if_exists(table)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `inner` behind a [`TracedBackend`] when tracing.
fn traced<'a>(
    inner: &'a dyn SqlBackend,
    tracer: Option<&Arc<Tracer>>,
) -> Option<TracedBackend<'a>> {
    tracer.map(|t| TracedBackend {
        inner,
        tracer: t.clone(),
    })
}

fn or_plain<'a>(
    traced: &'a Option<TracedBackend<'a>>,
    plain: &'a dyn SqlBackend,
) -> &'a dyn SqlBackend {
    match traced {
        Some(t) => t,
        None => plain,
    }
}

/// An in-memory reference: the same inputs and recipe on a local engine,
/// and the materialized-join oracle of its model.
struct Reference {
    db: Database,
}

impl Reference {
    fn new(star: &Star) -> Result<Reference, String> {
        let db = Database::new(EngineConfig::duckdb_mem());
        load(&db, star.tables.clone())?;
        Ok(Reference { db })
    }

    fn train(
        &self,
        star: &Star,
        params: &TrainParams,
        m: &mut Measure,
    ) -> Result<(GbmModel, JoinScorer), String> {
        let set = dataset(&self.db, star)?;
        let model = train(&set, params, &mut m.probe)?.model;
        m.train_rmse = train_rmse(&set, &model)?;
        let oracle = JoinScorer::compile(&set, &model, &star.key).map_err(|e| e.to_string())?;
        Ok((model, oracle))
    }
}

// ---------------------------------------------------------------------------
// star-local: Favorita on the in-memory engine.
// ---------------------------------------------------------------------------

fn star_local(opts: &Opts, m: &mut Measure) -> Result<(), String> {
    let inputs = || {
        if opts.tiny {
            favorita_star(opts.seed, 2_000, 20, 1, false)
        } else {
            favorita_star(opts.seed, 60_000, 100, 4, false)
        }
    };
    let star = inputs();
    let params = TrainParams {
        num_iterations: if opts.tiny { 2 } else { 10 },
        ..TrainParams::default()
    };
    let mut rng = Rng::new(opts.seed ^ 0x5c0e);
    setup_burst(m, opts, || {
        let t0 = Stopwatch::start();
        let db = Database::new(EngineConfig::duckdb_mem());
        load(&db, inputs().tables)?;
        let _set = dataset(&db, &star)?;
        Ok(t0.sample())
    })?;
    let window = Window::new(opts);
    // The first repetition's model is the reference of the later ones.
    let mut first: Option<(GbmModel, JoinScorer)> = None;
    let mut rep = 0;
    loop {
        let tracer = m.tracer_for(rep);
        // Set-up starts from the seed: generating the inputs is part of it.
        let rep_start = Instant::now();
        let probed = m.probe.time_ms();
        let setup = Stopwatch::start();
        let tables = inputs().tables;
        let db = Database::new(EngineConfig::duckdb_mem());
        let traced = traced(&db, tracer.as_ref());
        let backend = or_plain(&traced, &db);
        load(backend, tables)?;
        let set = dataset(backend, &star)?;
        m.end_setup(probed, setup.sample());
        let (model, trained) = train_rep(m, tracer.as_ref(), &set, &params, &|| {
            layers::Counters::of_engine(&db)
        })?;
        let (first_model, oracle) = match &first {
            Some(f) => f,
            None => {
                m.train_rmse = train_rmse(&set, &model)?;
                let oracle =
                    JoinScorer::compile(&set, &model, &star.key).map_err(|e| e.to_string())?;
                first.insert((model.clone(), oracle))
            }
        };
        m.check(
            same_bits(first_model, &model),
            "repeated training gives an identical model",
        );
        let until = window.score_until(rep, rep_start, &trained);
        let deployed = (&set, &model, &star, oracle);
        score_deployed(m, &mut rng, until, tracer.as_ref(), deployed)?;
        rep += 1;
        m.end_rep(tracer.as_ref(), rep_start);
        if !window.another_rep(rep, rep_start.elapsed()) {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------------
// Remote shards.
// ---------------------------------------------------------------------------

/// A sharded backend over the given servers: `ShardedBackend::remote`
/// untraced; traced, the same backend assembled from traced connections
/// (with `remote`'s column-swap intersection carried over).
fn remote_backend(
    servers: &[ShardServer],
    star: &Star,
    tracer: Option<&Arc<Tracer>>,
) -> Result<ShardedBackend, String> {
    let addrs: Vec<_> = servers.iter().map(|s| s.addr).collect();
    let config = EngineConfig::duckdb_mem();
    let opts = RemoteOptions::default();
    let Some(tracer) = tracer else {
        return ShardedBackend::remote(&addrs, config, &star.fact, &star.key, opts)
            .map_err(|e| e.to_string());
    };
    let mut config = config;
    let mut transports: Vec<Box<dyn ShardTransport>> = Vec::with_capacity(addrs.len());
    for addr in &addrs {
        let conn = connect(*addr, &opts)?;
        config.allow_swap = config.allow_swap && conn.server_column_swap();
        transports.push(Box::new(TracedTransport {
            inner: conn,
            tracer: tracer.clone(),
        }));
    }
    Ok(ShardedBackend::from_transports(
        transports,
        config,
        format!("remote x{}", addrs.len()),
        &star.fact,
        &star.key,
    ))
}

fn connect(addr: std::net::SocketAddr, opts: &RemoteOptions) -> Result<RemoteConnection, String> {
    RemoteConnection::builder(addr)
        .connect_timeout(opts.connect_timeout)
        .io_timeout(opts.io_timeout)
        .retry(opts.retry)
        .connect()
        .map_err(|e| e.to_string())
}

fn note_server_rss(m: &mut Measure, servers: &[ShardServer]) {
    let rss: f64 = servers.iter().map(ShardServer::peak_rss_mb).sum();
    m.server_rss_mb = m.server_rss_mb.max(rss);
}

// ---------------------------------------------------------------------------
// highcard-remote: high-cardinality split feature over two shard servers.
// ---------------------------------------------------------------------------

fn highcard_remote(opts: &Opts, m: &mut Measure) -> Result<(), String> {
    let inputs = || {
        if opts.tiny {
            highcard_star(opts.seed, 3_000, 600, 20)
        } else {
            highcard_star(opts.seed, 40_000, 8_000, 100)
        }
    };
    let star = inputs();
    let params = dyadic_params(if opts.tiny { 2 } else { 10 });
    let mut rng = Rng::new(opts.seed ^ 0x4c0e);
    crate::steal::charge_all_cpus();
    let (ref_model, oracle) = Reference::new(&star)?.train(&star, &params, m)?;
    setup_burst(m, opts, || {
        let t0 = Stopwatch::start();
        let servers = spawn_servers(SHARDS)?;
        let sharded = remote_backend(&servers, &star, None)?;
        load(&sharded, inputs().tables)?;
        let _set = dataset(&sharded, &star)?;
        Ok(t0.sample())
    })?;
    let window = Window::new(opts);
    let mut rep = 0;
    loop {
        let tracer = m.tracer_for(rep);
        // Set-up starts from the seed: generating the inputs is part of it.
        let rep_start = Instant::now();
        let probed = m.probe.time_ms();
        let setup = Stopwatch::start();
        let tables = inputs().tables;
        let servers = spawn_servers(SHARDS)?;
        let sharded = remote_backend(&servers, &star, tracer.as_ref())?;
        let traced = traced(&sharded, tracer.as_ref());
        let backend = or_plain(&traced, &sharded);
        load(backend, tables)?;
        let set = dataset(backend, &star)?;
        m.end_setup(probed, setup.sample());
        let (model, trained) = train_rep(m, tracer.as_ref(), &set, &params, &|| {
            layers::Counters::of_backend(&sharded)
        })?;
        m.check(
            same_bits(&model, &ref_model),
            "remote model is to_bits()-identical to the in-memory reference",
        );
        let until = window.score_until(rep, rep_start, &trained);
        let deployed = (&set, &model, &star, &oracle);
        score_deployed(m, &mut rng, until, tracer.as_ref(), deployed)?;
        note_server_rss(m, &servers);
        rep += 1;
        m.end_rep(tracer.as_ref(), rep_start);
        if !window.another_rep(rep, rep_start.elapsed()) {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------------
// serve-predict: closed-loop scoring against deployed shard servers.
// ---------------------------------------------------------------------------

fn serve_predict(opts: &Opts, m: &mut Measure) -> Result<(), String> {
    let inputs = || {
        if opts.tiny {
            favorita_star(opts.seed, 2_000, 20, 1, true)
        } else {
            favorita_star(opts.seed, 10_000, 100, 1, true)
        }
    };
    let star = inputs();
    let params = dyadic_params(if opts.tiny { 2 } else { 4 });
    let mut rng = Rng::new(opts.seed ^ 0x5e7e);
    crate::steal::charge_all_cpus();
    let (ref_model, oracle) = Reference::new(&star)?.train(&star, &params, m)?;
    // Several deployments, each set up from scratch (spawn, load, train,
    // deploy) and then scored for an equal share of the run, so that no
    // single placement of the three processes on the CPUs decides it.
    let deployments = if opts.trace { 4 } else { DEPLOYMENTS };
    let keys = star.fact_rows() as u64;
    for rep in 0..deployments {
        let tracer = m.tracer_for(rep);
        // Set-up starts from the seed: generating the inputs is part of it.
        let rep_start = Instant::now();
        let probed = m.probe.time_ms();
        let setup = Stopwatch::start();
        let tables = inputs().tables;
        let servers = spawn_servers(SHARDS)?;
        let sharded = remote_backend(&servers, &star, tracer.as_ref())?;
        let traced = traced(&sharded, tracer.as_ref());
        let backend = or_plain(&traced, &sharded);
        load(backend, tables)?;
        let mut set = dataset(backend, &star)?;
        let (model, _) = train_rep(m, tracer.as_ref(), &set, &params, &|| {
            layers::Counters::of_backend(&sharded)
        })?;
        let scorer =
            FactorizedScorer::compile(&set, &model, &star.key).map_err(|e| e.to_string())?;
        m.end_setup(probed, setup.sample());
        m.check(
            same_bits(&model, &ref_model),
            "remote model is to_bits()-identical to the in-memory reference",
        );
        // The deployed message tables outlive the training session; the
        // client scores them straight from the shard servers.
        let spec = scorer.spec().clone();
        set.keep_temp_tables = true;
        drop(set);
        drop(traced);
        drop(sharded);
        let mut conns: Vec<Box<dyn ShardTransport>> = Vec::with_capacity(servers.len());
        for s in &servers {
            let conn = connect(s.addr, &RemoteOptions::default())?;
            conns.push(match &tracer {
                Some(t) => Box::new(TracedTransport {
                    inner: conn,
                    tracer: t.clone(),
                }),
                None => Box::new(conn),
            });
        }
        let mut predict = |ks: &[i64]| -> Result<Vec<Option<f64>>, String> {
            let partials = conns
                .iter()
                .map(|c| c.predict_partials(&spec, ks))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let merge = || merge_partials(&partials, spec.init_score, ks.len());
            Ok(match &tracer {
                Some(t) => t.span("serve.merge", merge),
                None => merge(),
            })
        };
        let until = Instant::now() + Duration::from_secs_f64(opts.seconds / deployments as f64);
        score_loop(m, &mut rng, keys, until, tracer.as_ref(), &mut |ks| {
            predict(ks).map(count_found)
        });
        check_oracle(m, &mut rng, keys, &oracle, &mut predict);
        note_server_rss(m, &servers);
        m.end_rep(tracer.as_ref(), rep_start);
    }
    Ok(())
}

/// `⊕`-merge shard partials: a key is found on exactly one shard; its
/// score is the model's initial score plus the partial.
fn merge_partials(partials: &[Vec<(bool, f64)>], init: f64, n: usize) -> Vec<Option<f64>> {
    (0..n)
        .map(|i| {
            let mut sum = None;
            for shard in partials {
                if shard[i].0 {
                    *sum.get_or_insert(0.0) += shard[i].1;
                }
            }
            sum.map(|s| init + s)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// durable-paged: out-of-core engine with a small buffer pool, then reopen.
// ---------------------------------------------------------------------------

/// A scratch directory inside the benchmark's checkout, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory for this process.
    fn new(name: &str) -> ScratchDir {
        let dir = crate::out_dir().join(format!("paged-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// WAL budget of the paged engine: small enough that training takes
/// checkpoints, so recovery replays a checkpoint plus a log suffix.
const CHECKPOINT_BYTES: u64 = 4 << 20;

fn durable_paged(opts: &Opts, m: &mut Measure) -> Result<(), String> {
    let inputs = || {
        if opts.tiny {
            favorita_star(opts.seed, 2_000, 20, 1, true)
        } else {
            favorita_star(opts.seed, 30_000, 100, 4, true)
        }
    };
    let star = inputs();
    let params = dyadic_params(if opts.tiny { 2 } else { 5 });
    let mut rng = Rng::new(opts.seed ^ 0xd0ab);
    let (ref_model, oracle) = Reference::new(&star)?.train(&star, &params, m)?;
    let config = |dir: &ScratchDir| EngineConfig {
        bufferpool_pages: 64,
        checkpoint_bytes: Some(CHECKPOINT_BYTES),
        ..EngineConfig::paged(&dir.0)
    };
    let mut burst = 0;
    setup_burst(m, opts, || {
        burst += 1;
        let dir = ScratchDir::new(&format!("burst-{burst}"));
        let t0 = Stopwatch::start();
        let db = Database::open(config(&dir)).map_err(|e| e.to_string())?;
        load(&db, inputs().tables)?;
        let _set = dataset(&db, &star)?;
        Ok(t0.sample())
    })?;
    let window = Window::new(opts);
    let mut rep = 0;
    loop {
        let tracer = m.tracer_for(rep);
        let dir = ScratchDir::new(&format!("rep-{rep}"));
        let config = config(&dir);
        // Set-up starts from the seed: generating the inputs is part of it.
        let rep_start = Instant::now();
        let probed = m.probe.time_ms();
        let setup = Stopwatch::start();
        let tables = inputs().tables;
        let db = Database::open(config.clone()).map_err(|e| e.to_string())?;
        let traced = traced(&db, tracer.as_ref());
        let backend = or_plain(&traced, &db);
        load(backend, tables)?;
        let set = dataset(backend, &star)?;
        m.end_setup(probed, setup.sample());
        let (model, trained) = train_rep(m, tracer.as_ref(), &set, &params, &|| {
            layers::Counters::of_engine(&db)
        })?;
        m.check(
            same_bits(&model, &ref_model),
            "paged model is to_bits()-identical to the in-memory reference",
        );
        let s = db.stats();
        let pool = db.bufferpool_stats().unwrap_or_default();
        let written = s.wal_bytes + pool.spilled_bytes + s.checkpoint_bytes_written;
        m.write_amp.push(written as f64 / star.user_bytes() as f64);
        let page_file = std::fs::metadata(dir.0.join("data.jbp")).map_or(0, |f| f.len());
        m.page_file_mb.push(page_file as f64 / MB);
        let until = window.score_until(rep, rep_start, &trained);
        let deployed = (&set, &model, &star, &oracle);
        score_deployed(m, &mut rng, until, tracer.as_ref(), deployed)?;
        rep += 1;
        m.end_rep(tracer.as_ref(), rep_start);
        drop(set);
        drop(traced);
        drop(db);
        // Reopen: recover from the checkpoint and the WAL; the database is
        // back once every base table answers with its row count.
        let t0 = Instant::now();
        let reopened = Database::open(config).map_err(|e| e.to_string())?;
        m.open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let intact = star.tables.iter().all(|(name, t)| {
            reopened.has_table(name) && reopened.row_count(name).ok() == Some(t.num_rows())
        });
        m.reopen_s.push(t0.elapsed().as_secs_f64());
        m.check(
            intact,
            "after the reopen every base table is present with its row count",
        );
        if !window.another_rep(rep, rep_start.elapsed()) {
            return Ok(());
        }
    }
}
