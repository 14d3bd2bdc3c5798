//! The remote backend: a JoinBoost engine hosted in *another process*,
//! spoken to over the wire protocol of [`crate::backend::wire`].
//!
//! Two halves:
//!
//! * **Server** — [`WireServerBuilder::serve`] runs an accept loop over a
//!   [`TcpListener`], hosting one shared [`Database`]: every connection
//!   gets an OS thread, every request maps onto the same engine entry
//!   points the in-process backends use. [`WireServerBuilder::spawn`]
//!   runs the same loop on a background thread (examples, experiments,
//!   tests); the `shard_server` binary wraps the blocking loop for true
//!   multi-process deployments. [`ServeOptions`] carries the
//!   fault-injection knobs the test suite uses to kill, stall, or —
//!   recoverably — drop connections mid-round.
//! * **Client** — [`RemoteConnection`] is one framed, timeout-guarded
//!   socket (the pluggable shard transport of
//!   [`crate::backend::ShardedBackend`]); [`RemoteBackend`] wraps a
//!   connection into a full [`SqlBackend`], so a training run can target a
//!   single remote engine exactly like a local one.
//!
//! SQL travels as text — the soundness of that rests on the
//! `print ∘ parse ∘ print` fixed point proved by
//! [`crate::backend::SqlTextBackend`] (see `DESIGN.md` § "Wire
//! protocol").
//!
//! **Failure handling** is retry-then-fail: connect and I/O timeouts
//! bound every wait; on a transport error the client reconnects with
//! exponential backoff under its [`RetryPolicy`], re-presents its session
//! resume token, and re-issues every in-flight request. The server keeps
//! a session alive across connection drops for a grace period — temp
//! tables and the replay window of applied-but-unacked
//! `(seq, response)` pairs survive, so a replayed request that was
//! already applied returns the cached response instead of re-executing
//! (safe replay of non-idempotent statements). Only when the retry
//! budget is exhausted
//! does the first error *poison* the connection: every later call fails
//! immediately with the original error, so cleanup paths touching a dead
//! shard cost nothing. [`RetryPolicy::none()`] restores the pre-v3
//! fail-fast behavior exactly.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use joinboost_engine::{DataType, Database, EngineError, Table};
use joinboost_graph::JoinGraph;
use joinboost_sql::ast::Statement;

use super::wire::{
    decode_request, decode_response, encode_request, encode_response, forest_bytes,
    forest_from_bytes, job_spec_bytes, job_spec_from_bytes, read_frame, scorer_spec_bytes,
    scorer_spec_from_bytes, write_frame, JobSpec, Request, Response, MAGIC, MAX_FRAME, VERSION,
};
use super::{BackendCapabilities, BackendResult, BackendStats, ShardTransport, SqlBackend};
use crate::boosting::train_gbm_resume;
use crate::dataset::Dataset;
use crate::params::TrainParams;
use crate::serve::{compile_messages, engine_predict, ScorerSpec};
use crate::tree::Tree;
use joinboost_engine::{Column, Datum};

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Server-side knobs. The fault-injection fields exist for the test rig:
/// a real deployment leaves them at `Default`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// After this many requests have been *received* (across all
    /// connections), the server stops serving: with [`ServeOptions::stall`]
    /// unset it drops every connection (a killed process — clients see
    /// EOF/reset immediately); with it set the sockets stay open but no
    /// reply ever comes (a hung process — clients run into their read
    /// timeout). `None` serves forever.
    pub fail_after: Option<u64>,
    /// Fault mode: stall (hold sockets silently) instead of dropping them.
    pub stall: bool,
    /// *Recovering* fault: every `n`-th received request (across all
    /// connections) is thrown away *before* execution and its connection
    /// dropped — then the server keeps serving. A retrying client must
    /// reconnect and re-issue; since the request was never applied, the
    /// replay executes fresh. Reconnect handshakes count as requests, so
    /// `n` must be ≥ 3 for a client to make progress between drops.
    pub drop_every: Option<u64>,
    /// *Recovering* fault, one-shot: request number `n` is executed but
    /// its connection drops *before the reply is written* — then the
    /// server serves normally forever after. The client's replay must be
    /// answered from the session's response cache, not re-executed (the
    /// exactly-once case for non-idempotent statements).
    pub flaky_after: Option<u64>,
    /// Crash-the-process fault: after this many boosting iterations have
    /// been trained (across all jobs, counted *after* the iteration's
    /// registry checkpoint was persisted), the server calls
    /// [`std::process::abort`] — no destructors, no WAL flush beyond what
    /// commit already did. Only meaningful for a real `shard_server`
    /// child process; the restart tests use it to kill training at an
    /// exact, reproducible point.
    pub crash_after_iters: Option<u64>,
    /// Deterministic reply jitter `(seed, max_micros)`: before writing
    /// each reply the server sleeps `splitmix64(seed ^ request_number) %
    /// max_micros` microseconds. With several shard servers on different
    /// seeds this randomizes *cross-shard completion order* — the
    /// pipelined coordinator's ordering-independence proptests drive it.
    pub reply_jitter: Option<(u64, u64)>,
}

/// A training job's life: `Queued → Running → Done | Failed | Cancelled`.
/// `Cancelled` can also be entered straight from `Queued`.
enum JobProgress {
    Queued,
    Running {
        iterations: u64,
    },
    Done {
        iterations: u64,
        /// Message tables compiled from the trained model when the job
        /// named a `key_column`; what `PredictBatch { job }` scores
        /// against.
        spec: Option<ScorerSpec>,
    },
    Failed(String),
    Cancelled,
}

impl JobProgress {
    fn is_active(&self) -> bool {
        matches!(self, JobProgress::Queued | JobProgress::Running { .. })
    }

    /// The wire view of this state (tags documented on
    /// [`Response::JobState`]).
    fn response(&self) -> Response {
        let (state, iterations, message) = match self {
            JobProgress::Queued => (0, 0, String::new()),
            JobProgress::Running { iterations } => (1, *iterations, String::new()),
            JobProgress::Done { iterations, .. } => (2, *iterations, String::new()),
            JobProgress::Failed(m) => (3, 0, m.clone()),
            JobProgress::Cancelled => (4, 0, String::new()),
        };
        Response::JobState {
            state,
            iterations,
            message,
        }
    }
}

/// One registered job: owned by the session that submitted it, driven
/// by a background worker thread, cancellable from any connection.
struct JobHandle {
    id: u64,
    /// Session token of the submitter. Jobs still active when their
    /// session *expires* (disconnected past the grace period) are
    /// cancelled — a briefly-dropped client that reconnects in time
    /// keeps its job. Jobs recovered from the durable registry at boot
    /// carry owner `0`, which no live session token can equal (tokens
    /// are odd), so the expiry sweeper never cancels them.
    owner: u64,
    /// Cooperative cancel flag, checked by the training callback after
    /// every boosting iteration.
    cancel: AtomicBool,
    progress: Mutex<JobProgress>,
    /// The submitted spec, kept so the registry can persist it and a
    /// restarted server can resume the job.
    spec: JobSpec,
    /// Latest persisted training checkpoint: the partial forest after
    /// the most recent completed iteration. Cleared when the job goes
    /// `Done` (the compiled scorer is the durable artifact from then on).
    forest: Mutex<Vec<Tree>>,
}

fn cancel_job(job: &JobHandle) {
    job.cancel.store(true, Ordering::Relaxed);
    let mut p = job.progress.lock();
    if matches!(*p, JobProgress::Queued) {
        // Not picked up by its worker yet: terminal immediately.
        *p = JobProgress::Cancelled;
    }
}

struct ServeState {
    db: Database,
    opts: ServeOptions,
    requests: AtomicU64,
    shutdown: AtomicBool,
    /// Clones of the live sockets (keyed by connection id), so `kill`
    /// can yank connections out from under their threads. Entries leave
    /// when their connection ends — a long-running server does not
    /// accumulate dead fds.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn: AtomicU64,
    /// The job registry: id → handle. Terminal jobs stay registered so
    /// late polls answer their final state.
    jobs: Mutex<HashMap<u64, Arc<JobHandle>>>,
    next_job: AtomicU64,
    /// Admission control: at most this many jobs queued + running.
    max_jobs: usize,
    /// Admission control: per-session cap on bytes bulk-loaded via
    /// `CreateTable` (`None` = unlimited).
    session_budget: Option<u64>,
    /// How long a disconnected session's state survives before the
    /// sweeper reclaims it (cancels its jobs, drops its temp tables).
    grace: Duration,
    /// Resumable sessions, keyed by the client's resume token.
    sessions: Mutex<HashMap<u64, Arc<SessionState>>>,
    /// One-shot latch for [`ServeOptions::flaky_after`].
    flaky_fired: AtomicBool,
    /// Does the hosted engine persist tables across restarts? When true,
    /// the job registry is mirrored into the WAL-logged `jb_sys_jobs`
    /// table on every transition and training checkpoint.
    durable: bool,
    /// Persist a Running job's partial forest every this many iterations.
    job_checkpoint_iters: u64,
    /// Boosting iterations trained across all jobs (drives
    /// [`ServeOptions::crash_after_iters`]).
    train_iters: AtomicU64,
    /// Byte budget across all sessions' cached replay responses.
    replay_budget: u64,
    /// Current total bytes held in sessions' replay caches.
    replay_bytes: AtomicU64,
    /// Replay-cache entries evicted under the budget (tests assert the
    /// bound bites through this).
    replay_evictions: AtomicU64,
}

impl ServeState {
    fn new(
        db: Database,
        opts: ServeOptions,
        max_jobs: usize,
        session_budget: Option<u64>,
        grace: Duration,
        job_checkpoint_iters: u64,
        replay_budget: u64,
    ) -> ServeState {
        let durable = db.config().storage_path.is_some();
        ServeState {
            db,
            opts,
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            max_jobs,
            session_budget,
            grace,
            sessions: Mutex::new(HashMap::new()),
            flaky_fired: AtomicBool::new(false),
            durable,
            job_checkpoint_iters: job_checkpoint_iters.max(1),
            train_iters: AtomicU64::new(0),
            replay_budget,
            replay_bytes: AtomicU64::new(0),
            replay_evictions: AtomicU64::new(0),
        }
    }

    /// Has the fault-injection threshold been crossed (or `kill` called)?
    fn failed(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
            || self
                .opts
                .fail_after
                .is_some_and(|n| self.requests.load(Ordering::Relaxed) >= n)
    }

    /// Look up (or create) the session for `token` and bind it to the
    /// connection `conn_id`. A reconnecting client re-presents its token
    /// and gets its surviving state back; the generation guard makes a
    /// late detach from the *previous* connection's thread a no-op.
    fn attach_session(&self, token: u64, conn_id: u64) -> Arc<SessionState> {
        let sess = Arc::clone(
            self.sessions
                .lock()
                .entry(token)
                .or_insert_with(|| Arc::new(SessionState::new(token))),
        );
        let mut inner = sess.inner.lock();
        inner.conn_gen = Some(conn_id);
        inner.detached_at = None;
        drop(inner);
        sess
    }
}

/// A resumable session: the load budget, the session's temp tables, and
/// the idempotent-replay cache. Keyed by the client's resume token, a
/// session survives connection drops for the server's grace period —
/// only the expiry sweeper reclaims it.
struct SessionState {
    token: u64,
    inner: Mutex<SessionInner>,
}

struct SessionInner {
    /// Bytes bulk-loaded via `CreateTable` in this session (frame
    /// sizes, the number the wire actually carried).
    bytes_loaded: u64,
    /// Highest sequence number applied so far (client seqs start at 1).
    /// Diagnostics only under multiplexing: a pipelined client's frames
    /// may arrive out of seq order, so replay decisions key off the
    /// window and the acked floor, never off this maximum.
    last_applied: u64,
    /// The replay window: per applied-but-unacknowledged seq, the
    /// encoded reply (`Some`), replayed verbatim when a reconnecting
    /// client re-issues a request whose reply was lost — or `None` when
    /// the cached bytes fell to the replay byte budget, in which case
    /// the replay gets a typed error instead of re-execution
    /// (exactly-once is preserved; at-least-once is not silently
    /// substituted). The client acks its lowest in-flight seq on every
    /// request, releasing older entries.
    responses: std::collections::BTreeMap<u64, Option<Vec<u8>>>,
    /// Every seq below this has been acknowledged: it can never be
    /// legitimately replayed, so a request below the floor that misses
    /// the window is answered with a typed stale-sequence error. A fresh seq at or above the floor executes
    /// regardless of arrival order.
    acked_floor: u64,
    /// `jb_`-prefixed (non-`jb_job`) tables this session created over the
    /// wire and has not dropped: reclaimed when the session expires.
    temp_tables: HashSet<String>,
    /// Connection currently bound to this session (`None` = detached).
    conn_gen: Option<u64>,
    /// When the session detached; the sweeper reclaims it `grace` later.
    detached_at: Option<Instant>,
}

impl SessionState {
    fn new(token: u64) -> SessionState {
        SessionState {
            token,
            inner: Mutex::new(SessionInner {
                bytes_loaded: 0,
                last_applied: 0,
                responses: std::collections::BTreeMap::new(),
                acked_floor: 0,
                temp_tables: HashSet::new(),
                conn_gen: None,
                detached_at: None,
            }),
        }
    }
}

/// The table a SQL statement creates or drops, read from its head tokens
/// — enough to track the session's temp tables. The emitter's canonical
/// prints (and reasonable hand-written SQL) all classify.
enum SqlWrite {
    Create(String),
    Drop(String),
    Other,
}

/// Lower-cased identifier at the head of `tok` (trailing punctuation such
/// as `(` or `;` stripped).
fn ident_of(tok: &str) -> String {
    tok.trim_end_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .to_ascii_lowercase()
}

fn classify_write(sql: &str) -> SqlWrite {
    let mut toks = sql.split_whitespace();
    let eq = |a: &str, b: &str| a.eq_ignore_ascii_case(b);
    let Some(head) = toks.next() else {
        return SqlWrite::Other;
    };
    if eq(head, "CREATE") {
        // CREATE [OR REPLACE] TABLE <name> AS …
        let mut next = toks.next();
        if next.is_some_and(|t| eq(t, "OR")) {
            toks.next(); // REPLACE
            next = toks.next();
        }
        if next.is_some_and(|t| eq(t, "TABLE")) {
            if let Some(t) = toks.next() {
                return SqlWrite::Create(ident_of(t));
            }
        }
    } else if eq(head, "DROP") && toks.next().is_some_and(|t| eq(t, "TABLE")) {
        // DROP TABLE [IF EXISTS] <name>
        let mut next = toks.next();
        if next.is_some_and(|t| eq(t, "IF")) {
            toks.next(); // EXISTS
            next = toks.next();
        }
        if let Some(t) = next {
            return SqlWrite::Drop(ident_of(t));
        }
    }
    SqlWrite::Other
}

/// Session temp tables the expiry sweeper may reclaim: the `jb_` working
/// prefix, but never the `jb_job<id>_` message tables, which belong to
/// the job registry, not to any one session.
fn is_session_temp(name: &str) -> bool {
    name.starts_with("jb_") && !name.starts_with("jb_job")
}

impl SessionInner {
    /// Record the effect of a *successful* write on this session's
    /// temp-table set.
    fn note_write(&mut self, write: &SqlWrite) {
        match write {
            SqlWrite::Create(t) if is_session_temp(t) => {
                self.temp_tables.insert(t.clone());
            }
            SqlWrite::Drop(t) => {
                self.temp_tables.remove(t);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// The WAL-logged system table mirroring the job registry on durable
/// engines. Rewritten as one `create_or_replace_table` call — a single
/// WAL statement, so no crash window can lose the whole table — on every
/// job state transition and every training checkpoint. Column layout:
/// `id`/`state`/`iters` (Int), `message` (Str), and the `spec`/`scorer`/
/// `forest` blobs hex-encoded into Str columns (wire codecs, floats by
/// bit pattern).
const JOB_REGISTRY_TABLE: &str = "jb_sys_jobs";

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
    }
    s
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// `jb_job<id>_…` message-table name → the owning job id.
fn job_table_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("jb_job")?;
    let (id, _) = rest.split_once('_')?;
    id.parse().ok()
}

/// Mirror the live job registry into [`JOB_REGISTRY_TABLE`]. A no-op on
/// non-durable engines. Write failures are swallowed: the previous
/// registry image stays in place, and recovery simply resumes from that
/// older checkpoint.
fn persist_jobs(state: &ServeState) {
    if !state.durable {
        return;
    }
    let handles: Vec<Arc<JobHandle>> = {
        let jobs = state.jobs.lock();
        let mut v: Vec<_> = jobs.values().cloned().collect();
        v.sort_by_key(|j| j.id);
        v
    };
    let n = handles.len();
    let (mut ids, mut states, mut iters) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let (mut messages, mut specs, mut scorers, mut forests) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for job in handles {
        let (tag, it, msg, scorer) = {
            let p = job.progress.lock();
            match &*p {
                JobProgress::Queued => (0i64, 0i64, String::new(), String::new()),
                JobProgress::Running { iterations } => {
                    (1, *iterations as i64, String::new(), String::new())
                }
                JobProgress::Done { iterations, spec } => (
                    2,
                    *iterations as i64,
                    String::new(),
                    spec.as_ref()
                        .map_or_else(String::new, |s| to_hex(&scorer_spec_bytes(s))),
                ),
                JobProgress::Failed(m) => (3, 0, m.clone(), String::new()),
                JobProgress::Cancelled => (4, 0, String::new(), String::new()),
            }
        };
        ids.push(job.id as i64);
        states.push(tag);
        iters.push(it);
        messages.push(msg);
        specs.push(to_hex(&job_spec_bytes(&job.spec)));
        scorers.push(scorer);
        forests.push(to_hex(&forest_bytes(&job.forest.lock())));
    }
    let table = Table::from_columns(vec![
        ("id", Column::int(ids)),
        ("state", Column::int(states)),
        ("iters", Column::int(iters)),
        ("message", Column::str(messages)),
        ("spec", Column::str(specs)),
        ("scorer", Column::str(scorers)),
        ("forest", Column::str(forests)),
    ]);
    let _ = state.db.create_or_replace_table(JOB_REGISTRY_TABLE, table);
}

/// One registry row brought back to life at boot. `resume` marks jobs
/// that were `Queued`/`Running` when the previous process died: the
/// server re-queues them and a worker picks their training back up from
/// the persisted forest checkpoint.
struct RecoveredJob {
    handle: Arc<JobHandle>,
    resume: bool,
}

/// Decode [`JOB_REGISTRY_TABLE`] into live job handles. Terminal jobs
/// come back with their final state (a `Done` job's compiled scorer
/// included, so `PredictBatch { job }` keeps answering after a restart);
/// active jobs come back `Queued` with their partial forest. Rows that
/// fail to decode surface as `Failed` jobs rather than vanishing.
fn recover_jobs(db: &Database) -> Vec<RecoveredJob> {
    if !db.has_table(JOB_REGISTRY_TABLE) {
        return Vec::new();
    }
    let Ok(t) = db.snapshot(JOB_REGISTRY_TABLE) else {
        return Vec::new();
    };
    let int_col = |name: &str| {
        t.column(None, name)
            .ok()
            .and_then(|c| c.as_i64_slice())
            .map(<[i64]>::to_vec)
    };
    let str_at = |name: &str, row: usize| {
        t.column(None, name)
            .ok()
            .map_or_else(String::new, |c| match c.get(row) {
                Datum::Str(s) => s,
                _ => String::new(),
            })
    };
    let (Some(ids), Some(tags), Some(iter_counts)) =
        (int_col("id"), int_col("state"), int_col("iters"))
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for row in 0..t.num_rows() {
        let iterations = iter_counts[row].max(0) as u64;
        let spec = from_hex(&str_at("spec", row)).and_then(|b| job_spec_from_bytes(&b).ok());
        let scorer = from_hex(&str_at("scorer", row)).and_then(|b| scorer_spec_from_bytes(&b).ok());
        let forest = from_hex(&str_at("forest", row))
            .and_then(|b| forest_from_bytes(&b).ok())
            .unwrap_or_default();
        let (progress, resume, spec) = match spec {
            None => (
                JobProgress::Failed("registry entry could not be decoded after restart".into()),
                false,
                JobSpec::default(),
            ),
            Some(spec) => {
                let p = match tags[row] {
                    0 | 1 => JobProgress::Queued,
                    2 => JobProgress::Done {
                        iterations,
                        spec: scorer,
                    },
                    3 => JobProgress::Failed(str_at("message", row)),
                    _ => JobProgress::Cancelled,
                };
                (p, matches!(tags[row], 0 | 1), spec)
            }
        };
        out.push(RecoveredJob {
            resume,
            handle: Arc::new(JobHandle {
                id: ids[row].max(0) as u64,
                owner: 0,
                cancel: AtomicBool::new(false),
                progress: Mutex::new(progress),
                spec,
                forest: Mutex::new(forest),
            }),
        });
    }
    out
}

/// Admit (or reject) a job submission, register it, and hand it to a
/// worker thread. `owner` is the submitting session's resume token.
fn submit_job(state: &Arc<ServeState>, owner: u64, spec: JobSpec) -> Response {
    {
        let jobs = state.jobs.lock();
        let active = jobs
            .values()
            .filter(|j| j.progress.lock().is_active())
            .count();
        if active >= state.max_jobs {
            // Typed backpressure on a healthy connection — the client
            // retries later instead of timing out against a hang.
            return Response::Busy(format!(
                "{active} training jobs already queued or running (limit {})",
                state.max_jobs
            ));
        }
    }
    let id = state.next_job.fetch_add(1, Ordering::Relaxed);
    let handle = Arc::new(JobHandle {
        id,
        owner,
        cancel: AtomicBool::new(false),
        progress: Mutex::new(JobProgress::Queued),
        spec,
        forest: Mutex::new(Vec::new()),
    });
    state.jobs.lock().insert(id, Arc::clone(&handle));
    // The submission is durable before any work happens: a crash from
    // here on resumes the job instead of forgetting it.
    persist_jobs(state);
    let st = Arc::clone(state);
    std::thread::spawn(move || run_job(&st, &handle));
    Response::JobSubmitted(id)
}

/// Worker-thread body: drive one job from `Queued` to a terminal state.
/// Also the resume path: a recovered job enters with a non-empty forest
/// checkpoint and training replays it before growing new trees.
fn run_job(state: &Arc<ServeState>, handle: &Arc<JobHandle>) {
    if handle.cancel.load(Ordering::Relaxed) {
        *handle.progress.lock() = JobProgress::Cancelled;
        persist_jobs(state);
        return;
    }
    *handle.progress.lock() = JobProgress::Running {
        iterations: handle.forest.lock().len() as u64,
    };
    persist_jobs(state);
    let outcome = train_job(state, handle);
    {
        let mut p = handle.progress.lock();
        *p = match outcome {
            Err(msg) => JobProgress::Failed(msg),
            Ok(compiled) => {
                let iterations = match *p {
                    JobProgress::Running { iterations } => iterations,
                    _ => 0,
                };
                if handle.cancel.load(Ordering::Relaxed) {
                    // The training loop broke early; the dataset guard has
                    // already dropped every `jb_` temp table it created.
                    JobProgress::Cancelled
                } else {
                    JobProgress::Done {
                        iterations,
                        spec: compiled,
                    }
                }
            }
        };
    }
    if matches!(&*handle.progress.lock(), JobProgress::Done { .. }) {
        // The compiled scorer is the durable artifact now; dropping the
        // forest checkpoint keeps the registry row small.
        handle.forest.lock().clear();
    }
    persist_jobs(state);
}

/// Train the job's model and, when a `key_column` was named, compile it
/// into `jb_job{id}_`-prefixed message tables that outlive training.
///
/// Training always goes through [`train_gbm_resume`] with the handle's
/// forest checkpoint as the prior: empty for a fresh submission (where
/// it is exactly `train_gbm_cb`), non-empty after a crash — the stored
/// trees are replayed statement-for-statement, so the finished model is
/// `to_bits()`-identical to an uncrashed run (see `DESIGN.md`
/// § "Durability & recovery").
fn train_job(
    state: &Arc<ServeState>,
    handle: &Arc<JobHandle>,
) -> Result<Option<ScorerSpec>, String> {
    let err = |e: EngineError| e.to_string();
    let spec = &handle.spec;
    let mut graph = JoinGraph::new();
    for (name, features) in &spec.relations {
        let refs: Vec<&str> = features.iter().map(String::as_str).collect();
        graph.add_relation(name, &refs).map_err(|e| e.to_string())?;
    }
    for (a, b, keys) in &spec.edges {
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        graph.add_edge(a, b, &refs).map_err(|e| e.to_string())?;
    }
    let set = Dataset::new(&state.db, graph, &spec.target_relation, &spec.target_column)
        .map_err(|e| e.to_string())?;
    let params = TrainParams {
        num_iterations: spec.num_iterations as usize,
        num_leaves: spec.num_leaves as usize,
        learning_rate: spec.learning_rate,
        leaf_quantization: spec.leaf_quantization,
        seed: spec.seed,
        ..TrainParams::default()
    };
    let mut prior = handle.forest.lock().clone();
    // A crash can land between the final iteration's checkpoint and the
    // Done transition; the replay prior is never longer than the target.
    prior.truncate(params.num_iterations);
    let checkpoint_every = state.job_checkpoint_iters;
    let model = train_gbm_resume(&set, &params, &prior, |iter, m| {
        let iterations = iter as u64 + 1;
        *handle.progress.lock() = JobProgress::Running { iterations };
        *handle.forest.lock() = m.trees.clone();
        if iterations % checkpoint_every == 0 {
            persist_jobs(state);
        }
        // Fault injection: die mid-training with no warning — after the
        // checkpoint above, so the restart test resumes from iteration n.
        let trained = state.train_iters.fetch_add(1, Ordering::Relaxed) + 1;
        if state.opts.crash_after_iters.is_some_and(|n| trained >= n) {
            std::process::abort();
        }
        !handle.cancel.load(Ordering::Relaxed)
    })
    .map_err(|e| e.to_string())?;
    if handle.cancel.load(Ordering::Relaxed) {
        return Ok(None);
    }
    match &spec.key_column {
        None => Ok(None),
        Some(key) => {
            // Not dataset temps: the `jb_job{id}_` tables must survive
            // the dataset guard so `PredictBatch { job }` can score.
            let mut n = 0u32;
            let prefix = format!("jb_job{}", handle.id);
            let compiled = compile_messages(&state.db, &set.graph, &model, key, &mut |hint| {
                let name = format!("{prefix}_{hint}_{n}");
                n += 1;
                name
            })
            .map_err(err)?;
            Ok(Some(compiled))
        }
    }
}

/// Serve one `PredictBatch` request: resolve the scorer spec (from a
/// finished job or inline) and score it through the engine's memoized
/// message-table index.
fn predict_batch_response(
    state: &ServeState,
    job: Option<u64>,
    spec: Option<Box<ScorerSpec>>,
    keys: &[i64],
    partial: bool,
) -> Response {
    let fail = |m: String| Response::Err(EngineError::Other(m));
    let spec: ScorerSpec = match (job, spec) {
        (Some(id), None) => {
            let handle = state.jobs.lock().get(&id).cloned();
            let Some(handle) = handle else {
                return fail(format!("unknown job id {id}"));
            };
            let p = handle.progress.lock();
            match &*p {
                JobProgress::Done { spec: Some(s), .. } => s.clone(),
                JobProgress::Done { spec: None, .. } => {
                    return fail(format!(
                        "job {id} trained without a key_column; no message tables to score"
                    ))
                }
                JobProgress::Queued => return fail(format!("job {id} is still queued")),
                JobProgress::Running { .. } => return fail(format!("job {id} is still running")),
                JobProgress::Failed(m) => return fail(format!("job {id} failed: {m}")),
                JobProgress::Cancelled => return fail(format!("job {id} was cancelled")),
            }
        }
        (None, Some(s)) => *s,
        _ => return fail("PredictBatch requires exactly one of job id or scorer spec".into()),
    };
    // Partial mode: shard-resident scoring starts from 0 so the
    // coordinator adds `init_score` exactly once per key.
    let start = if partial { 0.0 } else { spec.init_score };
    match engine_predict(&state.db, &spec, keys, start) {
        Ok(rs) => Response::Scores {
            found: rs.iter().map(|r| r.0).collect(),
            scores: rs.iter().map(|r| r.1).collect(),
        },
        Err(e) => Response::Err(e),
    }
}

/// Execute one decoded request against the hosted engine. `token` is the
/// session's resume token (the owner of any job submitted here).
fn handle_request(
    state: &Arc<ServeState>,
    token: u64,
    session: &mut SessionInner,
    req: Request,
) -> Response {
    let db = &state.db;
    let table = |r: Result<Table, EngineError>| match r {
        Ok(t) => Response::Table(t),
        Err(e) => Response::Err(e),
    };
    match req {
        Request::Hello { .. } => {
            // The connection loop answers the handshake before a session
            // exists; a second Hello is a protocol violation.
            Response::Err(EngineError::Other("Hello after handshake".into()))
        }
        Request::Execute { sql } => {
            let r = db.execute(&sql);
            if r.is_ok() {
                session.note_write(&classify_write(&sql));
            }
            table(r)
        }
        Request::CreateTable { name, table: t } => match db.create_table(&name, t) {
            Ok(()) => {
                session.note_write(&SqlWrite::Create(name.to_ascii_lowercase()));
                Response::Unit
            }
            Err(e) => Response::Err(e),
        },
        Request::Snapshot { name } => table(db.snapshot(&name)),
        Request::ColumnNames { name } => match db.column_names(&name) {
            Ok(names) => Response::Names(names),
            Err(e) => Response::Err(e),
        },
        Request::ColumnDtype { table, column } => match db.column_dtype(&table, &column) {
            Ok(d) => Response::Dtype(d),
            Err(e) => Response::Err(e),
        },
        Request::HasTable { name } => Response::Bool(db.has_table(&name)),
        Request::RowCount { name } => match db.row_count(&name) {
            Ok(n) => Response::Count(n as u64),
            Err(e) => Response::Err(e),
        },
        // Tolerant drop and bounds-checked gather share the in-process
        // transport's implementation — one copy of the semantics for
        // local and remote shards.
        Request::DropTableIfExists { name } => match ShardTransport::drop_table(db, &name) {
            Ok(()) => {
                session.note_write(&SqlWrite::Drop(name.to_ascii_lowercase()));
                Response::Unit
            }
            Err(e) => Response::Err(e),
        },
        Request::GatherRows { name, rows } => table(ShardTransport::gather_rows(db, &name, &rows)),
        Request::TableNames => Response::Names(db.table_names()),
        Request::SubmitJob { spec } => submit_job(state, token, *spec),
        Request::PollJob { id } => match state.jobs.lock().get(&id) {
            Some(job) => job.progress.lock().response(),
            None => Response::Err(EngineError::Other(format!("unknown job id {id}"))),
        },
        Request::CancelJob { id } => {
            let job = state.jobs.lock().get(&id).cloned();
            match job {
                Some(job) => {
                    // Idempotent: cancelling a terminal job just reports
                    // its (unchanged) final state.
                    cancel_job(&job);
                    let resp = job.progress.lock().response();
                    persist_jobs(state);
                    resp
                }
                None => Response::Err(EngineError::Other(format!("unknown job id {id}"))),
            }
        }
        Request::PredictBatch {
            job,
            spec,
            keys,
            partial,
        } => predict_batch_response(state, job, spec, &keys, partial),
    }
}

/// One connection's request loop. Ends on EOF, I/O error, or fault
/// injection. On exit the session is *detached*, not destroyed: its
/// state (temp tables, jobs, replay cache) survives for the server's
/// grace period so a reconnecting client can resume; the expiry sweeper
/// reclaims sessions that stay gone.
fn serve_connection(state: &Arc<ServeState>, conn_id: u64, mut stream: TcpStream) {
    let mut session: Option<Arc<SessionState>> = None;
    serve_requests(state, conn_id, &mut session, &mut stream);
    if let Some(sess) = session {
        let mut inner = sess.inner.lock();
        // Generation guard: if the client already reconnected (a newer
        // connection holds the session), this late detach is a no-op.
        if inner.conn_gen == Some(conn_id) {
            inner.conn_gen = None;
            inner.detached_at = Some(Instant::now());
        }
    }
}

/// Answer one enveloped request frame (`[u64 seq][u64 ack][request]`)
/// against the session, consulting the replay window first. Returns the
/// encoded response frame with its own `[u64 seq]` envelope; the caller
/// writes it (or drops it, under fault injection).
fn enveloped_response(
    state: &Arc<ServeState>,
    sess: &Arc<SessionState>,
    seq: u64,
    ack: u64,
    body: &[u8],
) -> Vec<u8> {
    // Response envelope: the client matches replies to in-flight
    // requests by seq.
    let envelope = |bytes: Vec<u8>| -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes.len() + 8);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&bytes);
        out
    };
    let mut inner = sess.inner.lock();
    if seq != 0 {
        match inner.responses.get(&seq) {
            Some(Some(cached)) => {
                // The request was applied but its reply was lost in a
                // drop: replay the cached (already enveloped) bytes
                // without re-executing. This is what makes retrying
                // non-idempotent statements safe.
                return cached.clone();
            }
            Some(None) => {
                // The request was applied but its cached reply fell to
                // the replay byte budget. Re-executing could
                // double-apply a non-idempotent statement, so the
                // client gets a typed error instead.
                return envelope(encode_response(&Response::Err(EngineError::Other(
                    format!(
                        "replay of sequence {seq} unavailable: cached response evicted \
                     under the server's replay byte budget"
                    ),
                ))));
            }
            None if seq < inner.acked_floor => {
                // Below the floor the client has acknowledged: it can
                // never be a legitimate replay.
                return envelope(encode_response(&Response::Err(EngineError::Other(
                    format!(
                        "stale sequence {seq}: session already applied {}",
                        inner.last_applied
                    ),
                ))));
            }
            // A fresh seq at or above the floor executes below. A
            // pipelined client's frames may arrive out of seq order,
            // so "greater than some applied seq" proves nothing.
            None => {}
        }
    }
    let resp = match decode_request(body) {
        Ok(req) => {
            // Per-session load budget: meter `CreateTable` by the
            // bytes the wire actually carried, and reject — typed,
            // on a live connection — the frame that would exceed it.
            let frame_len = body.len() as u64 + 8;
            let over_budget = matches!(req, Request::CreateTable { .. })
                && match state.session_budget {
                    None => {
                        inner.bytes_loaded = inner.bytes_loaded.saturating_add(frame_len);
                        false
                    }
                    Some(budget) => {
                        let would = inner.bytes_loaded.saturating_add(frame_len);
                        if would > budget {
                            true
                        } else {
                            inner.bytes_loaded = would;
                            false
                        }
                    }
                };
            if over_budget {
                Response::Busy(format!(
                    "session load budget exhausted: {} bytes loaded, frame of {frame_len} \
                     would exceed the {}-byte cap",
                    inner.bytes_loaded,
                    state.session_budget.unwrap_or(0)
                ))
            } else {
                handle_request(state, sess.token, &mut inner, req)
            }
        }
        Err(e) => Response::Err(e),
    };
    // A result too large for one frame becomes a *typed* error on a
    // live connection, not a silent hangup the client would read as
    // a crashed server.
    let mut out = encode_response(&resp);
    if out.len() + 8 > MAX_FRAME as usize {
        out = encode_response(&Response::Err(EngineError::Other(format!(
            "result frame of {} bytes exceeds the {MAX_FRAME}-byte wire limit; \
             transfer large tables in parts",
            out.len()
        ))));
    }
    let out = envelope(out);
    // Cache the (possibly substituted) encoded reply *before* it is
    // written: a connection drop between apply and reply then replays
    // byte-identically. The client's ack (its lowest in-flight seq)
    // releases window entries it can never replay again.
    if seq != 0 {
        inner.last_applied = inner.last_applied.max(seq);
        inner.acked_floor = inner.acked_floor.max(ack.min(seq));
        let keep = inner.acked_floor;
        let mut released = 0u64;
        while let Some(entry) = inner.responses.first_entry() {
            if *entry.key() >= keep {
                break;
            }
            released += entry.remove().map_or(0, |b| b.len()) as u64;
        }
        inner.responses.insert(seq, Some(out.clone()));
        drop(inner);
        state.replay_bytes.fetch_sub(released, Ordering::Relaxed);
        state
            .replay_bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        enforce_replay_budget(state, sess.token);
    }
    out
}

/// Bring the total bytes held across sessions' replay caches back under
/// the budget by evicting *other* sessions' cached replies — never the
/// in-flight session's, whose entry is exactly the one a reconnect would
/// need next. A session whose reply alone exceeds the budget therefore
/// keeps it; the bound is enforced against accumulation across sessions.
fn enforce_replay_budget(state: &Arc<ServeState>, keep_token: u64) {
    if state.replay_bytes.load(Ordering::Relaxed) <= state.replay_budget {
        return;
    }
    let victims: Vec<Arc<SessionState>> = state.sessions.lock().values().cloned().collect();
    for sess in victims {
        if state.replay_bytes.load(Ordering::Relaxed) <= state.replay_budget {
            return;
        }
        if sess.token == keep_token {
            continue;
        }
        // `try_lock`: a session busy applying its own request is about to
        // overwrite its cache anyway; skipping it avoids any lock-order
        // deadlock between two sessions evicting each other.
        let Some(mut inner) = sess.inner.try_lock() else {
            continue;
        };
        let mut len = 0u64;
        for v in inner.responses.values_mut() {
            if let Some(bytes) = v.take() {
                len += bytes.len() as u64;
            }
        }
        if len == 0 {
            continue;
        }
        drop(inner);
        state.replay_bytes.fetch_sub(len, Ordering::Relaxed);
        state.replay_evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Answer the handshake (the raw, un-enveloped first frame) and attach
/// the session on success. The server speaks [`VERSION`] only; any other
/// version gets a typed mismatch error.
fn hello_response(
    state: &Arc<ServeState>,
    session: &mut Option<Arc<SessionState>>,
    conn_id: u64,
    payload: &[u8],
) -> Response {
    match decode_request(payload) {
        Ok(Request::Hello {
            magic,
            version,
            token,
        }) => {
            if magic != MAGIC {
                Response::Err(EngineError::Other("bad protocol magic".into()))
            } else if version != VERSION {
                Response::Err(EngineError::Other(format!(
                    "protocol version mismatch: client {version}, server {VERSION}"
                )))
            } else {
                *session = Some(state.attach_session(token, conn_id));
                Response::Caps {
                    column_swap: state.db.config().allow_swap,
                }
            }
        }
        Ok(_) => Response::Err(EngineError::Other(
            "expected Hello as the first request".into(),
        )),
        Err(e) => Response::Err(e),
    }
}

/// splitmix64 finalizer: the deterministic hash behind
/// [`ServeOptions::reply_jitter`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn serve_requests(
    state: &Arc<ServeState>,
    conn_id: u64,
    session: &mut Option<Arc<SessionState>>,
    stream: &mut TcpStream,
) {
    loop {
        let payload = match read_frame(stream) {
            Ok(p) => p,
            Err(_) => return, // client went away (or kill() shut us down)
        };
        // Fault injection is checked *after* a request arrives — the
        // failure lands mid-round, between statements of a training run.
        let count = state.requests.fetch_add(1, Ordering::Relaxed) + 1;
        if state.failed() {
            if state.opts.stall {
                // Hung process: never answer, hold the socket until the
                // client's read timeout fires (or kill() closes us).
                loop {
                    std::thread::sleep(Duration::from_millis(50));
                    if state.shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                }
            }
            // Killed process: drop the connection, client sees EOF.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        // Recovering fault: the n-th request is received and then thrown
        // away *before* execution — the retrying client's replay
        // re-executes it from scratch.
        if state
            .opts
            .drop_every
            .is_some_and(|n| n > 0 && count % n == 0)
        {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        let out = match session {
            None => encode_response(&hello_response(state, session, conn_id, &payload)),
            Some(sess) => {
                if payload.len() < 8 {
                    encode_response(&Response::Err(EngineError::Other(
                        "wire decode: request missing its sequence envelope".into(),
                    )))
                } else {
                    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                    if payload.len() < 16 {
                        let mut out = seq.to_le_bytes().to_vec();
                        out.extend_from_slice(&encode_response(&Response::Err(
                            EngineError::Other(
                                "wire decode: request missing its ack envelope".into(),
                            ),
                        )));
                        out
                    } else {
                        let ack = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
                        enveloped_response(state, sess, seq, ack, &payload[16..])
                    }
                }
            }
        };
        // Recovering fault (one-shot): request n was *applied*, but the
        // connection drops before the reply — the client's replay must be
        // served from the session's response cache, not re-executed.
        if state.opts.flaky_after.is_some_and(|n| count >= n)
            && !state.flaky_fired.swap(true, Ordering::Relaxed)
        {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        // Deterministic reply jitter: stagger completion order across
        // shards (per-request hash of the seed), never change results.
        if let Some((jseed, max_us)) = state.opts.reply_jitter {
            if max_us > 0 {
                std::thread::sleep(Duration::from_micros(splitmix64(jseed ^ count) % max_us));
            }
        }
        if write_frame(stream, &out).is_err() {
            return;
        }
    }
}

/// Background reclaimer: a session detached for longer than the grace
/// period is removed — its active jobs are cancelled and the `jb_` temp
/// tables it created over the wire dropped, except those a scorer index
/// is being served from.
fn sweep_sessions(state: &Arc<ServeState>) {
    let now = Instant::now();
    let expired: Vec<Arc<SessionState>> = {
        let mut sessions = state.sessions.lock();
        let tokens: Vec<u64> = sessions
            .iter()
            .filter(|(_, s)| {
                let inner = s.inner.lock();
                inner.conn_gen.is_none()
                    && inner
                        .detached_at
                        .is_some_and(|t| now.duration_since(t) >= state.grace)
            })
            .map(|(&t, _)| t)
            .collect();
        tokens.iter().filter_map(|t| sessions.remove(t)).collect()
    };
    for sess in expired {
        let temps = {
            let mut inner = sess.inner.lock();
            // The session's replay window dies with it: release its bytes
            // from the global budget.
            let cached: u64 = inner
                .responses
                .values()
                .map(|v| v.as_ref().map_or(0, |b| b.len() as u64))
                .sum();
            inner.responses.clear();
            state.replay_bytes.fetch_sub(cached, Ordering::Relaxed);
            std::mem::take(&mut inner.temp_tables)
        };
        for name in temps {
            // A table a live scorer index was built from is being served
            // (a client deployed message tables, then scored them over
            // another session): it is serving state now, not this
            // session's scratch, and outlives the session.
            if !state.db.memo_uses(&name) {
                let _ = ShardTransport::drop_table(&state.db, &name);
            }
        }
        let owned: Vec<Arc<JobHandle>> = state
            .jobs
            .lock()
            .values()
            // Recovered jobs carry owner 0 and belong to no session; they
            // outlive every session expiry.
            .filter(|j| j.owner != 0 && j.owner == sess.token && j.progress.lock().is_active())
            .cloned()
            .collect();
        let cancelled = !owned.is_empty();
        for job in owned {
            cancel_job(&job);
        }
        if cancelled {
            persist_jobs(state);
        }
    }
}

/// Spawn the session-expiry sweeper; ticks every 25ms until shutdown.
fn spawn_sweeper(state: Arc<ServeState>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !state.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(25));
            sweep_sessions(&state);
        }
    })
}

fn accept_loop(listener: TcpListener, state: Arc<ServeState>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(x) => x,
            Err(_) => return,
        };
        if state.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if state.failed() && !state.opts.stall {
            // Refuse service once failed: drop fresh connections too.
            continue;
        }
        let _ = stream.set_nodelay(true);
        let id = state.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            state.conns.lock().push((id, clone));
        }
        let st = Arc::clone(&state);
        std::thread::spawn(move || {
            serve_connection(&st, id, stream);
            st.conns.lock().retain(|(i, _)| *i != id);
        });
    }
}

/// Configures a [`WireServer`]: fault injection for the chaos tests, job
/// admission control, the per-session load budget, and the session
/// grace period.
///
/// ```no_run
/// # use joinboost::backend::WireServer;
/// # use joinboost_engine::Database;
/// let server = WireServer::builder(Database::in_memory())
///     .max_jobs(2)
///     .session_budget_bytes(64 << 20)
///     .spawn()
///     .unwrap();
/// ```
pub struct WireServerBuilder {
    db: Database,
    opts: ServeOptions,
    max_jobs: usize,
    session_budget: Option<u64>,
    grace: Duration,
    job_checkpoint_iters: u64,
    replay_budget: u64,
}

impl WireServerBuilder {
    /// Fault injection: fail (hang or drop, per [`Self::stall`]) after
    /// `n` requests.
    pub fn fail_after(mut self, n: u64) -> WireServerBuilder {
        self.opts.fail_after = Some(n);
        self
    }

    /// Fault injection mode: `true` hangs the connection when failed,
    /// `false` (default) drops it.
    pub fn stall(mut self, stall: bool) -> WireServerBuilder {
        self.opts.stall = stall;
        self
    }

    /// Recovering fault injection: drop every `n`-th received request's
    /// connection *before* executing it, then keep serving (see
    /// [`ServeOptions::drop_every`]).
    pub fn drop_every(mut self, n: u64) -> WireServerBuilder {
        self.opts.drop_every = Some(n);
        self
    }

    /// Recovering fault injection, one-shot: execute request `n` but drop
    /// its connection before replying, then serve normally (see
    /// [`ServeOptions::flaky_after`]).
    pub fn flaky_after(mut self, n: u64) -> WireServerBuilder {
        self.opts.flaky_after = Some(n);
        self
    }

    /// Fault injection: abort the whole process after `n` boosting
    /// iterations have trained (see [`ServeOptions::crash_after_iters`]).
    pub fn crash_after_iters(mut self, n: u64) -> WireServerBuilder {
        self.opts.crash_after_iters = Some(n);
        self
    }

    /// Persist a running job's partial forest to the durable registry
    /// every `k` iterations (default 1: every iteration is resumable).
    /// Clamped to at least 1. No effect on non-durable engines.
    pub fn job_checkpoint_iters(mut self, k: u64) -> WireServerBuilder {
        self.job_checkpoint_iters = k.max(1);
        self
    }

    /// Byte budget across all sessions' cached replay responses (default
    /// 8 MiB). Over budget, *other* sessions' cached replies are evicted
    /// — never the session that just applied a request, so the in-flight
    /// exactly-once guarantee always holds. A client replaying into an
    /// evicted entry gets a typed error, never a silent re-execution.
    pub fn replay_budget_bytes(mut self, bytes: u64) -> WireServerBuilder {
        self.replay_budget = bytes;
        self
    }

    /// Admission control: at most `n` training jobs queued + running
    /// (default 4). Excess submissions get a typed
    /// [`Response::Busy`](super::wire::Response::Busy) rejection, not a
    /// hang.
    pub fn max_jobs(mut self, n: usize) -> WireServerBuilder {
        self.max_jobs = n;
        self
    }

    /// Admission control: cap the bytes each session may bulk-load via
    /// `CreateTable` (default unlimited).
    pub fn session_budget_bytes(mut self, bytes: u64) -> WireServerBuilder {
        self.session_budget = Some(bytes);
        self
    }

    /// How long a disconnected session's state (temp tables, active
    /// jobs, replay cache) survives before the sweeper reclaims it
    /// (default 2s). Must comfortably exceed the client's
    /// worst-case reconnect backoff.
    pub fn session_grace(mut self, grace: Duration) -> WireServerBuilder {
        self.grace = grace;
        self
    }

    /// Deterministic reply jitter: sleep a seed-derived `0..max_micros`
    /// microseconds before each reply (see [`ServeOptions::reply_jitter`]).
    /// The interleaving proptests use it to randomize cross-shard
    /// completion order without changing any result.
    pub fn reply_jitter(mut self, seed: u64, max_micros: u64) -> WireServerBuilder {
        self.opts.reply_jitter = Some((seed, max_micros));
        self
    }

    fn state(self) -> Arc<ServeState> {
        // Recover the durable job registry *before* sweeping orphans: a
        // recovered Done job vouches for its `jb_job<id>_` message
        // tables, which must survive so `PredictBatch { job }` keeps
        // answering after the restart.
        let recovered = if self.db.config().storage_path.is_some() {
            recover_jobs(&self.db)
        } else {
            Vec::new()
        };
        let keep_job_tables: HashSet<u64> = recovered
            .iter()
            .filter(|r| matches!(&*r.handle.progress.lock(), JobProgress::Done { .. }))
            .map(|r| r.handle.id)
            .collect();
        // Orphan sweep, gated on the registry: `jb_` working tables left
        // behind by a previous process are unreachable — except the
        // `jb_sys_` system tables and the message tables of recovered
        // Done jobs, which the registry still refers to.
        for name in self.db.table_names() {
            if !name.starts_with("jb_") || name.starts_with("jb_sys_") {
                continue;
            }
            if job_table_id(&name).is_some_and(|id| keep_job_tables.contains(&id)) {
                continue;
            }
            let _ = ShardTransport::drop_table(&self.db, &name);
        }
        let state = Arc::new(ServeState::new(
            self.db,
            self.opts,
            self.max_jobs,
            self.session_budget,
            self.grace,
            self.job_checkpoint_iters,
            self.replay_budget,
        ));
        if !recovered.is_empty() {
            let next = recovered.iter().map(|r| r.handle.id).max().unwrap_or(0) + 1;
            state.next_job.store(next, Ordering::Relaxed);
            let mut resumable = Vec::new();
            {
                let mut jobs = state.jobs.lock();
                for r in recovered {
                    if r.resume {
                        resumable.push(Arc::clone(&r.handle));
                    }
                    jobs.insert(r.handle.id, r.handle);
                }
            }
            // Interrupted jobs go back to work: each worker replays the
            // persisted forest checkpoint and trains the remaining
            // iterations (bit-identical to the uncrashed run).
            for handle in resumable {
                let st = Arc::clone(&state);
                std::thread::spawn(move || run_job(&st, &handle));
            }
        }
        state
    }

    /// Bind an ephemeral loopback port and serve on a background thread.
    pub fn spawn(self) -> io::Result<WireServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let state = self.state();
        let st = Arc::clone(&state);
        let accept = std::thread::spawn(move || accept_loop(listener, st));
        let sweeper = spawn_sweeper(Arc::clone(&state));
        Ok(WireServer {
            addr,
            state,
            accept: Some(accept),
            sweeper: Some(sweeper),
        })
    }

    /// Serve on `listener` until the process exits — the blocking entry
    /// point the `shard_server` binary uses; each accepted connection
    /// still gets its own thread.
    pub fn serve(self, listener: TcpListener) {
        let state = self.state();
        let _sweeper = spawn_sweeper(Arc::clone(&state));
        accept_loop(listener, state);
    }
}

/// An in-process wire server: the full remote protocol over a real
/// loopback TCP socket, hosted on a background thread. What the examples,
/// experiments and most tests use; the `shard_server` binary provides the
/// same loop as a standalone process.
pub struct WireServer {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept: Option<std::thread::JoinHandle<()>>,
    sweeper: Option<std::thread::JoinHandle<()>>,
}

impl WireServer {
    /// Start configuring a server for `db` — see [`WireServerBuilder`].
    pub fn builder(db: Database) -> WireServerBuilder {
        WireServerBuilder {
            db,
            opts: ServeOptions::default(),
            max_jobs: 4,
            session_budget: None,
            grace: Duration::from_secs(2),
            job_checkpoint_iters: 1,
            replay_budget: 8 << 20,
        }
    }

    /// The server's socket address (`127.0.0.1:<ephemeral>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted engine — tests use it to assert on server-side state
    /// (temp-table cleanup, concurrent clients' tables).
    pub fn database(&self) -> &Database {
        &self.state.db
    }

    /// Requests received so far (across all connections).
    pub fn requests(&self) -> u64 {
        self.state.requests.load(Ordering::Relaxed)
    }

    /// Scorer-index loads so far: the hosted engine's memo builds (see
    /// [`Database::memo`]). The invalidation tests assert that unrelated
    /// writes do not force reloads.
    pub fn scorer_cache_loads(&self) -> u64 {
        self.state.db.stats().memo_builds
    }

    /// Replay-cache entries evicted under the replay byte budget so far
    /// (see [`WireServerBuilder::replay_budget_bytes`]).
    pub fn replay_evictions(&self) -> u64 {
        self.state.replay_evictions.load(Ordering::Relaxed)
    }

    /// Kill the server: stop accepting and sever every live connection.
    /// Clients observe the same thing a crashed process produces.
    pub fn kill(&mut self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
        for (_, c) in self.state.conns.lock().drain(..) {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.kill();
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// How a [`RemoteConnection`] handles transport errors: how many times to
/// reconnect-and-replay, and how the backoff between attempts grows.
///
/// The default is a modest retrying policy; [`RetryPolicy::none()`]
/// restores strict fail-fast (first transport error poisons the
/// connection immediately), which the kill/stall fault tests rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Reconnect attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Cap on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Uniform jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// factor drawn from `1 ± jitter`, decorrelating a fleet of clients
    /// that failed together.
    pub jitter: f64,
}

impl RetryPolicy {
    /// Fail fast: no reconnects, the first transport error poisons the
    /// connection — the pre-v3 behavior.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// Backoff before retry number `attempt` (1-based): exponential from
    /// `base_backoff`, capped at `max_backoff`, jittered.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let base = self.base_backoff.as_secs_f64() * (1u64 << exp) as f64;
        let capped = base.min(self.max_backoff.as_secs_f64());
        let factor = if self.jitter > 0.0 {
            let unit = (entropy64() >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            1.0 + self.jitter * (2.0 * unit - 1.0)
        } else {
            1.0
        };
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter: 0.2,
        }
    }
}

/// Process-unique 64-bit values for resume tokens and backoff jitter:
/// wall clock ⊕ pid ⊕ a counter, through a SplitMix64 finalizer. Not
/// cryptographic — collisions just alias two sessions, and only within
/// one server's grace window.
fn entropy64() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let x = t
        ^ ((std::process::id() as u64) << 32)
        ^ COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh, nonzero session resume token.
fn fresh_token() -> u64 {
    entropy64() | 1
}

/// Client-side transport knobs.
#[derive(Debug, Clone, Copy)]
pub struct RemoteOptions {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Bound on every request/response exchange (read + write timeouts on
    /// the socket): a dead or hung server surfaces as an error after at
    /// most this long, never as a hang.
    pub io_timeout: Duration,
    /// Reconnect-and-replay behavior on transport errors.
    pub retry: RetryPolicy,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
        }
    }
}

/// One framed connection to a wire server: the remote flavor of
/// [`ShardTransport`], and the engine half of [`RemoteBackend`].
///
/// A connection *multiplexes*: any number of threads may have requests
/// in flight over the one socket at once. Each request carries a fresh
/// sequence number; replies carry the seq they answer, so completions
/// may arrive in any order. No dedicated I/O thread exists — whichever
/// waiting caller gets there first takes the reader role and drains
/// reply frames for everyone (leader/follower), handing the role off
/// when its own reply lands.
///
/// On a transport failure the connection reconnects under its
/// [`RetryPolicy`], re-presents its session resume token, and replays
/// *every* in-flight request (the server's replay window makes that
/// exactly-once); only an exhausted retry budget *poisons* the
/// connection, failing all in-flight requests at once, after which every
/// call fails immediately with the original error — cleanup paths
/// touching a dead shard cost nothing, they do not re-wait on timeouts.
pub struct RemoteConnection {
    /// Multiplexer bookkeeping — in-flight slots, the live socket, the
    /// seq counter. Never held across blocking socket I/O, so reply
    /// deposits can always make progress.
    mux: Mutex<MuxState>,
    /// Signals waiters: a reply was deposited, the reader role freed, or
    /// recovery finished (either way the slots say what happened).
    cv: Condvar,
    /// Serializes frame *writes* so concurrent requests cannot
    /// interleave bytes mid-frame. Held across the (possibly blocking)
    /// write and nothing else; the server drains its socket one frame at
    /// a time, so a blocked write never deadlocks against the reader.
    wlock: Mutex<()>,
    addr: String,
    opts: RemoteOptions,
    /// Session resume token presented in every handshake.
    token: u64,
    column_swap: bool,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    requests: AtomicU64,
    /// Reconnect attempts performed (diagnostics).
    retries: AtomicU64,
    poisoned: Mutex<Option<String>>,
}

/// The multiplexer state behind [`RemoteConnection::mux`].
struct MuxState {
    /// The live socket, or `None` while recovery is rebuilding it (and
    /// forever after poisoning). Senders and the reader work on
    /// `try_clone`d handles, so nothing blocks while holding the lock.
    stream: Option<TcpStream>,
    /// Monotone request sequence numbers, starting at 1.
    next_seq: u64,
    /// Every request that has not yet resolved, keyed by seq. The entry
    /// keeps the *unenveloped* request body so a reconnect can replay it
    /// with a fresh ack.
    inflight: BTreeMap<u64, Pending>,
    /// A thread currently owns the reader role (is blocked reading reply
    /// frames). At most one at a time.
    reading: bool,
    /// Bumped on every reconnect. A thread that hits an I/O error on a
    /// socket of an older generation knows someone else already
    /// recovered past that failure and must not recover again.
    generation: u64,
    /// A thread is inside [`RemoteConnection::recover`] (backoff,
    /// reconnect, replay). At most one at a time.
    recovering: bool,
}

/// One in-flight request: its body (kept for reconnect replay) and the
/// slot its reply lands in.
struct Pending {
    body: Vec<u8>,
    slot: Slot,
}

/// Completion state of an in-flight request.
enum Slot {
    /// No reply yet; on reconnect the request is replayed.
    Waiting,
    /// The reply's encoded `Response` bytes (seq envelope stripped).
    Ready(Vec<u8>),
    /// The connection died and the retry budget is spent.
    Failed(String),
}

/// `[u64 seq][u64 ack][body]` — the request envelope.
fn envelope(seq: u64, ack: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(body.len() + 16);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&ack.to_le_bytes());
    payload.extend_from_slice(body);
    payload
}

/// TCP connect + raw `Hello` handshake presenting `token`. Returns the
/// socket, the server's column-swap capability, and the handshake's
/// `(sent, received)` byte counts. Errors stay at the `io` level; the
/// caller adds the shard-address context.
fn connect_and_hello(
    addr: &str,
    opts: &RemoteOptions,
    token: u64,
) -> io::Result<(TcpStream, bool, u64, u64)> {
    let fail = io::Error::other;
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| fail(format!("connect failed: {e}")))?
        .next()
        .ok_or_else(|| fail("no address".into()))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, opts.connect_timeout)
        .map_err(|e| fail(format!("connect failed: {e}")))?;
    stream.set_read_timeout(Some(opts.io_timeout))?;
    stream.set_write_timeout(Some(opts.io_timeout))?;
    let _ = stream.set_nodelay(true);
    let hello = encode_request(&Request::Hello {
        magic: MAGIC,
        version: VERSION,
        token,
    });
    let sent = write_frame(&mut stream, &hello)? as u64;
    let frame = read_frame(&mut stream)?;
    let received = frame.len() as u64 + 4;
    match decode_response(&frame).map_err(|e| fail(e.to_string()))? {
        Response::Caps { column_swap } => Ok((stream, column_swap, sent, received)),
        Response::Err(e) => Err(fail(format!("handshake rejected: {e}"))),
        other => Err(fail(format!("bad handshake reply: {other:?}"))),
    }
}

/// Configures a [`RemoteConnection`]: address, transport timeouts, and
/// the retry policy.
///
/// ```no_run
/// # use std::time::Duration;
/// # use joinboost::backend::{RemoteConnection, RetryPolicy};
/// let conn = RemoteConnection::builder("127.0.0.1:7654")
///     .connect_timeout(Duration::from_secs(1))
///     .io_timeout(Duration::from_secs(10))
///     .retry(RetryPolicy::none())
///     .connect()
///     .unwrap();
/// ```
pub struct RemoteConnectionBuilder {
    addr: String,
    opts: RemoteOptions,
}

impl RemoteConnectionBuilder {
    /// Bound on establishing the TCP connection (default 5s).
    pub fn connect_timeout(mut self, t: Duration) -> RemoteConnectionBuilder {
        self.opts.connect_timeout = t;
        self
    }

    /// Bound on every request/response exchange (default 30s).
    pub fn io_timeout(mut self, t: Duration) -> RemoteConnectionBuilder {
        self.opts.io_timeout = t;
        self
    }

    /// Reconnect-and-replay behavior on transport errors (default: a
    /// modest retrying policy — see [`RetryPolicy`]).
    pub fn retry(mut self, policy: RetryPolicy) -> RemoteConnectionBuilder {
        self.opts.retry = policy;
        self
    }

    /// Connect, handshake, and learn the server's capabilities.
    pub fn connect(self) -> BackendResult<RemoteConnection> {
        RemoteConnection::open(&self.addr, self.opts)
    }
}

impl RemoteConnection {
    /// Start configuring a connection to `addr` — see
    /// [`RemoteConnectionBuilder`].
    pub fn builder(addr: impl ToSocketAddrs + std::fmt::Display) -> RemoteConnectionBuilder {
        RemoteConnectionBuilder {
            addr: addr.to_string(),
            opts: RemoteOptions::default(),
        }
    }

    /// The *initial* connect is single-attempt regardless of the retry
    /// policy: a server that was never there fails fast with its connect
    /// error; retries exist to ride out a server that *was* there.
    fn open(addr: &str, opts: RemoteOptions) -> BackendResult<RemoteConnection> {
        let label = addr.to_string();
        let token = fresh_token();
        let (stream, column_swap, sent, received) = connect_and_hello(&label, &opts, token)
            .map_err(|e| EngineError::Other(format!("shard server at {label}: {e}")))?;
        Ok(RemoteConnection {
            mux: Mutex::new(MuxState {
                stream: Some(stream),
                next_seq: 0,
                inflight: BTreeMap::new(),
                reading: false,
                generation: 0,
                recovering: false,
            }),
            cv: Condvar::new(),
            wlock: Mutex::new(()),
            addr: label,
            opts,
            token,
            column_swap,
            bytes_sent: AtomicU64::new(sent),
            bytes_received: AtomicU64::new(received),
            requests: AtomicU64::new(1),
            retries: AtomicU64::new(0),
            poisoned: Mutex::new(None),
        })
    }

    /// The address this connection talks to (diagnostics).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the server's engine accepts `SWAP COLUMN`.
    pub fn server_column_swap(&self) -> bool {
        self.column_swap
    }

    /// `(bytes_sent, bytes_received)` on this connection, framing
    /// included — the real shuffle volume of a distributed run.
    pub fn wire_byte_counts(&self) -> (u64, u64) {
        (
            self.bytes_sent.load(Ordering::Relaxed),
            self.bytes_received.load(Ordering::Relaxed),
        )
    }

    /// Requests completed on this connection.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Reconnect attempts performed so far (diagnostics).
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// One request/response exchange over the multiplexer: register an
    /// in-flight slot, write the enveloped frame, then wait (or read on
    /// everyone's behalf) until the reply with this seq lands. Transport
    /// failures trigger a shared reconnect-and-replay under the
    /// connection's [`RetryPolicy`]; once the budget is exhausted the
    /// connection is poisoned and the error carries the shard address.
    /// Server-side engine errors come back as the exact [`EngineError`]
    /// variant the engine raised.
    fn request(&self, req: &Request) -> BackendResult<Response> {
        let body = encode_request(req);
        if body.len() + 16 > MAX_FRAME as usize {
            // A purely client-side limit: nothing touched the socket, so
            // the connection stays healthy — no poison, typed error.
            return Err(EngineError::Other(format!(
                "request frame of {} bytes exceeds the {MAX_FRAME}-byte wire limit; \
                 transfer large tables in parts",
                body.len() + 16
            )));
        }
        let seq = {
            // Registration and the poison check share one critical
            // section with recovery's fail-everything pass, so a request
            // can never slip in after poisoning and wait forever.
            let mut mux = self.mux.lock();
            if let Some(why) = self.poisoned.lock().as_ref() {
                return Err(EngineError::Other(format!(
                    "shard server at {}: connection previously failed: {why}",
                    self.addr
                )));
            }
            mux.next_seq += 1;
            let seq = mux.next_seq;
            mux.inflight.insert(
                seq,
                Pending {
                    body,
                    slot: Slot::Waiting,
                },
            );
            seq
        };
        self.send(seq);
        let outcome = self.await_reply(seq);
        let result = match outcome {
            Ok(bytes) => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                decode_response(&bytes).map_err(|e| {
                    // A reply that decodes to garbage is a broken peer,
                    // not a recoverable drop — replaying would fetch the
                    // same cached bytes. Poison.
                    let mut p = self.poisoned.lock();
                    if p.is_none() {
                        *p = Some(e.to_string());
                    }
                    e.to_string()
                })
            }
            Err(why) => Err(why),
        };
        result.map_err(|e| EngineError::Other(format!("shard server at {}: {e}", self.addr)))
    }

    /// Envelope and write in-flight request `seq`. The ack — the lowest
    /// seq still in flight — is computed at write time, so every frame
    /// (including recovery replays) carries the freshest window release.
    /// A write failure routes into [`RemoteConnection::recover`]; a
    /// `None` stream means recovery is already rebuilding the socket and
    /// its replay pass owns delivery of this request.
    fn send(&self, seq: u64) {
        let (payload, stream, generation) = {
            let mux = self.mux.lock();
            let Some(stream) = mux.stream.as_ref() else {
                return;
            };
            let Some(p) = mux.inflight.get(&seq) else {
                return;
            };
            let ack = *mux.inflight.keys().next().expect("inflight holds seq");
            let stream = match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    let generation = mux.generation;
                    drop(mux);
                    self.recover(generation, e);
                    return;
                }
            };
            (envelope(seq, ack, &p.body), stream, mux.generation)
        };
        let mut stream = stream;
        let written = {
            let _w = self.wlock.lock();
            write_frame(&mut stream, &payload)
        };
        match written {
            Ok(n) => {
                self.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) => self.recover(generation, e),
        }
    }

    /// Block until in-flight request `seq` resolves, taking the reader
    /// role whenever it is free (leader/follower: exactly one waiter
    /// reads, deposits every reply it sees, and hands off).
    fn await_reply(&self, seq: u64) -> Result<Vec<u8>, String> {
        let mut mux = self.mux.lock();
        loop {
            match mux.inflight.get(&seq).map(|p| &p.slot) {
                Some(Slot::Waiting) => {}
                None => {
                    // Unreachable: only this thread removes its entry.
                    return Err(format!("in-flight slot for seq {seq} vanished"));
                }
                Some(_) => {
                    let p = mux.inflight.remove(&seq).expect("just matched");
                    return match p.slot {
                        Slot::Ready(bytes) => Ok(bytes),
                        Slot::Failed(why) => Err(why),
                        Slot::Waiting => unreachable!("matched resolved slot"),
                    };
                }
            }
            if !mux.reading && !mux.recovering && mux.stream.is_some() {
                let generation = mux.generation;
                match mux.stream.as_ref().expect("checked is_some").try_clone() {
                    Ok(stream) => {
                        mux.reading = true;
                        drop(mux);
                        self.read_until(seq, stream, generation);
                    }
                    Err(e) => {
                        drop(mux);
                        self.recover(generation, e);
                    }
                }
                mux = self.mux.lock();
                continue;
            }
            mux = self.cv.wait(mux);
        }
    }

    /// The reader role: drain reply frames — depositing each into its
    /// in-flight slot by seq — until our own request `seq` resolves, the
    /// socket dies (routes into recovery), or a reconnect makes this
    /// socket generation stale. Clears `reading` and wakes all waiters
    /// on every exit path.
    fn read_until(&self, seq: u64, mut stream: TcpStream, generation: u64) {
        loop {
            match read_frame(&mut stream) {
                Ok(frame) => {
                    self.bytes_received
                        .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
                    let mut mux = self.mux.lock();
                    if frame.len() >= 8 {
                        let rseq = u64::from_le_bytes(frame[..8].try_into().expect("8 bytes"));
                        if let Some(p) = mux.inflight.get_mut(&rseq) {
                            if matches!(p.slot, Slot::Waiting) {
                                p.slot = Slot::Ready(frame[8..].to_vec());
                            }
                        }
                        // An unknown or already-resolved seq is a
                        // duplicate delivery (a reconnect replay raced
                        // the original reply): drop it.
                    }
                    let mine =
                        !matches!(mux.inflight.get(&seq).map(|p| &p.slot), Some(Slot::Waiting));
                    if mine || mux.generation != generation {
                        // Hand the role off: either our reply landed or
                        // recovery replaced the socket (its replay
                        // re-delivers anything still buffered here).
                        mux.reading = false;
                        drop(mux);
                        self.cv.notify_all();
                        return;
                    }
                    drop(mux);
                    self.cv.notify_all();
                }
                Err(e) => {
                    self.mux.lock().reading = false;
                    self.cv.notify_all();
                    self.recover(generation, e);
                    return;
                }
            }
        }
    }

    /// Shared reconnect-and-replay. Exactly one thread runs this at a
    /// time: it tears down the socket of `generation` (unblocking any
    /// parked reader), then under the [`RetryPolicy`] reconnects,
    /// re-presents the resume token, and replays every request still
    /// waiting — in seq order, with fresh acks. The server's replay
    /// window turns re-delivery into exactly-once. An exhausted budget
    /// poisons the connection and fails every waiter with the last
    /// transport error.
    fn recover(&self, generation: u64, err: io::Error) {
        {
            let mut mux = self.mux.lock();
            if mux.generation != generation || mux.recovering {
                // The failure is from a socket generation someone else
                // already recovered past (or is recovering right now).
                return;
            }
            mux.recovering = true;
            mux.generation += 1;
            if let Some(s) = mux.stream.take() {
                // A reader parked on the dead socket returns immediately
                // once it is shut down.
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        let retry = self.opts.retry;
        let mut last_err = err;
        for attempt in 1..=retry.max_retries {
            self.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(retry.backoff(attempt));
            let (mut stream, sent, received) =
                match connect_and_hello(&self.addr, &self.opts, self.token) {
                    Ok((stream, _, sent, received)) => (stream, sent, received),
                    Err(e) => {
                        last_err = e;
                        continue; // reconnect failed: spend another attempt
                    }
                };
            self.bytes_sent.fetch_add(sent, Ordering::Relaxed);
            self.bytes_received.fetch_add(received, Ordering::Relaxed);
            // Install the socket and snapshot the replays in one
            // critical section: requests registered later see the live
            // stream and send themselves. (A request that does both is
            // delivered twice; the server's window and the reader's
            // resolved-slot check both drop the duplicate.)
            let replays: Vec<Vec<u8>> = {
                let mut mux = self.mux.lock();
                match stream.try_clone() {
                    Ok(s) => mux.stream = Some(s),
                    Err(e) => {
                        last_err = e;
                        continue;
                    }
                }
                let ack = mux.inflight.keys().next().copied();
                mux.inflight
                    .iter()
                    .filter(|(_, p)| matches!(p.slot, Slot::Waiting))
                    .map(|(&s, p)| envelope(s, ack.unwrap_or(s), &p.body))
                    .collect()
            };
            self.cv.notify_all();
            let mut replay_err = None;
            for payload in &replays {
                let written = {
                    let _w = self.wlock.lock();
                    write_frame(&mut stream, payload)
                };
                match written {
                    Ok(n) => {
                        self.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Err(e) => {
                        replay_err = Some(e);
                        break;
                    }
                }
            }
            match replay_err {
                None => {
                    self.mux.lock().recovering = false;
                    self.cv.notify_all();
                    return;
                }
                Some(e) => {
                    // The freshly installed socket died too: reclaim it
                    // (we still hold `recovering`, so nobody else can
                    // race a competing recovery) and spend another
                    // attempt.
                    last_err = e;
                    let mut mux = self.mux.lock();
                    mux.generation += 1;
                    if let Some(s) = mux.stream.take() {
                        let _ = s.shutdown(std::net::Shutdown::Both);
                    }
                }
            }
        }
        // Budget exhausted: poison and fail every waiter at once.
        let why = if retry.max_retries == 0 {
            last_err.to_string()
        } else {
            format!(
                "{last_err} (after {} reconnect attempts)",
                retry.max_retries
            )
        };
        let mut mux = self.mux.lock();
        {
            let mut p = self.poisoned.lock();
            if p.is_none() {
                *p = Some(why.clone());
            }
        }
        for p in mux.inflight.values_mut() {
            if matches!(p.slot, Slot::Waiting) {
                p.slot = Slot::Failed(why.clone());
            }
        }
        mux.recovering = false;
        drop(mux);
        self.cv.notify_all();
    }

    /// Request + unwrap a server-side error into the engine error it was.
    /// An admission-control rejection becomes a typed `server busy` error
    /// — like `Response::Err`, it does *not* poison the connection.
    fn call(&self, req: &Request) -> BackendResult<Response> {
        match self.request(req)? {
            Response::Err(e) => Err(e),
            Response::Busy(m) => Err(EngineError::Other(format!(
                "shard server at {}: server busy: {m}",
                self.addr
            ))),
            ok => Ok(ok),
        }
    }

    fn unexpected(&self, what: &str, got: &Response) -> EngineError {
        EngineError::Other(format!(
            "shard server at {}: unexpected reply to {what}: {got:?}",
            self.addr
        ))
    }

    /// Execute one SQL statement given as text.
    pub fn execute_text(&self, sql: &str) -> BackendResult {
        match self.call(&Request::Execute { sql: sql.into() })? {
            Response::Table(t) => Ok(t),
            other => Err(self.unexpected("Execute", &other)),
        }
    }

    /// Names of every table the server holds (diagnostics / tests).
    pub fn table_names(&self) -> BackendResult<Vec<String>> {
        match self.call(&Request::TableNames)? {
            Response::Names(n) => Ok(n),
            other => Err(self.unexpected("TableNames", &other)),
        }
    }

    /// One `PredictBatch` round trip, in any of its modes.
    fn predict_wire(
        &self,
        job: Option<u64>,
        spec: Option<&ScorerSpec>,
        keys: &[i64],
        partial: bool,
    ) -> BackendResult<Vec<(bool, f64)>> {
        match self.call(&Request::PredictBatch {
            job,
            spec: spec.map(|s| Box::new(s.clone())),
            keys: keys.to_vec(),
            partial,
        })? {
            Response::Scores { found, scores } => {
                if found.len() != keys.len() || scores.len() != keys.len() {
                    return Err(EngineError::Other(format!(
                        "shard server at {}: PredictBatch answered {} scores for {} keys",
                        self.addr,
                        scores.len(),
                        keys.len()
                    )));
                }
                Ok(found.into_iter().zip(scores).collect())
            }
            other => Err(self.unexpected("PredictBatch", &other)),
        }
    }
}

impl ShardTransport for RemoteConnection {
    fn execute(&self, stmt: &Statement) -> BackendResult {
        // SQL ships as text; the server re-parses the identical statement
        // (the round-trip fixed point of the SQL-text backend).
        self.execute_text(&stmt.to_string())
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        match self.call(&Request::CreateTable {
            name: name.into(),
            table,
        })? {
            Response::Unit => Ok(()),
            other => Err(self.unexpected("CreateTable", &other)),
        }
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        match self.call(&Request::Snapshot { name: name.into() })? {
            Response::Table(t) => Ok(t),
            other => Err(self.unexpected("Snapshot", &other)),
        }
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        match self.call(&Request::GatherRows {
            name: name.into(),
            rows: rows.to_vec(),
        })? {
            Response::Table(t) => Ok(t),
            other => Err(self.unexpected("GatherRows", &other)),
        }
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        match self.call(&Request::ColumnNames { name: table.into() })? {
            Response::Names(n) => Ok(n),
            other => Err(self.unexpected("ColumnNames", &other)),
        }
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        match self.call(&Request::ColumnDtype {
            table: table.into(),
            column: column.into(),
        })? {
            Response::Dtype(d) => Ok(d),
            other => Err(self.unexpected("ColumnDtype", &other)),
        }
    }

    fn has_table(&self, name: &str) -> bool {
        matches!(
            self.call(&Request::HasTable { name: name.into() }),
            Ok(Response::Bool(true))
        )
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        match self.call(&Request::RowCount { name: name.into() })? {
            Response::Count(n) => Ok(n as usize),
            other => Err(self.unexpected("RowCount", &other)),
        }
    }

    fn drop_table(&self, name: &str) -> BackendResult<()> {
        match self.call(&Request::DropTableIfExists { name: name.into() })? {
            Response::Unit => Ok(()),
            other => Err(self.unexpected("DropTableIfExists", &other)),
        }
    }

    fn predict_partials(&self, spec: &ScorerSpec, keys: &[i64]) -> BackendResult<Vec<(bool, f64)>> {
        // Shard-resident scoring: only keys and partial sums cross the
        // wire, never message tables.
        self.predict_wire(None, Some(spec), keys, true)
    }

    fn wire_bytes(&self) -> (u64, u64) {
        self.wire_byte_counts()
    }
}

// ---------------------------------------------------------------------------
// RemoteBackend
// ---------------------------------------------------------------------------

/// A full [`SqlBackend`] over one remote engine process.
///
/// Every statement ships as SQL text; tables move as framed columnar
/// blocks. Capabilities are learned from the server's handshake;
/// [`BackendCapabilities::external_interop`] is always off (an
/// `Arc`-shared dataframe cannot cross a process boundary), so the
/// trainer's capability checks reject the `DP` update path up front.
pub struct RemoteBackend {
    conn: RemoteConnection,
    label: String,
    statements: AtomicU64,
    selects: AtomicU64,
}

/// Configures a [`RemoteBackend`]: address plus transport timeouts.
pub struct RemoteBackendBuilder {
    inner: RemoteConnectionBuilder,
}

impl RemoteBackendBuilder {
    /// Bound on establishing the TCP connection (default 5s).
    pub fn connect_timeout(mut self, t: Duration) -> RemoteBackendBuilder {
        self.inner = self.inner.connect_timeout(t);
        self
    }

    /// Bound on every request/response exchange (default 30s).
    pub fn io_timeout(mut self, t: Duration) -> RemoteBackendBuilder {
        self.inner = self.inner.io_timeout(t);
        self
    }

    /// Reconnect-and-replay behavior on transport errors.
    pub fn retry(mut self, policy: RetryPolicy) -> RemoteBackendBuilder {
        self.inner = self.inner.retry(policy);
        self
    }

    /// Connect and wrap the connection as a full [`SqlBackend`].
    pub fn connect(self) -> BackendResult<RemoteBackend> {
        Ok(RemoteBackend::from_connection(self.inner.connect()?))
    }
}

impl RemoteBackend {
    /// Start configuring a backend for `addr` — see
    /// [`RemoteBackendBuilder`].
    pub fn builder(addr: impl ToSocketAddrs + std::fmt::Display) -> RemoteBackendBuilder {
        RemoteBackendBuilder {
            inner: RemoteConnection::builder(addr),
        }
    }

    fn from_connection(conn: RemoteConnection) -> RemoteBackend {
        RemoteBackend {
            label: "remote".to_string(),
            conn,
            statements: AtomicU64::new(0),
            selects: AtomicU64::new(0),
        }
    }

    /// The underlying connection (byte counters, diagnostics).
    pub fn connection(&self) -> &RemoteConnection {
        &self.conn
    }

    fn count(&self, sql: &str) {
        self.statements.fetch_add(1, Ordering::Relaxed);
        let head = sql.trim_start();
        // get(..6) rather than [..6]: byte 6 of arbitrary text may not be
        // a char boundary.
        if head
            .get(..6)
            .is_some_and(|h| h.eq_ignore_ascii_case("SELECT"))
        {
            self.selects.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl SqlBackend for RemoteBackend {
    fn name(&self) -> &str {
        &self.label
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities {
            window_functions: true,
            ast_statements: false,
            column_swap: self.conn.server_column_swap(),
            external_interop: false,
            shards: 1,
        }
    }

    fn execute(&self, sql: &str) -> BackendResult {
        self.count(sql);
        self.conn.execute_text(sql)
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        let sql = stmt.to_string();
        self.count(&sql);
        self.conn.execute_text(&sql)
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        ShardTransport::create_table(&self.conn, name, table)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        ShardTransport::snapshot(&self.conn, name)
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        ShardTransport::column_names(&self.conn, table)
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        ShardTransport::column_dtype(&self.conn, table, column)
    }

    fn has_table(&self, name: &str) -> bool {
        ShardTransport::has_table(&self.conn, name)
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        ShardTransport::row_count(&self.conn, name)
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        // Ship only the sample, not the snapshot it came from.
        ShardTransport::gather_rows(&self.conn, name, rows)
    }

    fn drop_table_if_exists(&self, name: &str) -> BackendResult<()> {
        ShardTransport::drop_table(&self.conn, name)
    }

    fn predict_batch(&self, spec: &ScorerSpec, keys: &[i64]) -> BackendResult<Vec<(bool, f64)>> {
        // Full scores (init included): the server holds every message
        // table, so no coordinator-side merge is needed.
        self.conn.predict_wire(None, Some(spec), keys, false)
    }

    fn stats(&self) -> BackendStats {
        let (bytes_sent, bytes_received) = self.conn.wire_byte_counts();
        BackendStats {
            statements: self.statements.load(Ordering::Relaxed),
            selects: self.selects.load(Ordering::Relaxed),
            bytes_sent,
            bytes_received,
            ..BackendStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// ServeClient
// ---------------------------------------------------------------------------

/// A client-visible job state, decoded from the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Registered, not yet picked up by a worker.
    Queued,
    /// Training; `iterations` boosting rounds finished so far.
    Running {
        /// Boosting iterations completed.
        iterations: u64,
    },
    /// Trained successfully; ready for `PredictBatch`.
    Done {
        /// Boosting iterations completed.
        iterations: u64,
    },
    /// Training raised an error (the server's message).
    Failed(String),
    /// Cancelled — explicitly or because its submitter disconnected.
    Cancelled,
}

impl JobStatus {
    /// Terminal states never change again; polling can stop.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done { .. } | JobStatus::Failed(_) | JobStatus::Cancelled
        )
    }
}

/// What a serving call can fail with. `Busy` is backpressure on a
/// healthy connection — retry later; `Engine` carries everything else
/// (transport failures, server-side errors).
#[derive(Debug)]
pub enum ServeError {
    /// The server declined admission (job limit or session budget). The
    /// connection is still usable.
    Busy(String),
    /// A transport or engine error.
    Engine(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy(m) => write!(f, "server busy: {m}"),
            ServeError::Engine(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

/// The serving-tier client: submit training jobs, poll and cancel them,
/// and score key batches against the message tables a finished job
/// compiled — all over one wire connection.
///
/// ```no_run
/// # use joinboost::backend::{JobSpec, ServeClient};
/// let client = ServeClient::connect("127.0.0.1:7654").unwrap();
/// let spec = JobSpec {
///     relations: vec![("sales".into(), vec![])],
///     edges: vec![],
///     target_relation: "sales".into(),
///     target_column: "net_profit".into(),
///     key_column: Some("sale_id".into()),
///     ..JobSpec::default()
/// };
/// let id = client.submit(&spec).unwrap();
/// let status = client.wait(id).unwrap();
/// let scores = client.predict(id, &[1, 2, 3]).unwrap();
/// ```
pub struct ServeClient {
    conn: RemoteConnection,
}

impl ServeClient {
    /// Connect to a wire server with default timeouts.
    pub fn connect(
        addr: impl ToSocketAddrs + std::fmt::Display,
    ) -> Result<ServeClient, ServeError> {
        Ok(ServeClient::from_connection(
            RemoteConnection::builder(addr).connect()?,
        ))
    }

    /// Wrap an existing connection (e.g. one built with custom timeouts).
    pub fn from_connection(conn: RemoteConnection) -> ServeClient {
        ServeClient { conn }
    }

    /// The underlying connection (byte counters, diagnostics).
    pub fn connection(&self) -> &RemoteConnection {
        &self.conn
    }

    /// Exchange, splitting `Busy` out of the error stream so callers can
    /// treat backpressure differently from failure.
    fn serve_call(&self, req: &Request) -> Result<Response, ServeError> {
        match self.conn.request(req)? {
            Response::Err(e) => Err(ServeError::Engine(e)),
            Response::Busy(m) => Err(ServeError::Busy(m)),
            ok => Ok(ok),
        }
    }

    fn status(&self, resp: Response) -> Result<JobStatus, ServeError> {
        match resp {
            Response::JobState {
                state,
                iterations,
                message,
            } => Ok(match state {
                0 => JobStatus::Queued,
                1 => JobStatus::Running { iterations },
                2 => JobStatus::Done { iterations },
                3 => JobStatus::Failed(message),
                _ => JobStatus::Cancelled,
            }),
            other => Err(ServeError::Engine(self.conn.unexpected("PollJob", &other))),
        }
    }

    /// Submit a training job; returns its id, or [`ServeError::Busy`]
    /// when the server's job limit is reached.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, ServeError> {
        match self.serve_call(&Request::SubmitJob {
            spec: Box::new(spec.clone()),
        })? {
            Response::JobSubmitted(id) => Ok(id),
            other => Err(ServeError::Engine(
                self.conn.unexpected("SubmitJob", &other),
            )),
        }
    }

    /// The job's current state. Unknown ids are an error naming the id.
    pub fn poll(&self, id: u64) -> Result<JobStatus, ServeError> {
        let resp = self.serve_call(&Request::PollJob { id })?;
        self.status(resp)
    }

    /// Request cancellation (idempotent) and report the state after it.
    /// A queued job dies immediately; a running one stops at its next
    /// iteration boundary.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, ServeError> {
        let resp = self.serve_call(&Request::CancelJob { id })?;
        self.status(resp)
    }

    /// Poll every 10ms until the job reaches a terminal state.
    pub fn wait(&self, id: u64) -> Result<JobStatus, ServeError> {
        loop {
            let status = self.poll(id)?;
            if status.is_terminal() {
                return Ok(status);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Score `keys` against the message tables job `id` compiled.
    /// `None` marks keys absent from the (implicit) join — exactly the
    /// rows a materialized inner join would not contain.
    pub fn predict(&self, id: u64, keys: &[i64]) -> Result<Vec<Option<f64>>, ServeError> {
        let rs = self
            .conn
            .predict_wire(Some(id), None, keys, false)
            .map_err(ServeError::Engine)?;
        Ok(rs.into_iter().map(|(f, s)| f.then_some(s)).collect())
    }

    /// Score `keys` against message tables described by an inline `spec`
    /// (deployed out-of-band, e.g. by [`FactorizedScorer`] compilation).
    ///
    /// [`FactorizedScorer`]: crate::serve::FactorizedScorer
    pub fn predict_spec(
        &self,
        spec: &ScorerSpec,
        keys: &[i64],
    ) -> Result<Vec<Option<f64>>, ServeError> {
        let rs = self
            .conn
            .predict_wire(None, Some(spec), keys, false)
            .map_err(ServeError::Engine)?;
        Ok(rs.into_iter().map(|(f, s)| f.then_some(s)).collect())
    }
}
