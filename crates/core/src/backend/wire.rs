//! The wire protocol of the remote backend: length-prefixed frames
//! carrying SQL *text* and columnar table blocks.
//!
//! Design (see `DESIGN.md` § "Wire protocol"):
//!
//! * **Framing** — every message is `[u32 LE length][payload]`; a frame is
//!   read fully or the connection is dead. Requests and responses are
//!   *multiplexed*: the client may have many requests in flight on
//!   one socket, and matches each response to its request by sequence
//!   number. Oversized lengths (> [`MAX_FRAME`]) are rejected before
//!   any allocation, so a corrupt or malicious peer cannot OOM the reader.
//! * **Sessions and replay** — the first frame on a connection is a raw
//!   [`Request::Hello`] carrying the protocol [`VERSION`] and a
//!   client-generated *resume token*; every later request frame is
//!   `[u64 LE seq][u64 LE ack][encoded request]` with a monotone sequence
//!   number, and every response is `[u64 LE seq][encoded response]` so a
//!   pipelined client can match out-of-order-completed replies. The
//!   server keeps, per token, the encoded responses of every
//!   applied-but-unacknowledged request (`ack` = the client's lowest
//!   in-flight seq releases older entries): a reconnecting client that re-presents its token and
//!   re-issues its in-flight requests either gets the *cached* responses
//!   (applied but the reply was lost — replay of non-idempotent
//!   CREATE/UPDATE is therefore safe) or fresh executions (they never
//!   arrived). A `Hello` of any other version gets a typed mismatch
//!   error.
//! * **SQL travels as text** — [`Request::Execute`] carries the printed
//!   statement, leaning on the `print ∘ parse ∘ print` fixed-point proved
//!   by [`crate::backend::SqlTextBackend`]: the server re-parses exactly
//!   the statement the client's planner built.
//! * **Tables travel as columnar blocks** — type tag + contiguous values
//!   per column (f64s by bit pattern, strings as dictionary + codes,
//!   validity as a packed bitmap), so a decoded [`Table`] is *bit-exact*,
//!   not just value-equal: NaN payloads, `-0.0` and dictionary order all
//!   survive. The `wire_roundtrip` proptests pin this down.
//! * **Errors stay typed** — [`EngineError`] crosses the wire as a kind
//!   tag plus its field string, so a remote `UnknownTable` is the *same*
//!   variant the local engine would have produced; transport failures (and
//!   only those) map into [`EngineError::Other`] with the shard address
//!   attached.
//!
//! Everything here is synchronous `std::io` over any `Read`/`Write` pair —
//! the repo builds without tokio, and one OS thread per connection is
//! exactly the concurrency model the sharded fan-out already uses.

use std::io::{self, Read, Write};

use bytes::BufMut;

use joinboost_engine::column::ColumnData;
use joinboost_engine::table::ColumnMeta;
use joinboost_engine::{Column, DataType, EngineError, Table};

use crate::serve::ScorerSpec;
use crate::tree::{Split, SplitCondition, Tree, TreeNode};

/// A training job as submitted over the wire: the join graph by name
/// (the referenced tables must already be loaded on the server), the
/// target binding, and the training parameters the serving tier exposes.
///
/// `key_column` names a unique `Int` column on the target relation; when
/// set, a finished job compiles its model into message tables (see
/// [`crate::serve`]) so [`Request::PredictBatch`] can score keys against
/// it without a join.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// `(relation name, feature columns)` — one entry per table.
    pub relations: Vec<(String, Vec<String>)>,
    /// `(relation a, relation b, join key columns)` edges; `a` is the
    /// many side (the graph defaults to many-to-one toward `b`).
    pub edges: Vec<(String, String, Vec<String>)>,
    /// Relation holding the target column.
    pub target_relation: String,
    /// The target (label) column.
    pub target_column: String,
    /// Predict-key column on the target relation; `None` trains without
    /// deploying message tables.
    pub key_column: Option<String>,
    /// Boosting iterations.
    pub num_iterations: u32,
    /// Leaves per tree.
    pub num_leaves: u32,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Dyadic leaf grid (0 disables; see `DESIGN.md` § Backends).
    pub leaf_quantization: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            relations: Vec::new(),
            edges: Vec::new(),
            target_relation: String::new(),
            target_column: String::new(),
            key_column: None,
            num_iterations: 3,
            num_leaves: 8,
            learning_rate: 0.5,
            leaf_quantization: (2.0f64).powi(-10),
            seed: 42,
        }
    }
}

/// Protocol magic, sent in [`Request::Hello`]: `"JBWP"` (JoinBoost wire
/// protocol).
pub const MAGIC: u32 = 0x4a42_5750;

/// Protocol version, the only one the server speaks; bumped on any
/// incompatible codec change. A `Hello` of any other version gets a typed
/// mismatch error instead of being misdecoded.
/// Version 2 added the job/predict API (`SubmitJob` … `PredictBatch`).
/// Version 3 added the session resume token in `Hello` and the per-request
/// `[u64 LE seq]` envelope that makes reconnect-and-replay safe.
/// Version 4 added multiplexing (`[seq][ack]` request envelopes, `[seq]`
/// response envelopes, a replay *window* instead of a single slot).
/// Version 5 removed the split-protocol messages: split queries travel as
/// plain [`Request::Execute`]s.
pub const VERSION: u32 = 5;

/// Upper bound on one frame's payload (64 MiB). Larger tables must be
/// loaded in parts; in practice JoinBoost's shard messages are orders of
/// magnitude smaller.
pub const MAX_FRAME: u32 = 64 << 20;

/// One client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: protocol magic + version + session resume token. Always
    /// the first (and only un-enveloped) frame on a connection. The server
    /// answers with [`Response::Caps`] or an error on a version mismatch.
    /// Re-presenting a token re-attaches the connection to that session's
    /// surviving state (temp tables, replay cache).
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`VERSION`].
        version: u32,
        /// Client-generated session resume token (nonzero in practice;
        /// absent on the wire for pre-v3 clients and decoded as 0 so the
        /// version check still produces a clean mismatch error).
        token: u64,
    },
    /// Execute one SQL statement given as text; the answer is
    /// [`Response::Table`] (empty for non-`SELECT`s).
    Execute {
        /// The statement, printed by the client's emitter.
        sql: String,
    },
    /// Bulk-load a table under the given name (columnar block).
    CreateTable {
        /// Table name to register.
        name: String,
        /// The table payload.
        table: Table,
    },
    /// Materialize a full scan of a table.
    Snapshot {
        /// Table to scan.
        name: String,
    },
    /// Column names of a table (schema lookup).
    ColumnNames {
        /// Table to describe.
        name: String,
    },
    /// Data type of one column.
    ColumnDtype {
        /// Table holding the column.
        table: String,
        /// Column to describe.
        column: String,
    },
    /// Does the table exist?
    HasTable {
        /// Table to probe.
        name: String,
    },
    /// Number of rows in a table.
    RowCount {
        /// Table to count.
        name: String,
    },
    /// Temp-table lifecycle: drop if present, succeed either way.
    DropTableIfExists {
        /// Table to drop.
        name: String,
    },
    /// Ship only the rows at the given snapshot-order positions (the
    /// messages-not-scans path of random-forest sampling).
    GatherRows {
        /// Table to sample from.
        name: String,
        /// Snapshot-order positions, in the order they should return.
        rows: Vec<u32>,
    },
    /// Names of every table the server currently holds (diagnostics; the
    /// fault-injection tests use it to prove temp-table cleanup).
    TableNames,
    /// Submit a training job; answered with [`Response::JobSubmitted`]
    /// (the job id) or [`Response::Busy`] when admission control rejects
    /// it. Training runs on a background worker; poll for progress.
    SubmitJob {
        /// The job: graph, target, parameters.
        spec: Box<JobSpec>,
    },
    /// Current state of a job; answered with [`Response::JobState`]. Any
    /// connection may poll any job id.
    PollJob {
        /// Id from [`Response::JobSubmitted`].
        id: u64,
    },
    /// Cancel a queued or running job. Idempotent: cancelling a finished
    /// or already-cancelled job answers its terminal state unchanged.
    CancelJob {
        /// Id from [`Response::JobSubmitted`].
        id: u64,
    },
    /// Score a batch of predict keys against deployed message tables;
    /// answered with [`Response::Scores`]. Either the compiled tables of
    /// a `Done` job (`job`) or an inline [`ScorerSpec`] naming
    /// server-resident tables (`spec`) — exactly one must be set.
    PredictBatch {
        /// Score against this finished job's compiled message tables.
        job: Option<u64>,
        /// Score against these server-resident tables directly.
        spec: Option<Box<ScorerSpec>>,
        /// The predict keys.
        keys: Vec<i64>,
        /// `true`: shard-partial scores accumulated from `0.0` (the
        /// caller adds the initial score once per found key); `false`:
        /// full scores starting from the model's initial score.
        partial: bool,
    },
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake answer: what the server's engine supports.
    Caps {
        /// Whether the server accepts `SWAP COLUMN` statements.
        column_swap: bool,
    },
    /// A result table (bit-exact columnar block).
    Table(Table),
    /// Success without a payload.
    Unit,
    /// A list of names.
    Names(Vec<String>),
    /// A column's data type.
    Dtype(DataType),
    /// A boolean answer.
    Bool(bool),
    /// A row count.
    Count(u64),
    /// The engine error the statement produced, variant preserved.
    Err(EngineError),
    /// Reply to [`Request::SubmitJob`]: the job id to poll.
    JobSubmitted(u64),
    /// Reply to [`Request::PollJob`] / [`Request::CancelJob`]: the job's
    /// current state.
    JobState {
        /// State tag: 0 queued, 1 running, 2 done, 3 failed, 4 cancelled.
        state: u8,
        /// Boosting iterations completed so far.
        iterations: u64,
        /// Failure message (empty unless failed).
        message: String,
    },
    /// Typed admission-control rejection (too many jobs, session budget
    /// exhausted). Deliberately *not* an [`EngineError`]: the connection
    /// stays healthy and the client may retry later.
    Busy(String),
    /// Reply to [`Request::PredictBatch`]: per key, whether its tuple is
    /// in `R⋈` and its (partial) score. Parallel to the request's keys.
    Scores {
        /// `found[i]`: key `i` is present in the join.
        found: Vec<bool>,
        /// `scores[i]`: the score (0.0 when not found).
        scores: Vec<f64>,
    },
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one `[u32 LE length][payload]` frame. Returns the total number of
/// bytes put on the wire (`payload.len() + 4`).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<usize> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(payload.len() + 4)
}

/// Read one frame; fails on EOF, short reads and oversized lengths.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Checked reader
// ---------------------------------------------------------------------------

/// Cursor over a received payload with *checked* reads: a truncated or
/// corrupt frame surfaces as a decode error, never a panic — a killed
/// server must not take the client down with it.
struct Reader<'a> {
    buf: &'a [u8],
}

type DecodeResult<T> = Result<T, EngineError>;

fn corrupt(what: &str) -> EngineError {
    EngineError::Other(format!("wire decode: {what}"))
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.buf.len() < n {
            return Err(corrupt("truncated frame"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Length-checked count of fixed-size items: guards allocations
    /// against frames whose headers promise more data than they carry.
    fn count(&mut self, item_bytes: usize) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(item_bytes.max(1)) > self.buf.len() {
            return Err(corrupt("count exceeds frame size"));
        }
        Ok(n)
    }

    fn string(&mut self) -> DecodeResult<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid utf-8"))
    }

    /// Pre-allocation guard: the next `n` items of `item_bytes` each must
    /// fit in the remaining buffer.
    fn ensure(&self, n: usize, item_bytes: usize) -> DecodeResult<()> {
        if n.saturating_mul(item_bytes) > self.buf.len() {
            return Err(corrupt("announced length exceeds frame size"));
        }
        Ok(())
    }

    /// Bytes not yet consumed (for fields optional at the tail of a
    /// message, e.g. the pre-v3 `Hello` without a resume token).
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn done(&self) -> DecodeResult<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after message"))
        }
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Table codec
// ---------------------------------------------------------------------------

const DATA_INT: u8 = 0;
const DATA_FLOAT: u8 = 1;
const DATA_STR: u8 = 2;

/// Append a columnar block encoding of `t` to `buf`. Bit-exact: floats go
/// by bit pattern, string dictionaries keep their order and codes.
pub fn encode_table(t: &Table, buf: &mut Vec<u8>) {
    buf.put_u32_le(t.num_columns() as u32);
    buf.put_u64_le(t.num_rows() as u64);
    for (meta, col) in t.meta.iter().zip(&t.columns) {
        match &meta.qualifier {
            None => buf.put_u8(0),
            Some(q) => {
                buf.put_u8(1);
                put_string(buf, q);
            }
        }
        put_string(buf, &meta.name);
        match &col.data {
            ColumnData::Int(v) => {
                buf.put_u8(DATA_INT);
                for &x in v {
                    buf.put_i64_le(x);
                }
            }
            ColumnData::Float(v) => {
                buf.put_u8(DATA_FLOAT);
                for &x in v {
                    buf.put_u64_le(x.to_bits());
                }
            }
            ColumnData::Str { dict, codes } => {
                buf.put_u8(DATA_STR);
                buf.put_u32_le(dict.len() as u32);
                for s in dict {
                    put_string(buf, s);
                }
                for &c in codes {
                    buf.put_u32_le(c);
                }
            }
        }
        match &col.validity {
            None => buf.put_u8(0),
            Some(mask) => {
                buf.put_u8(1);
                // Packed bitmap, LSB-first within each byte.
                let mut byte = 0u8;
                for (i, &ok) in mask.iter().enumerate() {
                    if ok {
                        byte |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        buf.put_u8(byte);
                        byte = 0;
                    }
                }
                if mask.len() % 8 != 0 {
                    buf.put_u8(byte);
                }
            }
        }
    }
}

fn decode_column(r: &mut Reader<'_>, nrows: usize) -> DecodeResult<Column> {
    let data = match r.u8()? {
        DATA_INT => {
            r.ensure(nrows, 8)?;
            let mut v = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                v.push(r.i64()?);
            }
            ColumnData::Int(v)
        }
        DATA_FLOAT => {
            r.ensure(nrows, 8)?;
            let mut v = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                v.push(f64::from_bits(r.u64()?));
            }
            ColumnData::Float(v)
        }
        DATA_STR => {
            let ndict = r.count(4)?;
            let mut dict = Vec::with_capacity(ndict);
            for _ in 0..ndict {
                dict.push(r.string()?);
            }
            r.ensure(nrows, 4)?;
            let mut codes = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let c = r.u32()?;
                if c as usize >= ndict {
                    return Err(corrupt("string code out of dictionary range"));
                }
                codes.push(c);
            }
            ColumnData::Str { dict, codes }
        }
        _ => return Err(corrupt("unknown column data tag")),
    };
    let validity = match r.u8()? {
        0 => None,
        1 => {
            let bytes = r.take(nrows.div_ceil(8))?;
            Some(
                (0..nrows)
                    .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
                    .collect(),
            )
        }
        _ => return Err(corrupt("unknown validity tag")),
    };
    Ok(Column { data, validity })
}

/// Decode a columnar block produced by [`encode_table`].
fn decode_table(r: &mut Reader<'_>) -> DecodeResult<Table> {
    let ncols = r.count(1)?;
    let nrows = r.u64()? as usize;
    // Each row needs at least one byte per column in the frame.
    if nrows.saturating_mul(ncols.max(1)) > (MAX_FRAME as usize) * 8 {
        return Err(corrupt("row count exceeds frame capacity"));
    }
    let mut t = Table::new();
    for _ in 0..ncols {
        let qualifier = match r.u8()? {
            0 => None,
            1 => Some(r.string()?),
            _ => return Err(corrupt("unknown qualifier tag")),
        };
        let name = r.string()?;
        let col = decode_column(r, nrows)?;
        let meta = match qualifier {
            None => ColumnMeta::new(name),
            Some(q) => ColumnMeta::qualified(q, name),
        };
        t.push_column(meta, col);
    }
    Ok(t)
}

/// Standalone table decode (the proptest entry point): the whole buffer
/// must be one encoded table.
pub fn decode_table_bytes(bytes: &[u8]) -> DecodeResult<Table> {
    let mut r = Reader::new(bytes);
    let t = decode_table(&mut r)?;
    r.done()?;
    Ok(t)
}

/// Standalone table encode (the proptest entry point).
pub fn encode_table_bytes(t: &Table) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_table(t, &mut buf);
    buf
}

// ---------------------------------------------------------------------------
// Error codec
// ---------------------------------------------------------------------------

fn encode_engine_error(e: &EngineError, buf: &mut Vec<u8>) {
    let (tag, msg): (u8, &str) = match e {
        EngineError::Parse(m) => (0, m),
        EngineError::UnknownTable(m) => (1, m),
        EngineError::TableExists(m) => (2, m),
        EngineError::UnknownColumn(m) => (3, m),
        EngineError::TypeMismatch(m) => (4, m),
        EngineError::Other(m) => (5, m),
    };
    buf.put_u8(tag);
    put_string(buf, msg);
}

fn decode_engine_error(r: &mut Reader<'_>) -> DecodeResult<EngineError> {
    let tag = r.u8()?;
    let msg = r.string()?;
    Ok(match tag {
        0 => EngineError::Parse(msg),
        1 => EngineError::UnknownTable(msg),
        2 => EngineError::TableExists(msg),
        3 => EngineError::UnknownColumn(msg),
        4 => EngineError::TypeMismatch(msg),
        5 => EngineError::Other(msg),
        _ => return Err(corrupt("unknown error tag")),
    })
}

// ---------------------------------------------------------------------------
// Job / scorer codecs
// ---------------------------------------------------------------------------

fn put_f64(buf: &mut Vec<u8>, x: f64) {
    buf.put_u64_le(x.to_bits());
}

fn put_strings(buf: &mut Vec<u8>, ss: &[String]) {
    buf.put_u32_le(ss.len() as u32);
    for s in ss {
        put_string(buf, s);
    }
}

fn read_f64(r: &mut Reader<'_>) -> DecodeResult<f64> {
    Ok(f64::from_bits(r.u64()?))
}

fn read_strings(r: &mut Reader<'_>) -> DecodeResult<Vec<String>> {
    let n = r.count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.string()?);
    }
    Ok(out)
}

fn encode_scorer_spec(spec: &ScorerSpec, buf: &mut Vec<u8>) {
    put_f64(buf, spec.init_score);
    put_f64(buf, spec.learning_rate);
    buf.put_u32_le(spec.leaf_values.len() as u32);
    for tree in &spec.leaf_values {
        buf.put_u32_le(tree.len() as u32);
        for &v in tree {
            put_f64(buf, v);
        }
    }
    put_string(buf, &spec.fact_table);
    put_string(buf, &spec.key_column);
    put_strings(buf, &spec.dim_tables);
}

fn decode_scorer_spec(r: &mut Reader<'_>) -> DecodeResult<ScorerSpec> {
    let init_score = read_f64(r)?;
    let learning_rate = read_f64(r)?;
    let nt = r.count(4)?;
    let mut leaf_values = Vec::with_capacity(nt);
    for _ in 0..nt {
        let nl = r.count(8)?;
        let mut tree = Vec::with_capacity(nl);
        for _ in 0..nl {
            tree.push(read_f64(r)?);
        }
        leaf_values.push(tree);
    }
    Ok(ScorerSpec {
        init_score,
        learning_rate,
        leaf_values,
        fact_table: r.string()?,
        key_column: r.string()?,
        dim_tables: read_strings(r)?,
    })
}

fn encode_job_spec(spec: &JobSpec, buf: &mut Vec<u8>) {
    buf.put_u32_le(spec.relations.len() as u32);
    for (name, feats) in &spec.relations {
        put_string(buf, name);
        put_strings(buf, feats);
    }
    buf.put_u32_le(spec.edges.len() as u32);
    for (a, b, keys) in &spec.edges {
        put_string(buf, a);
        put_string(buf, b);
        put_strings(buf, keys);
    }
    put_string(buf, &spec.target_relation);
    put_string(buf, &spec.target_column);
    match &spec.key_column {
        None => buf.put_u8(0),
        Some(k) => {
            buf.put_u8(1);
            put_string(buf, k);
        }
    }
    buf.put_u32_le(spec.num_iterations);
    buf.put_u32_le(spec.num_leaves);
    put_f64(buf, spec.learning_rate);
    put_f64(buf, spec.leaf_quantization);
    buf.put_u64_le(spec.seed);
}

fn decode_job_spec(r: &mut Reader<'_>) -> DecodeResult<JobSpec> {
    let nr = r.count(4)?;
    let mut relations = Vec::with_capacity(nr);
    for _ in 0..nr {
        let name = r.string()?;
        relations.push((name, read_strings(r)?));
    }
    let ne = r.count(4)?;
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        let a = r.string()?;
        let b = r.string()?;
        edges.push((a, b, read_strings(r)?));
    }
    Ok(JobSpec {
        relations,
        edges,
        target_relation: r.string()?,
        target_column: r.string()?,
        key_column: match r.u8()? {
            0 => None,
            1 => Some(r.string()?),
            _ => return Err(corrupt("unknown option tag")),
        },
        num_iterations: r.u32()?,
        num_leaves: r.u32()?,
        learning_rate: read_f64(r)?,
        leaf_quantization: read_f64(r)?,
        seed: r.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Durable registry blobs
// ---------------------------------------------------------------------------
//
// The server's durable job registry (`jb_sys_jobs`, see
// [`crate::backend::remote`]) stores job specs, compiled scorers and
// partial-forest training checkpoints as byte blobs inside engine string
// columns. The blobs reuse the wire codecs, so every float survives by
// bit pattern — the resume-bit-identity argument needs the recovered
// forest to be *exactly* the one that was checkpointed.

/// Encode a [`JobSpec`] as a standalone blob for the durable registry.
pub(crate) fn job_spec_bytes(spec: &JobSpec) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_job_spec(spec, &mut buf);
    buf
}

/// Decode a registry [`JobSpec`] blob (whole-buffer, no trailing bytes).
pub(crate) fn job_spec_from_bytes(bytes: &[u8]) -> DecodeResult<JobSpec> {
    let mut r = Reader::new(bytes);
    let spec = decode_job_spec(&mut r)?;
    r.done()?;
    Ok(spec)
}

/// Encode a [`ScorerSpec`] as a standalone blob for the durable registry.
pub(crate) fn scorer_spec_bytes(spec: &ScorerSpec) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_scorer_spec(spec, &mut buf);
    buf
}

/// Decode a registry [`ScorerSpec`] blob (whole-buffer).
pub(crate) fn scorer_spec_from_bytes(bytes: &[u8]) -> DecodeResult<ScorerSpec> {
    let mut r = Reader::new(bytes);
    let spec = decode_scorer_spec(&mut r)?;
    r.done()?;
    Ok(spec)
}

const SPLIT_LEAF: u8 = 0;
const SPLIT_LTEQ: u8 = 1;
const SPLIT_EQ_NUM: u8 = 2;
const SPLIT_EQ_STR: u8 = 3;

/// Encode a (possibly partial) forest as a standalone blob: the training
/// checkpoint the durable job registry persists every k iterations.
pub(crate) fn forest_bytes(trees: &[Tree]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u32_le(trees.len() as u32);
    for tree in trees {
        buf.put_u32_le(tree.nodes.len() as u32);
        for node in &tree.nodes {
            match &node.split {
                None => buf.put_u8(SPLIT_LEAF),
                Some(split) => {
                    match &split.cond {
                        SplitCondition::LtEq(v) => {
                            buf.put_u8(SPLIT_LTEQ);
                            put_f64(&mut buf, *v);
                        }
                        SplitCondition::EqNum(v) => {
                            buf.put_u8(SPLIT_EQ_NUM);
                            put_f64(&mut buf, *v);
                        }
                        SplitCondition::EqStr(s) => {
                            buf.put_u8(SPLIT_EQ_STR);
                            put_string(&mut buf, s);
                        }
                    }
                    put_string(&mut buf, &split.feature);
                    put_string(&mut buf, &split.relation);
                    buf.put_u8(split.default_left as u8);
                }
            }
            buf.put_u32_le(node.left as u32);
            buf.put_u32_le(node.right as u32);
            put_f64(&mut buf, node.value);
            put_f64(&mut buf, node.weight);
            buf.put_u32_le(node.depth as u32);
        }
    }
    buf
}

/// Decode a registry forest blob (whole-buffer). Bit-exact inverse of
/// [`forest_bytes`].
pub(crate) fn forest_from_bytes(bytes: &[u8]) -> DecodeResult<Vec<Tree>> {
    let mut r = Reader::new(bytes);
    let ntrees = r.count(4)?;
    let mut trees = Vec::with_capacity(ntrees);
    for _ in 0..ntrees {
        let nnodes = r.count(16)?;
        let mut nodes = Vec::with_capacity(nnodes);
        for _ in 0..nnodes {
            let tag = r.u8()?;
            let split = match tag {
                SPLIT_LEAF => None,
                SPLIT_LTEQ | SPLIT_EQ_NUM | SPLIT_EQ_STR => {
                    let cond = match tag {
                        SPLIT_LTEQ => SplitCondition::LtEq(read_f64(&mut r)?),
                        SPLIT_EQ_NUM => SplitCondition::EqNum(read_f64(&mut r)?),
                        _ => SplitCondition::EqStr(r.string()?),
                    };
                    Some(Split {
                        feature: r.string()?,
                        relation: r.string()?,
                        cond,
                        default_left: match r.u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(corrupt("bad default_left flag")),
                        },
                    })
                }
                _ => return Err(corrupt("unknown split tag")),
            };
            nodes.push(TreeNode {
                split,
                left: r.u32()? as usize,
                right: r.u32()? as usize,
                value: read_f64(&mut r)?,
                weight: read_f64(&mut r)?,
                depth: r.u32()? as usize,
            });
        }
        trees.push(Tree { nodes });
    }
    r.done()?;
    Ok(trees)
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
    }
}

fn dtype_from(tag: u8) -> DecodeResult<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        _ => return Err(corrupt("unknown dtype tag")),
    })
}

// ---------------------------------------------------------------------------
// Request / Response codecs
// ---------------------------------------------------------------------------

const REQ_HELLO: u8 = 0;
const REQ_EXECUTE: u8 = 1;
const REQ_CREATE_TABLE: u8 = 2;
const REQ_SNAPSHOT: u8 = 3;
const REQ_COLUMN_NAMES: u8 = 4;
const REQ_COLUMN_DTYPE: u8 = 5;
const REQ_HAS_TABLE: u8 = 6;
const REQ_ROW_COUNT: u8 = 7;
const REQ_DROP_IF_EXISTS: u8 = 8;
const REQ_GATHER_ROWS: u8 = 9;
const REQ_TABLE_NAMES: u8 = 10;
const REQ_SUBMIT_JOB: u8 = 17;
const REQ_POLL_JOB: u8 = 18;
const REQ_CANCEL_JOB: u8 = 19;
const REQ_PREDICT_BATCH: u8 = 20;

/// Encode one request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Hello {
            magic,
            version,
            token,
        } => {
            buf.put_u8(REQ_HELLO);
            buf.put_u32_le(*magic);
            buf.put_u32_le(*version);
            buf.put_u64_le(*token);
        }
        Request::Execute { sql } => {
            buf.put_u8(REQ_EXECUTE);
            put_string(&mut buf, sql);
        }
        Request::CreateTable { name, table } => {
            buf.put_u8(REQ_CREATE_TABLE);
            put_string(&mut buf, name);
            encode_table(table, &mut buf);
        }
        Request::Snapshot { name } => {
            buf.put_u8(REQ_SNAPSHOT);
            put_string(&mut buf, name);
        }
        Request::ColumnNames { name } => {
            buf.put_u8(REQ_COLUMN_NAMES);
            put_string(&mut buf, name);
        }
        Request::ColumnDtype { table, column } => {
            buf.put_u8(REQ_COLUMN_DTYPE);
            put_string(&mut buf, table);
            put_string(&mut buf, column);
        }
        Request::HasTable { name } => {
            buf.put_u8(REQ_HAS_TABLE);
            put_string(&mut buf, name);
        }
        Request::RowCount { name } => {
            buf.put_u8(REQ_ROW_COUNT);
            put_string(&mut buf, name);
        }
        Request::DropTableIfExists { name } => {
            buf.put_u8(REQ_DROP_IF_EXISTS);
            put_string(&mut buf, name);
        }
        Request::GatherRows { name, rows } => {
            buf.put_u8(REQ_GATHER_ROWS);
            put_string(&mut buf, name);
            buf.put_u32_le(rows.len() as u32);
            for &x in rows {
                buf.put_u32_le(x);
            }
        }
        Request::TableNames => buf.put_u8(REQ_TABLE_NAMES),
        Request::SubmitJob { spec } => {
            buf.put_u8(REQ_SUBMIT_JOB);
            encode_job_spec(spec, &mut buf);
        }
        Request::PollJob { id } => {
            buf.put_u8(REQ_POLL_JOB);
            buf.put_u64_le(*id);
        }
        Request::CancelJob { id } => {
            buf.put_u8(REQ_CANCEL_JOB);
            buf.put_u64_le(*id);
        }
        Request::PredictBatch {
            job,
            spec,
            keys,
            partial,
        } => {
            buf.put_u8(REQ_PREDICT_BATCH);
            match job {
                None => buf.put_u8(0),
                Some(id) => {
                    buf.put_u8(1);
                    buf.put_u64_le(*id);
                }
            }
            match spec {
                None => buf.put_u8(0),
                Some(s) => {
                    buf.put_u8(1);
                    encode_scorer_spec(s, &mut buf);
                }
            }
            buf.put_u32_le(keys.len() as u32);
            for &k in keys {
                buf.put_i64_le(k);
            }
            buf.put_u8(u8::from(*partial));
        }
    }
    buf
}

/// Decode one request frame payload.
pub fn decode_request(bytes: &[u8]) -> DecodeResult<Request> {
    let mut r = Reader::new(bytes);
    let req = match r.u8()? {
        REQ_HELLO => {
            let magic = r.u32()?;
            let version = r.u32()?;
            // Pre-v3 Hellos carry no token; default it so the server's
            // version check reports a clean mismatch instead of a decode
            // error.
            let token = if r.remaining() >= 8 { r.u64()? } else { 0 };
            Request::Hello {
                magic,
                version,
                token,
            }
        }
        REQ_EXECUTE => Request::Execute { sql: r.string()? },
        REQ_CREATE_TABLE => {
            let name = r.string()?;
            let table = decode_table(&mut r)?;
            Request::CreateTable { name, table }
        }
        REQ_SNAPSHOT => Request::Snapshot { name: r.string()? },
        REQ_COLUMN_NAMES => Request::ColumnNames { name: r.string()? },
        REQ_COLUMN_DTYPE => Request::ColumnDtype {
            table: r.string()?,
            column: r.string()?,
        },
        REQ_HAS_TABLE => Request::HasTable { name: r.string()? },
        REQ_ROW_COUNT => Request::RowCount { name: r.string()? },
        REQ_DROP_IF_EXISTS => Request::DropTableIfExists { name: r.string()? },
        REQ_GATHER_ROWS => {
            let name = r.string()?;
            let n = r.count(4)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(r.u32()?);
            }
            Request::GatherRows { name, rows }
        }
        REQ_TABLE_NAMES => Request::TableNames,
        REQ_SUBMIT_JOB => Request::SubmitJob {
            spec: Box::new(decode_job_spec(&mut r)?),
        },
        REQ_POLL_JOB => Request::PollJob { id: r.u64()? },
        REQ_CANCEL_JOB => Request::CancelJob { id: r.u64()? },
        REQ_PREDICT_BATCH => {
            let job = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(corrupt("unknown option tag")),
            };
            let spec = match r.u8()? {
                0 => None,
                1 => Some(Box::new(decode_scorer_spec(&mut r)?)),
                _ => return Err(corrupt("unknown option tag")),
            };
            let n = r.count(8)?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(r.i64()?);
            }
            let partial = r.u8()? != 0;
            Request::PredictBatch {
                job,
                spec,
                keys,
                partial,
            }
        }
        _ => return Err(corrupt("unknown request tag")),
    };
    r.done()?;
    Ok(req)
}

const RESP_CAPS: u8 = 0;
const RESP_TABLE: u8 = 1;
const RESP_UNIT: u8 = 2;
const RESP_NAMES: u8 = 3;
const RESP_DTYPE: u8 = 4;
const RESP_BOOL: u8 = 5;
const RESP_COUNT: u8 = 6;
const RESP_ERR: u8 = 7;
const RESP_JOB_SUBMITTED: u8 = 9;
const RESP_JOB_STATE: u8 = 10;
const RESP_BUSY: u8 = 11;
const RESP_SCORES: u8 = 12;

/// Encode one response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Caps { column_swap } => {
            buf.put_u8(RESP_CAPS);
            buf.put_u8(u8::from(*column_swap));
        }
        Response::Table(t) => {
            buf.put_u8(RESP_TABLE);
            encode_table(t, &mut buf);
        }
        Response::Unit => buf.put_u8(RESP_UNIT),
        Response::Names(names) => {
            buf.put_u8(RESP_NAMES);
            buf.put_u32_le(names.len() as u32);
            for n in names {
                put_string(&mut buf, n);
            }
        }
        Response::Dtype(d) => {
            buf.put_u8(RESP_DTYPE);
            buf.put_u8(dtype_tag(*d));
        }
        Response::Bool(b) => {
            buf.put_u8(RESP_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Response::Count(c) => {
            buf.put_u8(RESP_COUNT);
            buf.put_u64_le(*c);
        }
        Response::Err(e) => {
            buf.put_u8(RESP_ERR);
            encode_engine_error(e, &mut buf);
        }
        Response::JobSubmitted(id) => {
            buf.put_u8(RESP_JOB_SUBMITTED);
            buf.put_u64_le(*id);
        }
        Response::JobState {
            state,
            iterations,
            message,
        } => {
            buf.put_u8(RESP_JOB_STATE);
            buf.put_u8(*state);
            buf.put_u64_le(*iterations);
            put_string(&mut buf, message);
        }
        Response::Busy(reason) => {
            buf.put_u8(RESP_BUSY);
            put_string(&mut buf, reason);
        }
        Response::Scores { found, scores } => {
            buf.put_u8(RESP_SCORES);
            buf.put_u32_le(found.len() as u32);
            for (&f, &s) in found.iter().zip(scores) {
                buf.put_u8(u8::from(f));
                put_f64(&mut buf, s);
            }
        }
    }
    buf
}

/// Decode one response frame payload.
pub fn decode_response(bytes: &[u8]) -> DecodeResult<Response> {
    let mut r = Reader::new(bytes);
    let resp = match r.u8()? {
        RESP_CAPS => Response::Caps {
            column_swap: r.u8()? != 0,
        },
        RESP_TABLE => Response::Table(decode_table(&mut r)?),
        RESP_UNIT => Response::Unit,
        RESP_NAMES => {
            let n = r.count(4)?;
            let mut names = Vec::with_capacity(n);
            for _ in 0..n {
                names.push(r.string()?);
            }
            Response::Names(names)
        }
        RESP_DTYPE => Response::Dtype(dtype_from(r.u8()?)?),
        RESP_BOOL => Response::Bool(r.u8()? != 0),
        RESP_COUNT => Response::Count(r.u64()?),
        RESP_ERR => Response::Err(decode_engine_error(&mut r)?),
        RESP_JOB_SUBMITTED => Response::JobSubmitted(r.u64()?),
        RESP_JOB_STATE => {
            let state = r.u8()?;
            if state > 4 {
                return Err(corrupt("unknown job state tag"));
            }
            Response::JobState {
                state,
                iterations: r.u64()?,
                message: r.string()?,
            }
        }
        RESP_BUSY => Response::Busy(r.string()?),
        RESP_SCORES => {
            let n = r.count(9)?;
            let mut found = Vec::with_capacity(n);
            let mut scores = Vec::with_capacity(n);
            for _ in 0..n {
                found.push(r.u8()? != 0);
                scores.push(read_f64(&mut r)?);
            }
            Response::Scores { found, scores }
        }
        _ => return Err(corrupt("unknown response tag")),
    };
    r.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::Datum;

    fn sample_scorer_spec() -> ScorerSpec {
        ScorerSpec {
            init_score: 1.5,
            learning_rate: 0.5,
            leaf_values: vec![vec![-0.25, 0.75], vec![0.0]],
            fact_table: "jb_job1_msg_fact".into(),
            key_column: "sale_id".into(),
            dim_tables: vec!["jb_job1_msg_items".into(), "jb_job1_msg_dates".into()],
        }
    }

    fn sample_table() -> Table {
        let mut t = Table::new();
        t.push_column(ColumnMeta::new("a"), Column::int(vec![1, -5, i64::MAX]));
        t.push_column(
            ColumnMeta::qualified("q", "b"),
            Column {
                data: ColumnData::Float(vec![0.5, -0.0, f64::NAN]),
                validity: Some(vec![true, false, true]),
            },
        );
        t.push_column(
            ColumnMeta::new("c"),
            Column::str(vec!["x".into(), "".into(), "x".into()]),
        );
        t
    }

    #[test]
    fn table_roundtrips_bit_exactly() {
        let t = sample_table();
        let bytes = encode_table_bytes(&t);
        let back = decode_table_bytes(&bytes).unwrap();
        // Bit-exact: re-encoding the decoded table yields identical bytes
        // (PartialEq would miss NaN payloads and -0.0).
        assert_eq!(encode_table_bytes(&back), bytes);
        assert_eq!(back.num_rows(), 3);
        assert_eq!(back.meta, t.meta);
        assert_eq!(back.columns[1].get(1), Datum::Null);
    }

    #[test]
    fn empty_and_zero_column_tables_roundtrip() {
        for t in [
            Table::new(),
            Table::from_columns(vec![("x", Column::int(vec![]))]),
        ] {
            let bytes = encode_table_bytes(&t);
            let back = decode_table_bytes(&bytes).unwrap();
            assert_eq!(encode_table_bytes(&back), bytes);
            assert_eq!(back.num_rows(), 0);
            assert_eq!(back.num_columns(), t.num_columns());
        }
    }

    #[test]
    fn truncated_and_corrupt_frames_error_not_panic() {
        let t = sample_table();
        let bytes = encode_table_bytes(&t);
        for cut in 0..bytes.len() {
            assert!(decode_table_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A frame announcing more rows than it carries must not allocate
        // or panic.
        let mut evil = Vec::new();
        evil.put_u32_le(1); // one column
        evil.put_u64_le(u64::MAX); // absurd row count
        assert!(decode_table_bytes(&evil).is_err());
        assert!(decode_request(&[99]).is_err());
        assert!(decode_response(&[99]).is_err());
    }

    #[test]
    fn requests_and_responses_roundtrip() {
        let reqs = vec![
            Request::Hello {
                magic: MAGIC,
                version: VERSION,
                token: 0x5eed_f00d_dead_beef,
            },
            Request::Execute {
                sql: "SELECT a, SUM(y) AS s FROM r GROUP BY a".into(),
            },
            Request::CreateTable {
                name: "t".into(),
                table: sample_table(),
            },
            Request::Snapshot { name: "t".into() },
            Request::ColumnNames { name: "t".into() },
            Request::ColumnDtype {
                table: "t".into(),
                column: "a".into(),
            },
            Request::HasTable { name: "t".into() },
            Request::RowCount { name: "t".into() },
            Request::DropTableIfExists { name: "t".into() },
            Request::GatherRows {
                name: "t".into(),
                rows: vec![2, 0, 2],
            },
            Request::TableNames,
            Request::SubmitJob {
                spec: Box::new(JobSpec {
                    relations: vec![
                        ("sales".into(), vec![]),
                        ("items".into(), vec!["f_items".into()]),
                    ],
                    edges: vec![("sales".into(), "items".into(), vec!["items_id".into()])],
                    target_relation: "sales".into(),
                    target_column: "net_profit".into(),
                    key_column: Some("sale_id".into()),
                    ..JobSpec::default()
                }),
            },
            Request::PollJob { id: 7 },
            Request::CancelJob { id: u64::MAX },
            Request::PredictBatch {
                job: Some(7),
                spec: None,
                keys: vec![1, -1, i64::MAX],
                partial: true,
            },
            Request::PredictBatch {
                job: None,
                spec: Some(Box::new(sample_scorer_spec())),
                keys: vec![],
                partial: false,
            },
        ];
        for req in reqs {
            let enc = encode_request(&req);
            let back = decode_request(&enc).unwrap();
            // Compare via re-encoding: PartialEq on a NaN-bearing table
            // would reject a perfectly bit-exact round-trip.
            assert_eq!(encode_request(&back), enc, "{req:?}");
        }
        let resps = vec![
            Response::Caps { column_swap: true },
            Response::Table(sample_table()),
            Response::Unit,
            Response::Names(vec!["a".into(), "b".into()]),
            Response::Dtype(DataType::Str),
            Response::Bool(false),
            Response::Count(42),
            Response::Err(EngineError::UnknownTable("ghost".into())),
            Response::JobSubmitted(12),
            Response::JobState {
                state: 3,
                iterations: 2,
                message: "boom".into(),
            },
            Response::Busy("4 jobs already running".into()),
            Response::Scores {
                found: vec![true, false, true],
                scores: vec![-0.0, 0.0, f64::NAN],
            },
        ];
        for resp in resps {
            let enc = encode_response(&resp);
            let back = decode_response(&enc).unwrap();
            // Compare via re-encoding (NaN-proof) and structurally.
            assert_eq!(encode_response(&back), enc, "{resp:?}");
        }
    }

    #[test]
    fn pre_v3_hello_without_token_decodes_with_token_zero() {
        // A v2 client's Hello stops after magic + version; the decoder
        // must surface it (token 0) so the server can answer with a
        // version-mismatch error rather than a decode error.
        let mut old = Vec::new();
        old.put_u8(0); // REQ_HELLO
        old.put_u32_le(MAGIC);
        old.put_u32_le(2);
        assert_eq!(
            decode_request(&old).unwrap(),
            Request::Hello {
                magic: MAGIC,
                version: 2,
                token: 0,
            }
        );
    }

    #[test]
    fn frames_roundtrip_over_a_byte_pipe() {
        let payload = encode_request(&Request::Execute {
            sql: "SELECT 1 AS one".into(),
        });
        let mut pipe = Vec::new();
        let sent = write_frame(&mut pipe, &payload).unwrap();
        assert_eq!(sent, payload.len() + 4);
        let mut cursor: &[u8] = &pipe;
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        // Oversized length prefix is rejected before allocation.
        let mut evil: &[u8] = &(MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut evil).is_err());
    }
}
