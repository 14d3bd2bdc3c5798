//! Outside-in tracing: spans recorded by wrappers around the seams the
//! program already exposes — the `&dyn SqlBackend` a [`Dataset`] runs on,
//! the [`ShardTransport`]s a [`ShardedBackend`] fans out to (and the
//! [`SplitHandle`]s they open), and the predict calls of the serving
//! client. Every wrapper forwards every call unchanged, so a traced run
//! executes the same program as an untraced one.
//!
//! Spans live in memory (name, start, end, parent, run id) and are written
//! out once, when the benchmark ends. Statements seen by the backend
//! wrapper are captured too, so their SQL class and the cost of printing
//! and parsing them can be worked out after the run.
//!
//! [`Dataset`]: joinboost::Dataset
//! [`ShardedBackend`]: joinboost::ShardedBackend

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use joinboost::backend::split::{IntervalSummary, SplitHandle, SplitSpec};
use joinboost::backend::{
    BackendCapabilities, BackendResult, BackendStats, ShardTransport, SplitOpen, SqlBackend,
};
use joinboost::ScorerSpec;
use joinboost_engine::interop::ExternalTable;
use joinboost_engine::{DataType, Datum, Table};
use joinboost_sql::ast::{Statement, TableRef};

/// No statement attached to a span.
const NO_STMT: u32 = u32::MAX;

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Which traced repetition the span belongs to.
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index into the captured statements, or [`NO_STMT`].
    pub stmt: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A statement as the backend received it.
pub enum Captured {
    Text(String),
    Ast(Box<Statement>),
}

/// SQL statement classes of the training loop (the discriminant indexes
/// per-class tallies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Message,
    Split,
    Update,
    Other,
}

impl Class {
    /// Classify from the AST: message tables are the `*_msg_*` temp
    /// tables, split queries are the `LIMIT 1` argmax over a subquery,
    /// updates rewrite the lifted fact (`UPDATE`, `CREATE OR REPLACE`,
    /// column swap and its `*_delta_*`/`*_u_*` helpers).
    pub fn of(stmt: &Statement) -> Class {
        match stmt {
            Statement::CreateTableAs {
                name, or_replace, ..
            } => {
                if *or_replace || name.contains("_delta_") || name.contains("_u_") {
                    Class::Update
                } else if name.contains("_msg_") {
                    Class::Message
                } else {
                    Class::Other
                }
            }
            Statement::Update { .. } | Statement::SwapColumn { .. } => Class::Update,
            Statement::Select(q)
                if q.limit == Some(1) && matches!(q.from, Some(TableRef::Subquery { .. })) =>
            {
                Class::Split
            }
            _ => Class::Other,
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static DRIVER: Cell<bool> = const { Cell::new(false) };
}

/// The span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    statements: Mutex<Vec<Captured>>,
    next_id: AtomicU64,
    run: AtomicU32,
    /// Innermost open span of the driving thread: the parent of spans
    /// opened on fan-out threads, which have no stack of their own.
    ambient: AtomicU64,
}

impl Tracer {
    /// A fresh tracer; the calling thread becomes the driving thread.
    pub fn new() -> Arc<Tracer> {
        DRIVER.with(|d| d.set(true));
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            statements: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            run: AtomicU32::new(0),
            ambient: AtomicU64::new(0),
        })
    }

    /// Spans recorded from now on belong to traced repetition `run`.
    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_stmt(name, NO_STMT, f)
    }

    fn span_stmt<T>(&self, name: &'static str, stmt: u32, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let driver = DRIVER.with(Cell::get);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s
                .last()
                .copied()
                .unwrap_or_else(|| self.ambient.load(Ordering::Relaxed));
            s.push(id);
            parent
        });
        if driver {
            self.ambient.store(id, Ordering::Relaxed);
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        if driver {
            self.ambient.store(parent, Ordering::Relaxed);
        }
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
            stmt,
        });
        out
    }

    /// Record a measured window of the traced run, from `start` to now:
    /// the wall-clock the layer self times are compared against.
    pub fn window(&self, start: Instant) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span store poisoned").push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            run: self.run.load(Ordering::Relaxed),
            name: "window",
            start_ns,
            end_ns: self.now_ns(),
            stmt: NO_STMT,
        });
    }

    /// Time a statement execution and capture the statement.
    fn statement<T>(&self, captured: Captured, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut st = self.statements.lock().expect("statement store poisoned");
            st.push(captured);
            (st.len() - 1) as u32
        };
        self.span_stmt("backend.stmt", idx, f)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// The captured statements, leaving the store empty.
    pub fn take_statements(&self) -> Vec<Captured> {
        std::mem::take(&mut *self.statements.lock().expect("statement store poisoned"))
    }

    /// Write every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Class of the span's statement (`None` for non-statement spans).
pub fn span_class(span: &Span, classes: &[Class]) -> Option<Class> {
    (span.stmt != NO_STMT).then(|| classes[span.stmt as usize])
}

// ---------------------------------------------------------------------------
// Interval arithmetic for self times.
// ---------------------------------------------------------------------------

/// Total length (ns) of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Length (ns) of `[lo, hi)` covered by the union of `iv`.
pub fn covered_ns(lo: u64, hi: u64, iv: &[(u64, u64)]) -> u64 {
    union_ns(
        iv.iter()
            .filter(|&&(s, e)| e > lo && s < hi)
            .map(|&(s, e)| (s.max(lo), e.min(hi)))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// The backend seam.
// ---------------------------------------------------------------------------

/// A [`SqlBackend`] that times and forwards every call to `inner`.
pub struct TracedBackend<'a> {
    pub inner: &'a dyn SqlBackend,
    pub tracer: Arc<Tracer>,
}

impl SqlBackend for TracedBackend<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> BackendCapabilities {
        self.inner.capabilities()
    }

    fn execute(&self, sql: &str) -> BackendResult {
        self.tracer
            .statement(Captured::Text(sql.to_string()), || self.inner.execute(sql))
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        self.tracer
            .statement(Captured::Ast(Box::new(stmt.clone())), || {
                self.inner.execute_ast(stmt)
            })
    }

    fn query(&self, sql: &str) -> BackendResult {
        self.tracer
            .statement(Captured::Text(sql.to_string()), || self.inner.query(sql))
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        self.tracer
            .span("backend.load", || self.inner.create_table(name, table))
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        self.tracer
            .span("backend.other", || self.inner.snapshot(name))
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        self.tracer
            .span("backend.other", || self.inner.column_names(table))
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        self.tracer
            .span("backend.other", || self.inner.column_dtype(table, column))
    }

    fn has_table(&self, name: &str) -> bool {
        self.tracer
            .span("backend.other", || self.inner.has_table(name))
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        self.tracer
            .span("backend.other", || self.inner.row_count(name))
    }

    fn create_partitioned_table(&self, name: &str, table: Table, key: &str) -> BackendResult<()> {
        self.tracer.span("backend.other", || {
            self.inner.create_partitioned_table(name, table, key)
        })
    }

    fn predict_batch(&self, spec: &ScorerSpec, keys: &[i64]) -> BackendResult<Vec<(bool, f64)>> {
        self.tracer
            .span("backend.predict", || self.inner.predict_batch(spec, keys))
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        self.tracer
            .span("backend.other", || self.inner.gather_rows(name, rows))
    }

    fn map_partitions(
        &self,
        name: &str,
        f: &mut dyn FnMut(usize, &Table) -> BackendResult<Table>,
    ) -> BackendResult<Vec<Table>> {
        self.tracer
            .span("backend.other", || self.inner.map_partitions(name, f))
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn drop_table_if_exists(&self, name: &str) -> BackendResult<()> {
        self.tracer
            .span("backend.other", || self.inner.drop_table_if_exists(name))
    }

    fn register_external(&self, name: &str, table: &Table) -> BackendResult<()> {
        self.tracer.span("backend.other", || {
            self.inner.register_external(name, table)
        })
    }

    fn external(&self, name: &str) -> BackendResult<Arc<ExternalTable>> {
        self.tracer
            .span("backend.other", || self.inner.external(name))
    }
}

// ---------------------------------------------------------------------------
// The shard transport seam.
// ---------------------------------------------------------------------------

/// A [`ShardTransport`] that times and forwards every call to `inner`.
pub struct TracedTransport<T> {
    pub inner: T,
    pub tracer: Arc<Tracer>,
}

impl<T: ShardTransport> ShardTransport for TracedTransport<T> {
    fn execute(&self, stmt: &Statement) -> BackendResult {
        self.tracer
            .span("remote.execute", || self.inner.execute(stmt))
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        self.tracer
            .span("remote.other", || self.inner.create_table(name, table))
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        self.tracer
            .span("remote.other", || self.inner.snapshot(name))
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        self.tracer
            .span("remote.other", || self.inner.gather_rows(name, rows))
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        self.tracer
            .span("remote.other", || self.inner.column_names(table))
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        self.tracer
            .span("remote.other", || self.inner.column_dtype(table, column))
    }

    fn has_table(&self, name: &str) -> bool {
        self.tracer
            .span("remote.other", || self.inner.has_table(name))
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        self.tracer
            .span("remote.other", || self.inner.row_count(name))
    }

    fn drop_table(&self, name: &str) -> BackendResult<()> {
        self.tracer
            .span("remote.other", || self.inner.drop_table(name))
    }

    fn query(&self, sql: &str) -> BackendResult {
        self.tracer.span("remote.execute", || self.inner.query(sql))
    }

    fn split_open(
        &self,
        stmt: &Statement,
        spec: &SplitSpec,
        k: usize,
    ) -> BackendResult<SplitOpen<'_>> {
        let opened = self
            .tracer
            .span("remote.split_open", || self.inner.split_open(stmt, spec, k))?;
        Ok(match opened {
            SplitOpen::Protocol { handle, bounds } => SplitOpen::Protocol {
                handle: Box::new(TracedSplitHandle {
                    inner: handle,
                    tracer: &self.tracer,
                }),
                bounds,
            },
            dense => dense,
        })
    }

    fn predict_partials(&self, spec: &ScorerSpec, keys: &[i64]) -> BackendResult<Vec<(bool, f64)>> {
        self.tracer
            .span("remote.predict", || self.inner.predict_partials(spec, keys))
    }

    fn wire_bytes(&self) -> (u64, u64) {
        self.inner.wire_bytes()
    }

    fn split_wire_bytes(&self) -> (u64, u64) {
        self.inner.split_wire_bytes()
    }
}

/// A [`SplitHandle`] whose protocol rounds are timed.
struct TracedSplitHandle<'a> {
    inner: Box<dyn SplitHandle + 'a>,
    tracer: &'a Tracer,
}

impl SplitHandle for TracedSplitHandle<'_> {
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn boundaries(&self, k: usize) -> BackendResult<Vec<Datum>> {
        self.tracer
            .span("remote.split_round", || self.inner.boundaries(k))
    }

    fn summaries(&self, grid: &[Datum]) -> BackendResult<Vec<IntervalSummary>> {
        self.tracer
            .span("remote.split_round", || self.inner.summaries(grid))
    }

    fn summaries_delta(
        &self,
        grid: &[Datum],
        changed: &[usize],
    ) -> BackendResult<Vec<IntervalSummary>> {
        self.tracer.span("remote.split_round", || {
            self.inner.summaries_delta(grid, changed)
        })
    }

    fn refine(&self, grid: &[Datum], targets: &[(usize, usize)]) -> BackendResult<Vec<Datum>> {
        self.tracer
            .span("remote.split_round", || self.inner.refine(grid, targets))
    }

    fn fetch(&self, grid: &[Datum], retain: &[bool]) -> BackendResult<Table> {
        self.tracer
            .span("remote.split_round", || self.inner.fetch(grid, retain))
    }

    fn into_all_rows(self: Box<Self>) -> BackendResult<Table> {
        let TracedSplitHandle { inner, tracer } = *self;
        tracer.span("remote.split_round", || inner.into_all_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered_ns(8, 22, &[(0, 10), (5, 15), (20, 25)]), 9);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn classifies_training_statements() {
        let parse = |s: &str| joinboost_sql::parse_statement(s).unwrap();
        assert_eq!(
            Class::of(&parse(
                "CREATE TABLE jb_1_msg_3 AS SELECT a, SUM(x) AS c FROM t GROUP BY a"
            )),
            Class::Message
        );
        assert_eq!(
            Class::of(&parse("CREATE OR REPLACE TABLE f AS SELECT a FROM f")),
            Class::Update
        );
        assert_eq!(Class::of(&parse("UPDATE f SET a = 1")), Class::Update);
        assert_eq!(
            Class::of(&parse(
                "SELECT val FROM (SELECT val FROM g ORDER BY val) AS m ORDER BY val LIMIT 1"
            )),
            Class::Split
        );
        assert_eq!(Class::of(&parse("SELECT SUM(x) AS s FROM t")), Class::Other);
    }
}
