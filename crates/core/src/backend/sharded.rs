//! The sharded fan-out backend: one fact partition per engine instance.
//!
//! Reproduces the paper's multi-node setup (Figures 12–13) behind the
//! [`SqlBackend`] trait: dimension tables are replicated to every shard
//! (and to a coordinator engine), the fact relation is hash-partitioned on
//! a shard key, and every table *derived from* the fact — the lifted fact,
//! its messages — stays shard-local. Statements route by the tables they
//! reference:
//!
//! * statements touching a sharded table broadcast to all shards (DDL,
//!   residual updates) or fan out and merge (`SELECT`s),
//! * statements over replicated tables run everywhere (so replicas stay
//!   in sync) or on the coordinator alone (plain reads).
//!
//! `SELECT`s over sharded data come in three shapes:
//!
//! 1. **distributable SPJA aggregates** (`SELECT keys, SUM(..) .. GROUP BY
//!    keys`) — executed on every shard in parallel, partial aggregates
//!    `⊕`-merged by group key (SUM/COUNT partials add, MIN/MAX partials
//!    take the best). Because the fact partition induces a disjoint
//!    partition of the join result, the merge is exact ⊕, not an
//!    approximation (Definition 1: `c`, `s`, `q` are additive). A group
//!    key missing from the output (histogram-binned absorbs, `GROUP BY
//!    FLOOR(..)`) is *injected* as an extra output column per shard and
//!    projected away after the merge.
//! 2. **plain scans** (no aggregates/windows/ordering) — gathered by
//!    concatenating shard results in shard order.
//! 3. **split queries** (window prefix sums + argmax over an absorbed
//!    aggregate, the shape of [`crate::sqlgen::numeric_split_query`]) —
//!    one SPJA query whose partial aggregates `⊕`-merge exactly
//!    (Definition 1). They take the nested route of shape 4: the absorbed
//!    per-value aggregate fans out once per shard and merges by shape 1,
//!    and the window and argmax layers run on the coordinator over the
//!    merged table — one request per shard per split query.
//! 4. **nested queries** (anything else with a `FROM`-subquery) — the
//!    innermost subquery is resolved recursively (usually by shape 1),
//!    materialized on the coordinator, and the outer layers run there.
//!
//! Queries joining *two* sharded relations are rejected: each shard would
//! only see same-shard pairs. JoinBoost never emits such a query — every
//! join closure contains at most one fact-derived table.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::RwLock;

use joinboost_engine::column::HKey;
use joinboost_engine::table::ColumnMeta;
use joinboost_engine::{Column, DataType, Database, Datum, EngineConfig, EngineError, Table};
use joinboost_sql::ast::{Expr, Query, SelectItem, Statement, TableRef};
use joinboost_sql::parse_statement;

use super::remote::{RemoteConnection, RemoteOptions};
use super::split::{SplitHandle, SplitSpec};
use super::{BackendCapabilities, BackendResult, BackendStats, SqlBackend};

/// One shard's engine as the fan-out sees it: the pluggable transport
/// behind [`ShardedBackend`].
///
/// In-process shards are bare [`Database`]s; remote shards are
/// [`RemoteConnection`]s speaking the wire protocol to a separate engine
/// process. The fan-out and `⊕`-merge machinery only ever talks to this
/// trait, so multi-*process* sharding runs the exact same protocol as
/// in-process sharding — which is what lets
/// `backend_equivalence` assert bit-identical models across both.
pub trait ShardTransport: Send + Sync {
    /// Execute one statement on this shard. Remote transports print it to
    /// SQL text and ship that (sound by the `print ∘ parse ∘ print`
    /// fixed point the SQL-text backend proves).
    fn execute(&self, stmt: &Statement) -> BackendResult;

    /// Bulk-load a table on this shard (remote: framed columnar block).
    fn create_table(&self, name: &str, table: Table) -> BackendResult<()>;

    /// Materialize a full scan of a shard-local table.
    fn snapshot(&self, name: &str) -> BackendResult<Table>;

    /// Ship only the rows at the given snapshot-order positions, in that
    /// order — the messages-not-scans path of row sampling.
    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table>;

    /// Column names of a shard-local table.
    fn column_names(&self, table: &str) -> BackendResult<Vec<String>>;

    /// One column's data type.
    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType>;

    /// Does this shard hold the table?
    fn has_table(&self, name: &str) -> bool;

    /// Rows of the table on this shard.
    fn row_count(&self, name: &str) -> BackendResult<usize>;

    /// Drop a table, tolerating its absence (temp-table cleanup must
    /// succeed on replicas that never materialized it).
    fn drop_table(&self, name: &str) -> BackendResult<()>;

    /// Parse + execute SQL text (tests and diagnostics).
    fn query(&self, sql: &str) -> BackendResult {
        self.execute(&parse_statement(sql)?)
    }

    /// Kept only for the benchmark harness, which wraps it; the program
    /// never calls it. Executes the statement.
    fn split_open(
        &self,
        stmt: &Statement,
        _spec: &SplitSpec,
        _k: usize,
    ) -> BackendResult<SplitOpen<'_>> {
        Ok(SplitOpen::Dense(self.execute(stmt)?))
    }

    /// Shard-partial scores for a batch of predict keys against
    /// shard-resident message tables (see [`crate::serve`]): `(found,
    /// partial)` per key, partials accumulated from `0.0` — the
    /// coordinator adds the model's initial score once per found key,
    /// which the dyadic leaf grid keeps bit-identical to single-node
    /// evaluation. An in-process engine scores through its memoized index
    /// ([`crate::serve::engine_predict`]); a remote transport has the
    /// shard evaluate server-side and ships only scores, never tables.
    fn predict_partials(
        &self,
        spec: &crate::serve::ScorerSpec,
        keys: &[i64],
    ) -> BackendResult<Vec<(bool, f64)>>;

    /// `(bytes_sent, bytes_received)` on this transport's socket; zero
    /// for in-process transports.
    fn wire_bytes(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Kept only for the benchmark harness, which forwards it; always
    /// `(0, 0)`.
    fn split_wire_bytes(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Kept only for the benchmark harness: the result type of
/// [`ShardTransport::split_open`], which always answers `Dense`.
pub enum SplitOpen<'a> {
    /// A split handle and its first boundary keys.
    Protocol {
        /// The handle.
        handle: Box<dyn SplitHandle + 'a>,
        /// Boundary keys.
        bounds: Vec<Datum>,
    },
    /// The executed statement's result.
    Dense(Table),
}

impl ShardTransport for Database {
    fn execute(&self, stmt: &Statement) -> BackendResult {
        Database::execute_statement(self, stmt)
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        Database::create_table(self, name, table)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        Database::snapshot(self, name)
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        let snap = Database::snapshot(self, name)?;
        let n = snap.num_rows();
        if let Some(&bad) = rows.iter().find(|&&r| r as usize >= n) {
            return Err(EngineError::Other(format!(
                "gather_rows: row {bad} out of range for {name} ({n} rows)"
            )));
        }
        Ok(snap.take(rows))
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        Database::column_names(self, table)
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        Database::column_dtype(self, table, column)
    }

    fn has_table(&self, name: &str) -> bool {
        Database::has_table(self, name)
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        Database::row_count(self, name)
    }

    fn drop_table(&self, name: &str) -> BackendResult<()> {
        match Database::drop_table(self, name) {
            Err(EngineError::UnknownTable(_)) => Ok(()),
            r => r,
        }
    }

    fn predict_partials(
        &self,
        spec: &crate::serve::ScorerSpec,
        keys: &[i64],
    ) -> BackendResult<Vec<(bool, f64)>> {
        crate::serve::engine_predict(self, spec, keys, 0.0)
    }
}

/// N engine instances over a hash-partitioned fact relation, plus a
/// coordinator engine holding every replicated table and running the
/// non-distributable query layers.
///
/// See the [`crate::backend`] module docs for the routing rules and
/// `DESIGN.md` § Backends for the merge-exactness argument.
pub struct ShardedBackend {
    coordinator: Database,
    shards: Vec<Box<dyn ShardTransport>>,
    label: String,
    /// Lowercase name of the relation to partition on load.
    fact: String,
    /// Column of the fact relation whose hash picks the shard.
    shard_key: String,
    /// Lowercase names of fact-derived (shard-local) tables.
    sharded: RwLock<HashSet<String>>,
    column_swap: bool,
    tmp_counter: AtomicUsize,
    fanout_selects: AtomicU64,
    broadcast_statements: AtomicU64,
    replicated_statements: AtomicU64,
    coordinator_selects: AtomicU64,
    rows_shuffled: AtomicU64,
    skew_warnings: AtomicU64,
}

impl ShardedBackend {
    /// Create `num_shards` engine instances (plus a coordinator) with the
    /// given configuration. `fact_table` will be hash-partitioned on
    /// `shard_key` when it is bulk-loaded; every other table replicates.
    pub fn new(
        num_shards: usize,
        config: EngineConfig,
        fact_table: &str,
        shard_key: &str,
    ) -> ShardedBackend {
        assert!(num_shards >= 1, "at least one shard");
        let transports: Vec<Box<dyn ShardTransport>> = (0..num_shards)
            .map(|_| Box::new(Database::new(config.clone())) as Box<dyn ShardTransport>)
            .collect();
        ShardedBackend::from_transports(
            transports,
            config,
            format!("sharded x{num_shards}"),
            fact_table,
            shard_key,
        )
    }

    /// Multi-*process* sharding: one remote shard server per address (the
    /// `shard_server` binary or [`super::WireServer`]), a local
    /// coordinator engine with the given configuration. The fan-out and
    /// merge are the ones the in-process backend runs — only the
    /// transport differs.
    pub fn remote<A>(
        addrs: &[A],
        config: EngineConfig,
        fact_table: &str,
        shard_key: &str,
        opts: RemoteOptions,
    ) -> BackendResult<ShardedBackend>
    where
        A: std::net::ToSocketAddrs + std::fmt::Display,
    {
        assert!(!addrs.is_empty(), "at least one shard server");
        let mut transports: Vec<Box<dyn ShardTransport>> = Vec::with_capacity(addrs.len());
        let mut column_swap = config.allow_swap;
        for addr in addrs {
            let conn = RemoteConnection::builder(addr)
                .connect_timeout(opts.connect_timeout)
                .io_timeout(opts.io_timeout)
                .retry(opts.retry)
                .connect()?;
            column_swap = column_swap && conn.server_column_swap();
            transports.push(Box::new(conn));
        }
        let mut backend = ShardedBackend::from_transports(
            transports,
            config,
            format!("remote x{}", addrs.len()),
            fact_table,
            shard_key,
        );
        backend.column_swap = column_swap;
        Ok(backend)
    }

    /// Assemble a backend over caller-provided shard transports (the
    /// extension point: mix in-process engines with remote connections,
    /// or plug in a custom transport). The coordinator is always a local
    /// engine — it runs the window/argmax layers and holds replicas.
    pub fn from_transports(
        transports: Vec<Box<dyn ShardTransport>>,
        config: EngineConfig,
        label: String,
        fact_table: &str,
        shard_key: &str,
    ) -> ShardedBackend {
        assert!(!transports.is_empty(), "at least one shard");
        ShardedBackend {
            coordinator: Database::new(config.clone()),
            shards: transports,
            label,
            fact: fact_table.to_ascii_lowercase(),
            shard_key: shard_key.to_string(),
            sharded: RwLock::new(HashSet::new()),
            column_swap: config.allow_swap,
            tmp_counter: AtomicUsize::new(0),
            fanout_selects: AtomicU64::new(0),
            broadcast_statements: AtomicU64::new(0),
            replicated_statements: AtomicU64::new(0),
            coordinator_selects: AtomicU64::new(0),
            rows_shuffled: AtomicU64::new(0),
            skew_warnings: AtomicU64::new(0),
        }
    }

    /// Number of fact partitions.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's transport (inspection/tests).
    pub fn shard(&self, i: usize) -> &dyn ShardTransport {
        self.shards[i].as_ref()
    }

    /// The coordinator engine (inspection/tests).
    pub fn coordinator(&self) -> &Database {
        &self.coordinator
    }

    /// Is this table hash-partitioned (fact-derived) rather than
    /// replicated?
    pub fn is_sharded(&self, name: &str) -> bool {
        self.sharded.read().contains(&name.to_ascii_lowercase())
    }

    /// Rows of the fact relation held by each shard, in shard order —
    /// the telemetry behind the skew warning (a hot shard key can
    /// overload one partition; see [`ShardedBackend::skew_warnings`]).
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|db| db.row_count(&self.fact).unwrap_or(0))
            .collect()
    }

    /// How many fact loads produced a skewed partition (max shard more
    /// than 4× the mean). Each one also logs a warning to stderr.
    pub fn skew_warnings(&self) -> u64 {
        self.skew_warnings.load(Ordering::Relaxed)
    }

    // ---- routing ----------------------------------------------------------

    /// The subset of `names` that are currently sharded (normalized,
    /// deduplicated).
    fn filter_sharded(&self, names: &[String]) -> Vec<String> {
        let sharded = self.sharded.read();
        let mut out: Vec<String> = names
            .iter()
            .map(|n| n.to_ascii_lowercase())
            .filter(|n| sharded.contains(n))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Reject statements that reference a sharded table from *expression*
    /// position (an `IN (SELECT ..)` predicate, for instance): each shard
    /// would evaluate the subquery against only its own partition, and a
    /// replicated outer table would be scanned once per shard — silently
    /// wrong either way, so this shape errors instead.
    fn reject_sharded_expr_refs(&self, expr_refs: &[String], what: &str) -> BackendResult<()> {
        let bad = self.filter_sharded(expr_refs);
        if bad.is_empty() {
            return Ok(());
        }
        Err(EngineError::Other(format!(
            "sharded relation {} is referenced from an expression subquery in {what}; \
             each shard would see only its own partition — rewrite with the sharded \
             relation in the FROM clause",
            bad.join(", ")
        )))
    }

    /// Run a closure on every shard in parallel, collecting results in
    /// shard order.
    fn on_all_shards<T, F>(&self, f: F) -> Vec<BackendResult<T>>
    where
        T: Send,
        F: Fn(usize, &dyn ShardTransport) -> BackendResult<T> + Sync,
    {
        if self.shards.len() == 1 {
            return vec![f(0, self.shards[0].as_ref())];
        }
        let fr = &f;
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, db)| scope.spawn(move |_| fr(i, db.as_ref())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
        .expect("shard scope")
    }

    /// Broadcast a statement to every shard; marks `creates` sharded.
    fn broadcast(&self, stmt: &Statement, creates: Option<&str>) -> BackendResult {
        self.broadcast_statements.fetch_add(1, Ordering::Relaxed);
        for r in self.on_all_shards(|_, db| db.execute(stmt)) {
            r?;
        }
        if let Some(name) = creates {
            self.sharded.write().insert(name.to_ascii_lowercase());
        }
        Ok(Table::new())
    }

    /// Execute a statement on the coordinator and every shard (replicated
    /// tables must stay in sync everywhere).
    fn replicate(&self, stmt: &Statement) -> BackendResult {
        self.replicated_statements.fetch_add(1, Ordering::Relaxed);
        let result = self.coordinator.execute_statement(stmt)?;
        for r in self.on_all_shards(|_, db| db.execute(stmt)) {
            r?;
        }
        Ok(result)
    }

    // ---- SELECT routing ---------------------------------------------------

    fn exec_select(&self, q: &Query) -> BackendResult {
        let stmt = Statement::Select(q.clone());
        let mut from_refs = Vec::new();
        collect_from_tables(q, &mut from_refs);
        let mut expr_refs = Vec::new();
        collect_expr_position_tables(q, &mut expr_refs);
        let from_sharded = self.filter_sharded(&from_refs);
        if from_sharded.is_empty() && self.filter_sharded(&expr_refs).is_empty() {
            self.coordinator_selects.fetch_add(1, Ordering::Relaxed);
            return self.coordinator.execute_statement(&stmt);
        }
        self.reject_sharded_expr_refs(&expr_refs, "a SELECT")?;
        if from_sharded.len() > 1 {
            return Err(EngineError::Other(format!(
                "sharded backend cannot join two sharded relations ({}): \
                 each shard would only see same-shard pairs; in: {q}",
                from_sharded.join(", ")
            )));
        }
        if let Some(plan) = distributable_merge_plan(q) {
            return self.fan_out_merge(&plan);
        }
        if is_plain_scan(q) {
            return self.gather(q);
        }
        self.exec_nested(q)
    }

    /// Nested query (split queries included): resolve the FROM-subquery
    /// recursively, materialize the merged result on the coordinator, run
    /// the outer layers there.
    fn exec_nested(&self, q: &Query) -> BackendResult {
        if let Some(TableRef::Subquery { query, alias }) = &q.from {
            let inner = self.exec_select(query)?;
            let tmp = format!(
                "jb_shard_merge_{}",
                self.tmp_counter.fetch_add(1, Ordering::Relaxed)
            );
            self.coordinator.create_table(&tmp, inner)?;
            let mut outer = q.clone();
            outer.from = Some(TableRef::Named {
                name: tmp.clone(),
                alias: alias.clone(),
            });
            let mut outer_refs = Vec::new();
            collect_query_tables(&outer, &mut outer_refs);
            let result = if self.filter_sharded(&outer_refs).is_empty() {
                self.coordinator_selects.fetch_add(1, Ordering::Relaxed);
                self.coordinator
                    .execute_statement(&Statement::Select(outer))
            } else {
                Err(EngineError::Other(format!(
                    "outer query layers may not reference sharded tables: {q}"
                )))
            };
            let _ = self.coordinator.drop_table(&tmp);
            return result;
        }
        Err(EngineError::Other(format!(
            "query shape not supported over sharded data \
             (not a mergeable SPJA aggregate, plain scan, or nested query): {q}"
        )))
    }

    /// Shape 1: run on every shard, `⊕`-merge the partial aggregates,
    /// project away any planner-injected key columns.
    fn fan_out_merge(&self, plan: &MergePlan) -> BackendResult {
        self.fanout_selects.fetch_add(1, Ordering::Relaxed);
        let stmt = Statement::Select(plan.query.clone());
        let mut partials = Vec::with_capacity(self.shards.len());
        for r in self.on_all_shards(|_, db| db.execute(&stmt)) {
            partials.push(r?);
        }
        let shuffled: usize = partials.iter().map(Table::num_rows).sum();
        self.rows_shuffled
            .fetch_add(shuffled as u64, Ordering::Relaxed);
        merge_partials(partials, &plan.specs).map(|t| drop_last_columns(t, plan.injected))
    }

    /// Shape 2: concatenate shard results in shard order.
    fn gather(&self, q: &Query) -> BackendResult {
        self.fanout_selects.fetch_add(1, Ordering::Relaxed);
        let stmt = Statement::Select(q.clone());
        let mut partials = Vec::with_capacity(self.shards.len());
        for r in self.on_all_shards(|_, db| db.execute(&stmt)) {
            partials.push(r?);
        }
        let shuffled: usize = partials.iter().map(Table::num_rows).sum();
        self.rows_shuffled
            .fetch_add(shuffled as u64, Ordering::Relaxed);
        concat_tables(partials)
    }

    /// Hash of the shard-key datum: FNV-1a over a type-tagged byte
    /// encoding plus an avalanche finalizer (FNV's low bit is a plain XOR
    /// of input low bits, so without the mix all-even surrogate ids would
    /// collapse onto one shard under `% 2`). Deterministic across runs.
    fn shard_of(&self, key: &Datum) -> usize {
        const OFFSET: u64 = 1469598103934665603;
        const PRIME: u64 = 1099511628211;
        let fnv = |tag: u8, bytes: &[u8]| -> u64 {
            let mut acc = (OFFSET ^ tag as u64).wrapping_mul(PRIME);
            for &b in bytes {
                acc = (acc ^ b as u64).wrapping_mul(PRIME);
            }
            // splitmix64-style finalizer: mix high bits into the low bits
            // the modulo below actually looks at.
            acc ^= acc >> 33;
            acc = acc.wrapping_mul(0xff51afd7ed558ccd);
            acc ^= acc >> 33;
            acc = acc.wrapping_mul(0xc4ceb9fe1a85ec53);
            acc ^ (acc >> 33)
        };
        let h = match key {
            Datum::Int(v) => fnv(0, &v.to_le_bytes()),
            Datum::Float(v) => fnv(1, &v.to_bits().to_le_bytes()),
            Datum::Str(s) => fnv(2, s.as_bytes()),
            Datum::Null => fnv(3, &[]),
        };
        (h % self.shards.len() as u64) as usize
    }
}

impl SqlBackend for ShardedBackend {
    fn name(&self) -> &str {
        &self.label
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities {
            window_functions: true, // the coordinator runs window layers
            ast_statements: true,
            column_swap: self.column_swap,
            external_interop: false, // no single array store to swap into
            shards: self.shards.len(),
        }
    }

    fn execute(&self, sql: &str) -> BackendResult {
        let stmt = parse_statement(sql)?;
        self.execute_ast(&stmt)
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        match stmt {
            Statement::Select(q) => self.exec_select(q),
            Statement::CreateTableAs { name, query, .. } => {
                let mut expr_refs = Vec::new();
                collect_expr_position_tables(query, &mut expr_refs);
                self.reject_sharded_expr_refs(&expr_refs, "a CREATE TABLE AS")?;
                let mut from_refs = Vec::new();
                collect_from_tables(query, &mut from_refs);
                if self.filter_sharded(&from_refs).is_empty() {
                    self.replicate(stmt)
                } else {
                    self.broadcast(stmt, Some(name))
                }
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                let mut expr_refs = Vec::new();
                for (_, e) in assignments {
                    collect_expr_tables(e, &mut expr_refs);
                }
                if let Some(w) = where_clause {
                    collect_expr_tables(w, &mut expr_refs);
                }
                self.reject_sharded_expr_refs(&expr_refs, "an UPDATE")?;
                // Route by the *written* table: a sharded target updates
                // shard-locally; a replicated target must update every
                // replica (coordinator included) to stay consistent.
                if self.is_sharded(table) {
                    self.broadcast(stmt, None)
                } else {
                    self.replicate(stmt)
                }
            }
            Statement::SwapColumn {
                table_a, table_b, ..
            } => match (self.is_sharded(table_a), self.is_sharded(table_b)) {
                (true, true) => self.broadcast(stmt, None),
                (false, false) => self.replicate(stmt),
                _ => Err(EngineError::Other(format!(
                    "cannot SWAP COLUMN between sharded and replicated tables \
                     ({table_a}, {table_b})"
                ))),
            },
            Statement::DropTable { name, if_exists } => {
                if !if_exists && !self.has_table(name) {
                    return Err(EngineError::UnknownTable(name.clone()));
                }
                // Drop wherever the table lives; replicas may be partial
                // after errors, so tolerate misses everywhere.
                let _ = self.coordinator.drop_table(name);
                for db in &self.shards {
                    let _ = db.drop_table(name);
                }
                self.sharded.write().remove(&name.to_ascii_lowercase());
                Ok(Table::new())
            }
        }
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        if name.eq_ignore_ascii_case(&self.fact) {
            // Hash-partition the fact relation on the shard key.
            let kidx = table.resolve(None, &self.shard_key)?;
            let n = self.shards.len();
            let mut masks: Vec<Vec<bool>> = vec![vec![false; table.num_rows()]; n];
            #[allow(clippy::needless_range_loop)] // i indexes the key column and masks
            for i in 0..table.num_rows() {
                let s = self.shard_of(&table.columns[kidx].get(i));
                masks[s][i] = true;
            }
            for (db, mask) in self.shards.iter().zip(&masks) {
                db.create_table(name, table.filter(mask))?;
            }
            self.sharded.write().insert(self.fact.clone());
            // Partition-skew telemetry: a hot shard key funnels the fact
            // into few partitions and serializes every fan-out on them.
            let sizes: Vec<usize> = masks
                .iter()
                .map(|m| m.iter().filter(|&&b| b).count())
                .collect();
            let max = sizes.iter().copied().max().unwrap_or(0);
            if n > 1 && max * n > 4 * table.num_rows() {
                self.skew_warnings.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: skewed shard-key distribution on {name}: partition sizes \
                     {sizes:?} (max {max} > 4x mean {}); consider a different shard key \
                     or composite partitioning",
                    table.num_rows() / n
                );
            }
            Ok(())
        } else {
            self.coordinator.create_table(name, table.clone())?;
            for db in &self.shards {
                db.create_table(name, table.clone())?;
            }
            Ok(())
        }
    }

    fn create_partitioned_table(&self, name: &str, table: Table, key: &str) -> BackendResult<()> {
        // Same hash partitioning as the fact relation, but on the named
        // key: a message table partitioned on the predict key lands each
        // entry on the shard that answers for that key.
        let kidx = table.resolve(None, key)?;
        let n = self.shards.len();
        let mut masks: Vec<Vec<bool>> = vec![vec![false; table.num_rows()]; n];
        #[allow(clippy::needless_range_loop)] // i indexes the key column and masks
        for i in 0..table.num_rows() {
            let s = self.shard_of(&table.columns[kidx].get(i));
            masks[s][i] = true;
        }
        for (db, mask) in self.shards.iter().zip(&masks) {
            db.create_table(name, table.filter(mask))?;
        }
        self.sharded.write().insert(name.to_ascii_lowercase());
        Ok(())
    }

    fn predict_batch(
        &self,
        spec: &crate::serve::ScorerSpec,
        keys: &[i64],
    ) -> BackendResult<Vec<(bool, f64)>> {
        // Fan the batch out; each shard scores the keys whose fact
        // partition it owns and answers (found, partial). Exactly one
        // shard finds any given key, so the merge is init + partial.
        self.fanout_selects.fetch_add(1, Ordering::Relaxed);
        let mut out = vec![(false, 0.0f64); keys.len()];
        for shard in self.on_all_shards(|_, db| db.predict_partials(spec, keys)) {
            let shard = shard?;
            if shard.len() != keys.len() {
                return Err(EngineError::Other(format!(
                    "predict_partials answered {} scores for {} keys",
                    shard.len(),
                    keys.len()
                )));
            }
            for (i, (found, p)) in shard.into_iter().enumerate() {
                if found {
                    if out[i].0 {
                        return Err(EngineError::Other(format!(
                            "predict key {} found on multiple shards; message \
                             tables are inconsistent with the partitioning",
                            keys[i]
                        )));
                    }
                    out[i] = (true, spec.init_score + p);
                }
            }
        }
        Ok(out)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        if self.is_sharded(name) {
            let mut parts = Vec::with_capacity(self.shards.len());
            for r in self.on_all_shards(|_, db| db.snapshot(name)) {
                parts.push(r?);
            }
            let shuffled: usize = parts.iter().map(Table::num_rows).sum();
            self.rows_shuffled
                .fetch_add(shuffled as u64, Ordering::Relaxed);
            concat_tables(parts)
        } else {
            self.coordinator.snapshot(name)
        }
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        if self.is_sharded(table) {
            self.shards[0].column_names(table)
        } else {
            self.coordinator.column_names(table)
        }
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        if self.is_sharded(table) {
            self.shards[0].column_dtype(table, column)
        } else {
            self.coordinator.column_dtype(table, column)
        }
    }

    fn has_table(&self, name: &str) -> bool {
        self.coordinator.has_table(name) || self.shards.iter().any(|db| db.has_table(name))
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        if self.is_sharded(name) {
            let mut total = 0;
            for db in &self.shards {
                total += db.row_count(name)?;
            }
            Ok(total)
        } else {
            self.coordinator.row_count(name)
        }
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        if !self.is_sharded(name) {
            return Ok(self.coordinator.snapshot(name)?.take(rows));
        }
        // Route each requested snapshot-order position to the shard that
        // owns it; every shard ships only its selected rows, and the
        // coordinator reassembles them in the requested order. Both
        // phases fan out in parallel — over remote transports the round
        // trips would otherwise serialize per shard.
        let mut counts = Vec::with_capacity(self.shards.len());
        let mut total = 0usize;
        for r in self.on_all_shards(|_, db| db.row_count(name)) {
            let c = r?;
            counts.push(c);
            total += c;
        }
        let mut per_shard: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.shards.len()];
        for (pos, &g) in rows.iter().enumerate() {
            let mut g = g as usize;
            if g >= total {
                return Err(EngineError::Other(format!(
                    "gather_rows: row {g} out of range for {name} ({total} rows)"
                )));
            }
            let mut shard = 0;
            while g >= counts[shard] {
                g -= counts[shard];
                shard += 1;
            }
            per_shard[shard].push((pos, g as u32));
        }
        // Only shards that own requested rows ship anything — and they
        // ship exactly their selected rows (via the transport's
        // `gather_rows`, a single framed message on remote shards), never
        // whole partitions. The schema comes from whichever shard answers
        // first, or a name-only lookup when the request is empty.
        let gathered = self.on_all_shards(|i, db| {
            let wanted = &per_shard[i];
            if wanted.is_empty() {
                return Ok(None);
            }
            let locals: Vec<u32> = wanted.iter().map(|&(_, local)| local).collect();
            db.gather_rows(name, &locals).map(Some)
        });
        let mut columns: Option<Vec<(ColumnMeta, Vec<Datum>)>> = None;
        for (wanted, r) in per_shard.iter().zip(gathered) {
            let Some(t) = r? else { continue };
            let cols = columns.get_or_insert_with(|| {
                t.meta
                    .iter()
                    .map(|m| (m.clone(), vec![Datum::Null; rows.len()]))
                    .collect()
            });
            for (j, &(pos, _)) in wanted.iter().enumerate() {
                for (ci, (_, vals)) in cols.iter_mut().enumerate() {
                    vals[pos] = t.columns[ci].get(j);
                }
            }
        }
        let columns = match columns {
            Some(c) => c,
            None => self.shards[0]
                .column_names(name)?
                .into_iter()
                .map(|n| (ColumnMeta::new(n), Vec::new()))
                .collect(),
        };
        self.rows_shuffled
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        let mut out = Table::new();
        for (meta, vals) in columns {
            out.push_column(meta, Column::from_datums(&vals));
        }
        Ok(out)
    }

    fn map_partitions(
        &self,
        name: &str,
        f: &mut dyn FnMut(usize, &Table) -> BackendResult<Table>,
    ) -> BackendResult<Vec<Table>> {
        if !self.is_sharded(name) {
            return Ok(vec![f(0, &self.coordinator.snapshot(name)?)?]);
        }
        let mut out = Vec::with_capacity(self.shards.len());
        for (i, db) in self.shards.iter().enumerate() {
            // The closure runs against the shard's local rows; only what
            // it returns crosses to the coordinator.
            let result = f(i, &db.snapshot(name)?)?;
            self.rows_shuffled
                .fetch_add(result.num_rows() as u64, Ordering::Relaxed);
            out.push(result);
        }
        Ok(out)
    }

    fn stats(&self) -> BackendStats {
        let fanout_selects = self.fanout_selects.load(Ordering::Relaxed);
        let broadcast_statements = self.broadcast_statements.load(Ordering::Relaxed);
        let replicated_statements = self.replicated_statements.load(Ordering::Relaxed);
        let coordinator_selects = self.coordinator_selects.load(Ordering::Relaxed);
        let (mut bytes_sent, mut bytes_received) = (0u64, 0u64);
        for t in &self.shards {
            let (s, r) = t.wire_bytes();
            bytes_sent += s;
            bytes_received += r;
        }
        BackendStats {
            statements: fanout_selects
                + broadcast_statements
                + replicated_statements
                + coordinator_selects,
            selects: fanout_selects + coordinator_selects,
            fanout_selects,
            broadcast_statements,
            replicated_statements,
            coordinator_selects,
            rows_shipped: self.rows_shuffled.load(Ordering::Relaxed),
            bytes_sent,
            bytes_received,
            ..BackendStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Merge planning
// ---------------------------------------------------------------------------

/// How a distributable SPJA aggregate fans out: the query every shard
/// runs (possibly with group keys injected into the output), how each
/// output column merges, and how many injected columns to drop again.
struct MergePlan {
    /// The per-shard query (`q` itself, or `q` with the missing group-by
    /// expressions appended as `jb_shard_key<i>` output columns).
    query: Query,
    /// Per-output-column merge behavior (covers injected columns).
    specs: Vec<MergeSpec>,
    /// Trailing columns the planner appended (projected away post-merge).
    injected: usize,
}

/// Decide whether `q` fans out with an exact merge, and how each select
/// item merges. Group-by expressions missing from the output (histogram
/// binned absorbs: `GROUP BY FLOOR(..)` with `MAX(f)` selected) are
/// injected as extra output columns so groups can be matched across
/// shards, then dropped after the merge. `None` if the query is not a
/// distributable SPJA aggregate.
fn distributable_merge_plan(q: &Query) -> Option<MergePlan> {
    // Fan-out replays the whole query per shard, so the source must be
    // named tables and the result must not be ordered or truncated.
    if !matches!(q.from, Some(TableRef::Named { .. })) {
        return None;
    }
    if q.joins
        .iter()
        .any(|j| !matches!(j.table, TableRef::Named { .. }))
    {
        return None;
    }
    if !q.order_by.is_empty() || q.limit.is_some() {
        return None;
    }
    let mut specs = Vec::with_capacity(q.items.len());
    let mut covered = vec![false; q.group_by.len()];
    for item in &q.items {
        if let Some(pos) = q.group_by.iter().position(|g| *g == item.expr) {
            specs.push(MergeSpec::Key);
            covered[pos] = true;
            continue;
        }
        match &item.expr {
            Expr::Func { name, .. } => match name.as_str() {
                "SUM" | "COUNT" => specs.push(MergeSpec::Sum),
                "MIN" => specs.push(MergeSpec::Min),
                "MAX" => specs.push(MergeSpec::Max),
                // AVG partials do not ⊕-merge; anything else is not an
                // aggregate output.
                _ => return None,
            },
            _ => return None,
        }
    }
    if q.group_by.is_empty() && specs.is_empty() {
        return None;
    }
    let mut query = q.clone();
    let mut injected = 0usize;
    for (pos, g) in q.group_by.iter().enumerate() {
        if !covered[pos] {
            query
                .items
                .push(SelectItem::aliased(g.clone(), format!("jb_shard_key{pos}")));
            specs.push(MergeSpec::Key);
            injected += 1;
        }
    }
    Some(MergePlan {
        query,
        specs,
        injected,
    })
}

/// Drop the trailing `n` (planner-injected) columns of a merged table.
fn drop_last_columns(t: Table, n: usize) -> Table {
    if n == 0 {
        return t;
    }
    let keep = t.num_columns().saturating_sub(n);
    let mut out = Table::new();
    for (meta, col) in t.meta.iter().zip(&t.columns).take(keep) {
        out.push_column(meta.clone(), col.clone());
    }
    out
}

/// A query with no aggregation, windows, grouping, ordering or limit:
/// shard results concatenate.
fn is_plain_scan(q: &Query) -> bool {
    q.group_by.is_empty()
        && q.order_by.is_empty()
        && q.limit.is_none()
        && q.items
            .iter()
            .all(|it| !contains_aggregate_or_window(&it.expr))
}

fn contains_aggregate_or_window(e: &Expr) -> bool {
    match e {
        Expr::WindowSum { .. } => true,
        Expr::Func { name, args } => {
            matches!(name.as_str(), "SUM" | "COUNT" | "AVG" | "MIN" | "MAX")
                || args.iter().any(contains_aggregate_or_window)
        }
        Expr::Binary { left, right, .. } => {
            contains_aggregate_or_window(left) || contains_aggregate_or_window(right)
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => contains_aggregate_or_window(expr),
        Expr::Case { whens, else_expr } => {
            whens
                .iter()
                .any(|(c, t)| contains_aggregate_or_window(c) || contains_aggregate_or_window(t))
                || else_expr
                    .as_deref()
                    .is_some_and(contains_aggregate_or_window)
        }
        Expr::InList { expr, list, .. } => {
            contains_aggregate_or_window(expr) || list.iter().any(contains_aggregate_or_window)
        }
        Expr::InSubquery { expr, .. } => contains_aggregate_or_window(expr),
        Expr::Column { .. } | Expr::Literal(_) | Expr::Wildcard => false,
    }
}

// ---------------------------------------------------------------------------
// Merge execution
// ---------------------------------------------------------------------------

/// How one output column of a fanned-out aggregate merges across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeSpec {
    /// Group key: identifies the row, not merged.
    Key,
    /// Partial sums/counts add (`⊕` of the semi-ring).
    Sum,
    /// Partial minima take the least.
    Min,
    /// Partial maxima take the greatest.
    Max,
}

/// Accumulator for one aggregate cell. Integer partials stay integers
/// (exact counts); the first float partial promotes the accumulated total
/// exactly (`i64 as f64` is exact for the count magnitudes here).
#[derive(Debug, Clone)]
enum Acc {
    Empty,
    Int(i64),
    Float(f64),
    Best(Datum),
}

impl Acc {
    fn add(&mut self, v: &Datum) {
        match v {
            Datum::Null => {}
            Datum::Int(x) => match self {
                Acc::Empty => *self = Acc::Int(*x),
                Acc::Int(t) => *t += *x,
                Acc::Float(t) => *t += *x as f64,
                Acc::Best(_) => unreachable!("sum into best"),
            },
            Datum::Float(x) => match self {
                Acc::Empty => *self = Acc::Float(*x),
                Acc::Int(t) => *self = Acc::Float(*t as f64 + *x),
                Acc::Float(t) => *t += *x,
                Acc::Best(_) => unreachable!("sum into best"),
            },
            Datum::Str(_) => {}
        }
    }

    fn best(&mut self, v: &Datum, want_max: bool) {
        if v.is_null() {
            return;
        }
        match self {
            Acc::Empty => *self = Acc::Best(v.clone()),
            Acc::Best(cur) => {
                let ord = v.sql_cmp(cur);
                if (want_max && ord == std::cmp::Ordering::Greater)
                    || (!want_max && ord == std::cmp::Ordering::Less)
                {
                    *cur = v.clone();
                }
            }
            _ => unreachable!("best into sum"),
        }
    }

    fn into_datum(self) -> Datum {
        match self {
            Acc::Empty => Datum::Null,
            Acc::Int(v) => Datum::Int(v),
            Acc::Float(v) => Datum::Float(v),
            Acc::Best(d) => d,
        }
    }
}

/// `⊕`-merge per-shard partial aggregates. Groups are matched on the key
/// columns; output rows are sorted by the keys so the merged table has a
/// deterministic, backend-independent order.
fn merge_partials(partials: Vec<Table>, specs: &[MergeSpec]) -> BackendResult {
    let first = partials
        .first()
        .ok_or_else(|| EngineError::Other("no shard partials".into()))?;
    if first.num_columns() != specs.len() {
        return Err(EngineError::Other(format!(
            "merge plan arity mismatch: {} columns, {} specs",
            first.num_columns(),
            specs.len()
        )));
    }
    let meta: Vec<ColumnMeta> = first.meta.clone();
    let key_cols: Vec<usize> = specs
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == MergeSpec::Key)
        .map(|(i, _)| i)
        .collect();
    let mut slots: HashMap<Vec<HKey>, usize> = HashMap::new();
    let mut keys: Vec<Vec<Datum>> = Vec::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    for t in &partials {
        if t.num_columns() != specs.len() {
            return Err(EngineError::Other("shard partial arity mismatch".into()));
        }
        for row in 0..t.num_rows() {
            let hk: Vec<HKey> = key_cols.iter().map(|&c| t.columns[c].hkey(row)).collect();
            let slot = *slots.entry(hk).or_insert_with(|| {
                keys.push(key_cols.iter().map(|&c| t.columns[c].get(row)).collect());
                accs.push(specs.iter().map(|_| Acc::Empty).collect());
                keys.len() - 1
            });
            for (c, spec) in specs.iter().enumerate() {
                let v = t.columns[c].get(row);
                match spec {
                    MergeSpec::Key => {}
                    MergeSpec::Sum => accs[slot][c].add(&v),
                    MergeSpec::Min => accs[slot][c].best(&v, false),
                    MergeSpec::Max => accs[slot][c].best(&v, true),
                }
            }
        }
    }
    // Deterministic output order: sort groups by their key values.
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| {
        for (ka, kb) in keys[a].iter().zip(&keys[b]) {
            let ord = ka.sql_cmp(kb);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut out = Table::new();
    for (c, (m, spec)) in meta.iter().zip(specs).enumerate() {
        let vals: Vec<Datum> = order
            .iter()
            .map(|&slot| match spec {
                MergeSpec::Key => {
                    let ki = key_cols.iter().position(|&k| k == c).expect("key column");
                    keys[slot][ki].clone()
                }
                _ => accs[slot][c].clone().into_datum(),
            })
            .collect();
        out.push_column(ColumnMeta::new(m.name.clone()), Column::from_datums(&vals));
    }
    Ok(out)
}

/// Vertically concatenate shard results (layouts must match). Int and
/// float columns without NULLs concatenate slice-to-slice; only string or
/// nullable columns take the per-value fallback.
fn concat_tables(parts: Vec<Table>) -> BackendResult {
    let first = parts
        .first()
        .ok_or_else(|| EngineError::Other("no shard partials".into()))?;
    let meta: Vec<ColumnMeta> = first.meta.clone();
    let ncols = first.num_columns();
    if parts.iter().any(|t| t.num_columns() != ncols) {
        return Err(EngineError::Other("shard gather layout mismatch".into()));
    }
    let mut out = Table::new();
    for (ci, m) in meta.iter().enumerate() {
        let cols: Vec<&Column> = parts.iter().map(|t| &t.columns[ci]).collect();
        out.push_column(ColumnMeta::new(m.name.clone()), concat_columns(&cols));
    }
    Ok(out)
}

fn concat_columns(cols: &[&Column]) -> Column {
    let total: usize = cols.iter().map(|c| c.len()).sum();
    if cols.iter().all(|c| c.validity.is_none()) {
        if cols.iter().all(|c| c.as_i64_slice().is_some()) {
            let mut v = Vec::with_capacity(total);
            for c in cols {
                v.extend_from_slice(c.as_i64_slice().expect("checked"));
            }
            return Column::int(v);
        }
        if cols.iter().all(|c| c.as_f64_slice().is_some()) {
            let mut v = Vec::with_capacity(total);
            for c in cols {
                v.extend_from_slice(c.as_f64_slice().expect("checked"));
            }
            return Column::float(v);
        }
    }
    let mut vals = Vec::with_capacity(total);
    for c in cols {
        for i in 0..c.len() {
            vals.push(c.get(i));
        }
    }
    Column::from_datums(&vals)
}

// ---------------------------------------------------------------------------
// Table-reference collection
// ---------------------------------------------------------------------------

/// Tables in the FROM/JOIN closure, through nested `FROM`-subqueries —
/// the positions where a sharded relation may legitimately appear.
fn collect_from_tables(q: &Query, out: &mut Vec<String>) {
    fn tref(t: &TableRef, out: &mut Vec<String>) {
        match t {
            TableRef::Named { name, .. } => out.push(name.clone()),
            TableRef::Subquery { query, .. } => collect_from_tables(query, out),
        }
    }
    if let Some(from) = &q.from {
        tref(from, out);
    }
    for j in &q.joins {
        tref(&j.table, out);
    }
}

/// Tables referenced from *expression* position — select items, `WHERE`,
/// `GROUP BY`, `ORDER BY`, join `ON` (each including any `IN (SELECT ..)`
/// subquery in full) — through nested `FROM`-subqueries. Sharded
/// relations here cannot be fanned out correctly and are rejected.
fn collect_expr_position_tables(q: &Query, out: &mut Vec<String>) {
    for item in &q.items {
        collect_expr_tables(&item.expr, out);
    }
    if let Some(w) = &q.where_clause {
        collect_expr_tables(w, out);
    }
    for g in &q.group_by {
        collect_expr_tables(g, out);
    }
    for o in &q.order_by {
        collect_expr_tables(&o.expr, out);
    }
    for j in &q.joins {
        if let Some(on) = &j.on {
            collect_expr_tables(on, out);
        }
        if let TableRef::Subquery { query, .. } = &j.table {
            collect_expr_position_tables(query, out);
        }
    }
    if let Some(TableRef::Subquery { query, .. }) = &q.from {
        collect_expr_position_tables(query, out);
    }
}

/// Every table a query references, in any position.
fn collect_query_tables(q: &Query, out: &mut Vec<String>) {
    if let Some(from) = &q.from {
        collect_tref_tables(from, out);
    }
    for j in &q.joins {
        collect_tref_tables(&j.table, out);
        if let Some(on) = &j.on {
            collect_expr_tables(on, out);
        }
    }
    for item in &q.items {
        collect_expr_tables(&item.expr, out);
    }
    if let Some(w) = &q.where_clause {
        collect_expr_tables(w, out);
    }
    for g in &q.group_by {
        collect_expr_tables(g, out);
    }
    for o in &q.order_by {
        collect_expr_tables(&o.expr, out);
    }
}

fn collect_tref_tables(t: &TableRef, out: &mut Vec<String>) {
    match t {
        TableRef::Named { name, .. } => out.push(name.clone()),
        TableRef::Subquery { query, .. } => collect_query_tables(query, out),
    }
}

fn collect_expr_tables(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Binary { left, right, .. } => {
            collect_expr_tables(left, out);
            collect_expr_tables(right, out);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_expr_tables(expr, out),
        Expr::Func { args, .. } => {
            for a in args {
                collect_expr_tables(a, out);
            }
        }
        Expr::WindowSum { arg, order_by } => {
            collect_expr_tables(arg, out);
            collect_expr_tables(order_by, out);
        }
        Expr::Case { whens, else_expr } => {
            for (c, t) in whens {
                collect_expr_tables(c, out);
                collect_expr_tables(t, out);
            }
            if let Some(el) = else_expr {
                collect_expr_tables(el, out);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            collect_expr_tables(expr, out);
            collect_query_tables(query, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_expr_tables(expr, out);
            for i in list {
                collect_expr_tables(i, out);
            }
        }
        Expr::Column { .. } | Expr::Literal(_) | Expr::Wildcard => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n_shards: usize) -> ShardedBackend {
        let b = ShardedBackend::new(n_shards, EngineConfig::duckdb_mem(), "fact", "k");
        b.create_table(
            "fact",
            Table::from_columns(vec![
                ("k", Column::int((0..100).map(|i| i % 10).collect())),
                ("y", Column::float((0..100).map(|i| i as f64).collect())),
            ]),
        )
        .unwrap();
        b.create_table(
            "dim",
            Table::from_columns(vec![
                ("k", Column::int((0..10).collect())),
                ("grp", Column::int((0..10).map(|i| i % 2).collect())),
            ]),
        )
        .unwrap();
        b
    }

    #[test]
    fn partitions_fact_and_replicates_dims() {
        let b = star(4);
        assert!(b.is_sharded("fact"));
        assert!(!b.is_sharded("dim"));
        assert_eq!(b.row_count("fact").unwrap(), 100);
        let per_shard: Vec<usize> = (0..4)
            .map(|i| b.shard(i).row_count("fact").unwrap())
            .collect();
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
        assert_eq!(b.coordinator().row_count("dim").unwrap(), 10);
        assert!(!b.coordinator().has_table("fact"));
    }

    #[test]
    fn grouped_aggregate_merges_exactly_across_shard_counts() {
        let single = star(1);
        let q = "SELECT grp, SUM(y) AS s, COUNT(*) AS c \
                 FROM fact JOIN dim USING (k) GROUP BY grp";
        let expected = single.query(q).unwrap();
        for n in [2, 3, 4] {
            let b = star(n);
            let got = b.query(q).unwrap();
            assert_eq!(got, expected, "{n} shards diverged");
            assert!(b.stats().fanout_selects > 0);
            assert!(b.stats().rows_shipped > 0);
        }
    }

    // Property test: ⊕-merged partials equal the single-engine result on
    // random integer data (exact arithmetic) over random shard counts,
    // key skew and group counts.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(24))]
        #[test]
        fn random_grouped_aggregates_match_unsharded_engine(
            rows in 1usize..200,
            groups in 1u64..12,
            shards in 1usize..5,
            seed in 0u64..1000,
        ) {
            let mut h = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = move || {
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51afd7ed558ccd);
                h ^= h >> 29;
                h
            };
            let k: Vec<i64> = (0..rows).map(|_| (next() % 50) as i64).collect();
            let g: Vec<i64> = (0..rows).map(|_| (next() % groups) as i64).collect();
            let v: Vec<i64> = (0..rows).map(|_| (next() % 1000) as i64 - 500).collect();
            let table = Table::from_columns(vec![
                ("k", Column::int(k)),
                ("g", Column::int(g)),
                ("v", Column::int(v)),
            ]);
            let engine = Database::in_memory();
            engine.create_table("fact", table.clone()).unwrap();
            let b = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "fact", "k");
            b.create_table("fact", table).unwrap();
            // The ORDER BY layer runs on the coordinator over the merged
            // aggregate, giving both backends the same row order.
            let q = "SELECT * FROM (SELECT g, COUNT(*) AS c, SUM(v) AS s, \
                     MIN(v) AS mn, MAX(v) AS mx FROM fact GROUP BY g) AS a ORDER BY g";
            assert_eq!(b.query(q).unwrap(), engine.query(q).unwrap());
        }
    }

    #[test]
    fn sharded_create_table_as_stays_shard_local() {
        let b = star(3);
        b.execute("CREATE TABLE msg AS SELECT k, SUM(y) AS s FROM fact GROUP BY k")
            .unwrap();
        assert!(b.is_sharded("msg"));
        assert!(!b.coordinator().has_table("msg"));
        // Joining the replicated dim against the shard-local message still
        // merges to the global answer.
        let t = b
            .query("SELECT grp, SUM(s) AS s FROM dim JOIN msg USING (k) GROUP BY grp")
            .unwrap();
        let expected = star(1)
            .query("SELECT grp, SUM(y) AS s FROM fact JOIN dim USING (k) GROUP BY grp")
            .unwrap();
        assert_eq!(
            t.column(None, "s").unwrap(),
            expected.column(None, "s").unwrap()
        );
        b.execute("DROP TABLE msg").unwrap();
        assert!(!b.has_table("msg"));
    }

    #[test]
    fn nested_split_query_runs_outer_layers_on_coordinator() {
        // The Example-2 shape: window prefix sums + argmax over an
        // absorbed aggregate of sharded data.
        let q = "SELECT val, c, s FROM (SELECT val, SUM(c) OVER (ORDER BY val) AS c, \
                 SUM(s) OVER (ORDER BY val) AS s FROM (SELECT grp AS val, COUNT(*) AS c, \
                 SUM(y) AS s FROM fact JOIN dim USING (k) GROUP BY grp) AS g) AS w \
                 ORDER BY s DESC LIMIT 1";
        let expected = star(1).query(q).unwrap();
        for n in [2, 4] {
            let got = star(n).query(q).unwrap();
            assert_eq!(got, expected, "{n} shards diverged");
        }
    }

    #[test]
    fn updates_broadcast_to_shards() {
        let b = star(3);
        b.execute("UPDATE fact SET y = 0.0 WHERE k IN (SELECT k FROM dim WHERE grp = 0)")
            .unwrap();
        let t = b.query("SELECT SUM(y) AS s FROM fact").unwrap();
        let expected = {
            let s1 = star(1);
            s1.execute("UPDATE fact SET y = 0.0 WHERE k IN (SELECT k FROM dim WHERE grp = 0)")
                .unwrap();
            s1.query("SELECT SUM(y) AS s FROM fact").unwrap()
        };
        assert_eq!(t, expected);
    }

    #[test]
    fn plain_scan_gathers_all_rows() {
        let b = star(4);
        let t = b.query("SELECT y FROM fact WHERE k = 3").unwrap();
        assert_eq!(t.num_rows(), 10);
    }

    #[test]
    fn joining_two_sharded_relations_is_rejected() {
        let b = star(2);
        b.execute("CREATE TABLE m1 AS SELECT k, SUM(y) AS s FROM fact GROUP BY k")
            .unwrap();
        let err = b
            .query("SELECT SUM(fact.y) AS s FROM fact JOIN m1 USING (k)")
            .unwrap_err();
        assert!(err.to_string().contains("two sharded relations"), "{err}");
    }

    #[test]
    fn binned_absorb_without_key_in_output_merges_like_single_engine() {
        // GROUP BY FLOOR(..) with the bin id absent from the output: the
        // planner injects the key per shard, merges MAX/⊕ per bin, and
        // projects the key away — same answer as one engine (PR 3
        // *rejected* this shape; it is now a fast path).
        let q = "SELECT * FROM (SELECT MAX(y) AS val, COUNT(*) AS c, SUM(y) AS s \
                 FROM fact GROUP BY FLOOR(y / 10.0)) AS b ORDER BY val";
        let expected = star(1).query(q).unwrap();
        assert_eq!(expected.num_rows(), 10, "ten bins over y in 0..100");
        for n in [2, 3, 4] {
            let b = star(n);
            let got = b.query(q).unwrap();
            assert_eq!(got, expected, "{n} shards diverged");
            // The injected key never leaks into the output.
            let names =
                |t: &Table| -> Vec<String> { t.meta.iter().map(|m| m.name.clone()).collect() };
            assert_eq!(names(&got), names(&expected));
        }
    }

    #[test]
    fn skewed_partitioning_is_detected() {
        // Every fact row carries the same shard key: one partition takes
        // everything, and the load-time telemetry must say so.
        let b = ShardedBackend::new(5, EngineConfig::duckdb_mem(), "fact", "k");
        b.create_table(
            "fact",
            Table::from_columns(vec![
                ("k", Column::int(vec![7; 50])),
                ("y", Column::float(vec![1.0; 50])),
            ]),
        )
        .unwrap();
        assert_eq!(b.skew_warnings(), 1, "max/mean = 5 > 4 must warn");
        let sizes = b.partition_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 50);
        assert_eq!(*sizes.iter().max().unwrap(), 50);
        // A healthy distribution stays quiet.
        let ok = star(4);
        assert_eq!(ok.skew_warnings(), 0);
        assert_eq!(ok.partition_sizes().iter().sum::<usize>(), 100);
    }

    #[test]
    fn gather_rows_ships_only_the_sample() {
        let b = star(3);
        let before = b.stats().rows_shipped;
        // Positions across the snapshot order, deliberately shuffled.
        let want: Vec<u32> = vec![99, 0, 57, 13, 13, 42];
        let got = b.gather_rows("fact", &want).unwrap();
        let full = b.snapshot("fact").unwrap();
        assert_eq!(got.num_rows(), want.len());
        for (i, &g) in want.iter().enumerate() {
            for c in 0..full.num_columns() {
                assert_eq!(got.columns[c].get(i), full.columns[c].get(g as usize));
            }
        }
        // Only the sample (plus the verifying snapshot above) crossed over.
        let shipped = b.stats().rows_shipped - before;
        assert_eq!(shipped as usize, want.len() + full.num_rows());
        assert!(b.gather_rows("fact", &[100]).is_err(), "out of range");
        // Replicated tables answer from the coordinator.
        let dim = b.gather_rows("dim", &[3, 1]).unwrap();
        assert_eq!(dim.num_rows(), 2);
    }

    #[test]
    fn sharded_ref_inside_expression_subquery_is_rejected_not_multiplied() {
        // A replicated outer table filtered by an IN-subquery over the
        // sharded fact: fanning out would scan the dim replica once per
        // shard and ADD partials — silently shard-count-multiplied. Must
        // error instead.
        let b = star(4);
        for q in [
            "SELECT SUM(grp) AS s FROM dim WHERE k IN (SELECT k FROM fact WHERE y > 50.0)",
            "SELECT grp FROM dim WHERE k IN (SELECT k FROM fact WHERE y > 50.0)",
        ] {
            let err = b.query(q).unwrap_err();
            assert!(err.to_string().contains("expression subquery"), "{err}");
        }
        // Same shape with a replicated subquery target is fine.
        let t = b
            .query("SELECT SUM(y) AS s FROM fact WHERE k IN (SELECT k FROM dim WHERE grp = 0)")
            .unwrap();
        assert_eq!(
            t,
            star(1)
                .query("SELECT SUM(y) AS s FROM fact WHERE k IN (SELECT k FROM dim WHERE grp = 0)")
                .unwrap()
        );
    }

    #[test]
    fn update_of_replicated_table_with_sharded_predicate_is_rejected() {
        // Broadcasting would leave the coordinator stale and make shard
        // replicas diverge (each evaluates the subquery on its partition).
        let b = star(2);
        let err = b
            .execute("UPDATE dim SET grp = 9 WHERE k IN (SELECT k FROM fact WHERE y > 0.0)")
            .unwrap_err();
        assert!(err.to_string().contains("expression subquery"), "{err}");
        // Replicated-only updates still apply everywhere.
        b.execute("UPDATE dim SET grp = 9 WHERE k = 0").unwrap();
        let coord: &dyn ShardTransport = b.coordinator();
        for db in [coord, b.shard(0), b.shard(1)] {
            let t = db.query("SELECT grp FROM dim WHERE k = 0").unwrap();
            assert_eq!(t.column(None, "grp").unwrap().get(0), Datum::Int(9));
        }
    }

    #[test]
    fn swap_between_sharded_and_replicated_is_rejected() {
        let b = ShardedBackend::new(
            2,
            EngineConfig {
                allow_swap: true,
                ..EngineConfig::duckdb_mem()
            },
            "fact",
            "k",
        );
        b.create_table(
            "fact",
            Table::from_columns(vec![
                ("k", Column::int(vec![1, 2])),
                ("y", Column::float(vec![1.0, 2.0])),
            ]),
        )
        .unwrap();
        b.create_table(
            "dim",
            Table::from_columns(vec![
                ("k", Column::int(vec![1, 2])),
                ("y", Column::float(vec![9.0, 9.0])),
            ]),
        )
        .unwrap();
        let err = b.execute("SWAP COLUMN fact.y WITH dim.y").unwrap_err();
        assert!(err.to_string().contains("SWAP COLUMN"), "{err}");
    }

    #[test]
    fn strided_integer_keys_still_spread_across_shards() {
        // All-even surrogate ids: `v % shards` would land everything on
        // shard 0; the FNV hash must spread them.
        let b = ShardedBackend::new(2, EngineConfig::duckdb_mem(), "fact", "k");
        b.create_table(
            "fact",
            Table::from_columns(vec![
                ("k", Column::int((0..100).map(|i| i * 2).collect())),
                ("y", Column::float(vec![1.0; 100])),
            ]),
        )
        .unwrap();
        let (a, c) = (
            b.shard(0).row_count("fact").unwrap(),
            b.shard(1).row_count("fact").unwrap(),
        );
        assert_eq!(a + c, 100);
        assert!(a > 10 && c > 10, "skewed partition: {a}/{c}");
    }

    #[test]
    fn snapshot_gathers_partitions() {
        let b = star(3);
        let t = b.snapshot("fact").unwrap();
        assert_eq!(t.num_rows(), 100);
        let sum: f64 = (0..t.num_rows())
            .map(|i| t.column(None, "y").unwrap().f64_at(i).unwrap())
            .sum();
        assert_eq!(sum, 4950.0);
    }
}
