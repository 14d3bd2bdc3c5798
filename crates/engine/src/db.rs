//! The database: catalog, configuration and statement execution.

use std::any::Any;
use std::collections::HashMap;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use joinboost_sql::ast::{Expr, Statement};
use joinboost_sql::parse_statement;

use crate::checkpoint::{self, CheckpointWriter};
use crate::column::Column;
use crate::compress::{compress, decompress, CompressedColumn};
use crate::error::{EngineError, Result};
use crate::exec::Executor;
use crate::expr::{eval, eval_row, EvalContext};
use crate::interop::ExternalTable;
use crate::memo::Memo;
use crate::storage::{BufferPoolStats, PagedStore, PagedTable, Replacement};
use crate::table::{ColumnMeta, Table};
use crate::wal::{self, Wal, WalRecord};

/// Columnar vs row-oriented execution (the paper's `X-col` vs `X-row`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Whole-column vectorized evaluation.
    Columnar,
    /// Tuple-at-a-time evaluation.
    Row,
}

/// Engine configuration. The named constructors correspond to the DBMS
/// backends of the paper's evaluation (Section 6.3, Figure 15).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Columnar vs row execution.
    pub exec: ExecMode,
    /// Write-ahead logging of updates and created tables.
    pub wal: bool,
    /// MVCC-style versioning: updates first copy the before-image of each
    /// touched column into an undo buffer.
    pub mvcc: bool,
    /// Run-length compress stored tables; updates pay decompress+recompress.
    pub compression: bool,
    /// Whether the `SWAP COLUMN` extension is available (`D-Swap`).
    pub allow_swap: bool,
    /// Where to put the WAL file in disk mode (`None` → temp dir).
    pub wal_path: Option<PathBuf>,
    /// Worker threads for fused grouped aggregation (1 = serial). The
    /// parallel variant is *aggregate-sliced*: each worker owns whole
    /// accumulator banks and folds all rows into them in row order, so
    /// results are bit-identical to serial execution. Effective workers
    /// are capped by the number of scan-needing aggregates in the query
    /// (2-3 for the ring shapes sqlgen emits; `COUNT(*)` is answered
    /// from the grouping pass and needs no worker).
    pub agg_threads: usize,
    /// Directory of the paged (out-of-core) store. `None` keeps tables
    /// RAM-resident (the untouched fast default); `Some(dir)` stores
    /// every table as fixed-size page chains in `dir/data.jbp`, scanned
    /// through a capacity-bounded buffer pool, with commit-fsynced WAL
    /// replay restoring committed tables on reopen (crash recovery).
    pub storage_path: Option<PathBuf>,
    /// Buffer-pool capacity in pages (paged mode; minimum 1).
    pub bufferpool_pages: usize,
    /// Buffer-pool replacement strategy (paged mode).
    pub replacement: Replacement,
    /// Spill grouped-aggregation state to disk when the estimated
    /// accumulator-bank footprint exceeds this many bytes (paged mode
    /// only; the group-id space is sliced so results stay bit-identical).
    pub agg_spill_bytes: usize,
    /// Automatic checkpoint budget (paged mode only): once the WAL has
    /// grown past this many bytes, the next statement boundary snapshots
    /// the catalog into `checkpoint.jbc` and truncates the log, so the
    /// log file stays bounded by `checkpoint_bytes` plus one statement
    /// and reopening replays only the post-checkpoint suffix. `None`
    /// disables automatic checkpoints ([`Database::checkpoint`] can
    /// still be called manually).
    pub checkpoint_bytes: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::duckdb_mem()
    }
}

impl EngineConfig {
    /// `D-mem`: in-memory columnar engine, MVCC + compression, no WAL.
    pub fn duckdb_mem() -> Self {
        EngineConfig {
            exec: ExecMode::Columnar,
            wal: false,
            mvcc: true,
            compression: true,
            allow_swap: false,
            wal_path: None,
            agg_threads: 1,
            storage_path: None,
            bufferpool_pages: 256,
            replacement: Replacement::Clock,
            agg_spill_bytes: 64 << 20,
            checkpoint_bytes: None,
        }
    }

    /// `D-disk`: disk-backed columnar engine (WAL on writes).
    pub fn duckdb_disk() -> Self {
        EngineConfig {
            wal: true,
            ..Self::duckdb_mem()
        }
    }

    /// `X-col`: commercial column store — disk-based, aggressive
    /// compression, WAL and versioning.
    pub fn dbms_x_col() -> Self {
        EngineConfig {
            wal: true,
            ..Self::duckdb_mem()
        }
    }

    /// `X-row`: commercial row store — row execution, no columnar
    /// compression, WAL and versioning.
    pub fn dbms_x_row() -> Self {
        EngineConfig {
            exec: ExecMode::Row,
            wal: true,
            mvcc: true,
            compression: false,
            allow_swap: false,
            wal_path: None,
            agg_threads: 1,
            storage_path: None,
            bufferpool_pages: 256,
            replacement: Replacement::Clock,
            agg_spill_bytes: 64 << 20,
            checkpoint_bytes: None,
        }
    }

    /// `D-Swap`: in-memory columnar engine with the column-swap extension.
    pub fn d_swap() -> Self {
        EngineConfig {
            allow_swap: true,
            ..Self::duckdb_mem()
        }
    }

    /// Paged (out-of-core) engine rooted at `dir`: tables live as page
    /// chains on disk behind a pinning buffer pool, every write statement
    /// is WAL-logged and commit-fsynced, and reopening the same directory
    /// recovers all committed tables by replaying the log. Results are
    /// bit-identical to [`EngineConfig::duckdb_mem`] at any pool size.
    /// Compression and MVCC are off (the WAL's full images are the
    /// versioning story here); tune `bufferpool_pages`, `replacement`
    /// and `agg_spill_bytes` with struct-update syntax.
    pub fn paged(dir: impl Into<PathBuf>) -> Self {
        EngineConfig {
            wal: true,
            mvcc: false,
            compression: false,
            storage_path: Some(dir.into()),
            checkpoint_bytes: Some(64 << 20),
            ..Self::duckdb_mem()
        }
    }
}

/// Execution statistics (observable costs of the DBMS mechanisms).
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    /// `SELECT`/`CREATE TABLE AS` queries executed.
    pub queries: u64,
    /// Total statements executed (queries included).
    pub statements: u64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Records appended to the write-ahead log.
    pub wal_records: u64,
    /// Bytes of MVCC before-images copied into the undo buffer.
    pub undo_bytes: u64,
    /// Number of MVCC before-images recorded.
    pub undo_versions: u64,
    /// Bytes deep-copied from external (dataframe) storage on scans.
    pub interop_bytes_copied: u64,
    /// Bytes written through the compression path.
    pub compressed_bytes_written: u64,
    /// `SWAP COLUMN` statements executed.
    pub swaps: u64,
    /// Checkpoints taken (manual + automatic).
    pub checkpoints: u64,
    /// Bytes written into checkpoint snapshots.
    pub checkpoint_bytes_written: u64,
    /// Derived artifacts built by [`Database::memo`] (cache misses, plus
    /// every call over an unversioned dependency).
    pub memo_builds: u64,
    /// [`Database::memo`] calls answered from the cache.
    pub memo_hits: u64,
    /// Artifacts resident in the memo when the snapshot was taken.
    pub memo_entries: u64,
}

enum Stored {
    Plain(Arc<Table>),
    Compressed(Arc<CompressedTable>),
    External(Arc<ExternalTable>),
    /// Page chains in the paged store (out-of-core mode): only metadata
    /// lives here; scans pin the pages through the buffer pool.
    Paged(PagedTable),
}

struct CompressedTable {
    meta: Vec<ColumnMeta>,
    columns: Vec<CompressedColumn>,
}

/// The table catalog plus what the derived-artifact memo needs from it:
/// a version stamp per table, bumped on every install, and the memo
/// itself. Every install goes through [`Catalog::install`],
/// [`Catalog::remove`] or [`Catalog::touch`], so a table's version moves
/// and the artifacts built from it are evicted under the same write lock
/// that changes its contents. Reads go through `Deref` to the table map.
struct Catalog {
    tables: HashMap<String, Stored>,
    versions: HashMap<String, u64>,
    clock: u64,
    memo: Memo,
}

impl Deref for Catalog {
    type Target = HashMap<String, Stored>;

    fn deref(&self) -> &Self::Target {
        &self.tables
    }
}

impl Catalog {
    fn new() -> Catalog {
        Catalog {
            tables: HashMap::new(),
            versions: HashMap::new(),
            clock: 0,
            memo: Memo::default(),
        }
    }

    /// Install `stored` under `key`, returning the table it replaces.
    fn install(&mut self, key: String, stored: Stored) -> Option<Stored> {
        self.touch(&key);
        self.tables.insert(key, stored)
    }

    /// Remove the table under `key`, returning it.
    fn remove(&mut self, key: &str) -> Option<Stored> {
        self.versions.remove(key);
        self.memo.evict(key);
        self.tables.remove(key)
    }

    /// Record an in-place write to the table under `key`.
    fn touch(&mut self, key: &str) {
        self.clock += 1;
        self.versions.insert(key.to_string(), self.clock);
        self.memo.evict(key);
    }

    /// The current versions of `keys`, or `None` when one of them is
    /// missing or external (its handle can replace columns behind the
    /// catalog's back, so no version describes its contents).
    fn stamp(&self, keys: &[String]) -> Option<Vec<u64>> {
        keys.iter()
            .map(|k| match self.tables.get(k)? {
                Stored::External(_) => None,
                _ => self.versions.get(k).copied(),
            })
            .collect()
    }
}

/// Cap on retained MVCC before-images (older versions are garbage
/// collected, as a real MVCC engine eventually does).
const UNDO_CAP_BYTES: usize = 64 << 20;

/// An embedded SQL database.
pub struct Database {
    config: EngineConfig,
    catalog: RwLock<Catalog>,
    wal: Mutex<Wal>,
    undo: Mutex<UndoLog>,
    stats: Mutex<DbStats>,
    /// The paged store (out-of-core mode only).
    storage: Option<PagedStore>,
    /// Checkpoint vs writer exclusion: every write statement holds a read
    /// guard while it logs + applies; a checkpoint takes the write guard,
    /// so its snapshot always sits on a statement boundary.
    write_gate: RwLock<()>,
}

#[derive(Default)]
struct UndoLog {
    versions: Vec<(String, Column)>,
    bytes: usize,
}

impl Database {
    /// Open a database with the given configuration, panicking on storage
    /// errors — only possible in paged mode; use [`Database::open`] to
    /// handle them.
    pub fn new(config: EngineConfig) -> Database {
        Database::open(config).unwrap_or_else(|e| panic!("failed to open database: {e}"))
    }

    /// Open a database with the given configuration. For paged
    /// configurations this opens (or creates) the storage directory and
    /// replays the WAL's committed prefix, restoring every committed
    /// table — crash recovery. Non-paged configurations cannot fail.
    pub fn open(config: EngineConfig) -> Result<Database> {
        if config.storage_path.is_some() {
            return Self::open_paged(config);
        }
        let wal = if config.wal {
            let path = config.wal_path.clone().unwrap_or_else(|| {
                std::env::temp_dir().join(format!(
                    "jb_wal_{}_{:x}.log",
                    std::process::id(),
                    &config as *const _ as usize
                ))
            });
            Wal::open(&path).unwrap_or_else(|_| Wal::disabled())
        } else {
            Wal::disabled()
        };
        Ok(Database {
            config,
            catalog: RwLock::new(Catalog::new()),
            wal: Mutex::new(wal),
            undo: Mutex::new(UndoLog::default()),
            stats: Mutex::new(DbStats::default()),
            storage: None,
            write_gate: RwLock::new(()),
        })
    }

    /// Open the paged engine: create the directory, load the latest
    /// checkpoint (if any), replay the WAL's committed prefix on top into
    /// the (fresh) page file, then reopen the log for appending with
    /// fsync-on-commit enabled.
    fn open_paged(config: EngineConfig) -> Result<Database> {
        let dir = config.storage_path.clone().expect("paged config has a dir");
        std::fs::create_dir_all(&dir)?;
        let store = PagedStore::open(&dir, config.bufferpool_pages, config.replacement)?;
        let wal_path = dir.join("wal.log");
        let (records, committed_len, committed_records) = if wal_path.exists() {
            wal::replay(&wal_path)?
        } else {
            (Vec::new(), 0, 0)
        };
        // Start from the checkpoint snapshot, then re-apply the committed
        // statements in log order. Full after-images make this idempotent
        // (the last image of each table/column wins), which is what makes
        // the checkpoint's crash windows safe: replaying a log that still
        // contains pre-checkpoint records converges to the same state.
        let mut tables: HashMap<String, Table> = checkpoint::load(&dir)?
            .map(|snap| snap.into_iter().collect())
            .unwrap_or_default();
        for record in records {
            match record {
                WalRecord::CreateTable { name, table } => {
                    tables.insert(name.to_ascii_lowercase(), table);
                }
                WalRecord::UpdateColumn {
                    table,
                    column,
                    after,
                } => {
                    if let Some(t) = tables.get_mut(&table.to_ascii_lowercase()) {
                        if let Ok(i) = t.resolve(None, &column) {
                            t.columns[i] = after;
                        }
                    }
                }
                WalRecord::DropTable { name } => {
                    tables.remove(&name.to_ascii_lowercase());
                }
                WalRecord::Commit => {}
            }
        }
        let mut catalog = Catalog::new();
        for (name, t) in tables {
            catalog.install(name, Stored::Paged(store.store_table(&t)?));
        }
        let mut wal = Wal::open_append(&wal_path, committed_len, committed_records)?;
        // The latent `sync = false` default would leave commit records in
        // OS buffers; the paged engine's durability contract is that a
        // committed statement survives a crash, so fsync on commit.
        wal.sync = true;
        Ok(Database {
            config,
            catalog: RwLock::new(catalog),
            wal: Mutex::new(wal),
            undo: Mutex::new(UndoLog::default()),
            stats: Mutex::new(DbStats::default()),
            storage: Some(store),
            write_gate: RwLock::new(()),
        })
    }

    /// In-memory columnar database with default (DuckDB-like) settings.
    pub fn in_memory() -> Database {
        Database::new(EngineConfig::duckdb_mem())
    }

    /// The configuration this database was opened with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Snapshot of the execution statistics.
    pub fn stats(&self) -> DbStats {
        let memo_entries = self.catalog.read().memo.len() as u64;
        let mut s = self.stats.lock().clone();
        s.memo_entries = memo_entries;
        let wal = self.wal.lock();
        s.wal_bytes = wal.bytes_logged;
        s.wal_records = wal.records;
        s
    }

    /// Zero the execution statistics (WAL counters restart too).
    pub fn reset_stats(&self) {
        *self.stats.lock() = DbStats::default();
    }

    /// Is this the paged (out-of-core) engine?
    pub fn is_paged(&self) -> bool {
        self.storage.is_some()
    }

    /// Buffer-pool counters (paged mode only).
    pub fn bufferpool_stats(&self) -> Option<BufferPoolStats> {
        self.storage.as_ref().map(PagedStore::stats)
    }

    /// Test hook: simulate a process crash — WAL bytes the OS never
    /// acknowledged as durable are discarded, exactly as a power loss
    /// would, leaving the log at its last-fsynced length. The in-memory
    /// catalog is untouched; reopen the directory to see what survived.
    pub fn simulate_crash(&self) -> Result<()> {
        self.wal.lock().simulate_crash()
    }

    /// Spill destination and budget for grouped aggregation (paged mode).
    pub(crate) fn spill_target(&self) -> Option<(&PagedStore, usize)> {
        self.storage
            .as_ref()
            .map(|s| (s, self.config.agg_spill_bytes))
    }

    /// Checkpoint the catalog (paged mode only): snapshot every table's
    /// schema and column images into `checkpoint.jbc` (written to a tmp
    /// file, fsynced, atomically renamed, directory fsynced), then
    /// truncate the WAL to empty. Concurrent write statements are
    /// excluded for the duration, so the snapshot always captures a
    /// statement boundary; reads proceed normally. A crash at any point
    /// during the checkpoint recovers from the previous one (see
    /// [`crate::checkpoint`] for the window-by-window argument).
    pub fn checkpoint(&self) -> Result<()> {
        let store = self
            .storage
            .as_ref()
            .ok_or_else(|| EngineError::Other("checkpoint requires the paged engine".into()))?;
        let dir = self
            .config
            .storage_path
            .clone()
            .expect("paged config has a dir");
        let _gate = self.write_gate.write();
        // Page-chain metadata is cheap to clone; contents cannot move under
        // the exclusive gate. Sorted order keeps snapshots deterministic.
        let entries: Vec<(String, PagedTable)> = {
            let cat = self.catalog.read();
            let mut v: Vec<(String, PagedTable)> = cat
                .iter()
                .filter_map(|(k, s)| match s {
                    Stored::Paged(pt) => Some((k.clone(), pt.clone())),
                    // External tables are deliberately non-durable (they
                    // bypass the WAL too), so they stay out of snapshots.
                    _ => None,
                })
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let mut writer = CheckpointWriter::create(&dir, entries.len() as u32)?;
        for (name, pt) in &entries {
            writer.add_table(name, &store.load_table(pt)?)?;
        }
        let bytes = writer.finish()?;
        // Only now — with the snapshot durably installed — is the log
        // redundant and safe to cut.
        self.wal.lock().truncate_to_empty()?;
        let mut stats = self.stats.lock();
        stats.checkpoints += 1;
        stats.checkpoint_bytes_written += bytes;
        Ok(())
    }

    /// Auto-checkpoint trigger, called after each write statement commits
    /// (and after its gate guard is released — [`Database::checkpoint`]
    /// takes the exclusive gate itself).
    fn maybe_checkpoint(&self) -> Result<()> {
        if self.storage.is_none() {
            return Ok(());
        }
        let Some(budget) = self.config.checkpoint_bytes else {
            return Ok(());
        };
        if self.wal.lock().bytes_logged >= budget {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Log a commit record for the statement just applied (paged mode:
    /// this is the fsync that makes the statement durable).
    fn wal_commit(&self) -> Result<()> {
        if self.storage.is_some() {
            self.wal.lock().log_commit()?;
        }
        Ok(())
    }

    /// Return a replaced/dropped table's pages to the free list.
    fn release(&self, old: Option<Stored>) {
        if let (Some(Stored::Paged(pt)), Some(store)) = (old, &self.storage) {
            // Best-effort: a pinned page here would be an engine bug, but
            // freeing is an optimization — leaking pages is still correct.
            let _ = store.free_table(&pt);
        }
    }

    // ---- programmatic catalog API -----------------------------------------

    /// Register a table built in Rust (bulk load).
    pub fn create_table(&self, name: &str, table: Table) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let gate = self.write_gate.read();
        let mut cat = self.catalog.write();
        if cat.contains_key(&key) {
            return Err(EngineError::TableExists(name.to_string()));
        }
        // Paged engines WAL bulk loads too: recovery must be able to
        // rebuild every committed table from the log alone. (Non-paged
        // disk configs keep the original behavior — bulk loads bypass
        // the WAL, which only models per-statement write costs there.)
        if self.storage.is_some() && self.config.wal {
            self.wal.lock().log_create_table(name, &table)?;
        }
        let stored = self.store(table)?;
        cat.install(key, stored);
        drop(cat);
        self.wal_commit()?;
        drop(gate);
        self.maybe_checkpoint()
    }

    /// Register a table, replacing any existing table of the same name,
    /// as a *single* WAL-logged statement. Unlike `drop_table` followed
    /// by [`Database::create_table`] — two statements, between which a
    /// crash leaves the table missing — replay of the one `CreateTable`
    /// record overwrites the old image atomically, so recovery sees
    /// either the old table or the new one, never neither. This is the
    /// primitive durable system tables (e.g. a server's job registry)
    /// are rewritten through.
    pub fn create_or_replace_table(&self, name: &str, table: Table) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let gate = self.write_gate.read();
        if self.storage.is_some() && self.config.wal {
            self.wal.lock().log_create_table(name, &table)?;
        }
        let stored = self.store(table)?;
        let old = self.catalog.write().install(key, stored);
        self.release(old);
        self.wal_commit()?;
        drop(gate);
        self.maybe_checkpoint()
    }

    /// Register (or replace) a table held in external dataframe storage
    /// (the `DP` backend's fact table).
    pub fn register_external(&self, name: &str, table: &Table) {
        let key = name.to_ascii_lowercase();
        self.catalog.write().install(
            key,
            Stored::External(Arc::new(ExternalTable::from_table(table))),
        );
    }

    /// Access an external table's handle for O(1) column replacement.
    pub fn external(&self, name: &str) -> Result<Arc<ExternalTable>> {
        match self.catalog.read().get(&name.to_ascii_lowercase()) {
            Some(Stored::External(e)) => Ok(Arc::clone(e)),
            Some(_) => Err(EngineError::Other(format!("{name} is not external"))),
            None => Err(EngineError::UnknownTable(name.to_string())),
        }
    }

    /// Remove a table from the catalog.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let gate = self.write_gate.read();
        let old = self.catalog.write().remove(&key);
        if old.is_none() {
            return Err(EngineError::UnknownTable(name.to_string()));
        }
        self.release(old);
        if self.config.wal {
            self.wal.lock().log_drop_table(name)?;
        }
        self.wal_commit()?;
        drop(gate);
        self.maybe_checkpoint()
    }

    /// Does a table with this name exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.read().contains_key(&name.to_ascii_lowercase())
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.catalog.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Approximate stored size of a table in bytes.
    pub fn table_byte_size(&self, name: &str) -> Result<usize> {
        match self.catalog.read().get(&name.to_ascii_lowercase()) {
            Some(Stored::Plain(t)) => Ok(t.byte_size()),
            Some(Stored::Compressed(c)) => {
                Ok(c.columns.iter().map(CompressedColumn::byte_size).sum())
            }
            Some(Stored::External(e)) => Ok(e.copy_in().0.byte_size()),
            Some(Stored::Paged(pt)) => Ok(pt.byte_size()),
            None => Err(EngineError::UnknownTable(name.to_string())),
        }
    }

    /// Column names of a table (schema lookup, no data copied).
    pub fn column_names(&self, name: &str) -> Result<Vec<String>> {
        match self.catalog.read().get(&name.to_ascii_lowercase()) {
            Some(Stored::Plain(t)) => Ok(t.meta.iter().map(|m| m.name.clone()).collect()),
            Some(Stored::Compressed(c)) => Ok(c.meta.iter().map(|m| m.name.clone()).collect()),
            Some(Stored::External(e)) => Ok(e.column_names().to_vec()),
            Some(Stored::Paged(pt)) => Ok(pt.meta.iter().map(|m| m.name.clone()).collect()),
            None => Err(EngineError::UnknownTable(name.to_string())),
        }
    }

    /// Data type of one column (schema lookup).
    pub fn column_dtype(&self, table: &str, column: &str) -> Result<crate::datum::DataType> {
        match self.catalog.read().get(&table.to_ascii_lowercase()) {
            Some(Stored::Plain(t)) => {
                let i = t.resolve(None, column)?;
                Ok(t.columns[i].dtype())
            }
            Some(Stored::Compressed(c)) => {
                let i = c
                    .meta
                    .iter()
                    .position(|m| m.name.eq_ignore_ascii_case(column))
                    .ok_or_else(|| EngineError::UnknownColumn(column.to_string()))?;
                Ok(c.columns[i].dtype)
            }
            Some(Stored::External(e)) => {
                let arc = e.column_arc(column)?;
                Ok(arc.dtype())
            }
            Some(Stored::Paged(pt)) => {
                let i = pt
                    .column_index(column)
                    .ok_or_else(|| EngineError::UnknownColumn(column.to_string()))?;
                Ok(pt.columns[i].dtype)
            }
            None => Err(EngineError::UnknownTable(table.to_string())),
        }
    }

    /// Number of rows in a table.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        match self.catalog.read().get(&name.to_ascii_lowercase()) {
            Some(Stored::Plain(t)) => Ok(t.num_rows()),
            Some(Stored::Compressed(c)) => Ok(c.columns.first().map_or(0, |cc| cc.len)),
            Some(Stored::External(e)) => Ok(e.num_rows()),
            Some(Stored::Paged(pt)) => Ok(pt.rows),
            None => Err(EngineError::UnknownTable(name.to_string())),
        }
    }

    /// Materialize a scan snapshot of a table (decompressing or copying in
    /// from external storage as the configuration dictates).
    pub fn snapshot(&self, name: &str) -> Result<Table> {
        let cat = self.catalog.read();
        match cat.get(&name.to_ascii_lowercase()) {
            Some(Stored::Plain(t)) => Ok((**t).clone()),
            Some(Stored::Compressed(c)) => {
                let mut t = Table::new();
                for (m, cc) in c.meta.iter().zip(&c.columns) {
                    t.push_column(m.clone(), decompress(cc));
                }
                Ok(t)
            }
            Some(Stored::External(e)) => {
                let (t, bytes) = e.copy_in();
                drop(cat);
                self.stats.lock().interop_bytes_copied += bytes as u64;
                Ok(t)
            }
            Some(Stored::Paged(pt)) => {
                // Clone the (cheap) page-chain metadata so the catalog lock
                // is released while pages are pinned through the pool.
                let pt = pt.clone();
                drop(cat);
                let store = self
                    .storage
                    .as_ref()
                    .expect("paged table without paged storage");
                store.load_table(&pt)
            }
            None => Err(EngineError::UnknownTable(name.to_string())),
        }
    }

    /// The artifact `build` derives from `tables`, built once and shared
    /// until one of those tables is written or dropped.
    ///
    /// Entries are keyed by `key` and stamped with the versions of
    /// `tables` at the start of the build. Every catalog install (create,
    /// `CREATE [OR REPLACE] TABLE … AS`, UPDATE, SWAP COLUMN, external
    /// registration, drop) bumps the written table's version and evicts
    /// the entries built from it, so a hit is never older than its
    /// inputs. A build that overlaps a write to one of its tables may mix
    /// versions: it is discarded and run again. When a table is missing
    /// or external (no version describes it) nothing is cached and
    /// `build` runs on every call.
    pub fn memo<T: Any + Send + Sync>(
        &self,
        key: &str,
        tables: &[&str],
        mut build: impl FnMut() -> Result<T>,
    ) -> Result<Arc<T>> {
        let deps: Vec<String> = tables.iter().map(|t| t.to_ascii_lowercase()).collect();
        loop {
            let stamp = {
                let cat = self.catalog.read();
                let stamp = cat.stamp(&deps);
                if let Some(hit) = stamp.as_ref().and_then(|s| cat.memo.get::<T>(key, s)) {
                    self.stats.lock().memo_hits += 1;
                    return Ok(hit);
                }
                stamp
            };
            self.stats.lock().memo_builds += 1;
            let built = build();
            let Some(stamp) = stamp else {
                return built.map(Arc::new);
            };
            let mut cat = self.catalog.write();
            if cat.stamp(&deps).as_ref() == Some(&stamp) {
                let value = Arc::new(built?);
                cat.memo.insert(
                    key,
                    deps,
                    stamp,
                    Arc::clone(&value) as Arc<dyn Any + Send + Sync>,
                );
                return Ok(value);
            }
            // A dependency was written while `build` ran, so its reads may
            // straddle two versions: build again.
        }
    }

    /// Is a cached [`Database::memo`] artifact built from this table?
    pub fn memo_uses(&self, name: &str) -> bool {
        self.catalog.read().memo.uses(&name.to_ascii_lowercase())
    }

    fn store(&self, table: Table) -> Result<Stored> {
        if let Some(store) = &self.storage {
            return Ok(Stored::Paged(store.store_table(&table)?));
        }
        if self.config.compression {
            let mut cols = Vec::with_capacity(table.columns.len());
            let mut bytes = 0usize;
            for c in &table.columns {
                let cc = compress(c);
                bytes += cc.byte_size();
                cols.push(cc);
            }
            self.stats.lock().compressed_bytes_written += bytes as u64;
            Ok(Stored::Compressed(Arc::new(CompressedTable {
                meta: table.meta,
                columns: cols,
            })))
        } else {
            Ok(Stored::Plain(Arc::new(table)))
        }
    }

    // ---- SQL entry points --------------------------------------------------

    /// Execute one SQL statement; `SELECT` returns its result, other
    /// statements return an empty table.
    pub fn execute(&self, sql: &str) -> Result<Table> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Convenience alias for `SELECT` statements.
    pub fn query(&self, sql: &str) -> Result<Table> {
        self.execute(sql)
    }

    /// Execute a pre-parsed statement.
    pub fn execute_statement(&self, stmt: &Statement) -> Result<Table> {
        self.stats.lock().statements += 1;
        match stmt {
            Statement::Select(q) => {
                self.stats.lock().queries += 1;
                Executor::new(self).query(q)
            }
            Statement::CreateTableAs {
                name,
                query,
                or_replace,
            } => {
                self.stats.lock().queries += 1;
                let result = Executor::new(self).query(query)?.unqualified();
                let key = name.to_ascii_lowercase();
                let gate = self.write_gate.read();
                {
                    let cat = self.catalog.read();
                    if cat.contains_key(&key) && !or_replace {
                        return Err(EngineError::TableExists(name.clone()));
                    }
                }
                if self.config.wal {
                    self.wal.lock().log_create_table(name, &result)?;
                }
                let stored = self.store(result)?;
                let old = self.catalog.write().install(key, stored);
                self.release(old);
                self.wal_commit()?;
                drop(gate);
                self.maybe_checkpoint()?;
                Ok(Table::new())
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                self.update(table, assignments, where_clause.as_ref())?;
                Ok(Table::new())
            }
            Statement::DropTable { name, if_exists } => {
                if *if_exists && !self.has_table(name) {
                    return Ok(Table::new());
                }
                self.drop_table(name)?;
                Ok(Table::new())
            }
            Statement::SwapColumn {
                table_a,
                column_a,
                table_b,
                column_b,
            } => {
                self.swap_column(table_a, column_a, table_b, column_b)?;
                Ok(Table::new())
            }
        }
    }

    fn update(
        &self,
        table: &str,
        assignments: &[(String, Expr)],
        where_clause: Option<&Expr>,
    ) -> Result<()> {
        let gate = self.write_gate.read();
        // Snapshot pays decompression (compressed storage) or copy-in
        // (external storage); the write below pays WAL + undo + recompress.
        let current = self.snapshot(table)?;
        let n = current.num_rows();
        let executor = Executor::new(self);
        let ctx = EvalContext::new(&executor);
        let mask: Vec<bool> = match where_clause {
            Some(pred) => match self.config.exec {
                ExecMode::Columnar => {
                    let c = eval(pred, &current, &ctx)?;
                    (0..n).map(|i| c.get(i).is_truthy()).collect()
                }
                ExecMode::Row => {
                    let mut m = Vec::with_capacity(n);
                    for i in 0..n {
                        m.push(eval_row(pred, &current, i, &ctx)?.is_truthy());
                    }
                    m
                }
            },
            None => vec![true; n],
        };
        let mut updated = current.clone();
        for (col_name, expr) in assignments {
            let idx = current.resolve(None, col_name)?;
            // MVCC: copy the before-image into the undo buffer.
            if self.config.mvcc {
                let before = current.columns[idx].clone();
                let bytes = before.byte_size();
                let mut undo = self.undo.lock();
                undo.versions.push((format!("{table}.{col_name}"), before));
                undo.bytes += bytes;
                while undo.bytes > UNDO_CAP_BYTES && !undo.versions.is_empty() {
                    let (_, old) = undo.versions.remove(0);
                    undo.bytes -= old.byte_size();
                }
                let mut stats = self.stats.lock();
                stats.undo_bytes += bytes as u64;
                stats.undo_versions += 1;
            }
            let new_vals = match self.config.exec {
                ExecMode::Columnar => eval(expr, &current, &ctx)?,
                ExecMode::Row => {
                    let mut vals = Vec::with_capacity(n);
                    for i in 0..n {
                        vals.push(eval_row(expr, &current, i, &ctx)?);
                    }
                    Column::from_datums(&vals)
                }
            };
            // Merge: masked rows take the new value, others keep the old.
            let mut merged = Vec::with_capacity(n);
            let old = &current.columns[idx];
            for (i, &hit) in mask.iter().enumerate() {
                merged.push(if hit { new_vals.get(i) } else { old.get(i) });
            }
            let merged_col = Column::from_datums(&merged);
            if self.config.wal {
                self.wal
                    .lock()
                    .log_update_column(table, col_name, &merged_col)?;
            }
            updated.columns[idx] = merged_col;
        }
        let key = table.to_ascii_lowercase();
        let was_external = matches!(self.catalog.read().get(&key), Some(Stored::External(_)));
        if was_external {
            self.catalog.write().install(
                key,
                Stored::External(Arc::new(ExternalTable::from_table(&updated))),
            );
        } else {
            let stored = self.store(updated)?;
            let old = self.catalog.write().install(key, stored);
            self.release(old);
        }
        self.wal_commit()?;
        drop(gate);
        self.maybe_checkpoint()
    }

    fn swap_column(&self, ta: &str, ca: &str, tb: &str, cb: &str) -> Result<()> {
        if !self.config.allow_swap {
            return Err(EngineError::Other(
                "column swap is not supported by this backend configuration".into(),
            ));
        }
        let (ka, kb) = (ta.to_ascii_lowercase(), tb.to_ascii_lowercase());
        let mut cat = self.catalog.write();
        if !cat.contains_key(&ka) {
            return Err(EngineError::UnknownTable(ta.to_string()));
        }
        if !cat.contains_key(&kb) {
            return Err(EngineError::UnknownTable(tb.to_string()));
        }
        // External ⇄ external: swap Arc pointers.
        if let (Some(Stored::External(ea)), Some(Stored::External(eb))) =
            (cat.get(&ka), cat.get(&kb))
        {
            let (ea, eb) = (Arc::clone(ea), Arc::clone(eb));
            cat.touch(&ka);
            cat.touch(&kb);
            drop(cat);
            let a = ea.column_arc(ca)?;
            let b = eb.column_arc(cb)?;
            ea.replace_column(ca, (*b).clone())?;
            eb.replace_column(cb, (*a).clone())?;
            self.stats.lock().swaps += 1;
            return Ok(());
        }
        // Same-representation in-catalog swap: pull both columns out and
        // exchange them. This is a schema-level pointer move — O(1) in the
        // number of rows (Vec moves are three words).
        let tables = &mut cat.tables;
        let col_a = take_column(tables.get_mut(&ka).expect("checked"), ca)?;
        let col_b = match take_column(tables.get_mut(&kb).expect("checked"), cb) {
            Ok(c) => c,
            Err(e) => {
                // Restore A before bailing out.
                put_column(tables.get_mut(&ka).expect("checked"), ca, col_a)?;
                return Err(e);
            }
        };
        put_column(tables.get_mut(&ka).expect("checked"), ca, col_b)?;
        put_column(tables.get_mut(&kb).expect("checked"), cb, col_a)?;
        cat.touch(&ka);
        cat.touch(&kb);
        self.stats.lock().swaps += 1;
        Ok(())
    }
}

/// Either a plain or a compressed column, moved between tables by swap.
enum AnyColumn {
    Plain(Column),
    Compressed(CompressedColumn),
}

fn take_column(stored: &mut Stored, name: &str) -> Result<AnyColumn> {
    match stored {
        Stored::Plain(t) => {
            let t = Arc::make_mut(t);
            let idx = t.resolve(None, name)?;
            // Leave a zero-length placeholder; put_column will replace it.
            let col = std::mem::replace(&mut t.columns[idx], Column::int(vec![]));
            Ok(AnyColumn::Plain(col))
        }
        Stored::Compressed(c) => {
            let c = Arc::make_mut(c);
            let idx = c
                .meta
                .iter()
                .position(|m| m.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))?;
            let placeholder = compress(&Column::int(vec![]));
            let col = std::mem::replace(&mut c.columns[idx], placeholder);
            Ok(AnyColumn::Compressed(col))
        }
        Stored::External(e) => {
            let arc = e.column_arc(name)?;
            Ok(AnyColumn::Plain((*arc).clone()))
        }
        // Swap deliberately bypasses the WAL (it is a schema-level pointer
        // move), which is incompatible with WAL-replay recovery.
        Stored::Paged(_) => Err(EngineError::Other(
            "column swap is not supported on paged storage".into(),
        )),
    }
}

fn put_column(stored: &mut Stored, name: &str, col: AnyColumn) -> Result<()> {
    match stored {
        Stored::Plain(t) => {
            let t = Arc::make_mut(t);
            let idx = t.resolve(None, name)?;
            t.columns[idx] = match col {
                AnyColumn::Plain(c) => c,
                AnyColumn::Compressed(cc) => decompress(&cc),
            };
            Ok(())
        }
        Stored::Compressed(c) => {
            let c = Arc::make_mut(c);
            let idx = c
                .meta
                .iter()
                .position(|m| m.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))?;
            c.columns[idx] = match col {
                AnyColumn::Compressed(cc) => cc,
                AnyColumn::Plain(p) => compress(&p),
            };
            Ok(())
        }
        Stored::External(e) => {
            let c = match col {
                AnyColumn::Plain(c) => c,
                AnyColumn::Compressed(cc) => decompress(&cc),
            };
            e.replace_column(name, c)
        }
        Stored::Paged(_) => Err(EngineError::Other(
            "column swap is not supported on paged storage".into(),
        )),
    }
}

impl Clone for CompressedTable {
    fn clone(&self) -> Self {
        CompressedTable {
            meta: self.meta.clone(),
            columns: self.columns.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    fn db_with_r() -> Database {
        let db = Database::in_memory();
        db.create_table(
            "r",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2, 2])),
                ("y", Column::float(vec![2.0, 3.0, 1.0, 2.0])),
            ]),
        )
        .unwrap();
        db
    }

    #[test]
    fn select_group_by_aggregates() {
        let db = db_with_r();
        let t = db
            .query("SELECT a, SUM(y) AS s, COUNT(*) AS c FROM r GROUP BY a ORDER BY a")
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(None, "s").unwrap().get(0), Datum::Float(5.0));
        assert_eq!(t.column(None, "c").unwrap().get(1), Datum::Int(2));
    }

    #[test]
    fn global_aggregate_and_arithmetic_over_aggs() {
        let db = db_with_r();
        // variance = Q - S^2/C over all of r
        let t = db
            .query("SELECT SUM(y * y) - SUM(y) * SUM(y) / COUNT(*) AS v FROM r")
            .unwrap();
        let v = t.scalar_f64("v").unwrap();
        assert!((v - 2.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn create_table_as_and_reuse() {
        let db = db_with_r();
        db.execute("CREATE TABLE agg AS SELECT a, SUM(y) AS s FROM r GROUP BY a")
            .unwrap();
        let t = db.query("SELECT SUM(s) AS total FROM agg").unwrap();
        assert_eq!(t.scalar_f64("total").unwrap(), 8.0);
        assert!(db.execute("CREATE TABLE agg AS SELECT 1 AS x").is_err());
        db.execute("CREATE OR REPLACE TABLE agg AS SELECT 1 AS x")
            .unwrap();
        assert_eq!(db.row_count("agg").unwrap(), 1);
    }

    #[test]
    fn update_with_predicate() {
        let db = db_with_r();
        db.execute("UPDATE r SET y = y - 1.0 WHERE a = 1").unwrap();
        let t = db.query("SELECT SUM(y) AS s FROM r").unwrap();
        assert_eq!(t.scalar_f64("s").unwrap(), 6.0);
        let stats = db.stats();
        assert_eq!(stats.undo_versions, 1, "MVCC before-image recorded");
    }

    #[test]
    fn update_with_in_subquery() {
        let db = db_with_r();
        db.create_table("m", Table::from_columns(vec![("a", Column::int(vec![2]))]))
            .unwrap();
        db.execute("UPDATE r SET y = 0.0 WHERE a IN (SELECT a FROM m)")
            .unwrap();
        let t = db.query("SELECT SUM(y) AS s FROM r").unwrap();
        assert_eq!(t.scalar_f64("s").unwrap(), 5.0);
    }

    #[test]
    fn swap_column_requires_capability() {
        let db = db_with_r();
        db.execute("CREATE TABLE r2 AS SELECT a, y + 1.0 AS y FROM r")
            .unwrap();
        assert!(db.execute("SWAP COLUMN r.y WITH r2.y").is_err());

        let db2 = Database::new(EngineConfig::d_swap());
        db2.create_table(
            "f",
            Table::from_columns(vec![("s", Column::float(vec![1.0, 2.0]))]),
        )
        .unwrap();
        db2.create_table(
            "f2",
            Table::from_columns(vec![("s", Column::float(vec![10.0, 20.0]))]),
        )
        .unwrap();
        db2.execute("SWAP COLUMN f.s WITH f2.s").unwrap();
        assert_eq!(
            db2.query("SELECT SUM(s) AS s FROM f")
                .unwrap()
                .scalar_f64("s")
                .unwrap(),
            30.0
        );
        assert_eq!(db2.stats().swaps, 1);
    }

    #[test]
    fn join_via_sql() {
        let db = db_with_r();
        db.create_table(
            "d",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 2])),
                ("grp", Column::int(vec![10, 20])),
            ]),
        )
        .unwrap();
        let t = db
            .query("SELECT grp, SUM(y) AS s FROM r JOIN d USING (a) GROUP BY grp ORDER BY grp")
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(None, "s").unwrap().get(0), Datum::Float(5.0));
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let db = Database::in_memory();
        db.create_table(
            "l",
            Table::from_columns(vec![("k", Column::int(vec![1, 2, 3]))]),
        )
        .unwrap();
        db.create_table(
            "rr",
            Table::from_columns(vec![
                ("k", Column::int(vec![1])),
                ("v", Column::int(vec![100])),
            ]),
        )
        .unwrap();
        let t = db
            .query("SELECT k, v FROM l LEFT JOIN rr USING (k) ORDER BY k")
            .unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column(None, "v").unwrap().get(0), Datum::Int(100));
        assert_eq!(t.column(None, "v").unwrap().get(2), Datum::Null);
    }

    #[test]
    fn semi_join_filters_without_duplicating() {
        let db = Database::in_memory();
        db.create_table(
            "l",
            Table::from_columns(vec![("k", Column::int(vec![1, 2, 3]))]),
        )
        .unwrap();
        db.create_table(
            "rr",
            Table::from_columns(vec![("k", Column::int(vec![1, 1, 2]))]),
        )
        .unwrap();
        let t = db
            .query("SELECT k FROM l SEMI JOIN rr USING (k) ORDER BY k")
            .unwrap();
        assert_eq!(t.num_rows(), 2, "duplicates on the right do not multiply");
    }

    #[test]
    fn window_over_grouped_subquery_matches_paper_example() {
        // Example 2 shape: prefix sums over per-value aggregates.
        let db = db_with_r();
        let t = db
            .query(
                "SELECT a, SUM(c) OVER (ORDER BY a) AS cc, SUM(s) OVER (ORDER BY a) AS ss \
                 FROM (SELECT a, SUM(y) AS s, COUNT(*) AS c FROM r GROUP BY a) AS g ORDER BY a",
            )
            .unwrap();
        assert_eq!(t.column(None, "cc").unwrap().get(1), Datum::Float(4.0));
        assert_eq!(t.column(None, "ss").unwrap().get(1), Datum::Float(8.0));
    }

    #[test]
    fn row_mode_same_results() {
        let db = Database::new(EngineConfig::dbms_x_row());
        db.create_table(
            "r",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2, 2])),
                ("y", Column::float(vec![2.0, 3.0, 1.0, 2.0])),
            ]),
        )
        .unwrap();
        let t = db
            .query("SELECT a, SUM(y) AS s FROM r WHERE y > 1.0 GROUP BY a ORDER BY a")
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(None, "s").unwrap().get(0), Datum::Float(5.0));
        assert_eq!(t.column(None, "s").unwrap().get(1), Datum::Float(2.0));
    }

    #[test]
    fn external_table_scan_and_replace() {
        let db = Database::in_memory();
        let f = Table::from_columns(vec![
            ("a", Column::int(vec![1, 2])),
            ("s", Column::float(vec![1.0, 2.0])),
        ]);
        db.register_external("f", &f);
        let t = db.query("SELECT SUM(s) AS s FROM f").unwrap();
        assert_eq!(t.scalar_f64("s").unwrap(), 3.0);
        assert!(db.stats().interop_bytes_copied > 0);
        db.external("f")
            .unwrap()
            .replace_column("s", Column::float(vec![5.0, 5.0]))
            .unwrap();
        let t = db.query("SELECT SUM(s) AS s FROM f").unwrap();
        assert_eq!(t.scalar_f64("s").unwrap(), 10.0);
    }

    #[test]
    fn drop_table_if_exists() {
        let db = db_with_r();
        db.execute("DROP TABLE IF EXISTS nope").unwrap();
        db.execute("DROP TABLE r").unwrap();
        assert!(!db.has_table("r"));
        assert!(db.execute("DROP TABLE r").is_err());
    }

    #[test]
    fn order_by_desc_limit_and_null_last() {
        let db = db_with_r();
        // NULL criteria (e.g. division by zero at the boundary split) must
        // sort last even in DESC order, so LIMIT 1 picks the real value.
        let t = db
            .query(
                "SELECT a, CASE WHEN a = 1 THEN NULL ELSE 5.0 END AS crit \
                 FROM r GROUP BY a ORDER BY crit DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column(None, "crit").unwrap().get(0), Datum::Float(5.0));
        assert_eq!(t.column(None, "a").unwrap().get(0), Datum::Int(2));
    }
}
