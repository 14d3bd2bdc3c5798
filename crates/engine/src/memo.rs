//! The derived-artifact memo behind [`Database::memo`]: artifacts built
//! from catalog tables (a serving index, say), each stamped with the
//! versions of the tables it was built from.
//!
//! The memo lives inside the catalog and is only changed under the
//! catalog's write lock, next to the version bumps, so "written" and
//! "evicted" are one step (see `Catalog` in [`crate::db`]).
//!
//! [`Database::memo`]: crate::Database::memo

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// One cached artifact and the table versions it was built from.
struct Entry {
    tables: Vec<String>,
    stamp: Vec<u64>,
    value: Arc<dyn Any + Send + Sync>,
}

/// Cached artifacts by key.
#[derive(Default)]
pub(crate) struct Memo {
    entries: HashMap<String, Entry>,
}

impl Memo {
    /// The artifact under `key` if it was built from exactly the table
    /// versions `stamp` and has type `T`.
    pub(crate) fn get<T: Any + Send + Sync>(&self, key: &str, stamp: &[u64]) -> Option<Arc<T>> {
        let e = self.entries.get(key)?;
        if e.stamp != stamp {
            return None;
        }
        Arc::clone(&e.value).downcast::<T>().ok()
    }

    /// Cache `value`, built from `tables` at versions `stamp`.
    pub(crate) fn insert(
        &mut self,
        key: &str,
        tables: Vec<String>,
        stamp: Vec<u64>,
        value: Arc<dyn Any + Send + Sync>,
    ) {
        self.entries.insert(
            key.to_string(),
            Entry {
                tables,
                stamp,
                value,
            },
        );
    }

    /// Drop every artifact built from `table`. Free when the memo is
    /// empty, O(entries) otherwise.
    pub(crate) fn evict(&mut self, table: &str) {
        if !self.entries.is_empty() {
            self.entries
                .retain(|_, e| !e.tables.iter().any(|t| t == table));
        }
    }

    /// Is some cached artifact built from `table`?
    pub(crate) fn uses(&self, table: &str) -> bool {
        self.entries
            .values()
            .any(|e| e.tables.iter().any(|t| t == table))
    }

    /// Number of cached artifacts.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use crate::{Column, Database, EngineConfig, EngineError, Table};

    fn table(base: i64) -> Table {
        Table::from_columns(vec![
            ("k", Column::int(vec![1, 2, 3])),
            ("v", Column::int(vec![base, base + 1, base + 2])),
        ])
    }

    fn sum_of(db: &Database, name: &str) -> crate::Result<i64> {
        let t = db.snapshot(name)?;
        let c = t.column(None, "v")?;
        Ok((0..t.num_rows()).filter_map(|i| c.get(i).as_i64()).sum())
    }

    /// `sum(a.v) + sum(b.v)`, memoized over `a` and `b`.
    fn cached_sum(db: &Database) -> crate::Result<i64> {
        db.memo("sum", &["a", "b"], || {
            Ok(sum_of(db, "a")? + sum_of(db, "b")?)
        })
        .map(|v| *v)
    }

    fn two_tables(config: EngineConfig) -> Database {
        let db = Database::new(config);
        db.create_table("a", table(0)).unwrap();
        db.create_table("b", table(10)).unwrap();
        db
    }

    fn builds(db: &Database) -> u64 {
        db.stats().memo_builds
    }

    #[test]
    fn repeat_lookup_hits_the_cache() {
        let db = two_tables(EngineConfig::duckdb_mem());
        assert_eq!(cached_sum(&db).unwrap(), 3 + 33);
        assert_eq!(cached_sum(&db).unwrap(), 36);
        assert_eq!(cached_sum(&db).unwrap(), 36);
        let s = db.stats();
        assert_eq!((s.memo_builds, s.memo_hits, s.memo_entries), (1, 2, 1));
        // Table names are case-insensitive, like the catalog's.
        let upper = db.memo("sum", &["A", "B"], || Ok(0i64)).unwrap();
        assert_eq!(*upper, 36);
    }

    #[test]
    fn writing_a_dependency_evicts_the_entry() {
        let db = two_tables(EngineConfig::d_swap());
        db.create_table("c", table(100)).unwrap();
        let writes = [
            "CREATE OR REPLACE TABLE a AS SELECT k, v + 1 AS v FROM a",
            "UPDATE b SET v = v * 2",
            "SWAP COLUMN a.v WITH c.v",
            "SWAP COLUMN c.v WITH b.v",
        ];
        let mut expect = 36;
        for (i, sql) in writes.iter().enumerate() {
            assert_eq!(cached_sum(&db).unwrap(), expect);
            assert_eq!(db.stats().memo_entries, 1);
            db.execute(sql).unwrap();
            assert_eq!(db.stats().memo_entries, 0, "{sql} must evict");
            expect = sum_of(&db, "a").unwrap() + sum_of(&db, "b").unwrap();
            assert_eq!(cached_sum(&db).unwrap(), expect, "{sql}: rebuilt value");
            assert_eq!(builds(&db), 2 + i as u64, "{sql}: one rebuild");
        }
        db.execute("DROP TABLE a").unwrap();
        assert_eq!(db.stats().memo_entries, 0, "drop must evict");
        assert!(matches!(cached_sum(&db), Err(EngineError::UnknownTable(_))));
    }

    #[test]
    fn programmatic_installs_evict_too() {
        let db = two_tables(EngineConfig::duckdb_mem());
        cached_sum(&db).unwrap();
        db.create_or_replace_table("a", table(1)).unwrap();
        assert_eq!(cached_sum(&db).unwrap(), 6 + 33);
        db.drop_table("b").unwrap();
        db.create_table("b", table(20)).unwrap();
        assert_eq!(cached_sum(&db).unwrap(), 6 + 63);
        assert_eq!(builds(&db), 3);
    }

    #[test]
    fn unrelated_write_evicts_nothing() {
        let db = two_tables(EngineConfig::duckdb_mem());
        cached_sum(&db).unwrap();
        db.create_table("other", table(7)).unwrap();
        db.execute("UPDATE other SET v = 0").unwrap();
        db.execute("CREATE TABLE other2 AS SELECT * FROM a")
            .unwrap();
        db.execute("DROP TABLE other").unwrap();
        cached_sum(&db).unwrap();
        let s = db.stats();
        assert_eq!((s.memo_builds, s.memo_hits, s.memo_entries), (1, 1, 1));
    }

    #[test]
    fn external_dependencies_are_never_cached() {
        let db = two_tables(EngineConfig::duckdb_mem());
        cached_sum(&db).unwrap();
        db.register_external("b", &table(10));
        assert_eq!(db.stats().memo_entries, 0, "registering evicts");
        assert_eq!(cached_sum(&db).unwrap(), 36);
        // The handle replaces a column without any catalog install: a
        // cached copy would now be stale, so none may exist.
        db.external("b")
            .unwrap()
            .replace_column("v", Column::int(vec![0, 0, 0]))
            .unwrap();
        assert_eq!(cached_sum(&db).unwrap(), 3);
        let s = db.stats();
        assert_eq!((s.memo_builds, s.memo_hits, s.memo_entries), (3, 0, 0));
    }

    #[test]
    fn memo_works_on_the_paged_engine_and_starts_empty_on_reopen() {
        let dir = std::env::temp_dir().join(format!("jb_memo_paged_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = two_tables(EngineConfig::paged(&dir));
            assert_eq!(cached_sum(&db).unwrap(), 36);
            assert_eq!(cached_sum(&db).unwrap(), 36);
            db.execute("UPDATE a SET v = v + 1").unwrap();
            assert_eq!(cached_sum(&db).unwrap(), 39);
            let s = db.stats();
            assert_eq!((s.memo_builds, s.memo_hits, s.memo_entries), (2, 1, 1));
        }
        let db = Database::open(EngineConfig::paged(&dir)).unwrap();
        assert_eq!(db.stats().memo_entries, 0);
        assert_eq!(cached_sum(&db).unwrap(), 39);
        assert_eq!(cached_sum(&db).unwrap(), 39);
        let s = db.stats();
        assert_eq!((s.memo_builds, s.memo_hits), (1, 1));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A writer flips `t` between two versions while a reader asks for an
    /// artifact that scans `t` twice. A build that overlaps a flip sees
    /// both versions; installing or returning it would give a value that
    /// matches neither. Every value the memo hands out must be one
    /// version's.
    #[test]
    fn build_racing_a_write_is_discarded() {
        let db = Database::in_memory();
        let version = |base: i64| Table::from_columns(vec![("v", Column::int(vec![base; 64]))]);
        db.create_table("t", version(1)).unwrap();
        let (old, new) = (2 * 64, 2 * 64 * 1000);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..2_000 {
                    let base = if i % 2 == 0 { 1000 } else { 1 };
                    db.create_or_replace_table("t", version(base)).unwrap();
                }
                stop.store(true, Ordering::Relaxed);
            });
            let mut seen = 0;
            while !stop.load(Ordering::Relaxed) || seen < 100 {
                let v = db
                    .memo("twice", &["t"], || {
                        let first = sum_of_col(&db)?;
                        std::thread::yield_now();
                        Ok(first + sum_of_col(&db)?)
                    })
                    .unwrap();
                assert!(*v == old || *v == new, "torn artifact {v}");
                seen += 1;
            }
        });
        assert!(db.stats().memo_builds > 0);
    }

    fn sum_of_col(db: &Database) -> crate::Result<i64> {
        let t = db.snapshot("t")?;
        Ok(t.column(None, "v")?.as_i64_slice().unwrap().iter().sum())
    }
}
