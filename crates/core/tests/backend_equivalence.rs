//! The portability claim, end to end: the same training run against every
//! [`SqlBackend`] implementation must produce the *same model* — not just
//! statistically, but bit for bit.
//!
//! Floating-point `⊕` is only associative on values where no addition ever
//! rounds, so the workload pins everything to a dyadic grid (see
//! `DESIGN.md` § Backends):
//!
//! * the target is quantized to multiples of 1/8 (exact in `f64`),
//! * `leaf_quantization` rounds the initial score and every leaf value to
//!   the 2⁻¹⁰ grid,
//! * the learning rate is 0.5 (dyadic).
//!
//! Under those conditions every residual, message aggregate and split
//! statistic the trainer ever sums is a dyadic rational of bounded
//! magnitude, so shard merge order cannot change a single bit — which is
//! exactly what this test asserts for 1-shard and 4-shard backends.

use joinboost::backend::{
    EngineBackend, RemoteBackend, RemoteOptions, ShardedBackend, SqlBackend, SqlTextBackend,
};
use joinboost::{train_gbm, Dataset, GbmModel, TrainParams};
use joinboost_datagen::{favorita, FavoritaConfig};
use joinboost_engine::EngineConfig;

/// A real `shard_server` child process (cross-process, not a thread):
/// spawned on an ephemeral port, killed on drop.
struct ShardServerProc {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

impl ShardServerProc {
    fn spawn() -> ShardServerProc {
        use std::io::BufRead as _;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_shard_server"))
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn shard_server");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .expect("server must announce its address")
            .parse()
            .expect("valid socket address");
        ShardServerProc { child, addr }
    }
}

impl Drop for ShardServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn workload() -> joinboost_datagen::favorita::Generated {
    favorita(&FavoritaConfig {
        fact_rows: 3000,
        dim_rows: 30,
        noise: 1.0,
        ..Default::default()
    })
}

fn load_and_train(backend: &dyn SqlBackend) -> GbmModel {
    let gen = workload();
    for (name, t) in &gen.tables {
        backend.create_table(name, t.clone()).unwrap();
    }
    // Quantize the target to the 1/8 grid: FLOOR(y*8) is exact for these
    // magnitudes and /8 is an exponent shift, so the stored values are
    // dyadic rationals and every sum of them is exact in f64.
    backend
        .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
        .unwrap();
    let set = Dataset::new(backend, gen.graph.clone(), "sales", "net_profit").unwrap();
    let params = TrainParams {
        num_iterations: 4,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    train_gbm(&set, &params).unwrap()
}

fn assert_bit_identical(reference: &GbmModel, model: &GbmModel, who: &str) {
    assert_eq!(
        reference.init_score.to_bits(),
        model.init_score.to_bits(),
        "{who}: init score diverged"
    );
    assert_eq!(
        reference.trees.len(),
        model.trees.len(),
        "{who}: tree count diverged"
    );
    for (i, (a, b)) in reference.trees.iter().zip(&model.trees).enumerate() {
        assert_eq!(a.nodes.len(), b.nodes.len(), "{who}: tree {i} shape");
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.split, nb.split, "{who}: tree {i} split");
            assert_eq!(
                na.value.to_bits(),
                nb.value.to_bits(),
                "{who}: tree {i} leaf value diverged ({} vs {})",
                na.value,
                nb.value
            );
            assert_eq!(
                na.weight.to_bits(),
                nb.weight.to_bits(),
                "{who}: tree {i} weight diverged"
            );
        }
    }
}

#[test]
fn all_backends_train_bit_identical_gbms() {
    // Reference: the plain engine behind the AST fast path.
    let engine = EngineBackend::in_memory();
    let reference = load_and_train(&engine);
    assert_eq!(reference.trees.len(), 4);
    assert!(
        reference.trees.iter().any(|t| t.num_leaves() > 1),
        "the workload must actually produce splits"
    );

    // SQL text: every statement through print ∘ parse ∘ print.
    let text = SqlTextBackend::in_memory();
    let model = load_and_train(&text);
    assert_bit_identical(&reference, &model, "sql-text");
    assert!(
        text.round_trips() > 50,
        "training must have exercised the text path ({} round-trips)",
        text.round_trips()
    );

    // Sharded: 1 shard (degenerate) and 4 shards (real fan-out + merge).
    for shards in [1usize, 4] {
        let sharded = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "sales", "items_id");
        let model = load_and_train(&sharded);
        assert_bit_identical(&reference, &model, &format!("sharded x{shards}"));
        let stats = sharded.stats();
        assert!(stats.fanout_selects > 0, "aggregates must fan out");
        assert!(stats.broadcast_statements > 0, "updates must broadcast");
        if shards > 1 {
            assert!(stats.rows_shipped > 0, "merging must move rows");
            // The fact partition really is spread out.
            let nonempty = (0..shards)
                .filter(|&i| sharded.shard(i).row_count("sales").unwrap_or(0) > 0)
                .count();
            assert!(nonempty > 1, "hash partitioning left all rows on one shard");
        }
    }
}

/// The out-of-core claim: the paged engine — tables on disk behind a
/// buffer pool, scans pinning pages one at a time — trains the same bits
/// as the in-memory engine, even when the pool is squeezed to 8 pages
/// (32 KiB, far below the working set, so every scan thrashes) and the
/// aggregation spill budget is forced down so accumulator banks park on
/// disk mid-query. Paging moves bytes; it must never touch fold order.
#[test]
fn paged_engine_trains_bit_identical_gbms_even_at_an_8_page_pool() {
    let engine = EngineBackend::in_memory();
    let reference = load_and_train(&engine);

    for (pool_pages, spill_bytes) in [(256usize, 64usize << 20), (8, 4 << 10)] {
        let dir = std::env::temp_dir().join(format!(
            "jb_equiv_paged_{}_{pool_pages}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            bufferpool_pages: pool_pages,
            agg_spill_bytes: spill_bytes,
            ..EngineConfig::paged(&dir)
        };
        let paged = EngineBackend::labeled(config, format!("paged-{pool_pages}"));
        let model = load_and_train(&paged);
        assert_bit_identical(&reference, &model, &format!("paged {pool_pages} pages"));
        let stats = paged
            .database()
            .bufferpool_stats()
            .expect("paged engine exposes pool stats");
        assert!(stats.misses > 0, "scans must actually fault pages in");
        if pool_pages == 8 {
            assert!(
                stats.evictions > 0,
                "an 8-page pool must thrash on this workload: {stats:?}"
            );
            assert!(
                stats.spilled_bytes > 0,
                "evicting dirty frames must write pages back: {stats:?}"
            );
        }
        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The portability claim across a *process boundary*: the same training
/// run against engines living in separate `shard_server` processes —
/// reached only through SQL text and columnar blocks over sockets — must
/// produce the same bits as the in-process engine.
#[test]
fn remote_backends_train_bit_identical_gbms_cross_process() {
    let engine = EngineBackend::in_memory();
    let reference = load_and_train(&engine);

    // One remote engine process behind a plain RemoteBackend.
    {
        let server = ShardServerProc::spawn();
        let remote = RemoteBackend::builder(server.addr).connect().unwrap();
        let model = load_and_train(&remote);
        assert_bit_identical(&reference, &model, "remote single");
        let stats = remote.stats();
        assert!(
            stats.bytes_sent > 0 && stats.bytes_received > 0,
            "wire volume must be measured: {stats:?}"
        );
        assert!(stats.statements > 50, "training must run over the wire");
    }

    // Multi-process sharding: the fact partitioned across 1 and 4 server
    // processes, coordinator local.
    for shards in [1usize, 4] {
        let servers: Vec<ShardServerProc> = (0..shards).map(|_| ShardServerProc::spawn()).collect();
        let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.addr).collect();
        let remote = ShardedBackend::remote(
            &addrs,
            EngineConfig::duckdb_mem(),
            "sales",
            "items_id",
            RemoteOptions::default(),
        )
        .unwrap();
        let model = load_and_train(&remote);
        assert_bit_identical(&reference, &model, &format!("remote x{shards}"));
        let stats = remote.stats();
        assert!(stats.fanout_selects > 0, "aggregates must fan out");
        assert!(
            stats.bytes_sent > 0 && stats.bytes_received > 0,
            "wire volume must be measured: {stats:?}"
        );
        if shards > 1 {
            let nonempty = (0..shards)
                .filter(|&i| remote.shard(i).row_count("sales").unwrap_or(0) > 0)
                .count();
            assert!(
                nonempty > 1,
                "hash partitioning left all rows on one server"
            );
        }
    }
}

/// The serving tier's exactness claim across every backend: factorized
/// scoring (per-relation message tables, k dictionary lookups + ⊕-adds,
/// no join) must be *bit-identical* to scoring over the materialized
/// join — on the in-process engine, on 1- and 4-shard backends (fact
/// messages partitioned, dim messages replicated, partial scores merged
/// by the coordinator), and across a real process boundary where only
/// keys and partial sums cross the wire.
#[test]
fn factorized_scoring_matches_join_scoring_bit_for_bit_on_all_backends() {
    use joinboost::{FactorizedScorer, JoinScorer, Scorer};
    use joinboost_engine::table::ColumnMeta;
    use joinboost_engine::Column;

    // The favorita fact has no unique key: append one.
    let keyed_tables = |gen: &joinboost_datagen::favorita::Generated| {
        let mut tables = gen.tables.clone();
        for (name, t) in &mut tables {
            if name == "sales" {
                t.push_column(
                    ColumnMeta::new("sale_id"),
                    Column::int((0..t.num_rows() as i64).collect()),
                );
            }
        }
        tables
    };
    let gen = workload();
    let params = TrainParams {
        num_iterations: 4,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    let load = |backend: &dyn SqlBackend| {
        for (name, t) in keyed_tables(&gen) {
            backend.create_table(&name, t).unwrap();
        }
        backend
            .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
            .unwrap();
    };
    // Keys 0..N exist; the tail keys do not (inner-join misses → None).
    let n = gen
        .tables
        .iter()
        .find(|(n, _)| n == "sales")
        .unwrap()
        .1
        .num_rows() as i64;
    let keys: Vec<i64> = (0..n + 10).collect();

    // Reference: the materialized-join scorer on the plain engine.
    let engine = EngineBackend::in_memory();
    load(&engine);
    let set = Dataset::new(&engine, gen.graph.clone(), "sales", "net_profit").unwrap();
    let model = train_gbm(&set, &params).unwrap();
    let join = JoinScorer::compile(&set, &model, "sale_id").unwrap();
    let reference = join.score_batch(&keys).unwrap();
    assert!(reference[..n as usize].iter().all(|s| s.is_some()));
    assert!(reference[n as usize..].iter().all(|s| s.is_none()));

    let check = |backend: &dyn SqlBackend, who: &str| {
        load(backend);
        let set = Dataset::new(backend, gen.graph.clone(), "sales", "net_profit").unwrap();
        let model = train_gbm(&set, &params).unwrap();
        let scorer = FactorizedScorer::compile(&set, &model, "sale_id").unwrap();
        let scores = scorer.score_batch(&keys).unwrap();
        assert_eq!(scores.len(), reference.len(), "{who}: length");
        for (i, (r, s)) in reference.iter().zip(&scores).enumerate() {
            assert_eq!(
                r.map(f64::to_bits),
                s.map(f64::to_bits),
                "{who}: key {} diverged ({r:?} vs {s:?})",
                keys[i]
            );
        }
    };

    check(&EngineBackend::in_memory(), "engine factorized");
    for shards in [1usize, 4] {
        let sharded = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "sales", "items_id");
        check(&sharded, &format!("sharded x{shards} factorized"));
        if shards > 1 {
            assert!(
                sharded.stats().fanout_selects > 0,
                "factorized scoring must fan out to the shards"
            );
        }
    }
    {
        let server = ShardServerProc::spawn();
        let remote = RemoteBackend::builder(server.addr).connect().unwrap();
        check(&remote, "remote factorized");
    }
}

#[test]
fn histogram_binned_training_is_bit_identical_across_backends() {
    // Binned absorbs (`GROUP BY FLOOR(..)` with `MAX(f)` as the split
    // value) now fan out over sharded facts: the bin key rides in the
    // output and MAX/⊕ re-aggregate per bin on merge. The MAX merge is
    // exact (no arithmetic), so the dyadic recipe again forces bit
    // identity — which this test asserts against the engine path.
    let gen = workload();
    let train = |backend: &dyn SqlBackend| -> GbmModel {
        for (name, t) in &gen.tables {
            backend.create_table(name, t.clone()).unwrap();
        }
        backend
            .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
            .unwrap();
        let set = Dataset::new(backend, gen.graph.clone(), "sales", "net_profit").unwrap();
        let params = TrainParams {
            num_iterations: 3,
            learning_rate: 0.5,
            leaf_quantization: (2.0f64).powi(-10),
            max_bins: 12,
            ..Default::default()
        };
        train_gbm(&set, &params).unwrap()
    };
    let engine = EngineBackend::in_memory();
    let reference = train(&engine);
    assert!(reference.trees.iter().any(|t| t.num_leaves() > 1));
    for shards in [2usize, 4] {
        let sharded = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "sales", "items_id");
        let model = train(&sharded);
        assert_bit_identical(&reference, &model, &format!("binned sharded x{shards}"));
    }
}

#[test]
fn sharded_backend_trains_random_forests_via_per_shard_samples() {
    // Forest row-sampling gathers only the sampled fact rows from the
    // shards that own them (`gather_rows`) instead of snapshotting whole
    // partitions — the ship-messages-not-scans path.
    let sharded = ShardedBackend::new(3, EngineConfig::duckdb_mem(), "sales", "stores_id");
    let gen = favorita(&FavoritaConfig {
        fact_rows: 600,
        dim_rows: 10,
        ..Default::default()
    });
    for (name, t) in &gen.tables {
        sharded.create_table(name, t.clone()).unwrap();
    }
    let set = Dataset::new(&sharded, gen.graph.clone(), "sales", "net_profit").unwrap();
    let before = sharded.stats().rows_shipped;
    let params = TrainParams {
        num_iterations: 3,
        bagging_fraction: 0.5,
        ..Default::default()
    };
    let model = joinboost::train_random_forest(&set, &params).unwrap();
    assert_eq!(model.trees.len(), 3);
    // 3 trees × 50 % of 600 fact rows = 900 sampled rows; the old
    // snapshot-gather path shipped the full 600 per tree *plus* the
    // sample materialization. Split-statistics shuffles still happen, so
    // just assert the sampling itself stayed proportional.
    let shipped = sharded.stats().rows_shipped - before;
    assert!(
        shipped < 3 * 600 + 2000,
        "sampling should not gather whole partitions ({shipped} rows shipped)"
    );
}
