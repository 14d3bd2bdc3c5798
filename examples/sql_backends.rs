//! Portability tour: the same training run against every [`SqlBackend`]
//! implementation (paper Section 5, Figure 15) — not engine presets, the
//! real pluggable backends:
//!
//! * engine backends (AST fast path) in three DBMS personalities,
//! * the SQL-text backend, which proves every emitted statement survives
//!   a `print ∘ parse ∘ print` round-trip,
//! * a remote backend speaking SQL text + columnar blocks over a real
//!   loopback socket to a wire server,
//! * sharded backends that hash-partition the fact table over 2 and 4
//!   engine instances and ⊕-merge partial semi-ring aggregates — both
//!   in-process and with every shard behind its own socket
//!   (multi-process sharding).
//!
//! Portability means *identical models*: the run asserts every backend
//! trains a bit-identical GBM. The workload follows the dyadic recipe of
//! `DESIGN.md` § Backends (quantized target + `leaf_quantization`), which
//! makes floating-point ⊕ exactly associative so shard merge order cannot
//! matter.
//!
//! ```text
//! cargo run --release --example sql_backends
//! ```

use joinboost::backend::{
    EngineBackend, RemoteBackend, RemoteOptions, ShardedBackend, SqlBackend, SqlTextBackend,
    WireServer,
};
use joinboost::{train_gbm, Dataset, GbmModel, TrainParams};
use joinboost_datagen::{favorita, FavoritaConfig};
use joinboost_engine::{Database, EngineConfig};
use joinboost_sql::parse_statement;

fn train_on(backend: &dyn SqlBackend) -> GbmModel {
    // 600 dimension rows give each feature ~430 distinct values: every
    // split query ships that many per-value partial aggregates per shard
    // to the coordinator, which `⊕`-merges them exactly.
    let gen = favorita(&FavoritaConfig {
        fact_rows: 10_000,
        dim_rows: 600,
        noise: 100.0,
        ..Default::default()
    });
    for (name, t) in &gen.tables {
        backend.create_table(name, t.clone()).unwrap();
    }
    // Dyadic recipe: targets on the 1/8 grid, leaves on the 2⁻¹⁰ grid,
    // learning rate 0.5 — every sum the trainer performs is then exact.
    backend
        .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
        .unwrap();
    let set = Dataset::new(backend, gen.graph.clone(), "sales", "net_profit").unwrap();
    let params = TrainParams {
        num_iterations: 3,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    train_gbm(&set, &params).unwrap()
}

fn main() {
    // The SQL subset JoinBoost emits is vendor-neutral; here is the exact
    // best-split query of the paper's Example 2, parsed and printed back.
    let example2 = "SELECT A, -(stotal/ctotal)*stotal + (s/c)*s \
                    + (stotal - s)/(ctotal - c)*(stotal - s) AS criteria \
                    FROM (SELECT A, SUM(c) OVER (ORDER BY A) AS c, SUM(s) OVER (ORDER BY A) AS s \
                          FROM (SELECT A, SUM(Y) AS s, COUNT(*) AS c FROM R GROUP BY A) AS g) AS w \
                    ORDER BY criteria DESC LIMIT 1";
    let stmt = parse_statement(example2).unwrap();
    println!("paper Example 2 round-trips through the parser:\n  {stmt}\n");

    let mut backends: Vec<(Box<dyn SqlBackend>, &str)> = vec![
        (
            Box::new(EngineBackend::labeled(EngineConfig::duckdb_mem(), "D-mem")),
            "in-memory engine, AST fast path",
        ),
        (
            Box::new(EngineBackend::labeled(
                EngineConfig::duckdb_disk(),
                "D-disk",
            )),
            "disk-backed engine (WAL on writes)",
        ),
        (
            Box::new(EngineBackend::labeled(EngineConfig::dbms_x_row(), "X-row")),
            "row-store engine, tuple-at-a-time",
        ),
        (
            Box::new(SqlTextBackend::in_memory()),
            "every statement via print∘parse∘print",
        ),
        (
            Box::new(ShardedBackend::new(
                2,
                EngineConfig::duckdb_mem(),
                "sales",
                "items_id",
            )),
            "fact hash-partitioned over 2 engines",
        ),
    ];

    // Socket-backed backends: one engine behind a wire server, and the
    // fact partitioned over two servers (multi-process sharding). The
    // servers here run on background threads; the `shard_server` binary
    // hosts the identical loop as a standalone process.
    let single_server = WireServer::builder(Database::in_memory())
        .spawn()
        .expect("wire server");
    let shard_servers: Vec<WireServer> = (0..2)
        .map(|_| {
            WireServer::builder(Database::in_memory())
                .spawn()
                .expect("server")
        })
        .collect();
    let shard_addrs: Vec<std::net::SocketAddr> = shard_servers.iter().map(|s| s.addr()).collect();
    backends.push((
        Box::new(
            RemoteBackend::builder(single_server.addr())
                .connect()
                .expect("connect"),
        ),
        "engine in another process: SQL text + columnar blocks over a socket",
    ));
    backends.push((
        Box::new(
            ShardedBackend::remote(
                &shard_addrs,
                EngineConfig::duckdb_mem(),
                "sales",
                "items_id",
                RemoteOptions::default(),
            )
            .expect("connect shards"),
        ),
        "multi-process sharding: fact over 2 socket servers",
    ));

    let header = ["backend", "caps", "train(s)", "update(s)", "notes"];
    println!(
        "{:<14}{:<10}{:>10}{:>11}  {}",
        header[0], header[1], header[2], header[3], header[4]
    );
    println!("{}", "-".repeat(78));
    let mut reference: Option<GbmModel> = None;
    for (backend, notes) in &backends {
        let model = train_on(backend.as_ref());
        let caps = backend.capabilities();
        let caps_str = format!(
            "{}{}{}x{}",
            if caps.ast_statements { "a" } else { "-" },
            if caps.window_functions { "w" } else { "-" },
            if caps.external_interop { "i" } else { "-" },
            caps.shards
        );
        println!(
            "{:<14}{:<10}{:>10.3}{:>11.3}  {notes}",
            backend.name(),
            caps_str,
            model.train_time.as_secs_f64(),
            model.update_time.as_secs_f64(),
        );
        // Portability = identical models, down to the last bit.
        match &reference {
            None => reference = Some(model),
            Some(r) => {
                assert_eq!(r.trees, model.trees, "{} diverged", backend.name());
                assert_eq!(r.init_score.to_bits(), model.init_score.to_bits());
            }
        }
    }
    // The 4-shard backend, held concretely so its counters are readable.
    // Every split query fans its per-value aggregate out to the shards
    // and merges on the coordinator — and the model still comes out
    // bit-identical.
    let sharded = ShardedBackend::new(4, EngineConfig::duckdb_mem(), "sales", "items_id");
    let model = train_on(&sharded);
    let reference = reference.expect("lineup trained");
    assert_eq!(reference.trees, model.trees, "sharded x4 diverged");
    assert_eq!(reference.init_score.to_bits(), model.init_score.to_bits());
    let stats = sharded.stats();
    println!(
        "{:<14}{:<10}{:>10.3}{:>11.3}  fact hash-partitioned over 4 engines",
        sharded.name(),
        format!("aw-x{}", sharded.num_shards()),
        model.train_time.as_secs_f64(),
        model.update_time.as_secs_f64(),
    );
    println!(
        "\nall {} backends produced bit-identical models.",
        backends.len() + 1
    );
    println!(
        "\nsharded x4 work: {} fanned-out aggregates, {} broadcast statements, \
         {} rows shipped to the coordinator",
        stats.fanout_selects, stats.broadcast_statements, stats.rows_shipped
    );
    println!("fact partition sizes: {:?}", sharded.partition_sizes());

    // The socket-backed backends measured their shuffle in real bytes.
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    for (backend, _) in &backends {
        let s = backend.stats();
        if s.bytes_sent > 0 {
            println!(
                "{:<14} wire traffic: {:.2} MB sent, {:.2} MB received",
                backend.name(),
                mb(s.bytes_sent),
                mb(s.bytes_received)
            );
        }
    }
}
