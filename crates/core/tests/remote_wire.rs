//! The remote backend's wire protocol, attacked from three sides:
//!
//! * **proptests** — arbitrary tables (every `DataType`, NULL masks,
//!   empty tables, 0-column results, NaN payloads, `-0.0`) survive
//!   encode → decode *bit-exactly*, and arbitrary emitted statement text
//!   survives the wire unchanged;
//! * **live sockets** — a real in-process [`WireServer`] answers a
//!   [`RemoteBackend`] client with the same bits a local engine produces,
//!   turns away a `Hello` of any other protocol version with a typed
//!   error, and answers a sharded split query with one request per shard;
//! * **concurrency** — two clients share one server and train at the same
//!   time without cross-talk, and their temp tables are gone afterwards
//!   (the temp-table lifecycle half of the trait contract).

use proptest::prelude::*;

use joinboost::backend::wire::{
    decode_request, decode_response, decode_table_bytes, encode_request, encode_response,
    encode_table_bytes, read_frame, write_frame, Request, Response, MAGIC, VERSION,
};
use joinboost::backend::{RemoteBackend, RemoteOptions, ShardedBackend, SqlBackend, WireServer};
use joinboost::sqlgen::{numeric_split_query, NodeTotals, RingKind};
use joinboost::{train_gbm, Dataset, GbmModel, TrainParams};
use joinboost_engine::column::ColumnData;
use joinboost_engine::table::ColumnMeta;
use joinboost_engine::{Column, Database, EngineConfig, Table};
use joinboost_sql::ast::{
    BinaryOp, Expr, OrderByItem, Query, SelectItem, Statement, TableRef, Value,
};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Raw column data of every type. Floats come from raw bit patterns, so
/// NaN payloads, infinities, subnormals and `-0.0` are all exercised;
/// string dictionaries may hold duplicates and unreferenced entries —
/// the codec must carry whatever the engine might hand it.
fn arb_column(rows: usize) -> impl Strategy<Value = Column> {
    let data = prop_oneof![
        prop::collection::vec(any::<i64>(), rows).prop_map(ColumnData::Int),
        prop::collection::vec(any::<u64>(), rows)
            .prop_map(|v| ColumnData::Float(v.into_iter().map(f64::from_bits).collect())),
        (
            prop::collection::vec("[a-z]{0,4}", 1..4),
            prop::collection::vec(any::<u32>(), rows)
        )
            .prop_map(|(dict, codes)| {
                let n = dict.len() as u32;
                ColumnData::Str {
                    dict,
                    codes: codes.into_iter().map(|c| c % n).collect(),
                }
            }),
    ];
    (
        data,
        prop::option::of(prop::collection::vec(any::<bool>(), rows)),
    )
        .prop_map(|(data, validity)| Column { data, validity })
}

/// Arbitrary tables: 0–3 columns (0-column results included), 0–20 rows,
/// occasionally qualified column names.
fn arb_table() -> impl Strategy<Value = Table> {
    (0usize..21).prop_flat_map(|rows| {
        (prop::collection::vec(
            (
                "[a-z][a-z0-9_]{0,5}",
                prop::option::of("[a-z]{1,4}"),
                arb_column(rows),
            ),
            0..4,
        ),)
            .prop_map(|(cols,)| {
                let mut t = Table::new();
                for (name, qualifier, col) in cols {
                    let meta = match qualifier {
                        None => ColumnMeta::new(name),
                        Some(q) => ColumnMeta::qualified(q, name),
                    };
                    t.push_column(meta, col);
                }
                t
            })
    })
}

/// Identifier strategy avoiding SQL reserved words.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,5}".prop_filter("not a keyword", |s| {
        joinboost_sql::parse_expr(s)
            .map(|e| matches!(e, Expr::Column { .. }))
            .unwrap_or(false)
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..1000).prop_map(|v| Expr::Literal(Value::Int(v))),
        (0.0f64..100.0).prop_map(|v| Expr::Literal(Value::Float((v * 64.0).round() / 64.0))),
        ident().prop_map(Expr::col),
        (ident(), ident()).prop_map(|(t, c)| Expr::qcol(t, c)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinaryOp::Add),
                    Just(BinaryOp::Sub),
                    Just(BinaryOp::Mul),
                    Just(BinaryOp::Div),
                    Just(BinaryOp::Lt),
                    Just(BinaryOp::And),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
            inner.clone().prop_map(Expr::neg),
            inner.clone().prop_map(|e| Expr::func("SUM", vec![e])),
            inner.prop_map(|e| Expr::func("ABS", vec![e])),
        ]
    })
}

/// The statement shapes the trainer emits: SELECTs (aggregates, windows,
/// ordering), CREATE TABLE AS, UPDATE and DROP.
fn arb_statement() -> impl Strategy<Value = Statement> {
    let query = (
        prop::collection::vec((arb_expr(), prop::option::of(ident())), 1..4),
        prop::option::of(ident()),
        prop::option::of(arb_expr()),
        prop::option::of((arb_expr(), any::<bool>())),
        prop::option::of(0u64..100),
    )
        .prop_map(|(items, from, where_clause, order, limit)| Query {
            items: items
                .into_iter()
                .map(|(expr, alias)| SelectItem { expr, alias })
                .collect(),
            from: from.map(TableRef::named),
            joins: Vec::new(),
            where_clause,
            group_by: Vec::new(),
            order_by: order
                .map(|(expr, desc)| vec![OrderByItem { expr, desc }])
                .unwrap_or_default(),
            limit,
        })
        .boxed();
    prop_oneof![
        query.clone().prop_map(Statement::Select),
        (ident(), query.clone(), any::<bool>()).prop_map(|(name, query, or_replace)| {
            Statement::CreateTableAs {
                name,
                query,
                or_replace,
            }
        }),
        (ident(), ident(), arb_expr(), prop::option::of(arb_expr())).prop_map(
            |(table, col, val, where_clause)| Statement::Update {
                table,
                assignments: vec![(col, val)],
                where_clause,
            }
        ),
        (ident(), any::<bool>())
            .prop_map(|(name, if_exists)| Statement::DropTable { name, if_exists }),
    ]
}

// ---------------------------------------------------------------------------
// Proptests: the codec itself
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tables survive the columnar codec bit-exactly: re-encoding the
    /// decoded table reproduces the original bytes (value comparison
    /// would be blind to NaN payloads and `-0.0`).
    #[test]
    fn wire_roundtrip_tables(t in arb_table()) {
        let bytes = encode_table_bytes(&t);
        let back = decode_table_bytes(&bytes).expect("decode");
        prop_assert_eq!(encode_table_bytes(&back), bytes);
        prop_assert_eq!(back.num_columns(), t.num_columns());
        prop_assert_eq!(back.num_rows(), t.num_rows());
        prop_assert_eq!(&back.meta, &t.meta);
    }

    /// The same table inside a CreateTable request frame.
    #[test]
    fn wire_roundtrip_create_table_requests(t in arb_table(), name in ident()) {
        let req = Request::CreateTable { name, table: t };
        let enc = encode_request(&req);
        let back = decode_request(&enc).expect("decode");
        prop_assert_eq!(encode_request(&back), enc);
    }

    /// Arbitrary emitted statement text survives the wire unchanged —
    /// byte for byte, so the server re-parses exactly what the client's
    /// planner printed.
    #[test]
    fn wire_roundtrip_statement_text(stmt in arb_statement()) {
        let sql = stmt.to_string();
        let req = Request::Execute { sql: sql.clone() };
        match decode_request(&encode_request(&req)).expect("decode") {
            Request::Execute { sql: back } => prop_assert_eq!(back, sql),
            other => prop_assert!(false, "wrong request decoded: {:?}", other),
        }
    }

    /// Result tables inside response frames (the server → client leg).
    #[test]
    fn wire_roundtrip_table_responses(t in arb_table()) {
        let resp = Response::Table(t);
        let enc = encode_response(&resp);
        let back = decode_response(&enc).expect("decode");
        prop_assert_eq!(encode_response(&back), enc);
    }
}

// ---------------------------------------------------------------------------
// Live-socket round trips
// ---------------------------------------------------------------------------

/// Every datatype, NULLs included, through a real server: the remote
/// snapshot must carry the same bits a local engine reports.
#[test]
fn remote_snapshot_is_bit_identical_to_local() {
    let table = Table::from_columns(vec![
        ("i", Column::int(vec![1, -7, i64::MAX, 0])),
        (
            "f",
            Column {
                data: ColumnData::Float(vec![0.5, -0.0, f64::NAN, 1.0 / 3.0]),
                validity: Some(vec![true, true, false, true]),
            },
        ),
        (
            "s",
            Column::str(vec!["a".into(), "".into(), "a".into(), "long-ish".into()]),
        ),
    ]);
    let local = Database::in_memory();
    local.create_table("t", table.clone()).unwrap();

    let server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let remote = RemoteBackend::builder(server.addr()).connect().unwrap();
    remote.create_table("t", table).unwrap();

    let a = local.snapshot("t").unwrap();
    let b = remote.snapshot("t").unwrap();
    assert_eq!(encode_table_bytes(&a), encode_table_bytes(&b));

    // Schema lookups and aggregates agree with the local engine.
    assert_eq!(
        remote.column_names("t").unwrap(),
        local.column_names("t").unwrap()
    );
    assert_eq!(remote.row_count("t").unwrap(), 4);
    let q = "SELECT SUM(i) AS si, COUNT(*) AS c FROM t";
    assert_eq!(remote.query(q).unwrap(), local.query(q).unwrap());

    // gather_rows ships only the requested rows, in order.
    let got = remote.gather_rows("t", &[2, 0]).unwrap();
    assert_eq!(got.num_rows(), 2);
    assert_eq!(got.columns[0].get(0), a.columns[0].get(2));
    assert_eq!(got.columns[0].get(1), a.columns[0].get(0));
    assert!(remote.gather_rows("t", &[4]).is_err(), "out of range");

    // SQL whose 6th *byte* sits inside a multi-byte char must not panic
    // the client's statement counter — it reaches the server and fails
    // to parse like any other bad text.
    assert!(remote.execute("SELEC\u{e9} nope").is_err());

    // Engine errors come back as the same variant, not a stringly blob.
    let err = remote.query("SELECT x FROM ghost").unwrap_err();
    assert!(
        matches!(err, joinboost_engine::EngineError::UnknownTable(ref t) if t == "ghost"),
        "{err:?}"
    );

    // The wire volume is measured, both directions.
    let stats = remote.stats();
    assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    assert!(stats.statements >= 2);
}

/// A random sample of arbitrary tables through the live socket: what the
/// client loads is what the server's engine then snapshots back, bit for
/// bit (modulo the engine's own storage — so compare against a local
/// engine fed the identical table).
#[test]
fn remote_load_snapshot_matches_local_engine_on_random_tables() {
    use proptest::strategy::Strategy as _;
    use proptest::test_runner::seed_for;
    let server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let remote = RemoteBackend::builder(server.addr()).connect().unwrap();
    let strat = arb_table();
    let mut rng = proptest::rng::TestRng::new(seed_for(
        "remote_load_snapshot_matches_local_engine_on_random_tables",
    ));
    for i in 0..32 {
        let t = strat.generate(&mut rng);
        let name = format!("t{i}");
        let local = Database::in_memory();
        local.create_table(&name, t.clone()).unwrap();
        remote.create_table(&name, t).unwrap();
        let a = local.snapshot(&name).unwrap();
        let b = remote.snapshot(&name).unwrap();
        assert_eq!(encode_table_bytes(&a), encode_table_bytes(&b), "table {i}");
    }
}

/// A `Hello` of any version but [`VERSION`] — an older client (v3) or a
/// newer one — gets the typed "protocol version mismatch" error on a live
/// socket, and the server keeps serving: the same socket then accepts a
/// current `Hello`, and a current client loads and trains normally.
#[test]
fn foreign_protocol_versions_get_a_typed_mismatch_error() {
    let server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    for version in [3, VERSION + 1] {
        let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
        let hello = Request::Hello {
            magic: MAGIC,
            version,
            token: 7,
        };
        write_frame(&mut sock, &encode_request(&hello)).unwrap();
        match decode_response(&read_frame(&mut sock).unwrap()).unwrap() {
            Response::Err(e) => assert!(
                e.to_string().contains("protocol version mismatch"),
                "version {version}: {e}"
            ),
            other => panic!("version {version} was accepted: {other:?}"),
        }
        // The socket stays open for a Hello of the right version.
        let hello = Request::Hello {
            magic: MAGIC,
            version: VERSION,
            token: 7,
        };
        write_frame(&mut sock, &encode_request(&hello)).unwrap();
        let reply = decode_response(&read_frame(&mut sock).unwrap()).unwrap();
        assert!(matches!(reply, Response::Caps { .. }), "{reply:?}");
    }
    let client = RemoteBackend::builder(server.addr()).connect().unwrap();
    let model = train_star(&client, "v", 200, 1);
    assert_eq!(
        model.trees,
        train_star(&Database::in_memory(), "v", 200, 1).trees
    );
}

/// A numeric split query over a high-cardinality feature (1000 distinct
/// values) on two remote shards costs each shard server exactly one
/// request — the absorbed aggregate, `⊕`-merged on the coordinator — and
/// answers bit for bit what a single engine answers.
#[test]
fn sharded_split_query_is_one_request_per_shard() {
    let rows = 4000i64;
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows).collect())),
        (
            "f",
            Column::int((0..rows).map(|i| (i * 7919) % 1000).collect()),
        ),
        (
            // Dyadic targets: every merge order sums exactly.
            "y",
            Column::float(
                (0..rows)
                    .map(|i| ((i * 7919) % 1000) as f64 / 8.0)
                    .collect(),
            ),
        ),
    ]);
    let single = Database::in_memory();
    single.create_table("fact", fact.clone()).unwrap();
    let totals = single
        .query("SELECT COUNT(*) AS c, SUM(y) AS s FROM fact")
        .unwrap();
    let absorbed = joinboost_sql::parse_query(
        "SELECT f AS val, COUNT(*) AS c, SUM(y) AS s FROM fact GROUP BY f",
    )
    .unwrap();
    let q = numeric_split_query(
        absorbed,
        RingKind::Variance,
        NodeTotals {
            c0: totals.scalar_f64("c").unwrap(),
            c1: totals.scalar_f64("s").unwrap(),
        },
        0.0,
        1.0,
    );

    let servers: Vec<WireServer> = (0..2)
        .map(|_| WireServer::builder(Database::in_memory()).spawn().unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let sharded = ShardedBackend::remote(
        &addrs,
        EngineConfig::duckdb_mem(),
        "fact",
        "k",
        RemoteOptions::default(),
    )
    .unwrap();
    sharded.create_table("fact", fact).unwrap();

    let before: Vec<u64> = servers.iter().map(WireServer::requests).collect();
    let got = sharded.execute_ast(&Statement::Select(q.clone())).unwrap();
    for (i, (server, b)) in servers.iter().zip(&before).enumerate() {
        assert_eq!(
            server.requests() - b,
            1,
            "shard {i} requests per split query"
        );
    }
    let want = single.execute_statement(&Statement::Select(q)).unwrap();
    assert_eq!(got.num_rows(), 1);
    assert_eq!(encode_table_bytes(&got), encode_table_bytes(&want));
}

// ---------------------------------------------------------------------------
// Concurrency: one server, two clients
// ---------------------------------------------------------------------------

fn star_tables(tag: &str, rows: usize, seed: i64) -> (Table, Table, joinboost_graph::JoinGraph) {
    let dim_rows = 8i64;
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows as i64).collect())),
        (
            "d_id",
            Column::int((0..rows as i64).map(|i| (i + seed) % dim_rows).collect()),
        ),
        (
            "y",
            Column::float(
                (0..rows as i64)
                    .map(|i| (((i * (7 + seed)) % 32) as f64) / 8.0)
                    .collect(),
            ),
        ),
    ]);
    let dim = Table::from_columns(vec![
        ("d_id", Column::int((0..dim_rows).collect())),
        (
            "g",
            Column::int((0..dim_rows).map(|d| (d * (3 + seed)) % 5).collect()),
        ),
    ]);
    let mut graph = joinboost_graph::JoinGraph::new();
    graph.add_relation(&format!("fact_{tag}"), &[]).unwrap();
    graph.add_relation(&format!("dim_{tag}"), &["g"]).unwrap();
    graph
        .add_edge(&format!("fact_{tag}"), &format!("dim_{tag}"), &["d_id"])
        .unwrap();
    (fact, dim, graph)
}

fn train_star(backend: &dyn SqlBackend, tag: &str, rows: usize, seed: i64) -> GbmModel {
    let (fact, dim, graph) = star_tables(tag, rows, seed);
    backend.create_table(&format!("fact_{tag}"), fact).unwrap();
    backend.create_table(&format!("dim_{tag}"), dim).unwrap();
    let set = Dataset::new(backend, graph, &format!("fact_{tag}"), "y").unwrap();
    let params = TrainParams {
        num_iterations: 2,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    train_gbm(&set, &params).unwrap()
}

/// Two clients, one server, disjoint base tables and `jb_<id>_` temp
/// namespaces: concurrent training runs must not observe each other, and
/// both must leave the server clean of temp tables when their datasets
/// drop.
#[test]
fn two_clients_train_concurrently_without_crosstalk() {
    let server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let addr = server.addr();

    // References: the same two workloads on local engines.
    let ref_a = train_star(&Database::in_memory(), "a", 400, 1);
    let ref_b = train_star(&Database::in_memory(), "b", 400, 2);
    assert_ne!(
        ref_a.trees, ref_b.trees,
        "the two workloads must be distinguishable for cross-talk to be observable"
    );

    let (model_a, model_b) = std::thread::scope(|scope| {
        let ha = scope.spawn(move || {
            let backend = RemoteBackend::builder(addr).connect().unwrap();
            train_star(&backend, "a", 400, 1)
        });
        let hb = scope.spawn(move || {
            let backend = RemoteBackend::builder(addr).connect().unwrap();
            train_star(&backend, "b", 400, 2)
        });
        (ha.join().unwrap(), hb.join().unwrap())
    });

    assert_eq!(
        model_a.trees, ref_a.trees,
        "client A diverged under concurrency"
    );
    assert_eq!(
        model_b.trees, ref_b.trees,
        "client B diverged under concurrency"
    );
    assert_eq!(model_a.init_score.to_bits(), ref_a.init_score.to_bits());
    assert_eq!(model_b.init_score.to_bits(), ref_b.init_score.to_bits());

    // Temp-table lifecycle: both datasets dropped → no jb_ tables remain
    // on the shared server; the base tables are untouched.
    let names = server.database().table_names();
    assert!(
        !names.iter().any(|n| n.starts_with("jb_")),
        "temp tables leaked: {names:?}"
    );
    for t in ["fact_a", "dim_a", "fact_b", "dim_b"] {
        assert!(names.iter().any(|n| n == t), "{t} missing from {names:?}");
    }
}
