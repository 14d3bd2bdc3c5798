//! The pipelined-coordinator claim: multiplexing requests over one
//! socket and scrambling the order in which shard replies land must not
//! change a *single bit* of the trained model.
//!
//! The serial coordinator — the plain in-process engine, one query at a
//! time, no wire — is the reference. Every remote configuration below
//! (1/2/4 shard servers, reply jitter scrambling completion order) must
//! reproduce its model `to_bits()`-identical.
//!
//! Why orderings cannot matter: the coordinator's merge runs over a
//! *keyed* union (fanout rows tagged by shard, merged by group key), so
//! late replies land in the same slot they would have landed in early; and the dyadic workload (DESIGN.md
//! § Backends) makes every `⊕` on those slots exact, so even the merge
//! fold order is bit-stable. The tests here are the empirical check that
//! the multiplexer's replies really are routed by tag and never by
//! arrival order.

use std::sync::OnceLock;

use proptest::prelude::*;

use joinboost::backend::{RemoteOptions, ShardedBackend, SqlBackend, WireServer};
use joinboost::{train_gbm, Dataset, GbmModel, TrainParams};
use joinboost_engine::{Column, Database, EngineConfig, Table};
use joinboost_graph::JoinGraph;

// ---------------------------------------------------------------------------
// Workload (same dyadic star schema as remote_chaos.rs)
// ---------------------------------------------------------------------------

fn star_tables(rows: usize) -> (Table, Table, JoinGraph) {
    let dim_rows = 8i64;
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows as i64).collect())),
        (
            "d_id",
            Column::int((0..rows as i64).map(|i| i % dim_rows).collect()),
        ),
        (
            "f",
            Column::int((0..rows as i64).map(|i| (i * 13) % 40).collect()),
        ),
        (
            "y",
            Column::float(
                (0..rows as i64)
                    .map(|i| (((i * 13) % 40) as f64) / 8.0 + ((i % dim_rows) as f64) / 2.0)
                    .collect(),
            ),
        ),
    ]);
    let dim = Table::from_columns(vec![
        ("d_id", Column::int((0..dim_rows).collect())),
        (
            "g",
            Column::int((0..dim_rows).map(|d| (d * 3) % 5).collect()),
        ),
    ]);
    let mut graph = JoinGraph::new();
    graph.add_relation("fact", &["f"]).unwrap();
    graph.add_relation("dim", &["g"]).unwrap();
    graph.add_edge("fact", "dim", &["d_id"]).unwrap();
    (fact, dim, graph)
}

fn params() -> TrainParams {
    TrainParams {
        num_iterations: 2,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    }
}

fn train_on(backend: &dyn SqlBackend) -> GbmModel {
    let (fact, dim, graph) = star_tables(400);
    backend.create_table("fact", fact).unwrap();
    backend.create_table("dim", dim).unwrap();
    let set = Dataset::new(backend, graph, "fact", "y").unwrap();
    train_gbm(&set, &params()).unwrap()
}

/// Train over the given shard servers; returns the model and the
/// backend's final stats.
fn train_remote(addrs: &[std::net::SocketAddr]) -> (GbmModel, joinboost::backend::BackendStats) {
    let backend = ShardedBackend::remote(
        addrs,
        EngineConfig::duckdb_mem(),
        "fact",
        "k",
        RemoteOptions::default(),
    )
    .unwrap();
    let model = train_on(&backend);
    let stats = backend.stats();
    (model, stats)
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
                "{who}: tree {i} leaf value diverged"
            );
            assert_eq!(
                na.weight.to_bits(),
                nb.weight.to_bits(),
                "{who}: tree {i} weight diverged"
            );
        }
    }
}

/// The serial coordinator: the plain in-process engine, no shards, no
/// wire, no pipelining. Computed once per test binary.
fn serial_reference() -> &'static GbmModel {
    static REF: OnceLock<GbmModel> = OnceLock::new();
    REF.get_or_init(|| {
        let engine = joinboost::backend::EngineBackend::in_memory();
        train_on(&engine)
    })
}

fn spawn_servers(n: usize, jitter: Option<(u64, u64)>) -> Vec<WireServer> {
    (0..n)
        .map(|i| {
            let mut b = WireServer::builder(Database::in_memory());
            if let Some((seed, max_micros)) = jitter {
                // A different stream per server so shard replies
                // interleave rather than shifting in lockstep.
                b = b.reply_jitter(seed.wrapping_add(i as u64 * 0x9e37), max_micros);
            }
            b.spawn().unwrap()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Baseline: pipelined over quiet servers, every shard count
// ---------------------------------------------------------------------------

/// Remote {1, 2, 4}-shard training through the multiplexed connection
/// reproduces the serial coordinator's bits exactly.
#[test]
fn pipelined_delta_training_matches_the_serial_coordinator() {
    let reference = serial_reference();
    for shards in [1usize, 2, 4] {
        let servers = spawn_servers(shards, None);
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        let (model, stats) = train_remote(&addrs);
        assert_bit_identical(reference, &model, &format!("remote x{shards}"));
        assert!(
            stats.fanout_selects > 0,
            "split queries must fan out (x{shards}): {stats:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Randomized completion orderings
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever per-reply delays the servers draw — and therefore in
    /// whatever order multiplexed in-flight requests complete — the
    /// pipelined run reproduces the serial coordinator's
    /// bits. `reply_jitter` delays every reply by a seeded pseudo-random
    /// duration, so each case scrambles a *different* interleaving of
    /// the same request stream.
    #[test]
    fn response_interleavings_never_change_a_bit(
        seed in any::<u64>(),
        max_micros in 50u64..800,
        shard_sel in 0usize..2,
    ) {
        let shards = [2usize, 4][shard_sel];
        let reference = serial_reference();
        let servers = spawn_servers(shards, Some((seed, max_micros)));
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        let (model, stats) = train_remote(&addrs);
        assert_bit_identical(
            reference,
            &model,
            &format!("jitter seed={seed:#x} max={max_micros}us x{shards}"),
        );
        prop_assert!(stats.fanout_selects > 0);
    }
}
