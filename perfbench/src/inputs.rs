//! Seeded workload inputs. Every table the program receives is generated
//! here from the workload seed: the same seed gives the same tables.

use joinboost_datagen::{favorita, FavoritaConfig};
use joinboost_engine::table::ColumnMeta;
use joinboost_engine::{Column, Table};
use joinboost_graph::JoinGraph;

/// A star schema ready to load: tables, join graph, target binding and
/// the fact table's unique predict key (also the shard key).
pub struct Star {
    pub tables: Vec<(String, Table)>,
    pub graph: JoinGraph,
    pub fact: String,
    pub target: String,
    pub key: String,
}

impl Star {
    pub fn fact_rows(&self) -> usize {
        self.table(&self.fact).num_rows()
    }

    pub fn table(&self, name: &str) -> &Table {
        &self
            .tables
            .iter()
            .find(|(n, _)| n == name)
            .expect("table of this star")
            .1
    }

    /// Bytes of user data loaded: every value is an 8-byte int or float.
    pub fn user_bytes(&self) -> u64 {
        self.tables
            .iter()
            .map(|(_, t)| (t.num_rows() * t.num_columns() * 8) as u64)
            .sum()
    }
}

/// SplitMix64: a tiny seeded generator for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Favorita-like star (5 dimensions, `1 + extra` features each) with a
/// unique `sale_id` on the fact table. `dyadic` snaps the target to the
/// 1/8 grid, so that partial sums merge exactly in any order — the recipe
/// under which sharded and paged training are bit-identical to in-memory.
pub fn favorita_star(
    seed: u64,
    fact_rows: usize,
    dim_rows: usize,
    extra: usize,
    dyadic: bool,
) -> Star {
    let gen = favorita(&FavoritaConfig {
        fact_rows,
        dim_rows,
        extra_features_per_dim: extra,
        noise: 1.0,
        seed,
    });
    let tables = gen
        .tables
        .into_iter()
        .map(|(name, mut t)| {
            if name == gen.target_relation {
                if dyadic {
                    let y = t.resolve(None, &gen.target_column).expect("target column");
                    let snapped = (0..t.num_rows())
                        .map(|i| {
                            (t.columns[y].f64_at(i).expect("float target") * 8.0).floor() / 8.0
                        })
                        .collect();
                    t.columns[y] = Column::float(snapped);
                }
                t.push_column(
                    ColumnMeta::new("sale_id"),
                    Column::int((0..t.num_rows() as i64).collect()),
                );
            }
            (name, t)
        })
        .collect();
    Star {
        tables,
        graph: gen.graph,
        fact: gen.target_relation,
        target: gen.target_column,
        key: "sale_id".into(),
    }
}

/// High-cardinality star: `fact(k, d_id, f, y)` with `card` distinct
/// values of the split feature `f`, and `dim(d_id, f_d)`. The target is a
/// multiple of 1/8 (dyadic), linear in `f` plus a dimension effect and
/// noise, so every tree splits `f` many times over thousands of values.
pub fn highcard_star(seed: u64, rows: usize, card: u64, dim_rows: u64) -> Star {
    let mut rng = Rng::new(seed);
    let (mut d_id, mut f, mut y) = (
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
    );
    for _ in 0..rows {
        let d = rng.below(dim_rows) as i64;
        let v = rng.below(card) as i64;
        let noise = rng.below(97) as f64;
        d_id.push(d);
        f.push(v);
        y.push(v as f64 / 8.0 + (d % 10) as f64 * 4.0 + noise / 8.0);
    }
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows as i64).collect())),
        ("d_id", Column::int(d_id)),
        ("f", Column::int(f)),
        ("y", Column::float(y)),
    ]);
    let dim = Table::from_columns(vec![
        ("d_id", Column::int((0..dim_rows as i64).collect())),
        (
            "f_d",
            Column::int((0..dim_rows).map(|_| rng.below(50) as i64).collect()),
        ),
    ]);
    let mut graph = JoinGraph::new();
    graph.add_relation("fact", &["f"]).expect("fresh graph");
    graph.add_relation("dim", &["f_d"]).expect("fresh graph");
    graph
        .add_edge("fact", "dim", &["d_id"])
        .expect("relations exist");
    Star {
        tables: vec![("fact".into(), fact), ("dim".into(), dim)],
        graph,
        fact: "fact".into(),
        target: "y".into(),
        key: "k".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b, c) = (
            highcard_star(3, 500, 100, 10),
            highcard_star(3, 500, 100, 10),
            highcard_star(4, 500, 100, 10),
        );
        assert_eq!(a.table("fact"), b.table("fact"));
        assert_ne!(a.table("fact"), c.table("fact"));
        let (a, b) = (
            favorita_star(5, 300, 10, 1, true),
            favorita_star(5, 300, 10, 1, true),
        );
        assert_eq!(a.table("sales"), b.table("sales"));
        assert_eq!(a.fact_rows(), 300);
    }

    #[test]
    fn dyadic_targets_sit_on_the_grid() {
        let s = favorita_star(1, 200, 10, 0, true);
        let t = s.table("sales");
        let y = t.column(None, "net_profit").unwrap();
        assert!((0..t.num_rows()).all(|i| (y.f64_at(i).unwrap() * 8.0).fract() == 0.0));
    }
}
