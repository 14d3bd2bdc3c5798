//! One experiment per table/figure of the paper's evaluation.
//!
//! Datasets are scaled-down synthetics (DESIGN.md documents the
//! substitutions); absolute times differ from the paper's testbed, but
//! each experiment is expected to reproduce the *shape* of its figure —
//! who wins, roughly by what factor, and where crossovers fall.

#![allow(clippy::field_reassign_with_default)]

use std::time::{Duration, Instant};

use joinboost::backend::{EngineBackend, ShardedBackend, SqlBackend, SqlTextBackend};
use joinboost::predict::{materialize_features, targets};
use joinboost::{
    train_decision_tree, train_gbm, train_gbm_cb, train_gbm_resume, train_random_forest, Dataset,
    TrainParams, UpdateMethod,
};
use joinboost_baselines::lightgbm::{self, LgbmParams};
use joinboost_baselines::{batch, madlib, naive};
use joinboost_datagen::{
    favorita, fig5_fact_table, imdb_galaxy, tpcds, tpch, FavoritaConfig, Fig5Config, ImdbConfig,
    TpcConfig,
};
use joinboost_engine::{Column, Database, EngineConfig};
use joinboost_semiring::loss::rmse;

use crate::report::{write_bench_json, JsonValue, Report};
use crate::{dist, secs, time};

/// Run one experiment by name; `all` runs everything.
pub fn run(name: &str) -> Result<(), String> {
    match name {
        "fig5" => fig5(),
        "fig8a" => fig8a(),
        "fig8b" => fig8bc(),
        "fig8c" => fig8bc(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "fig15" => fig15(),
        "fig16a" => fig16a(),
        "fig16b" => fig16b(),
        "fig17" => fig17(),
        "fig18" => fig18(),
        "fig20" => fig20(),
        "losses" => losses(),
        "agg" => agg(),
        "backends" => backends_experiment(),
        "shards" => shard_scale(),
        "remote" => remote_scale(false),
        "remote-flaky" => remote_scale(true),
        "serve" => serve_bench(),
        "paged" => paged_bench(),
        "recovery" => recovery_bench(),
        "all" => {
            for n in [
                "fig5", "fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                "fig15", "fig16a", "fig16b", "fig17", "fig18", "fig20", "losses", "agg",
                "backends",
            ] {
                run(n)?;
            }
            Ok(())
        }
        other => Err(format!(
            "unknown experiment {other}; see `experiments help` for the list"
        )),
    }
}

pub const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig5",
        "residual update time per method x backend (pilot study)",
    ),
    (
        "fig8a",
        "random forest training time vs LightGBM-like baseline",
    ),
    ("fig8b", "gradient boosting training time + rmse curves"),
    ("fig9", "1st-iteration query counts and latency histogram"),
    (
        "fig10",
        "gradient boosting vs number of features (baseline OOM)",
    ),
    (
        "fig11",
        "gradient boosting vs TPC-DS scale factor (baseline OOM)",
    ),
    ("fig12", "multi-machine scaling, TPC-DS SF sweep"),
    ("fig13", "cloud-warehouse style decision tree, 1-6 machines"),
    ("fig14", "galaxy-schema gradient boosting on IMDB-like data"),
    ("fig15", "train/update time per DBMS backend"),
    (
        "fig16a",
        "decision tree: Naive vs Batch(LMFAO-like) vs JoinBoost",
    ),
    ("fig16b", "decision tree vs MADLib-like row engine"),
    (
        "fig17",
        "TPC-DS / TPC-H gradient boosting and random forest",
    ),
    ("fig18", "intra/inter-query parallelism sweeps"),
    ("fig20", "histogram bins and the cuboid optimization"),
    (
        "losses",
        "objective sweep (Table 3 gradients/hessians in action)",
    ),
    (
        "agg",
        "engine hot path: serial vs parallel fused grouped aggregation",
    ),
    (
        "backends",
        "one GBM run through every SqlBackend impl (engine/text/sharded), models asserted bit-identical",
    ),
    (
        "shards",
        "sharded scaling: shuffle volume + wall-clock, 1-4 fact partitions",
    ),
    (
        "remote",
        "multi-process sharding over sockets: wire bytes + rows shipped, 1-4 servers",
    ),
    (
        "remote-flaky",
        "the remote sweep under fault injection: every 9th request drops its connection, the retrying clients recover, models still bit-identical",
    ),
    (
        "serve",
        "serving tier end-to-end against spawned shard_server processes: job API demo + latency sweep, clients x batch size (needs the shard_server binary built alongside)",
    ),
    (
        "paged",
        "out-of-core engine: GBM wall-clock + buffer-pool hit rate across pool sizes (8..1024 pages), models asserted bit-identical to the in-memory engine",
    ),
    (
        "recovery",
        "crash recovery: reopen time + WAL size vs workload length with and without checkpoints, and restart-resume vs cold-retrain wall-clock (models asserted bit-identical)",
    ),
];

// ---------------------------------------------------------------------------

fn favorita_scaled(
    fact_rows: usize,
    dim_rows: usize,
    extra: usize,
) -> joinboost_datagen::favorita::Generated {
    favorita(&FavoritaConfig {
        fact_rows,
        dim_rows,
        extra_features_per_dim: extra,
        noise: 100.0,
        seed: 42,
    })
}

fn load(gen: &joinboost_datagen::favorita::Generated, config: EngineConfig) -> Database {
    let db = Database::new(config);
    gen.load_into(&db).expect("load");
    db
}

/// Figure 5: residual update time per method on each DBMS backend.
fn fig5() -> Result<(), String> {
    let leaves = 8usize;
    let base_cfg = Fig5Config {
        rows: 150_000,
        ..Default::default()
    };
    let preds = joinboost_datagen::fig5::fig5_leaf_predictions(&base_cfg);
    let backends: Vec<(&str, EngineConfig, bool)> = vec![
        ("X-col", EngineConfig::dbms_x_col(), false),
        ("X-row", EngineConfig::dbms_x_row(), false),
        ("D-dis", EngineConfig::duckdb_disk(), false),
        ("D-mem", EngineConfig::duckdb_mem(), false),
        ("DP", EngineConfig::duckdb_mem(), true),
        ("D-Swap", EngineConfig::d_swap(), false),
    ];
    let methods = [
        "Naive",
        "UPDATE",
        "CREATE-0",
        "CREATE-5",
        "CREATE-10",
        "ColSwap",
    ];
    let mut report = Report::new(
        "Figure 5: residual update time (s) by method and backend",
        &[
            "backend",
            "Naive",
            "UPDATE",
            "CREATE-0",
            "CREATE-5",
            "CREATE-10",
            "ColSwap",
        ],
    );
    for (bname, config, external) in &backends {
        let mut cells = vec![bname.to_string()];
        for method in methods {
            let k = match method {
                "CREATE-5" => 5,
                "CREATE-10" => 10,
                _ => 0,
            };
            let cfg = Fig5Config {
                extra_columns: k,
                ..base_cfg.clone()
            };
            let mut fact = fig5_fact_table(&cfg);
            if method == "Naive" {
                fact.push_column(
                    joinboost_engine::table::ColumnMeta::new("jb_rid"),
                    Column::int((0..fact.num_rows() as i64).collect()),
                );
            }
            let db = Database::new(config.clone());
            if *external {
                db.register_external("f", &fact);
            } else {
                db.create_table("f", fact).expect("load fact");
            }
            for (i, m) in joinboost_datagen::fig5::fig5_messages(&cfg)
                .into_iter()
                .enumerate()
            {
                db.create_table(&format!("m{i}"), m).expect("load message");
            }
            let case_expr = {
                let mut whens = String::new();
                for (i, p) in preds.iter().enumerate().take(leaves) {
                    whens.push_str(&format!(" WHEN d IN (SELECT d FROM m{i}) THEN s - {p:.6}"));
                }
                format!("CASE{whens} ELSE s END")
            };
            let other_cols: String = (1..=k).map(|i| format!(", c{i}")).collect();
            let result: Option<Duration> = match method {
                "Naive" => {
                    let (r, d) = time(|| {
                        db.execute(&format!(
                            "CREATE TABLE u AS SELECT jb_rid, {case_expr} AS jb_delta FROM f"
                        ))?;
                        db.execute(&format!(
                            "CREATE OR REPLACE TABLE f AS SELECT jb_delta AS s, d{other_cols}, jb_rid FROM f JOIN u USING (jb_rid)"
                        ))?;
                        db.execute("DROP TABLE u")
                    });
                    r.ok().map(|_| d)
                }
                "UPDATE" => {
                    let (r, d) = time(|| {
                        for (i, p) in preds.iter().enumerate().take(leaves) {
                            db.execute(&format!(
                                "UPDATE f SET s = s - {p:.6} WHERE d IN (SELECT d FROM m{i})"
                            ))?;
                        }
                        Ok::<(), joinboost_engine::EngineError>(())
                    });
                    r.ok().map(|_| d)
                }
                "CREATE-0" | "CREATE-5" | "CREATE-10" => {
                    let (r, d) = time(|| {
                        db.execute(&format!(
                            "CREATE OR REPLACE TABLE f AS SELECT {case_expr} AS s, d{other_cols} FROM f"
                        ))
                    });
                    r.ok().map(|_| d)
                }
                "ColSwap" => {
                    if *external {
                        let (r, d) = time(|| {
                            let t = db.execute(&format!("SELECT {case_expr} AS s FROM f"))?;
                            db.external("f")?.replace_column("s", t.columns[0].clone())
                        });
                        r.ok().map(|_| d)
                    } else if config.allow_swap {
                        let (r, d) = time(|| {
                            db.execute(&format!(
                                "CREATE TABLE delta AS SELECT {case_expr} AS s FROM f"
                            ))?;
                            db.execute("SWAP COLUMN f.s WITH delta.s")?;
                            db.execute("DROP TABLE delta")
                        });
                        r.ok().map(|_| d)
                    } else {
                        None
                    }
                }
                _ => unreachable!(),
            };
            cells.push(result.map_or("n/a".to_string(), secs));
        }
        report.row(&cells);
    }
    // LightGBM reference: a threaded write over a plain array.
    let cfg = base_cfg.clone();
    let fact = fig5_fact_table(&cfg);
    let mut s = fact
        .column(None, "s")
        .expect("s")
        .to_f64_vec()
        .expect("f64");
    let d = fact
        .column(None, "d")
        .expect("d")
        .to_f64_vec()
        .expect("f64");
    let range = (cfg.key_domain / leaves as i64) as f64;
    let (_, lgbm_t) = time(|| {
        let chunk = s.len().div_ceil(4);
        crossbeam::thread::scope(|scope| {
            for (ci, sl) in s.chunks_mut(chunk).enumerate() {
                let d = &d;
                let preds = &preds;
                scope.spawn(move |_| {
                    let base = ci * chunk;
                    for (i, v) in sl.iter_mut().enumerate() {
                        let leaf = (((d[base + i] - 1.0) / range) as usize).min(leaves - 1);
                        *v -= preds[leaf];
                    }
                });
            }
        })
        .expect("scope");
    });
    report.note(format!(
        "LightGBM-style parallel array update: {} s (the red line)",
        secs(lgbm_t)
    ));
    report.note("expected shape: Naive >> UPDATE/CREATE >> ColSwap ~ DP ~ LightGBM");
    report.print();
    Ok(())
}

/// Figure 8a: random forest training time vs the LightGBM-like baseline.
fn fig8a() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 0);
    let iters = [5usize, 10, 20, 40];
    let mut report = Report::new(
        "Figure 8a: random forest cumulative training time (s)",
        &["trees", "joinboost", "lightgbm-like", "lgbm+export"],
    );
    // Baseline export charged once.
    let db = load(&gen, EngineConfig::duckdb_mem());
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let (flat, export) = lightgbm::export_join(&set).map_err(|e| e.to_string())?;
    for &n in &iters {
        let mut params = TrainParams::paper_rf();
        params.num_iterations = n;
        params.threads = 4;
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let (_, jb_t) = time(|| train_random_forest(&set, &params).expect("rf"));
        let lp = LgbmParams {
            num_iterations: n,
            bagging_fraction: 0.1,
            feature_fraction: 0.8,
            ..Default::default()
        };
        let (_, lg_t) = time(|| lightgbm::train_rf(&flat, &lp).expect("lgbm rf"));
        report.row(&[
            n.to_string(),
            secs(jb_t),
            secs(lg_t),
            secs(lg_t + export.total()),
        ]);
    }
    report.note(format!(
        "baseline join+export+load cost: {} s (dotted line in the paper)",
        secs(export.total())
    ));
    report.note("expected shape: joinboost < lgbm+export (paper: ~3x faster at 80M rows, where join+export dominates)");
    report.note("deviation: at this scale our interpreted SQL engine cannot beat a flat-array Rust loop; the scaling/OOM figures (10-12) carry the headline instead");
    report.print();
    Ok(())
}

/// Figures 8b + 8c: gradient boosting time and rmse per iteration.
fn fig8bc() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 0);
    let db = load(&gen, EngineConfig::d_swap());
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let eval = materialize_features(&set).map_err(|e| e.to_string())?;
    let ys = targets(&eval).map_err(|e| e.to_string())?;
    let checkpoints = [1usize, 5, 10, 20, 40];

    let mut params = TrainParams::paper_gbm();
    params.num_iterations = 40;
    params.update_method = UpdateMethod::ColumnSwap;
    let mut jb_scores = vec![0.0f64; ys.len()];
    let mut jb_rows: Vec<(usize, Duration, f64)> = Vec::new();
    let start = Instant::now();
    let model = train_gbm_cb(&set, &params, |iter, m| {
        let tree = m.trees.last().expect("just trained");
        for (i, sc) in jb_scores.iter_mut().enumerate() {
            *sc += m.learning_rate
                * tree.predict(&joinboost::predict::TableRow {
                    table: &eval,
                    index: i,
                });
        }
        if checkpoints.contains(&(iter + 1)) {
            let preds: Vec<f64> = jb_scores.iter().map(|s| s + m.init_score).collect();
            jb_rows.push((iter + 1, start.elapsed(), rmse(&ys, &preds)));
        }
        true
    })
    .map_err(|e| e.to_string())?;
    let _ = model;

    // Baseline.
    let set2 = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let (flat, export) = lightgbm::export_join(&set2).map_err(|e| e.to_string())?;
    let lp = LgbmParams {
        num_iterations: 40,
        ..Default::default()
    };
    let mut lg_rows: Vec<(usize, Duration, f64)> = Vec::new();
    let lg_start = Instant::now();
    lightgbm::train_gbdt_cb(&flat, &lp, |iter, m| {
        if checkpoints.contains(&(iter + 1)) {
            let preds = m.predict_table(&eval);
            lg_rows.push((
                iter + 1,
                lg_start.elapsed() + export.total(),
                rmse(&ys, &preds),
            ));
        }
    })
    .map_err(|e| e.to_string())?;

    let mut report = Report::new(
        "Figure 8b/8c: gradient boosting time (s) and training rmse",
        &[
            "iter",
            "jb_time",
            "jb_rmse",
            "lgbm_time(+export)",
            "lgbm_rmse",
        ],
    );
    for ((i, jt, jr), (_, lt, lr)) in jb_rows.iter().zip(&lg_rows) {
        report.row(&[
            i.to_string(),
            secs(*jt),
            format!("{jr:.2}"),
            secs(*lt),
            format!("{lr:.2}"),
        ]);
    }
    report.note("expected shape: near-identical rmse curves (same algorithm); paper gets 1.1x time at 80M rows where export dominates");
    report.note("deviation: our interpreted engine is slower per query than the flat-array baseline at laptop scale");
    report.print();
    Ok(())
}

/// Figure 9: query counts and latency histogram of the 1st GBM iteration.
fn fig9() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 2); // 15 features over 5 edges
    let db = load(&gen, EngineConfig::duckdb_mem());
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let mut params = TrainParams::default();
    params.num_iterations = 1;
    let model = train_gbm(&set, &params).map_err(|e| e.to_string())?;
    let stats = &model.stats;
    let mut report = Report::new(
        "Figure 9a: query counts in the 1st iteration",
        &["kind", "count"],
    );
    report.row(&["feature-split".into(), stats.split_queries.to_string()]);
    report.row(&["message".into(), stats.message_queries.to_string()]);
    let nodes = 2 * params.num_leaves - 1;
    report.note(format!(
        "expected: split ~= nodes x features = {} x {} (paper: 270 = 15 x 18); messages bounded by nodes x edges = {} x {} (paper: 75 = 15 x 5, identity dims dropped)",
        nodes,
        set.features().len(),
        nodes,
        set.graph.num_edges(),
    ));
    report.print();

    let mut hist = Report::new(
        "Figure 9b: query execution time histogram (ms buckets)",
        &["bucket_ms", "split_queries", "message_queries"],
    );
    let bucket = |d: &Duration| -> usize {
        let ms = d.as_secs_f64() * 1000.0;
        (ms.ln_1p().floor() as usize).min(9)
    };
    let mut split_h = [0u64; 10];
    let mut msg_h = [0u64; 10];
    for d in &stats.split_durations {
        split_h[bucket(d)] += 1;
    }
    for d in &stats.message_durations {
        msg_h[bucket(d)] += 1;
    }
    for b in 0..10 {
        if split_h[b] == 0 && msg_h[b] == 0 {
            continue;
        }
        hist.row(&[
            format!("<= {:.0}", ((b + 1) as f64).exp() - 1.0),
            split_h[b].to_string(),
            msg_h[b].to_string(),
        ]);
    }
    hist.note("expected shape: split queries cheap; fact-table messages the slowest");
    hist.print();
    Ok(())
}

/// Figure 10: gradient boosting vs number of features.
fn fig10() -> Result<(), String> {
    let mut report = Report::new(
        "Figure 10: GBM training time (s) at 10 iterations vs #features",
        &["features", "joinboost", "lightgbm-like"],
    );
    for extra in [0usize, 4, 9] {
        let nfeat = 5 * (extra + 1);
        let gen = favorita_scaled(15_000, 50, extra);
        let db = load(&gen, EngineConfig::duckdb_mem());
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.num_iterations = 10;
        let (_, jb_t) = time(|| train_gbm(&set, &params).expect("gbm"));
        // Baseline memory limit sized so 50 features exceed it (paper:
        // LightGBM OOMs at 50 features / 125 GB, scaled down here).
        let limit = 15_000 * 30 * 10; // bytes ~= rows x 30 features x 10B
        let set2 = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let lgbm_cell = match lightgbm::export_join(&set2) {
            Ok((flat, export)) => {
                let lp = LgbmParams {
                    num_iterations: 10,
                    memory_limit_bytes: Some(limit),
                    ..Default::default()
                };
                match lightgbm::train_gbdt(&flat, &lp) {
                    Ok(m) => secs(m.train_time + export.total()),
                    Err(_) => "OOM".to_string(),
                }
            }
            Err(e) => format!("error: {e}"),
        };
        report.row(&[nfeat.to_string(), secs(jb_t), lgbm_cell]);
    }
    report.note("expected shape: joinboost scales linearly with lower slope; baseline OOMs at 50");
    report.print();
    Ok(())
}

/// Figure 11: gradient boosting vs TPC-DS scale factor.
fn fig11() -> Result<(), String> {
    let mut report = Report::new(
        "Figure 11: GBM time (s) at 10 iterations vs TPC-DS scale (paper SF 10-25)",
        &["sf(paper)", "joinboost", "lightgbm-like"],
    );
    for (paper_sf, sf) in [(10, 1.0f64), (15, 1.5), (20, 2.0), (25, 2.5)] {
        let gen = tpcds(&TpcConfig {
            scale_factor: sf,
            base_fact_rows: 8_000,
            seed: 7,
        });
        let db = Database::in_memory();
        gen.load_into(&db).map_err(|e| e.to_string())?;
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.num_iterations = 10;
        let (_, jb_t) = time(|| train_gbm(&set, &params).expect("gbm"));
        let set2 = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let limit = 76 * 18_000; // flat model needs ~76 B/row; SF 25 (20k rows) exceeds this
        let cell = match lightgbm::export_join(&set2) {
            Ok((flat, export)) => {
                let lp = LgbmParams {
                    num_iterations: 10,
                    memory_limit_bytes: Some(limit),
                    ..Default::default()
                };
                match lightgbm::train_gbdt(&flat, &lp) {
                    Ok(m) => secs(m.train_time + export.total()),
                    Err(_) => "OOM".to_string(),
                }
            }
            Err(e) => format!("error: {e}"),
        };
        report.row(&[paper_sf.to_string(), secs(jb_t), cell]);
    }
    report.note("expected shape: both linear, joinboost lower slope; baseline OOM at SF=25");
    report.print();
    Ok(())
}

/// Figure 12: multi-machine gradient-boosting-style workload.
fn fig12() -> Result<(), String> {
    let mut report = Report::new(
        "Figure 12a: distributed tree workload time (s) on 4 machines vs SF (paper 30-40)",
        &["sf(paper)", "joinboost(4m)", "single-table baseline"],
    );
    for (paper_sf, sf) in [(30, 3.0f64), (35, 3.5), (40, 4.0)] {
        let gen = tpcds(&TpcConfig {
            scale_factor: sf,
            base_fact_rows: 8_000,
            seed: 11,
        });
        let p = dist::deploy(&gen, 4);
        let (_, jb_t) = time(|| dist::train_partitioned_tree(&p, &gen, 3, 5.0));
        // Single-node baseline with a memory cap that SF40 exceeds.
        let db = Database::in_memory();
        gen.load_into(&db).map_err(|e| e.to_string())?;
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let limit = 76 * 30_000; // OOM at SF 40 (32k rows)
        let cell = match lightgbm::export_join(&set) {
            Ok((flat, export)) => {
                let lp = LgbmParams {
                    num_iterations: 10,
                    memory_limit_bytes: Some(limit),
                    ..Default::default()
                };
                match lightgbm::train_gbdt(&flat, &lp) {
                    Ok(m) => secs(m.train_time + export.total()),
                    Err(_) => "OOM".to_string(),
                }
            }
            Err(e) => format!("error: {e}"),
        };
        report.row(&[paper_sf.to_string(), secs(jb_t), cell]);
    }
    report
        .note("expected shape: joinboost scales; baseline OOMs at the top SF (paper: >9x faster)");
    report.print();

    let mut r2 = Report::new(
        "Figure 12b: time (s) vs machines at the top SF",
        &["machines", "joinboost"],
    );
    let gen = tpcds(&TpcConfig {
        scale_factor: 4.0,
        base_fact_rows: 8_000,
        seed: 11,
    });
    for m in [1usize, 2, 3, 4] {
        let p = dist::deploy(&gen, m);
        let (_, t) = time(|| dist::train_partitioned_tree(&p, &gen, 3, 5.0));
        r2.row(&[m.to_string(), secs(t)]);
    }
    r2.note("expected shape: trains even on 1 machine; speeds up with more machines");
    r2.print();
    Ok(())
}

/// Figure 13: cloud-warehouse style decision tree, 1-6 machines.
fn fig13() -> Result<(), String> {
    let gen = tpcds(&TpcConfig {
        scale_factor: 8.0,
        base_fact_rows: 8_000,
        seed: 13,
    });
    let mut report = Report::new(
        "Figure 13: depth-3 decision tree time (s) vs machines (paper: TPC-DS SF=1000)",
        &["machines", "time", "shuffle_bytes"],
    );
    for m in [1usize, 2, 4, 6] {
        let p = dist::deploy(&gen, m);
        let (_, t) = time(|| dist::train_partitioned_tree(&p, &gen, 3, 5.0));
        report.row(&[
            m.to_string(),
            secs(t),
            p.shuffle_bytes
                .load(std::sync::atomic::Ordering::Relaxed)
                .to_string(),
        ]);
    }
    report.note("expected shape: 2 machines introduce a shuffle stage; 4-6 recover modest gains");
    report.print();
    Ok(())
}

/// Figure 14: galaxy-schema gradient boosting (IMDB-like, CPT).
fn fig14() -> Result<(), String> {
    let gen = imdb_galaxy(&ImdbConfig {
        persons: 150,
        movies: 120,
        cast_rows: 10_000,
        person_info_rows: 1_500,
        movie_info_rows: 1_200,
        seed: 42,
    });
    let db = Database::in_memory();
    gen.load_into(&db).map_err(|e| e.to_string())?;
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let mut params = TrainParams::default();
    params.num_iterations = 10;
    params.num_leaves = 8;
    let mut rows: Vec<(usize, Duration)> = Vec::new();
    let start = Instant::now();
    train_gbm_cb(&set, &params, |iter, _| {
        rows.push((iter + 1, start.elapsed()));
        true
    })
    .map_err(|e| e.to_string())?;
    let mut report = Report::new(
        "Figure 14: galaxy GBM cumulative time (s) per iteration",
        &["iter", "time"],
    );
    for (i, t) in rows {
        report.row(&[i.to_string(), secs(t)]);
    }
    report.note("expected shape: linear in iterations (single-table libraries cannot run at all: |join| explodes)");
    report.print();
    Ok(())
}

/// Figure 15: train/update breakdown per backend.
fn fig15() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 0);
    let backends: Vec<(&str, EngineConfig, UpdateMethod)> = vec![
        (
            "X-col",
            EngineConfig::dbms_x_col(),
            UpdateMethod::CreateTable,
        ),
        (
            "X-row",
            EngineConfig::dbms_x_row(),
            UpdateMethod::CreateTable,
        ),
        (
            "X-Swap*",
            EngineConfig {
                allow_swap: true,
                ..EngineConfig::dbms_x_col()
            },
            UpdateMethod::ColumnSwap,
        ),
        (
            "D-disk",
            EngineConfig::duckdb_disk(),
            UpdateMethod::CreateTable,
        ),
        (
            "D-mem",
            EngineConfig::duckdb_mem(),
            UpdateMethod::CreateTable,
        ),
        ("DP", EngineConfig::duckdb_mem(), UpdateMethod::Interop),
        ("D-Swap", EngineConfig::d_swap(), UpdateMethod::ColumnSwap),
    ];
    let mut report = Report::new(
        "Figure 15: one GBM iteration: train vs residual-update time (s)",
        &["backend", "train", "update", "total"],
    );
    for (name, config, method) in backends {
        let db = load(&gen, config);
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.num_iterations = 1;
        params.update_method = method;
        let model = train_gbm(&set, &params).map_err(|e| e.to_string())?;
        report.row(&[
            name.to_string(),
            secs(model.train_time),
            secs(model.update_time),
            secs(model.train_time + model.update_time),
        ]);
    }
    report.note("expected shape: columnar trains fast; swap/interop updates ~free; DP trains slower (interop scans)");
    report.print();
    Ok(())
}

/// Figure 16a: Naive vs Batch (LMFAO-like) vs JoinBoost decision tree.
fn fig16a() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 200, 0);
    let db = load(&gen, EngineConfig::duckdb_mem());
    let mut params = TrainParams::default();
    params.num_leaves = 64;
    params.max_depth = 10;
    let mut report = Report::new(
        "Figure 16a: decision tree training time (s)",
        &["system", "time", "message_queries"],
    );
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let ((_, _, mat), naive_t) = time(|| naive::train_naive_tree(&set, &params).expect("naive"));
    report.row(&[
        "Naive".into(),
        secs(naive_t),
        format!("(materialize {} s)", secs(mat)),
    ]);
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let ((_, bstats), batch_t) = time(|| batch::train_batch_tree(&set, &params).expect("batch"));
    report.row(&[
        "Batch (LMFAO-like)".into(),
        secs(batch_t),
        bstats.message_queries.to_string(),
    ]);
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let ((_, jstats), jb_t) = time(|| train_decision_tree(&set, &params).expect("jb"));
    report.row(&[
        "JoinBoost".into(),
        secs(jb_t),
        jstats.message_queries.to_string(),
    ]);
    report.note("expected shape: JoinBoost < Batch < Naive (paper: sharing ~3x over Batch; Batch ~2x over Naive; LMFAO sits between JoinBoost and Batch thanks to its compiled engine)");
    report.print();
    Ok(())
}

/// Figure 16b: JoinBoost vs the MADLib-like row-engine baseline.
fn fig16b() -> Result<(), String> {
    let gen = favorita_scaled(10_000, 30, 0);
    let mut params = TrainParams::default();
    params.num_leaves = 32;
    params.max_depth = 10;
    let db_col = load(&gen, EngineConfig::duckdb_mem());
    let set = Dataset::new(
        &db_col,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let (_, jb_t) = time(|| train_decision_tree(&set, &params).expect("jb"));
    let db_row = madlib::row_oriented_db(&gen.tables);
    let set = Dataset::new(
        &db_row,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let (_, mad_t) = time(|| madlib::train_madlib_tree(&set, &params).expect("madlib"));
    let mut report = Report::new(
        "Figure 16b: decision tree vs MADLib-like (10k rows)",
        &["system", "time", "speedup"],
    );
    report.row(&["JoinBoost".into(), secs(jb_t), "1.0x".into()]);
    report.row(&[
        "MADLib-like".into(),
        secs(mad_t),
        format!(
            "{:.1}x slower",
            mad_t.as_secs_f64() / jb_t.as_secs_f64().max(1e-9)
        ),
    ]);
    report.note("expected shape: JoinBoost >> MADLib-like (paper: ~16x)");
    report.print();
    Ok(())
}

/// Figure 17 (Appendix C.1): TPC-DS / TPC-H GBM and RF.
fn fig17() -> Result<(), String> {
    let mut report = Report::new(
        "Figure 17: GBM / RF time (s) at 10 iterations, TPC-DS vs TPC-H",
        &["dataset", "model", "joinboost", "lgbm+export"],
    );
    for (name, gen) in [
        (
            "tpcds",
            tpcds(&TpcConfig {
                scale_factor: 1.0,
                base_fact_rows: 15_000,
                seed: 5,
            }),
        ),
        (
            "tpch",
            tpch(&TpcConfig {
                scale_factor: 1.0,
                base_fact_rows: 15_000,
                seed: 5,
            }),
        ),
    ] {
        let db = Database::in_memory();
        gen.load_into(&db).map_err(|e| e.to_string())?;
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let (flat, export) = lightgbm::export_join(&set).map_err(|e| e.to_string())?;
        for model in ["gbm", "rf"] {
            let set = Dataset::new(
                &db,
                gen.graph.clone(),
                &gen.target_relation,
                &gen.target_column,
            )
            .map_err(|e| e.to_string())?;
            let (jb_t, lg_t) = if model == "gbm" {
                let mut params = TrainParams::default();
                params.num_iterations = 10;
                let (_, jt) = time(|| train_gbm(&set, &params).expect("gbm"));
                let lp = LgbmParams {
                    num_iterations: 10,
                    ..Default::default()
                };
                let (m, _) = time(|| lightgbm::train_gbdt(&flat, &lp).expect("lgbm"));
                (jt, m.train_time + export.total())
            } else {
                let mut params = TrainParams::paper_rf();
                params.num_iterations = 10;
                params.threads = 4;
                let (_, jt) = time(|| train_random_forest(&set, &params).expect("rf"));
                let lp = LgbmParams {
                    num_iterations: 10,
                    bagging_fraction: 0.1,
                    feature_fraction: 0.8,
                    ..Default::default()
                };
                let (m, _) = time(|| lightgbm::train_rf(&flat, &lp).expect("lgbm rf"));
                (jt, m.train_time + export.total())
            };
            report.row(&[name.to_string(), model.to_string(), secs(jb_t), secs(lg_t)]);
        }
    }
    report.note("expected shape: joinboost competitive; TPC-H relatively slower for joinboost (large dimension messages)");
    report.print();
    Ok(())
}

/// Figure 18: parallelism sweeps.
fn fig18() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 1);
    let db = load(&gen, EngineConfig::duckdb_mem());
    let mut r1 = Report::new(
        "Figure 18a: one tree (8 leaves), split-query worker threads",
        &["threads", "time"],
    );
    for threads in [1usize, 2, 4, 8] {
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.threads = threads;
        let (_, t) = time(|| train_decision_tree(&set, &params).expect("dt"));
        r1.row(&[threads.to_string(), secs(t)]);
    }
    r1.note("deviation: at this scale parallel split queries contend on scan memory bandwidth; the tree-parallel effect shows in 18b/RF");
    r1.print();

    let mut r2 = Report::new(
        "Figure 18b: inter-query parallelism (w/o vs para)",
        &["model", "w/o", "para", "reduction"],
    );
    for model in ["GB", "RF"] {
        let mut times = Vec::new();
        for threads in [1usize, 4] {
            let set = Dataset::new(
                &db,
                gen.graph.clone(),
                &gen.target_relation,
                &gen.target_column,
            )
            .map_err(|e| e.to_string())?;
            let t = if model == "GB" {
                let mut params = TrainParams::default();
                params.num_iterations = 10;
                params.threads = threads;
                time(|| train_gbm(&set, &params).expect("gbm")).1
            } else {
                let mut params = TrainParams::paper_rf();
                params.num_iterations = 10;
                params.threads = threads;
                time(|| train_random_forest(&set, &params).expect("rf")).1
            };
            times.push(t);
        }
        let red = 100.0 * (1.0 - times[1].as_secs_f64() / times[0].as_secs_f64().max(1e-9));
        r2.row(&[
            model.to_string(),
            secs(times[0]),
            secs(times[1]),
            format!("{red:.0}%"),
        ]);
    }
    r2.note("expected shape: parallelism cuts GB ~28% and RF ~35% in the paper");
    r2.print();
    Ok(())
}

/// Figure 20: histogram bins and the cuboid optimization.
fn fig20() -> Result<(), String> {
    let gen = favorita_scaled(30_000, 60, 0);
    let db = load(&gen, EngineConfig::duckdb_mem());
    let eval = {
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        materialize_features(&set).map_err(|e| e.to_string())?
    };
    let ys = targets(&eval).map_err(|e| e.to_string())?;
    let mut report = Report::new(
        "Figure 20: histogram bins / cuboid: GBM 10 iterations",
        &["variant", "time", "rmse"],
    );
    for (label, bins, cuboid) in [
        ("exact (no bins)", 0usize, false),
        ("bins=10", 10, false),
        ("bins=5", 5, false),
        ("cuboid bins=10", 10, true),
        ("cuboid bins=5", 5, true),
    ] {
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.num_iterations = 10;
        params.max_bins = bins;
        params.use_cuboid = cuboid;
        let (model, t) = time(|| train_gbm(&set, &params).expect("gbm"));
        let r = rmse(&ys, &model.predict(&eval));
        report.row(&[label.to_string(), secs(t), format!("{r:.2}")]);
    }
    report.note("expected shape: fewer bins + cuboid much faster at modest rmse cost (paper: >100x at bins=5)");
    report.note("cuboid pays off once the cell count (bins^features) drops below the fact row count (bins=5: 3125 cells vs 30k rows)");
    report.print();
    Ok(())
}

/// Engine hot path: serial vs parallel fused grouped aggregation.
/// Parallelism is aggregate-sliced, so effective workers are capped by the
/// number of scan-needing aggregates: 2 for the variance-ring shape
/// (`COUNT(*)` comes from the grouping pass's group sizes), 5 for the
/// wide shape — the sweep reports both so the cap is visible.
fn agg() -> Result<(), String> {
    let table = crate::synth::grouped_fact_table(200_000, 100);
    let sum3 = "SELECT k, COUNT(*) AS c, SUM(y) AS s, SUM(y * y) AS q FROM t GROUP BY k";
    let wide = "SELECT k, COUNT(*) AS c, SUM(y) AS s, SUM(y * y) AS q, \
                AVG(y) AS m, MIN(y) AS lo, MAX(y) AS hi FROM t GROUP BY k";
    let mut report = Report::new(
        "Engine hot path: fused grouped aggregation, 200k rows (median ms)",
        &["agg_threads", "sum3(2 banks)", "wide(5 banks)"],
    );
    let median = |db: &Database, sql: &str| -> Result<f64, String> {
        for _ in 0..3 {
            db.query(sql).map_err(|e| e.to_string())?;
        }
        let mut samples: Vec<f64> = (0..15)
            .map(|_| time(|| db.query(sql).expect("agg query")).1.as_secs_f64() * 1e3)
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        Ok(samples[samples.len() / 2])
    };
    for threads in [1usize, 2, 4, 8] {
        let db = Database::new(EngineConfig {
            agg_threads: threads,
            ..EngineConfig::duckdb_mem()
        });
        db.create_table("t", table.clone())
            .map_err(|e| e.to_string())?;
        let m3 = median(&db, sum3)?;
        let mw = median(&db, wide)?;
        report.row(&[threads.to_string(), format!("{m3:.3}"), format!("{mw:.3}")]);
    }
    report.note(
        "aggregate-sliced parallelism is bit-identical to serial; workers cap at the bank \
         count, so sum3 stops improving past 2 threads and wide past 5",
    );
    report.print();
    Ok(())
}

/// `paged`: the out-of-core engine sweep. One GBM workload trained on
/// the in-memory engine (reference), then on paged engines whose buffer
/// pools shrink from comfortable (1024 pages = 4 MiB) down to absurd
/// (8 pages = 32 KiB, far below the working set). Models are asserted
/// bit-identical at every size — paging may cost wall-clock, never bits —
/// and the JSON captures the cost curve: hit rate, evictions, write-back
/// volume and train time per pool size.
fn paged_bench() -> Result<(), String> {
    use joinboost::backend::EngineBackend;
    use joinboost_engine::Replacement;

    const POOLS: &[usize] = &[1024, 256, 64, 8];
    let gen = favorita_scaled(6_000, 40, 1);
    let quantize = "UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0";
    let train = |backend: &EngineBackend| -> Result<(joinboost::GbmModel, Duration), String> {
        for (name, t) in &gen.tables {
            backend
                .create_table(name, t.clone())
                .map_err(|e| e.to_string())?;
        }
        backend.execute(quantize).map_err(|e| e.to_string())?;
        let set = Dataset::new(
            backend,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.num_iterations = 3;
        params.learning_rate = 0.5;
        params.leaf_quantization = (2.0f64).powi(-10);
        let (model, t) = time(|| train_gbm(&set, &params));
        Ok((model.map_err(|e| e.to_string())?, t))
    };

    let mem = EngineBackend::in_memory();
    let (reference, mem_time) = train(&mem)?;
    println!("in-memory reference: {}", secs(mem_time));

    let mut report = Report::new(
        "Out-of-core engine: GBM train vs buffer pool size (6k-row star, 3 iterations)",
        &[
            "pool",
            "train",
            "vs mem",
            "hit rate",
            "evictions",
            "written back",
            "page file",
        ],
    );
    report.row(&[
        "in-mem".into(),
        secs(mem_time),
        "1.00x".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    let mut json_rows: Vec<JsonValue> = Vec::new();
    for &pool_pages in POOLS {
        let dir = std::env::temp_dir().join(format!(
            "jb_bench_paged_{}_{pool_pages}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = EngineBackend::labeled(
            EngineConfig {
                bufferpool_pages: pool_pages,
                replacement: Replacement::Clock,
                agg_spill_bytes: 1 << 20,
                ..EngineConfig::paged(&dir)
            },
            format!("paged-{pool_pages}"),
        );
        let (model, t) = train(&backend)?;
        // The whole point: bits never depend on the pool size.
        if model.init_score.to_bits() != reference.init_score.to_bits()
            || model.trees != reference.trees
        {
            return Err(format!(
                "paged ({pool_pages} pages) model diverged from in-memory"
            ));
        }
        let stats = backend
            .database()
            .bufferpool_stats()
            .ok_or("paged engine must expose pool stats")?;
        let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
        let page_file_bytes = std::fs::metadata(dir.join("data.jbp"))
            .map(|m| m.len())
            .unwrap_or(0);
        report.row(&[
            format!("{pool_pages}p"),
            secs(t),
            format!("{:.2}x", t.as_secs_f64() / mem_time.as_secs_f64()),
            format!("{:.1}%", hit_rate * 100.0),
            stats.evictions.to_string(),
            format!("{:.1} MB", stats.spilled_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.1} MB", page_file_bytes as f64 / (1024.0 * 1024.0)),
        ]);
        json_rows.push(JsonValue::obj(vec![
            ("pool_pages", JsonValue::Int(pool_pages as i64)),
            ("train_s", JsonValue::Num(t.as_secs_f64())),
            ("hits", JsonValue::Int(stats.hits as i64)),
            ("misses", JsonValue::Int(stats.misses as i64)),
            ("hit_rate", JsonValue::Num(hit_rate)),
            ("evictions", JsonValue::Int(stats.evictions as i64)),
            ("spilled_bytes", JsonValue::Int(stats.spilled_bytes as i64)),
            ("page_file_bytes", JsonValue::Int(page_file_bytes as i64)),
        ]));
        drop(backend);
        let _ = std::fs::remove_dir_all(&dir);
    }
    report.note(
        "models bit-identical to the in-memory engine at every pool size; \
         8 pages = 32 KiB of cache against a multi-MB working set",
    );
    report.print();
    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::Str("paged".into())),
        ("fact_rows", JsonValue::Int(6_000)),
        ("iterations", JsonValue::Int(3)),
        ("bit_identical", JsonValue::Int(1)),
        ("mem_train_s", JsonValue::Num(mem_time.as_secs_f64())),
        ("rows", JsonValue::Arr(json_rows)),
    ]);
    let path = write_bench_json("paged", &json).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Crash recovery economics, both halves of the durability story:
///
/// 1. **reopen time vs log length** — the same UPDATE workload on a
///    paged engine with checkpointing off (recovery replays the whole
///    log) and on (recovery loads the snapshot plus a bounded suffix);
/// 2. **restart-resume vs cold retrain** — finishing an interrupted
///    12-iteration GBM from its 6-tree checkpoint versus training all
///    12 iterations from scratch, models asserted bit-identical.
fn recovery_bench() -> Result<(), String> {
    const CKPT_BUDGET: u64 = 64 * 1024;
    let seed_rows = 4_000i64;
    let workload = |n: usize| -> Vec<String> {
        (0..n)
            .map(|i| format!("UPDATE t SET v = v + {}.0 WHERE k > {}", i % 7, i % 1000))
            .collect()
    };
    // Run `n` statements under `budget`, crash, and time the reopen.
    let run = |n: usize, budget: Option<u64>| -> Result<(Duration, u64, u64), String> {
        let dir = std::env::temp_dir().join(format!(
            "jb_bench_recovery_{}_{n}_{}",
            std::process::id(),
            budget.is_some()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            checkpoint_bytes: budget,
            ..EngineConfig::paged(&dir)
        };
        let checkpoints;
        {
            let db = Database::new(config.clone());
            db.create_table(
                "seed",
                joinboost_engine::Table::from_columns(vec![
                    ("k", Column::int((0..seed_rows).collect())),
                    (
                        "v",
                        Column::float((0..seed_rows).map(|i| i as f64 * 0.125).collect()),
                    ),
                ]),
            )
            .map_err(|e| e.to_string())?;
            db.execute("CREATE TABLE t AS SELECT * FROM seed")
                .map_err(|e| e.to_string())?;
            for s in workload(n) {
                db.execute(&s).map_err(|e| e.to_string())?;
            }
            checkpoints = db.stats().checkpoints;
            db.simulate_crash().map_err(|e| e.to_string())?;
        }
        let wal_bytes = std::fs::metadata(dir.join("wal.log"))
            .map(|m| m.len())
            .unwrap_or(0);
        let (db, open) = time(|| Database::new(config));
        let rows = db.row_count("t").map_err(|e| e.to_string())?;
        if rows != seed_rows as usize {
            return Err(format!("recovered t has {rows} rows, want {seed_rows}"));
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        Ok((open, wal_bytes, checkpoints))
    };

    let mut report = Report::new(
        "Recovery: reopen time vs workload length, checkpoints off/on (64 KiB budget)",
        &[
            "statements",
            "wal (off)",
            "open (off)",
            "wal (on)",
            "open (on)",
            "ckpts",
        ],
    );
    let mut open_rows: Vec<JsonValue> = Vec::new();
    for &n in &[50usize, 200, 800] {
        let (open_off, wal_off, _) = run(n, None)?;
        let (open_on, wal_on, ckpts) = run(n, Some(CKPT_BUDGET))?;
        report.row(&[
            n.to_string(),
            format!("{:.1} KB", wal_off as f64 / 1024.0),
            secs(open_off),
            format!("{:.1} KB", wal_on as f64 / 1024.0),
            secs(open_on),
            ckpts.to_string(),
        ]);
        open_rows.push(JsonValue::obj(vec![
            ("statements", JsonValue::Int(n as i64)),
            ("wal_bytes_off", JsonValue::Int(wal_off as i64)),
            ("open_s_off", JsonValue::Num(open_off.as_secs_f64())),
            ("wal_bytes_on", JsonValue::Int(wal_on as i64)),
            ("open_s_on", JsonValue::Num(open_on.as_secs_f64())),
            ("checkpoints", JsonValue::Int(ckpts as i64)),
        ]));
    }
    report.note(
        "off: recovery replays every statement since birth; on: snapshot + \
         a suffix bounded by the checkpoint budget",
    );
    report.print();

    // Half 2: resume an interrupted job vs retrain from scratch.
    let gen = favorita_scaled(6_000, 40, 1);
    let backend = EngineBackend::in_memory();
    for (name, t) in &gen.tables {
        backend
            .create_table(name, t.clone())
            .map_err(|e| e.to_string())?;
    }
    backend
        .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
        .map_err(|e| e.to_string())?;
    let set = Dataset::new(
        &backend,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let mut params = TrainParams::default();
    params.num_iterations = 12;
    params.learning_rate = 0.5;
    params.leaf_quantization = (2.0f64).powi(-10);
    let (cold, cold_time) = time(|| train_gbm(&set, &params));
    let cold = cold.map_err(|e| e.to_string())?;
    // The "crash": a persisted checkpoint holding the first 6 trees.
    let prior: Vec<joinboost::Tree> = cold.trees[..6].to_vec();
    let (resumed, resume_time) = time(|| train_gbm_resume(&set, &params, &prior, |_, _| true));
    let resumed = resumed.map_err(|e| e.to_string())?;
    if resumed.init_score.to_bits() != cold.init_score.to_bits() || resumed.trees != cold.trees {
        return Err("resumed model diverged from the cold retrain".into());
    }
    let mut report = Report::new(
        "Recovery: finish a 12-iteration GBM from a 6-tree checkpoint vs cold retrain",
        &["strategy", "wall-clock", "vs cold"],
    );
    report.row(&["cold retrain".into(), secs(cold_time), "1.00x".into()]);
    report.row(&[
        "resume @6/12".into(),
        secs(resume_time),
        format!(
            "{:.2}x",
            resume_time.as_secs_f64() / cold_time.as_secs_f64()
        ),
    ]);
    report.note("resume replays stored trees' residual updates (no split search), then trains only the missing iterations; final models bit-identical");
    report.print();

    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::Str("recovery".into())),
        (
            "checkpoint_budget_bytes",
            JsonValue::Int(CKPT_BUDGET as i64),
        ),
        ("open_rows", JsonValue::Arr(open_rows)),
        ("cold_train_s", JsonValue::Num(cold_time.as_secs_f64())),
        ("resume_train_s", JsonValue::Num(resume_time.as_secs_f64())),
        ("resume_from", JsonValue::Int(6)),
        ("iterations", JsonValue::Int(12)),
        ("bit_identical", JsonValue::Int(1)),
    ]);
    let path = write_bench_json("recovery", &json).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Objective sweep: every Table-3 loss trains and reduces its loss.
fn losses() -> Result<(), String> {
    use joinboost_semiring::Objective;
    let gen = favorita_scaled(5_000, 30, 0);
    let db = load(&gen, EngineConfig::duckdb_mem());
    let mut report = Report::new(
        "Table 3 objectives: loss before/after 15 boosting iterations",
        &["objective", "init_loss", "final_loss"],
    );
    for obj in [
        Objective::SquaredError,
        Objective::AbsoluteError,
        Objective::Huber { delta: 50.0 },
        Objective::Fair { c: 10.0 },
        Objective::Quantile { alpha: 0.9 },
        Objective::Mape,
    ] {
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.objective = obj;
        params.num_iterations = 15;
        params.learning_rate = 0.5;
        let model = train_gbm(&set, &params).map_err(|e| e.to_string())?;
        let eval = materialize_features(&set).map_err(|e| e.to_string())?;
        let ys = targets(&eval).map_err(|e| e.to_string())?;
        let ps = model.predict_raw(&eval);
        let init: f64 = ys
            .iter()
            .map(|&y| obj.loss(y, model.init_score))
            .sum::<f64>()
            / ys.len() as f64;
        let fin: f64 = ys
            .iter()
            .zip(&ps)
            .map(|(&y, &p)| obj.loss(y, p))
            .sum::<f64>()
            / ys.len() as f64;
        report.row(&[
            obj.name().to_string(),
            format!("{init:.2}"),
            format!("{fin:.2}"),
        ]);
    }
    report.print();
    Ok(())
}

// ---------------------------------------------------------------------------
// SqlBackend lineup (the trait-level successor of Figure 15)
// ---------------------------------------------------------------------------

/// Train one dyadic-recipe GBM on a backend (see `DESIGN.md` § Backends:
/// quantized targets + leaf quantization make models comparable bit for
/// bit across arbitrary data partitionings).
fn train_dyadic_gbm(
    backend: &dyn SqlBackend,
    gen: &joinboost_datagen::favorita::Generated,
    iterations: usize,
) -> Result<joinboost::GbmModel, String> {
    for (name, t) in &gen.tables {
        backend
            .create_table(name, t.clone())
            .map_err(|e| e.to_string())?;
    }
    backend
        .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
        .map_err(|e| e.to_string())?;
    let set = Dataset::new(
        backend,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let mut params = TrainParams::default();
    params.num_iterations = iterations;
    params.learning_rate = 0.5;
    params.leaf_quantization = (2.0f64).powi(-10);
    train_gbm(&set, &params).map_err(|e| e.to_string())
}

/// Bit-level model comparison (plain `==` on f64 would accept
/// 0.0 == -0.0) — shared by the `backends` and `shards` experiments.
fn bit_identical(a: &joinboost::GbmModel, b: &joinboost::GbmModel) -> bool {
    a.init_score.to_bits() == b.init_score.to_bits()
        && a.trees.len() == b.trees.len()
        && a.trees.iter().zip(&b.trees).all(|(ta, tb)| {
            ta.nodes.len() == tb.nodes.len()
                && ta.nodes.iter().zip(&tb.nodes).all(|(na, nb)| {
                    na.split == nb.split
                        && na.value.to_bits() == nb.value.to_bits()
                        && na.weight.to_bits() == nb.weight.to_bits()
                })
        })
}

/// `backends`: the real multi-backend experiment — every [`SqlBackend`]
/// implementation trains the same GBM; models are asserted bit-identical.
fn backends_experiment() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 0);
    let mut report = Report::new(
        "Backends: 2 GBM iterations through every SqlBackend impl (bit-identical models)",
        &[
            "backend",
            "train",
            "update",
            "shards",
            "statements",
            "rows_shipped",
        ],
    );
    let mut reference: Option<joinboost::GbmModel> = None;
    let mut check = |model: &joinboost::GbmModel, who: &str| -> Result<(), String> {
        match &reference {
            None => {
                reference = Some(model.clone());
                Ok(())
            }
            Some(r) if bit_identical(r, model) => Ok(()),
            Some(_) => Err(format!("backend {who} trained a different model")),
        }
    };
    // Every backend reports its work through the same `SqlBackend::stats`
    // surface — no downcasting per implementation.
    let mut run =
        |backend: &dyn SqlBackend, label: &str, report: &mut Report| -> Result<(), String> {
            let model = train_dyadic_gbm(backend, &gen, 2)?;
            check(&model, label)?;
            let stats = backend.stats();
            report.row(&[
                label.to_string(),
                secs(model.train_time),
                secs(model.update_time),
                backend.capabilities().shards.to_string(),
                stats.statements.to_string(),
                stats.rows_shipped.to_string(),
            ]);
            Ok(())
        };
    for (label, config) in [
        ("D-mem", EngineConfig::duckdb_mem()),
        ("D-disk", EngineConfig::duckdb_disk()),
        ("X-row", EngineConfig::dbms_x_row()),
    ] {
        let backend = EngineBackend::labeled(config, label);
        run(&backend, label, &mut report)?;
    }
    {
        let backend = SqlTextBackend::in_memory();
        run(&backend, "sql-text", &mut report)?;
        report.note(format!(
            "sql-text survived {} print∘parse∘print round-trips",
            backend.stats().text_round_trips
        ));
    }
    for shards in [2usize, 4] {
        let backend = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "sales", "items_id");
        let label = backend.name().to_string();
        run(&backend, &label, &mut report)?;
    }
    report.note("every row trained the SAME model, bit for bit (dyadic recipe)");
    report.note("shuffle volume is per-key message partials + per-value split aggregates");
    report.print();
    Ok(())
}

/// The shared scaling workload of the `shards` / `remote` sweeps: a
/// 40k-row fact with a high-cardinality (~8000 values) fact-resident
/// feature plus one small dimension, targets on the dyadic grid so every
/// configuration trains the same model bit for bit.
fn highcard_star() -> (
    joinboost_engine::Table,
    joinboost_engine::Table,
    joinboost_graph::JoinGraph,
) {
    use joinboost_engine::Table;
    use joinboost_graph::JoinGraph;

    let rows = 40_000usize;
    let card = 8_000i64;
    let dim_rows = 100i64;
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows as i64).collect())),
        (
            "d_id",
            Column::int((0..rows as i64).map(|i| i % dim_rows).collect()),
        ),
        (
            "f",
            Column::int((0..rows as i64).map(|i| (i * 7919) % card).collect()),
        ),
        (
            "y",
            Column::float(
                (0..rows as i64)
                    .map(|i| {
                        let f = ((i * 7919) % card) as f64;
                        let noise = ((i * 2654435761) % 97) as f64;
                        f / 8.0 + ((i % dim_rows) % 10) as f64 * 4.0 + noise / 8.0
                    })
                    .collect(),
            ),
        ),
    ]);
    let dim = Table::from_columns(vec![
        ("d_id", Column::int((0..dim_rows).collect())),
        (
            "f_d",
            Column::int((0..dim_rows).map(|d| (d * 13) % 50).collect()),
        ),
    ]);
    let mut graph = JoinGraph::new();
    graph.add_relation("fact", &["f"]).expect("fact relation");
    graph.add_relation("dim", &["f_d"]).expect("dim relation");
    graph.add_edge("fact", "dim", &["d_id"]).expect("star edge");
    (fact, dim, graph)
}

/// `shards`: sharded-backend scaling sweep over 1, 2 and 4 in-process
/// fact partitions — wall-clock and shuffle volume of the dense `⊕`-merge
/// on a high-cardinality fact-resident feature, models asserted
/// bit-identical across shard counts.
fn shard_scale() -> Result<(), String> {
    let (fact, dim, graph) = highcard_star();
    let mut report = Report::new(
        "Sharded training: 1 GBM iteration, high-cardinality feature (~8000 values)",
        &[
            "shards",
            "train(median of 3)",
            "fanout_selects",
            "rows_shipped",
        ],
    );
    let mut reference: Option<joinboost::GbmModel> = None;
    let mut json_rows: Vec<JsonValue> = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut times: Vec<f64> = Vec::new();
        let (mut shipped, mut fanouts) = (0u64, 0u64);
        for _ in 0..3 {
            let backend = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "fact", "k");
            backend
                .create_table("fact", fact.clone())
                .map_err(|e| e.to_string())?;
            backend
                .create_table("dim", dim.clone())
                .map_err(|e| e.to_string())?;
            let set =
                Dataset::new(&backend, graph.clone(), "fact", "y").map_err(|e| e.to_string())?;
            let mut params = TrainParams::default();
            params.num_iterations = 1;
            params.learning_rate = 0.5;
            params.leaf_quantization = (2.0f64).powi(-10);
            let (model, t) = time(|| train_gbm(&set, &params).expect("gbm"));
            times.push(t.as_secs_f64());
            let stats = backend.stats();
            shipped = stats.rows_shipped;
            fanouts = stats.fanout_selects;
            match &reference {
                None => reference = Some(model),
                Some(r) => {
                    if !bit_identical(r, &model) {
                        return Err(format!("sharded x{shards} trained a different model"));
                    }
                }
            }
        }
        times.sort_by(|a, b| a.total_cmp(b));
        report.row(&[
            shards.to_string(),
            format!("{:.3}", times[times.len() / 2]),
            fanouts.to_string(),
            shipped.to_string(),
        ]);
        json_rows.push(JsonValue::obj(vec![
            ("shards", JsonValue::Int(shards as i64)),
            ("train_median_s", JsonValue::Num(times[times.len() / 2])),
            ("fanout_selects", JsonValue::Int(fanouts as i64)),
            ("rows_shipped", JsonValue::Int(shipped as i64)),
        ]));
    }
    report.note("every configuration trained the SAME model, bit for bit (dyadic recipe)");
    report.print();
    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::Str("shards".into())),
        ("bit_identical", JsonValue::Int(1)),
        ("rows", JsonValue::Arr(json_rows)),
    ]);
    let path = write_bench_json("shards", &json).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `remote`: the same scaling sweep over *multi-process* sharding — each
/// shard is an engine behind a wire server on a loopback socket, so the
/// shuffle volume is measured in real bytes on the wire, not just
/// `rows_shipped` accounting. Models are asserted bit-identical across
/// every configuration, transport included.
///
/// With `flaky`, every server drops every 9th connection mid-stream (a
/// recovering fault, not a crash): the retrying clients reconnect,
/// resume their sessions and replay — and the bit-identity assertions
/// must *still* hold, which is the fault-tolerance claim measured rather
/// than merely unit-tested.
fn remote_scale(flaky: bool) -> Result<(), String> {
    use joinboost::backend::{RemoteOptions, RetryPolicy, WireServer};
    use joinboost_engine::Database;

    let (fact, dim, graph) = highcard_star();
    let mut report = Report::new(
        if flaky {
            "Remote sharding over sockets UNDER FAULT INJECTION (drop every 9th request): \
             1 GBM iteration, high-cardinality feature (~8000 values)"
        } else {
            "Remote sharding over sockets: 1 GBM iteration, high-cardinality feature (~8000 values)"
        },
        &[
            "servers",
            "train(median of 3)",
            "rows_shipped",
            "wire sent",
            "wire recv",
        ],
    );
    let mb = |b: u64| format!("{:.2} MB", b as f64 / (1024.0 * 1024.0));
    let mut reference: Option<joinboost::GbmModel> = None;
    let mut json_rows: Vec<JsonValue> = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut times: Vec<f64> = Vec::new();
        let (mut shipped, mut sent, mut received) = (0u64, 0u64, 0u64);
        for _ in 0..3 {
            // Real socket servers, one engine process-alike each (spawned
            // in-process so the sweep is self-contained; the shard_server
            // binary serves the same loop standalone).
            let servers: Vec<WireServer> = (0..shards)
                .map(|_| {
                    let mut b = WireServer::builder(Database::in_memory());
                    if flaky {
                        b = b
                            .drop_every(9)
                            .session_grace(std::time::Duration::from_secs(30));
                    }
                    b.spawn().expect("spawn wire server")
                })
                .collect();
            let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.addr()).collect();
            let opts = if flaky {
                // Millisecond backoffs: the drops are injected and local,
                // so the sweep should measure recovery, not sleeps.
                RemoteOptions {
                    retry: RetryPolicy {
                        max_retries: 4,
                        base_backoff: std::time::Duration::from_millis(5),
                        max_backoff: std::time::Duration::from_millis(100),
                        jitter: 0.2,
                    },
                    ..RemoteOptions::default()
                }
            } else {
                RemoteOptions::default()
            };
            let backend =
                ShardedBackend::remote(&addrs, EngineConfig::duckdb_mem(), "fact", "k", opts)
                    .map_err(|e| e.to_string())?;
            backend
                .create_table("fact", fact.clone())
                .map_err(|e| e.to_string())?;
            backend
                .create_table("dim", dim.clone())
                .map_err(|e| e.to_string())?;
            let set =
                Dataset::new(&backend, graph.clone(), "fact", "y").map_err(|e| e.to_string())?;
            let mut params = TrainParams::default();
            params.num_iterations = 1;
            params.learning_rate = 0.5;
            params.leaf_quantization = (2.0f64).powi(-10);
            let (model, t) = time(|| train_gbm(&set, &params).expect("gbm"));
            times.push(t.as_secs_f64());
            let stats = backend.stats();
            shipped = stats.rows_shipped;
            sent = stats.bytes_sent;
            received = stats.bytes_received;
            match &reference {
                None => reference = Some(model),
                Some(r) => {
                    if !bit_identical(r, &model) {
                        return Err(format!("remote x{shards} trained a different model"));
                    }
                }
            }
        }
        times.sort_by(|a, b| a.total_cmp(b));
        report.row(&[
            shards.to_string(),
            format!("{:.3}", times[times.len() / 2]),
            shipped.to_string(),
            mb(sent),
            mb(received),
        ]);
        json_rows.push(JsonValue::obj(vec![
            ("servers", JsonValue::Int(shards as i64)),
            ("train_median_s", JsonValue::Num(times[times.len() / 2])),
            ("rows_shipped", JsonValue::Int(shipped as i64)),
            ("wire_bytes_sent", JsonValue::Int(sent as i64)),
            ("wire_bytes_received", JsonValue::Int(received as i64)),
        ]));
    }
    if flaky {
        report.note(
            "every configuration trained the SAME model, bit for bit, across processes — \
             with connections dropped every 9 requests and recovered by session resume + replay",
        );
    } else {
        report.note("every configuration trained the SAME model, bit for bit, across processes");
    }
    report.print();
    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::Str("remote".into())),
        ("bit_identical", JsonValue::Int(1)),
        ("flaky", JsonValue::Int(i64::from(flaky))),
        ("rows", JsonValue::Arr(json_rows)),
    ]);
    let path = write_bench_json("remote", &json).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// A spawned `shard_server` child process (killed on drop). The binary is
/// looked up next to the experiments binary itself, so a plain
/// `cargo build --release` of the workspace sets everything up.
struct ShardServerProc {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

impl ShardServerProc {
    fn spawn(bin: &std::path::Path) -> Result<ShardServerProc, String> {
        use std::io::BufRead as _;
        let mut child = std::process::Command::new(bin)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("shard_server stdout not piped")?;
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read shard_server announcement: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .ok_or_else(|| format!("unexpected shard_server announcement: {line:?}"))?
            .parse()
            .map_err(|e| format!("shard_server announced a bad address: {e}"))?;
        Ok(ShardServerProc { child, addr })
    }
}

impl Drop for ShardServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `serve`: the serving tier end-to-end, against *real separate
/// processes*. Spawns `shard_server` children, loads a keyed Favorita
/// star across them, demos the job API (submit → poll → predict) on one
/// shard, trains on the sharded backend, compiles the model into message
/// tables, spot-checks the factorized path bit-for-bit against the
/// materialized-join oracle, then sweeps concurrent clients × batch size
/// measuring p50/p99 predict latency and scores/sec. Writes
/// `BENCH_serve.json`.
fn serve_bench() -> Result<(), String> {
    use joinboost::backend::{
        JobSpec, JobStatus, RemoteConnection, RemoteOptions, ServeClient, ShardTransport,
    };
    use joinboost::{FactorizedScorer, JoinScorer, Scorer};
    use joinboost_engine::table::ColumnMeta;
    use joinboost_engine::Table;

    const SHARDS: usize = 2;
    const FACT_ROWS: usize = 8000;
    const CLIENTS: &[usize] = &[1, 2, 4];
    const BATCHES: &[usize] = &[1, 64, 1024];

    // The serving processes: shard_server binaries next to this one.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_name = if cfg!(windows) {
        "shard_server.exe"
    } else {
        "shard_server"
    };
    let server_bin = exe.with_file_name(bin_name);
    if !server_bin.exists() {
        return Err(format!(
            "shard_server binary not found at {} — build it first:\n  \
             cargo build --release -p joinboost --bin shard_server",
            server_bin.display()
        ));
    }
    let procs: Vec<ShardServerProc> = (0..SHARDS)
        .map(|_| ShardServerProc::spawn(&server_bin))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<std::net::SocketAddr> = procs.iter().map(|p| p.addr).collect();
    println!("spawned {SHARDS} shard_server processes: {addrs:?}");

    // Keyed workload: Favorita star with an explicit predict key on the
    // fact table, target quantized to the dyadic 1/8 grid so every path
    // (local join, sharded factorized, over-the-wire) scores the same
    // bits.
    let gen = favorita(&FavoritaConfig {
        fact_rows: FACT_ROWS,
        dim_rows: 40,
        noise: 1.0,
        ..Default::default()
    });
    let keyed = |name: &str, t: &Table| -> Table {
        let mut t = t.clone();
        if name == "sales" {
            t.push_column(
                ColumnMeta::new("sale_id"),
                Column::int((0..t.num_rows() as i64).collect()),
            );
        }
        t
    };
    let load = |backend: &dyn SqlBackend| -> Result<(), String> {
        for (name, t) in &gen.tables {
            backend
                .create_table(name, keyed(name, t))
                .map_err(|e| e.to_string())?;
        }
        backend
            .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
            .map(|_| ())
            .map_err(|e| e.to_string())
    };

    let sharded = ShardedBackend::remote(
        &addrs,
        EngineConfig::duckdb_mem(),
        "sales",
        "sale_id",
        RemoteOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    load(&sharded)?;

    // --- Job API demo: train where (part of) the data lives. Shard 0
    // holds its fact partition plus the replicated dimensions, so a
    // training job against it is self-contained.
    let job_spec = JobSpec {
        relations: gen
            .graph
            .relations()
            .map(|(_, r)| (r.name.clone(), r.features.clone()))
            .collect(),
        edges: gen
            .graph
            .edges()
            .iter()
            .map(|e| {
                (
                    gen.graph.name(e.a).to_string(),
                    gen.graph.name(e.b).to_string(),
                    e.keys.clone(),
                )
            })
            .collect(),
        target_relation: "sales".into(),
        target_column: "net_profit".into(),
        key_column: Some("sale_id".into()),
        num_iterations: 3,
        ..JobSpec::default()
    };
    let serve_client = ServeClient::connect(addrs[0]).map_err(|e| e.to_string())?;
    let job_id = serve_client.submit(&job_spec).map_err(|e| e.to_string())?;
    let (done, job_time) = time(|| serve_client.wait(job_id));
    let job_iterations = match done.map_err(|e| e.to_string())? {
        JobStatus::Done { iterations } => iterations,
        other => return Err(format!("job {job_id} ended {other:?}, expected Done")),
    };
    let probe: Vec<i64> = (0..64).collect();
    let job_scored = serve_client
        .predict(job_id, &probe)
        .map_err(|e| e.to_string())?
        .iter()
        .filter(|s| s.is_some())
        .count();
    println!(
        "job {job_id} on shard 0: Done after {job_iterations} iterations in {}, \
         scored {job_scored}/{} probed keys (shard 0's partition)",
        secs(job_time),
        probe.len()
    );

    // --- Train on the sharded backend and deploy factorized scoring.
    let set = Dataset::new(&sharded, gen.graph.clone(), "sales", "net_profit")
        .map_err(|e| e.to_string())?;
    let mut params = TrainParams::default();
    params.num_iterations = 4;
    params.learning_rate = 0.5;
    params.leaf_quantization = (2.0f64).powi(-10);
    let (model, train_time) = time(|| train_gbm(&set, &params).expect("gbm"));
    let fscorer = FactorizedScorer::compile(&set, &model, "sale_id").map_err(|e| e.to_string())?;

    // Oracle: the same data and recipe on a local engine, scored through
    // the materialized join. Models are bit-identical across backends, so
    // the two scorers must agree on every bit of every key.
    let local = EngineBackend::new(EngineConfig::duckdb_mem());
    load(&local)?;
    let local_set = Dataset::new(&local, gen.graph.clone(), "sales", "net_profit")
        .map_err(|e| e.to_string())?;
    let local_model = train_gbm(&local_set, &params).expect("gbm local");
    if !bit_identical(&model, &local_model) {
        return Err("sharded and local training diverged".into());
    }
    let oracle =
        JoinScorer::compile(&local_set, &local_model, "sale_id").map_err(|e| e.to_string())?;
    let check_keys: Vec<i64> = (0..(FACT_ROWS as i64 + 10)).collect();
    let want = oracle.score_batch(&check_keys).map_err(|e| e.to_string())?;
    let got = fscorer
        .score_batch(&check_keys)
        .map_err(|e| e.to_string())?;
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if w.map(f64::to_bits) != g.map(f64::to_bits) {
            return Err(format!(
                "factorized score diverged from the join oracle at key {i}: {w:?} vs {g:?}"
            ));
        }
    }
    println!(
        "trained in {} on {SHARDS} server processes; factorized scores bit-identical \
         to the materialized-join oracle on {} keys",
        secs(train_time),
        check_keys.len()
    );

    // --- Latency sweep. Each client thread holds its own connection per
    // shard and scores batches the way a deployed scorer would: one
    // `PredictBatch` per shard (partials from 0.0), ⊕-merge, add
    // init_score once. Dyadic leaves make the merge exact, so this path
    // answers the same bits as the oracle — asserted once above, and
    // spot-checked here on the first merged batch.
    let spec = fscorer.spec().clone();
    let merge = |partials: &[Vec<(bool, f64)>], n: usize| -> Vec<Option<f64>> {
        (0..n)
            .map(|i| {
                let mut sum = None;
                for shard in partials {
                    if shard[i].0 {
                        *sum.get_or_insert(0.0) += shard[i].1;
                    }
                }
                sum.map(|s| spec.init_score + s)
            })
            .collect()
    };
    {
        let conns: Vec<RemoteConnection> = addrs
            .iter()
            .map(|a| RemoteConnection::builder(a).connect())
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let partials: Vec<Vec<(bool, f64)>> = conns
            .iter()
            .map(|c| c.predict_partials(&spec, &probe))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let merged = merge(&partials, probe.len());
        for (i, m) in merged.iter().enumerate() {
            if m.map(f64::to_bits) != want[i].map(f64::to_bits) {
                return Err(format!(
                    "client-side partial merge diverged from the oracle at key {i}"
                ));
            }
        }
    }

    let mut report = Report::new(
        format!("Serving latency: {SHARDS} shard_server processes, factorized PredictBatch"),
        &[
            "clients",
            "batch",
            "batches",
            "p50(ms)",
            "p99(ms)",
            "scores/sec",
        ],
    );
    let pct = |sorted: &[f64], q: f64| -> f64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    };
    let mut json_rows: Vec<JsonValue> = Vec::new();
    for &clients in CLIENTS {
        for &batch in BATCHES {
            let per_client = (4096 / batch).clamp(8, 256);
            let started = Instant::now();
            let mut latencies: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let spec = &spec;
                        let addrs = &addrs;
                        scope.spawn(move || -> Result<Vec<f64>, String> {
                            let conns: Vec<RemoteConnection> = addrs
                                .iter()
                                .map(|a| RemoteConnection::builder(a).connect())
                                .collect::<Result<_, _>>()
                                .map_err(|e| e.to_string())?;
                            let mut lat = Vec::with_capacity(per_client);
                            for it in 0..per_client {
                                let keys: Vec<i64> = (0..batch)
                                    .map(|j| ((c * 7919 + it * 131 + j * 17) % FACT_ROWS) as i64)
                                    .collect();
                                let t0 = Instant::now();
                                let mut partials = Vec::with_capacity(conns.len());
                                for conn in &conns {
                                    partials.push(
                                        conn.predict_partials(spec, &keys)
                                            .map_err(|e| e.to_string())?,
                                    );
                                }
                                let merged = merge(&partials, keys.len());
                                assert!(merged.iter().all(|s| s.is_some()));
                                lat.push(t0.elapsed().as_secs_f64());
                            }
                            Ok(lat)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect::<Result<Vec<_>, String>>()
                    .map(|v| v.into_iter().flatten().collect())
            })?;
            let wall = started.elapsed().as_secs_f64();
            latencies.sort_by(|a, b| a.total_cmp(b));
            let total_scores = (clients * per_client * batch) as f64;
            let (p50, p99) = (pct(&latencies, 0.50) * 1e3, pct(&latencies, 0.99) * 1e3);
            let throughput = total_scores / wall;
            report.row(&[
                clients.to_string(),
                batch.to_string(),
                per_client.to_string(),
                format!("{p50:.3}"),
                format!("{p99:.3}"),
                format!("{throughput:.0}"),
            ]);
            json_rows.push(JsonValue::obj(vec![
                ("clients", JsonValue::Int(clients as i64)),
                ("batch", JsonValue::Int(batch as i64)),
                ("batches_per_client", JsonValue::Int(per_client as i64)),
                ("p50_ms", JsonValue::Num(p50)),
                ("p99_ms", JsonValue::Num(p99)),
                ("scores_per_sec", JsonValue::Num(throughput)),
            ]));
        }
    }
    report.note(format!(
        "scoring a key = {} dictionary lookups + ⊕-adds per shard; the join is never materialized",
        1 + gen.graph.num_relations()
    ));
    report.note("merged scores asserted bit-identical to the materialized-join oracle");
    report.print();

    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::Str("serve".into())),
        ("shards", JsonValue::Int(SHARDS as i64)),
        ("fact_rows", JsonValue::Int(FACT_ROWS as i64)),
        ("train_s", JsonValue::Num(train_time.as_secs_f64())),
        (
            "spot_check",
            JsonValue::obj(vec![
                ("keys", JsonValue::Int(check_keys.len() as i64)),
                ("bit_identical", JsonValue::Int(1)),
            ]),
        ),
        (
            "job",
            JsonValue::obj(vec![
                ("id", JsonValue::Int(job_id as i64)),
                ("iterations", JsonValue::Int(job_iterations as i64)),
                ("wait_s", JsonValue::Num(job_time.as_secs_f64())),
                ("keys_probed", JsonValue::Int(probe.len() as i64)),
                ("keys_scored", JsonValue::Int(job_scored as i64)),
            ]),
        ),
        ("sweep", JsonValue::Arr(json_rows)),
    ]);
    let path = write_bench_json("serve", &json).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}
