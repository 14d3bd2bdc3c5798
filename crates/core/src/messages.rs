//! The Factorizer: decomposes aggregation queries into message passing and
//! absorption SQL (Sections 3.1, 3.3, 5.2), with three optimizations:
//!
//! * **message caching across tree nodes** (Section 5.5.1): messages are
//!   keyed by `(from, to, subtree-predicate signature, annotation epoch)`;
//!   after a split only the messages on the path from the split relation
//!   to the root are recomputed;
//! * **identity messages** (Appendix D.2): a leaf-ward relation annotated
//!   with `1̄`, with no predicates, joined N-to-1 from its parent, does not
//!   change annotations — its message is dropped entirely;
//! * **semi-join messages** (Appendix D.2): once such a relation gains a
//!   predicate, its message is just the set of surviving join keys, and
//!   the join becomes a semi-join filter.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use joinboost_graph::cache::{signature, MessageCache, MessageKey};
use joinboost_graph::{Multiplicity, RelId};
use joinboost_sql::ast::{Expr, Join, JoinKind, Query, SelectItem, TableRef};

use crate::dataset::Dataset;
use crate::error::{Result, TrainError};
use crate::sqlgen::{fold_annotations, identity_annotation, RingKind};
use crate::tree::{Split, SplitCondition};

/// A predicate on one relation: its canonical SQL (for cache signatures)
/// plus the parsed expression.
#[derive(Debug, Clone)]
pub struct Pred {
    /// Canonical SQL rendering (cache signature key).
    pub sql: String,
    /// The parsed predicate expression.
    pub expr: Expr,
}

impl Pred {
    /// Build from a tree split (possibly negated).
    pub fn from_split(split: &Split, negated: bool) -> Pred {
        let col = Expr::col(split.feature.clone());
        use joinboost_sql::ast::BinaryOp::*;
        let expr = match (&split.cond, negated) {
            (SplitCondition::LtEq(v), false) => Expr::binary(LtEq, col, Expr::float(*v)),
            (SplitCondition::LtEq(v), true) => Expr::binary(Gt, col, Expr::float(*v)),
            (SplitCondition::EqNum(v), false) => Expr::binary(Eq, col, Expr::float(*v)),
            (SplitCondition::EqNum(v), true) => Expr::binary(Neq, col, Expr::float(*v)),
            (SplitCondition::EqStr(v), false) => Expr::binary(Eq, col, Expr::str(v.clone())),
            (SplitCondition::EqStr(v), true) => Expr::binary(Neq, col, Expr::str(v.clone())),
        };
        Pred {
            sql: split.to_sql(negated),
            expr,
        }
    }
}

/// Per-tree-node predicate context: the conjunction of split predicates,
/// pushed to the relations that own the split features.
#[derive(Debug, Clone, Default)]
pub struct NodeContext {
    preds: HashMap<RelId, Vec<Pred>>,
}

impl NodeContext {
    /// The empty context of the tree root (no predicates).
    pub fn root() -> NodeContext {
        NodeContext::default()
    }

    /// Extend with one more predicate (returns the child context).
    pub fn with_pred(&self, rel: RelId, pred: Pred) -> NodeContext {
        let mut next = self.clone();
        next.preds.entry(rel).or_default().push(pred);
        next
    }

    /// Predicates pushed to one relation.
    pub fn preds_of(&self, rel: RelId) -> &[Pred] {
        self.preds.get(&rel).map_or(&[], Vec::as_slice)
    }

    fn signature_of(&self, rels: &[RelId], epochs: &HashMap<RelId, u64>) -> String {
        let mut parts: Vec<String> = Vec::new();
        for &r in rels {
            for p in self.preds_of(r) {
                parts.push(format!("{r}:{}", p.sql));
            }
            if let Some(e) = epochs.get(&r) {
                if *e > 0 {
                    parts.push(format!("{r}@{e}"));
                }
            }
        }
        signature(&parts)
    }
}

/// Qualify every bare column reference in an expression with `table`.
fn qualify_expr(e: Expr, table: &str) -> Expr {
    match e {
        Expr::Column { table: None, name } => Expr::Column {
            table: Some(table.to_string()),
            name,
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(qualify_expr(*left, table)),
            right: Box::new(qualify_expr(*right, table)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(qualify_expr(*expr, table)),
        },
        Expr::Func { name, args } => Expr::Func {
            name,
            args: args.into_iter().map(|a| qualify_expr(a, table)).collect(),
        },
        other => other,
    }
}

/// How an absorption groups feature values.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// The feature column (NULL filtering).
    pub feature: String,
    /// Expression selected as `val` (the raw value, or `MAX(f)` per bin
    /// for histogram training so the split threshold is an actual value).
    pub select: Expr,
    /// Expression grouped by (the raw value, or the bin id).
    pub group: Expr,
    /// When the grouping expression is not itself the selected value (the
    /// histogram bin id), it is additionally emitted as an output column
    /// under this alias, so that partitioned backends can match groups
    /// across shards and `⊕`-merge per bin (shard-friendly absorbs; see
    /// `DESIGN.md` § "Split queries over shards").
    pub key_alias: Option<String>,
}

/// Output-column alias of a binned absorption's group key.
pub const BIN_KEY_ALIAS: &str = "jb_key";

impl GroupSpec {
    /// Plain per-distinct-value grouping.
    pub fn plain(feature: &str) -> GroupSpec {
        GroupSpec {
            feature: feature.to_string(),
            select: Expr::col(feature),
            group: Expr::col(feature),
            key_alias: None,
        }
    }

    /// Histogram grouping: group by `FLOOR((f − lo)/width)`, select
    /// `MAX(f)` so the returned threshold exactly separates the bins. The
    /// bin id rides along in the output as [`BIN_KEY_ALIAS`].
    pub fn binned(feature: &str, lo: f64, width: f64) -> GroupSpec {
        let bin = Expr::func(
            "FLOOR",
            vec![Expr::div(
                Expr::sub(Expr::col(feature), Expr::float(lo)),
                Expr::float(width.max(f64::MIN_POSITIVE)),
            )],
        );
        GroupSpec {
            feature: feature.to_string(),
            select: Expr::func("MAX", vec![Expr::col(feature)]),
            group: bin,
            key_alias: Some(BIN_KEY_ALIAS.to_string()),
        }
    }
}

/// A computed message.
#[derive(Debug, Clone)]
pub enum MsgHandle {
    /// Dropped: joining would not change annotations or counts.
    Identity,
    /// Semi-join filter: `table` holds the surviving join-key values.
    Semi {
        /// Materialized message table name.
        table: String,
        /// Join-key column names.
        keys: Vec<String>,
    },
    /// Full message: `table` holds the keys plus annotation columns.
    Full {
        /// Materialized message table name.
        table: String,
        /// Join-key column names.
        keys: Vec<String>,
    },
}

/// Execution statistics (drives Figure 9).
#[derive(Debug, Clone, Default)]
pub struct FactorizerStats {
    /// Materialized message queries (CREATE TABLE ... AS).
    pub message_queries: u64,
    /// Total wall-clock spent materializing messages.
    pub message_time: Duration,
    /// Per-message durations.
    pub message_durations: Vec<Duration>,
    /// Messages served from the cross-node cache.
    pub cache_hits: u64,
    /// Messages dropped by the identity optimization.
    pub identity_drops: u64,
    /// Messages reduced to semi-join key filters.
    pub semi_messages: u64,
}

/// The factorizer: owns the per-relation annotations and the message cache.
pub struct Factorizer<'a, 'b> {
    /// The dataset being trained on.
    pub set: &'b Dataset<'a>,
    /// Which semi-ring pair the annotations carry.
    pub ring: RingKind,
    /// Annotation expressions per relation, relative to its physical table.
    annotations: HashMap<RelId, Vec<Expr>>,
    /// Physical table override (lifted copies).
    tables: HashMap<RelId, String>,
    /// Bumped whenever a relation's annotation *data* changes (residual
    /// updates), invalidating cached messages that aggregated it.
    epochs: HashMap<RelId, u64>,
    cache: MessageCache<MsgHandle>,
    /// Message-passing counters (drives Figure 9).
    pub stats: FactorizerStats,
}

impl<'a, 'b> Factorizer<'a, 'b> {
    /// A factorizer with identity annotations and an empty cache.
    pub fn new(set: &'b Dataset<'a>, ring: RingKind) -> Self {
        Factorizer {
            set,
            ring,
            annotations: HashMap::new(),
            tables: HashMap::new(),
            epochs: HashMap::new(),
            cache: MessageCache::new(),
            stats: FactorizerStats::default(),
        }
    }

    /// Set a relation's annotation expressions `[comp0, comp1]` (defaults
    /// to the identity `(1, 0)`).
    pub fn set_annotation(&mut self, rel: RelId, ann: Vec<Expr>) {
        assert_eq!(ann.len(), 2);
        self.annotations.insert(rel, ann);
    }

    /// Redirect a relation to a (lifted/sampled) physical table.
    pub fn set_table(&mut self, rel: RelId, table: String) {
        self.tables.insert(rel, table);
    }

    /// Invalidate cached messages that aggregated `rel`'s annotations
    /// (called after every residual update).
    pub fn bump_epoch(&mut self, rel: RelId) {
        *self.epochs.entry(rel).or_insert(0) += 1;
    }

    /// The physical table a relation currently reads from (lifted copies
    /// override the graph name).
    pub fn table_of(&self, rel: RelId) -> &str {
        self.tables
            .get(&rel)
            .map(String::as_str)
            .unwrap_or_else(|| self.set.graph.name(rel))
    }

    fn annotation_of(&self, rel: RelId) -> Vec<Expr> {
        self.annotations
            .get(&rel)
            .cloned()
            .unwrap_or_else(identity_annotation)
    }

    fn is_identity_annotated(&self, rel: RelId) -> bool {
        self.annotation_of(rel) == identity_annotation()
    }

    /// Relations in the subtree of `from` when the edge to `to` is removed.
    fn subtree(&self, from: RelId, to: RelId) -> Vec<RelId> {
        let g = &self.set.graph;
        let mut seen = vec![from];
        let mut queue = vec![from];
        while let Some(u) = queue.pop() {
            for (v, _) in g.neighbors(u) {
                if v != to && !seen.contains(&v) {
                    seen.push(v);
                    queue.push(v);
                }
            }
        }
        seen.sort_unstable();
        seen
    }

    /// Compute (or fetch from cache) the message `from → to` under the
    /// node's predicate context.
    pub fn message(&mut self, from: RelId, to: RelId, ctx: &NodeContext) -> Result<MsgHandle> {
        let subtree = self.subtree(from, to);
        let key = MessageKey {
            from,
            to,
            signature: ctx.signature_of(&subtree, &self.epochs),
        };
        if let Some(m) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            return Ok(m.clone());
        }
        // Recursively obtain child messages.
        let g = &self.set.graph;
        let children: Vec<RelId> = g
            .neighbors(from)
            .into_iter()
            .map(|(v, _)| v)
            .filter(|&v| v != to)
            .collect();
        let mut full_children: Vec<(RelId, MsgHandle)> = Vec::new();
        let mut semi_children: Vec<(RelId, MsgHandle)> = Vec::new();
        for c in children {
            match self.message(c, from, ctx)? {
                MsgHandle::Identity => {}
                m @ MsgHandle::Semi { .. } => semi_children.push((c, m)),
                m @ MsgHandle::Full { .. } => full_children.push((c, m)),
            }
        }
        let keys: Vec<String> = self
            .set
            .graph
            .join_keys(from, to)
            .ok_or_else(|| TrainError::Graph(format!("no edge between {from} and {to}")))?
            .to_vec();
        // Joining `to` with `from` preserves row counts iff each `to`-row
        // matches exactly one `from`-row (N-to-1 or 1-to-1 seen from `to`).
        let count_preserving = matches!(
            self.set.graph.multiplicity(to, from),
            Some(Multiplicity::ManyToOne) | Some(Multiplicity::OneToOne)
        );
        let has_preds = !ctx.preds_of(from).is_empty();
        let handle = if self.is_identity_annotated(from)
            && !has_preds
            && full_children.is_empty()
            && semi_children.is_empty()
            && count_preserving
        {
            self.stats.identity_drops += 1;
            MsgHandle::Identity
        } else if self.is_identity_annotated(from) && full_children.is_empty() && count_preserving {
            // Semi-join message: just the surviving key values.
            let table = self.materialize_semi_message(from, &keys, &semi_children, ctx)?;
            self.stats.semi_messages += 1;
            MsgHandle::Semi { table, keys }
        } else {
            let table =
                self.materialize_full_message(from, &keys, &full_children, &semi_children, ctx)?;
            MsgHandle::Full { table, keys }
        };
        self.cache.insert(key, handle.clone());
        Ok(handle)
    }

    fn base_from(&self, rel: RelId) -> TableRef {
        TableRef::Named {
            name: self.table_of(rel).to_string(),
            alias: None,
        }
    }

    fn attach_children(
        &self,
        q: &mut Query,
        full_children: &[(RelId, MsgHandle)],
        semi_children: &[(RelId, MsgHandle)],
    ) {
        for (_, m) in full_children {
            if let MsgHandle::Full { table, keys } = m {
                q.joins.push(Join {
                    kind: JoinKind::Inner,
                    table: TableRef::named(table.clone()),
                    using: keys.clone(),
                    on: None,
                });
            }
        }
        for (_, m) in semi_children {
            if let MsgHandle::Semi { table, keys } = m {
                q.joins.push(Join {
                    kind: JoinKind::Semi,
                    table: TableRef::named(table.clone()),
                    using: keys.clone(),
                    on: None,
                });
            }
        }
    }

    fn where_of(&self, rel: RelId, ctx: &NodeContext) -> Option<Expr> {
        Expr::and_all(ctx.preds_of(rel).iter().map(|p| p.expr.clone()))
    }

    /// Composite annotation of a relation joined with its full child
    /// messages (child components qualified by their message table name).
    fn composed_annotation(&self, rel: RelId, full_children: &[(RelId, MsgHandle)]) -> Vec<Expr> {
        let [n0, n1] = self.ring.components();
        // Qualify the base annotation's bare column refs with the physical
        // table name so they cannot collide with message columns.
        let table = self.table_of(rel).to_string();
        let base: Vec<Expr> = self
            .annotation_of(rel)
            .into_iter()
            .map(|e| qualify_expr(e, &table))
            .collect();
        let mut anns = vec![base];
        for (_, m) in full_children {
            if let MsgHandle::Full { table, .. } = m {
                anns.push(vec![
                    Expr::qcol(table.clone(), format!("jb_{n0}")),
                    Expr::qcol(table.clone(), format!("jb_{n1}")),
                ]);
            }
        }
        fold_annotations(&anns)
    }

    fn materialize_semi_message(
        &mut self,
        from: RelId,
        keys: &[String],
        semi_children: &[(RelId, MsgHandle)],
        ctx: &NodeContext,
    ) -> Result<String> {
        let mut q = Query {
            items: keys
                .iter()
                .map(|k| SelectItem::new(Expr::col(k.clone())))
                .collect(),
            from: Some(self.base_from(from)),
            group_by: keys.iter().map(|k| Expr::col(k.clone())).collect(),
            ..Default::default()
        };
        self.attach_children(&mut q, &[], semi_children);
        q.where_clause = self.where_of(from, ctx);
        self.run_create(q, "semi")
    }

    fn materialize_full_message(
        &mut self,
        from: RelId,
        keys: &[String],
        full_children: &[(RelId, MsgHandle)],
        semi_children: &[(RelId, MsgHandle)],
        ctx: &NodeContext,
    ) -> Result<String> {
        let [n0, n1] = self.ring.components();
        let ann = self.composed_annotation(from, full_children);
        let mut items: Vec<SelectItem> = keys
            .iter()
            .map(|k| SelectItem::new(Expr::col(k.clone())))
            .collect();
        items.push(SelectItem::aliased(
            Expr::sum(ann[0].clone()),
            format!("jb_{n0}"),
        ));
        items.push(SelectItem::aliased(
            Expr::sum(ann[1].clone()),
            format!("jb_{n1}"),
        ));
        let mut q = Query {
            items,
            from: Some(self.base_from(from)),
            group_by: keys.iter().map(|k| Expr::col(k.clone())).collect(),
            ..Default::default()
        };
        self.attach_children(&mut q, full_children, semi_children);
        q.where_clause = self.where_of(from, ctx);
        self.run_create(q, "msg")
    }

    fn run_create(&mut self, q: Query, hint: &str) -> Result<String> {
        let name = self.set.fresh_table(hint);
        // Hand the statement to the backend as an AST: backends with the
        // fast path skip print + re-parse entirely, the others serialize.
        let stmt = joinboost_sql::ast::Statement::CreateTableAs {
            name: name.clone(),
            query: q,
            or_replace: false,
        };
        let start = Instant::now();
        self.set
            .db
            .execute_ast(&stmt)
            .map_err(|e| TrainError::Engine(format!("{e} in: {stmt}")))?;
        let dt = start.elapsed();
        self.stats.message_queries += 1;
        self.stats.message_time += dt;
        self.stats.message_durations.push(dt);
        Ok(name)
    }

    /// Build the absorption query at `root`: join `root` with all incoming
    /// messages, apply the node predicates, and aggregate the composed
    /// annotation grouped by a feature of `root` (or globally).
    ///
    /// Output columns: `[val,] c0, c1` aliased to the generic component
    /// names expected by the split queries.
    pub fn absorb(
        &mut self,
        root: RelId,
        group: Option<&GroupSpec>,
        ctx: &NodeContext,
    ) -> Result<Query> {
        let g = &self.set.graph;
        let neighbors: Vec<RelId> = g.neighbors(root).into_iter().map(|(v, _)| v).collect();
        let mut full_children = Vec::new();
        let mut semi_children = Vec::new();
        for n in neighbors {
            match self.message(n, root, ctx)? {
                MsgHandle::Identity => {}
                m @ MsgHandle::Semi { .. } => semi_children.push((n, m)),
                m @ MsgHandle::Full { .. } => full_children.push((n, m)),
            }
        }
        let [n0, n1] = self.ring.components();
        let ann = self.composed_annotation(root, &full_children);
        let mut items = Vec::new();
        if let Some(g) = group {
            items.push(SelectItem::aliased(g.select.clone(), "val"));
        }
        items.push(SelectItem::aliased(Expr::sum(ann[0].clone()), n0));
        items.push(SelectItem::aliased(Expr::sum(ann[1].clone()), n1));
        if let Some(g) = group {
            // A binned absorption also outputs its group key (the bin id),
            // so shards can match groups when the aggregate is fanned out.
            if let Some(alias) = &g.key_alias {
                items.push(SelectItem::aliased(g.group.clone(), alias.clone()));
            }
        }
        let mut q = Query {
            items,
            from: Some(self.base_from(root)),
            group_by: group.map(|g| vec![g.group.clone()]).unwrap_or_default(),
            ..Default::default()
        };
        self.attach_children(&mut q, &full_children, &semi_children);
        let mut preds: Vec<Expr> = ctx.preds_of(root).iter().map(|p| p.expr.clone()).collect();
        if let Some(g) = group {
            // Missing feature values are excluded from split statistics
            // (they follow the split's default branch at prediction time).
            preds.push(Expr::IsNull {
                expr: Box::new(Expr::col(g.feature.clone())),
                negated: true,
            });
        }
        q.where_clause = Expr::and_all(preds);
        Ok(q)
    }

    /// Execute a global (no group-by) absorption and return the two
    /// aggregate components `(c0, c1)` — the node totals.
    pub fn totals(&mut self, root: RelId, ctx: &NodeContext) -> Result<(f64, f64)> {
        let [n0, n1] = self.ring.components();
        let q = self.absorb(root, None, ctx)?;
        let stmt = joinboost_sql::ast::Statement::Select(q);
        let t = self
            .set
            .db
            .execute_ast(&stmt)
            .map_err(|e| TrainError::Engine(format!("{e} in: {stmt}")))?;
        if t.num_rows() == 0 {
            return Ok((0.0, 0.0));
        }
        let c0 = t.scalar_f64(n0).unwrap_or(0.0);
        let c1 = t.scalar_f64(n1).unwrap_or(0.0);
        Ok((c0, c1))
    }

    /// Cache statistics passthrough.
    pub fn cache_stats(&self) -> joinboost_graph::cache::CacheStats {
        self.cache.stats()
    }

    /// Drop every cached message (the `Batch` ablation recomputes messages
    /// per tree node; backing temp tables are cleaned by the dataset).
    pub fn clear_cache(&mut self) {
        let _ = self.cache.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::{Column, Database, Table};
    use joinboost_graph::JoinGraph;

    /// Paper Figure 1 data: R(A,B) target B; S(A,C); T(A,D).
    fn figure1(db: &Database) -> JoinGraph {
        db.create_table(
            "r",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2, 2])),
                ("b", Column::float(vec![2.0, 3.0, 1.0, 2.0])),
            ]),
        )
        .unwrap();
        db.create_table(
            "s",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 2, 2])),
                ("c", Column::int(vec![2, 1, 3])),
            ]),
        )
        .unwrap();
        db.create_table(
            "t",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2])),
                ("d", Column::int(vec![1, 2, 2])),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("r", &[]).unwrap();
        g.add_relation("s", &["c"]).unwrap();
        g.add_relation("t", &["d"]).unwrap();
        g.add_edge_with("r", "s", &["a"], Multiplicity::ManyToMany)
            .unwrap();
        g.add_edge_with("s", "t", &["a"], Multiplicity::ManyToMany)
            .unwrap();
        g
    }

    #[test]
    fn figure1_total_aggregate_is_8_16_36_minus_q() {
        // γ(R ⋈ S ⋈ T) = (8, 16, 36); we track (c, s) = (8, 16).
        let db = Database::in_memory();
        let g = figure1(&db);
        let set = Dataset::new(&db, g, "r", "b").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let target = set.target_rel();
        f.set_annotation(target, vec![Expr::int(1), Expr::col("b")]);
        let (c, s) = f.totals(target, &NodeContext::root()).unwrap();
        assert_eq!((c, s), (8.0, 16.0));
        // M-N chain: both S and T must send full messages (counts change).
        assert_eq!(f.stats.message_queries, 2);
        assert_eq!(f.stats.identity_drops, 0);
    }

    #[test]
    fn figure1c_groupby_c_matches_paper() {
        // γ_C(R⋈): C=1 → (2,3,5), C=2 → (4,10,26), C=3 → (2,3,5).
        let db = Database::in_memory();
        let g = figure1(&db);
        let set = Dataset::new(&db, g, "r", "b").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let target = set.target_rel();
        f.set_annotation(target, vec![Expr::int(1), Expr::col("b")]);
        let s_rel = set.graph.rel_id("s").unwrap();
        let q = f
            .absorb(s_rel, Some(&GroupSpec::plain("c")), &NodeContext::root())
            .unwrap();
        let t = db
            .query(&format!("SELECT * FROM ({q}) AS x ORDER BY val"))
            .unwrap();
        assert_eq!(t.num_rows(), 3);
        let c_col = t.column(None, "c").unwrap();
        let s_col = t.column(None, "s").unwrap();
        assert_eq!(c_col.f64_at(0), Some(2.0));
        assert_eq!(s_col.f64_at(0), Some(3.0));
        assert_eq!(c_col.f64_at(1), Some(4.0));
        assert_eq!(s_col.f64_at(1), Some(10.0));
        assert_eq!(c_col.f64_at(2), Some(2.0));
        assert_eq!(s_col.f64_at(2), Some(3.0));
    }

    /// Star schema: fact(sales) N-1 to two dims.
    fn star(db: &Database) -> JoinGraph {
        db.create_table(
            "fact",
            Table::from_columns(vec![
                ("k1", Column::int(vec![1, 1, 2, 2])),
                ("k2", Column::int(vec![1, 2, 1, 2])),
                ("y", Column::float(vec![1.0, 2.0, 3.0, 4.0])),
            ]),
        )
        .unwrap();
        db.create_table(
            "d1",
            Table::from_columns(vec![
                ("k1", Column::int(vec![1, 2])),
                ("f1", Column::int(vec![10, 20])),
            ]),
        )
        .unwrap();
        db.create_table(
            "d2",
            Table::from_columns(vec![
                ("k2", Column::int(vec![1, 2])),
                ("f2", Column::int(vec![7, 8])),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("fact", &[]).unwrap();
        g.add_relation("d1", &["f1"]).unwrap();
        g.add_relation("d2", &["f2"]).unwrap();
        g.add_edge("fact", "d1", &["k1"]).unwrap();
        g.add_edge("fact", "d2", &["k2"]).unwrap();
        g
    }

    #[test]
    fn star_dims_send_identity_messages() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let (c, s) = f.totals(fact, &NodeContext::root()).unwrap();
        assert_eq!((c, s), (4.0, 10.0));
        // No predicates, identity dims, N-1 edges → zero message queries.
        assert_eq!(f.stats.message_queries, 0);
        assert_eq!(f.stats.identity_drops, 2);
    }

    #[test]
    fn predicate_on_dim_becomes_semijoin_message() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let d1 = set.graph.rel_id("d1").unwrap();
        let split = Split {
            feature: "f1".into(),
            relation: "d1".into(),
            cond: SplitCondition::LtEq(10.0),
            default_left: false,
        };
        let ctx = NodeContext::root().with_pred(d1, Pred::from_split(&split, false));
        let (c, s) = f.totals(fact, &ctx).unwrap();
        // f1 <= 10 → k1 = 1 → rows (1,1) and (1,2): c=2, s=3.
        assert_eq!((c, s), (2.0, 3.0));
        assert_eq!(f.stats.semi_messages, 1);
        // The other dim is still identity-dropped.
        assert_eq!(f.stats.identity_drops, 1);
        assert_eq!(
            f.stats.message_queries, 1,
            "only the semi message materializes"
        );
    }

    #[test]
    fn absorb_at_dim_pulls_fact_message() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let d1 = set.graph.rel_id("d1").unwrap();
        let q = f
            .absorb(d1, Some(&GroupSpec::plain("f1")), &NodeContext::root())
            .unwrap();
        let t = db
            .query(&format!("SELECT * FROM ({q}) AS x ORDER BY val"))
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        // f1 = 10 → k1 = 1 → (2, 3); f1 = 20 → k1 = 2 → (2, 7).
        assert_eq!(t.column(None, "s").unwrap().f64_at(0), Some(3.0));
        assert_eq!(t.column(None, "s").unwrap().f64_at(1), Some(7.0));
        // The fact's message to d1 is a full message (it carries y sums).
        assert_eq!(f.stats.message_queries, 1);
    }

    #[test]
    fn message_cache_reuses_across_nodes() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let d1 = set.graph.rel_id("d1").unwrap();
        let ctx = NodeContext::root();
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx).unwrap();
        let queries_before = f.stats.message_queries;
        // Same context again (another feature on the same relation):
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx).unwrap();
        assert_eq!(f.stats.message_queries, queries_before, "cache hit");
        assert!(f.stats.cache_hits >= 1);
        // A predicate on d2 invalidates the fact→d1 message (d2 is in its
        // subtree) but a predicate on d1 itself does not.
        let d2 = set.graph.rel_id("d2").unwrap();
        let split = Split {
            feature: "f2".into(),
            relation: "d2".into(),
            cond: SplitCondition::LtEq(7.0),
            default_left: false,
        };
        let ctx2 = ctx.with_pred(d2, Pred::from_split(&split, false));
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx2).unwrap();
        assert!(f.stats.message_queries > queries_before);
    }

    #[test]
    fn epoch_bump_invalidates_fact_messages() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let d1 = set.graph.rel_id("d1").unwrap();
        let ctx = NodeContext::root();
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx).unwrap();
        let before = f.stats.message_queries;
        f.bump_epoch(fact);
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx).unwrap();
        assert!(f.stats.message_queries > before, "epoch forces recompute");
    }
}
