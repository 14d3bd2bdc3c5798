//! SQL generation: symbolic semi-ring algebra, split-criteria queries
//! (paper Example 2 / Appendix A) and per-objective gradient/Hessian
//! expressions (Appendix B, Table 3).
//!
//! JoinBoost's Semi-ring Library "translates math expressions in the
//! compiler-generated queries (×, +, lift) into SQL aggregation functions"
//! (Section 5.2). Here that translation is purely symbolic: annotations
//! are vectors of [`Expr`]s and `⊗` composes them with constant folding,
//! so identity annotations vanish from the generated SQL.

use joinboost_semiring::Objective;
use joinboost_sql::ast::{BinaryOp, Expr, OrderByItem, Query, SelectItem, TableRef, Value};

/// Which aggregate pair drives training.
///
/// The paper shows `q` need not be materialized for the variance ring
/// (Section 5.3.1), so both rings reduce to two components with the *same*
/// bilinear `⊗` table: `(a₀,a₁) ⊗ (b₀,b₁) = (a₀b₀, a₁b₀ + a₀b₁)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingKind {
    /// `(c, s)` — count and sum of the (residual) target. Criterion:
    /// reduction in variance. Leaf value: `s/c`.
    Variance,
    /// `(h, g)` — Hessian and gradient sums. Criterion: second-order
    /// gain. Leaf value: `−g/(h+λ)`.
    Gradient,
}

impl RingKind {
    /// Component column suffixes, in storage order.
    pub fn components(self) -> [&'static str; 2] {
        match self {
            RingKind::Variance => ["c", "s"],
            RingKind::Gradient => ["h", "g"],
        }
    }
}

/// Is this expression the literal `0` / `1`?
fn is_zero(e: &Expr) -> bool {
    match e {
        Expr::Literal(Value::Int(0)) => true,
        Expr::Literal(Value::Float(v)) => *v == 0.0,
        _ => false,
    }
}

fn is_one(e: &Expr) -> bool {
    match e {
        Expr::Literal(Value::Int(1)) => true,
        Expr::Literal(Value::Float(v)) => *v == 1.0,
        _ => false,
    }
}

/// `a * b` with constant folding of 0/1 factors.
pub fn fold_mul(a: &Expr, b: &Expr) -> Expr {
    if is_zero(a) || is_zero(b) {
        return Expr::int(0);
    }
    if is_one(a) {
        return b.clone();
    }
    if is_one(b) {
        return a.clone();
    }
    Expr::mul(a.clone(), b.clone())
}

/// `a + b` with constant folding of 0 terms.
pub fn fold_add(a: Expr, b: Expr) -> Expr {
    if is_zero(&a) {
        return b;
    }
    if is_zero(&b) {
        return a;
    }
    Expr::add(a, b)
}

/// The identity annotation `1̄ = (1, 0)`.
pub fn identity_annotation() -> Vec<Expr> {
    vec![Expr::int(1), Expr::int(0)]
}

/// Symbolic `⊗` of two 2-component annotations:
/// `(a₀b₀, a₁b₀ + a₀b₁)`, with identity factors folded away.
pub fn symbolic_mul(a: &[Expr], b: &[Expr]) -> Vec<Expr> {
    debug_assert_eq!(a.len(), 2);
    debug_assert_eq!(b.len(), 2);
    vec![
        fold_mul(&a[0], &b[0]),
        fold_add(fold_mul(&a[1], &b[0]), fold_mul(&a[0], &b[1])),
    ]
}

/// `⊗`-fold a list of annotations (identity if empty).
pub fn fold_annotations(anns: &[Vec<Expr>]) -> Vec<Expr> {
    let mut acc = identity_annotation();
    for a in anns {
        acc = symbolic_mul(&acc, a);
    }
    acc
}

/// Variance-reduction criterion over columns `(c, s)` with node totals
/// `(c_total, s_total)` interpolated as constants (paper Example 2):
///
/// `−(S/C)·S + (s/c)·s + ((S−s)/(C−c))·(S−s)`
pub fn variance_criterion(c_total: f64, s_total: f64) -> Expr {
    let c = Expr::col("c");
    let s = Expr::col("s");
    let ct = Expr::float(c_total);
    let st = Expr::float(s_total);
    let term_total = Expr::mul(Expr::neg(Expr::div(st.clone(), ct.clone())), st.clone());
    let term_left = Expr::mul(Expr::div(s.clone(), c.clone()), s.clone());
    let s_r = Expr::sub(st, s);
    let c_r = Expr::sub(ct, c);
    let term_right = Expr::mul(Expr::div(s_r.clone(), c_r), s_r);
    Expr::add(Expr::add(term_total, term_left), term_right)
}

/// Second-order gain criterion over columns `(h, g)` with node totals and
/// regularization λ (Appendix B; the constant 0.5 factor and the α offset
/// are applied by the trainer — they do not change the argmax):
///
/// `g²/(h+λ) + (G−g)²/(H−h+λ) − G²/(H+λ)`
pub fn gradient_criterion(h_total: f64, g_total: f64, lambda: f64) -> Expr {
    let h = Expr::col("h");
    let g = Expr::col("g");
    let term = |gn: Expr, hd: Expr| -> Expr {
        // (gn / hd) * gn  — the paper's overflow-safe form of gn²/hd.
        Expr::mul(Expr::div(gn.clone(), hd), gn)
    };
    let left = term(g.clone(), Expr::add(h.clone(), Expr::float(lambda)));
    let right = term(
        Expr::sub(Expr::float(g_total), g),
        Expr::add(Expr::sub(Expr::float(h_total), h), Expr::float(lambda)),
    );
    let total = term(Expr::float(g_total), Expr::float(h_total + lambda));
    Expr::sub(Expr::add(left, right), total)
}

/// Totals of a node, as `(component0, component1)` = `(C,S)` or `(H,G)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTotals {
    /// First component (`C` count or `H` Hessian sum).
    pub c0: f64,
    /// Second component (`S` target sum or `G` gradient sum).
    pub c1: f64,
}

/// Build the best-split query for a **numeric** feature (Example 2):
/// window prefix sums over the per-value aggregates, criteria, argmax.
///
/// `absorbed` must produce columns `val, c0, c1` (one row per distinct
/// feature value, ordered arbitrarily). The middle layer orders its rows
/// by `val`, so criteria ties resolve to the smallest value on *every*
/// backend regardless of the absorbed row order (group scan order on the
/// engine, merge order on a sharded backend).
pub fn numeric_split_query(
    absorbed: Query,
    ring: RingKind,
    totals: NodeTotals,
    lambda: f64,
    min_leaf: f64,
) -> Query {
    let [n0, n1] = ring.components();
    // Middle: running prefix sums ordered by value.
    let middle = Query {
        items: vec![
            SelectItem::new(Expr::col("val")),
            SelectItem::aliased(
                Expr::WindowSum {
                    arg: Box::new(Expr::col(n0)),
                    order_by: Box::new(Expr::col("val")),
                },
                n0,
            ),
            SelectItem::aliased(
                Expr::WindowSum {
                    arg: Box::new(Expr::col(n1)),
                    order_by: Box::new(Expr::col("val")),
                },
                n1,
            ),
        ],
        from: Some(TableRef::Subquery {
            query: Box::new(absorbed),
            alias: Some("g".into()),
        }),
        order_by: vec![OrderByItem {
            expr: Expr::col("val"),
            desc: false,
        }],
        ..Default::default()
    };
    outer_split_query(middle, ring, totals, lambda, min_leaf)
}

/// Build the best-split query for a **categorical** feature: per-value
/// aggregates directly, no prefix sums. Rows are ordered by `val` for the
/// same backend-independent tie-breaking as the numeric query.
pub fn categorical_split_query(
    absorbed: Query,
    ring: RingKind,
    totals: NodeTotals,
    lambda: f64,
    min_leaf: f64,
) -> Query {
    let [n0, n1] = ring.components();
    let middle = Query {
        items: vec![
            SelectItem::new(Expr::col("val")),
            SelectItem::new(Expr::col(n0)),
            SelectItem::new(Expr::col(n1)),
        ],
        from: Some(TableRef::Subquery {
            query: Box::new(absorbed),
            alias: Some("g".into()),
        }),
        order_by: vec![OrderByItem {
            expr: Expr::col("val"),
            desc: false,
        }],
        ..Default::default()
    };
    outer_split_query(middle, ring, totals, lambda, min_leaf)
}

fn outer_split_query(
    middle: Query,
    ring: RingKind,
    totals: NodeTotals,
    lambda: f64,
    min_leaf: f64,
) -> Query {
    let [n0, n1] = ring.components();
    // Aliases inside the criteria are the generic (c, s)/(h, g) names.
    let criteria = match ring {
        RingKind::Variance => variance_criterion(totals.c0, totals.c1),
        RingKind::Gradient => gradient_criterion(totals.c0, totals.c1, lambda),
    };
    // The left-side weight (c or h) must leave at least `min_leaf` on both
    // sides (degenerate boundary splits are filtered here, matching the
    // division-by-zero NULL semantics).
    let guard = Expr::and(
        Expr::binary(BinaryOp::GtEq, Expr::col(n0), Expr::float(min_leaf)),
        Expr::binary(
            BinaryOp::GtEq,
            Expr::sub(Expr::float(totals.c0), Expr::col(n0)),
            Expr::float(min_leaf),
        ),
    );
    Query {
        items: vec![
            SelectItem::new(Expr::col("val")),
            SelectItem::new(Expr::col(n0)),
            SelectItem::new(Expr::col(n1)),
            SelectItem::aliased(criteria, "criteria"),
        ],
        from: Some(TableRef::Subquery {
            query: Box::new(middle),
            alias: Some("w".into()),
        }),
        where_clause: Some(guard),
        order_by: vec![OrderByItem {
            expr: Expr::col("criteria"),
            desc: true,
        }],
        limit: Some(1),
        ..Default::default()
    }
}

/// SQL expression for the gradient of `objective` given column expressions
/// for the target `y` and the raw prediction `p` (Table 3).
pub fn gradient_sql(objective: &Objective, y: Expr, p: Expr) -> Expr {
    let e = || Expr::sub(y.clone(), p.clone()); // ε = y − p
    match *objective {
        Objective::SquaredError => Expr::sub(p.clone(), y.clone()),
        Objective::AbsoluteError => Expr::func("SIGN", vec![Expr::sub(p.clone(), y.clone())]),
        Objective::Huber { delta } => Expr::Case {
            whens: vec![(
                Expr::binary(
                    BinaryOp::LtEq,
                    Expr::func("ABS", vec![e()]),
                    Expr::float(delta),
                ),
                Expr::sub(p.clone(), y.clone()),
            )],
            else_expr: Some(Box::new(Expr::mul(
                Expr::float(delta),
                Expr::func("SIGN", vec![Expr::sub(p.clone(), y.clone())]),
            ))),
        },
        Objective::Fair { c } => Expr::div(
            Expr::mul(Expr::float(c), Expr::sub(p.clone(), y.clone())),
            Expr::add(Expr::func("ABS", vec![e()]), Expr::float(c)),
        ),
        Objective::Poisson => Expr::sub(Expr::func("EXP", vec![p.clone()]), y.clone()),
        Objective::Quantile { alpha } => Expr::Case {
            whens: vec![(
                Expr::binary(BinaryOp::Lt, e(), Expr::int(0)),
                Expr::float(1.0 - alpha),
            )],
            else_expr: Some(Box::new(Expr::float(-alpha))),
        },
        Objective::Mape => Expr::div(
            Expr::func("SIGN", vec![Expr::sub(p.clone(), y.clone())]),
            Expr::func(
                "GREATEST",
                vec![Expr::func("ABS", vec![y.clone()]), Expr::int(1)],
            ),
        ),
        Objective::Logistic => Expr::sub(sigmoid_sql(p.clone()), y.clone()),
    }
}

/// SQL expression for the Hessian of `objective` (Table 3).
pub fn hessian_sql(objective: &Objective, y: Expr, p: Expr) -> Expr {
    match *objective {
        Objective::SquaredError
        | Objective::AbsoluteError
        | Objective::Huber { .. }
        | Objective::Quantile { .. }
        | Objective::Mape => Expr::int(1),
        Objective::Fair { c } => {
            let denom = Expr::add(
                Expr::func("ABS", vec![Expr::sub(y.clone(), p.clone())]),
                Expr::float(c),
            );
            Expr::div(Expr::float(c * c), Expr::mul(denom.clone(), denom))
        }
        Objective::Poisson => Expr::func("EXP", vec![p]),
        Objective::Logistic => {
            let s = sigmoid_sql(p);
            Expr::func(
                "GREATEST",
                vec![
                    Expr::mul(s.clone(), Expr::sub(Expr::float(1.0), s)),
                    Expr::float(1e-16),
                ],
            )
        }
    }
}

fn sigmoid_sql(p: Expr) -> Expr {
    Expr::div(
        Expr::float(1.0),
        Expr::add(Expr::float(1.0), Expr::func("EXP", vec![Expr::neg(p)])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::{Column, Database, Table};

    #[test]
    fn symbolic_mul_folds_identity() {
        let lifted = vec![Expr::int(1), Expr::col("jb_s")];
        let id = identity_annotation();
        let prod = symbolic_mul(&lifted, &id);
        assert_eq!(prod, lifted, "identity must vanish");
        let msg = vec![Expr::col("c"), Expr::col("s")];
        let prod = symbolic_mul(&lifted, &msg);
        assert_eq!(prod[0].to_string(), "c");
        assert_eq!(prod[1].to_string(), "jb_s * c + s");
    }

    #[test]
    fn fold_annotations_of_identities_is_identity() {
        let anns = vec![identity_annotation(), identity_annotation()];
        assert_eq!(fold_annotations(&anns), identity_annotation());
    }

    #[test]
    fn variance_criterion_prints_like_paper() {
        let e = variance_criterion(8.0, 16.0);
        let sql = e.to_string();
        assert!(sql.contains("s / c"), "{sql}");
        assert!(sql.contains("16.0"), "{sql}");
    }

    #[test]
    fn numeric_split_query_runs_on_engine() {
        // Per-value aggregates: values 1..4 with c=1 and s=v; the best
        // split of s-values [1,2,5,6] is between 2 and 5 → val <= 2.
        let db = Database::in_memory();
        db.create_table(
            "g0",
            Table::from_columns(vec![
                ("val", Column::int(vec![1, 2, 3, 4])),
                ("c", Column::int(vec![1, 1, 1, 1])),
                ("s", Column::float(vec![1.0, 2.0, 5.0, 6.0])),
            ]),
        )
        .unwrap();
        let absorbed = joinboost_sql::parse_query("SELECT val, c, s FROM g0").unwrap();
        let q = numeric_split_query(
            absorbed,
            RingKind::Variance,
            NodeTotals { c0: 4.0, c1: 14.0 },
            0.0,
            1.0,
        );
        let t = db.query(&q.to_string()).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(
            t.column(None, "val").unwrap().get(0),
            joinboost_engine::Datum::Int(2)
        );
        assert_eq!(t.scalar_f64("c").unwrap(), 2.0);
        assert_eq!(t.scalar_f64("s").unwrap(), 3.0);
        // criteria = −14²/4 + 3²/2 + 11²/2 = −49 + 4.5 + 60.5 = 16.
        assert!((t.scalar_f64("criteria").unwrap() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn categorical_split_query_runs_on_engine() {
        let db = Database::in_memory();
        db.create_table(
            "g0",
            Table::from_columns(vec![
                ("val", Column::int(vec![10, 20, 30])),
                ("c", Column::int(vec![2, 2, 2])),
                ("s", Column::float(vec![2.0, 2.0, 10.0])),
            ]),
        )
        .unwrap();
        let absorbed = joinboost_sql::parse_query("SELECT val, c, s FROM g0").unwrap();
        let q = categorical_split_query(
            absorbed,
            RingKind::Variance,
            NodeTotals { c0: 6.0, c1: 14.0 },
            0.0,
            1.0,
        );
        let t = db.query(&q.to_string()).unwrap();
        assert_eq!(
            t.column(None, "val").unwrap().get(0),
            joinboost_engine::Datum::Int(30)
        );
    }

    #[test]
    fn gradient_and_hessian_sql_match_rust_losses() {
        let db = Database::in_memory();
        db.create_table(
            "d",
            Table::from_columns(vec![
                ("y", Column::float(vec![3.0, 0.0, 1.0, 5.0, 2.0])),
                ("p", Column::float(vec![1.0, 2.0, 0.3, 4.9, -1.0])),
            ]),
        )
        .unwrap();
        let objectives = [
            Objective::SquaredError,
            Objective::AbsoluteError,
            Objective::Huber { delta: 1.0 },
            Objective::Fair { c: 2.0 },
            Objective::Poisson,
            Objective::Quantile { alpha: 0.9 },
            Objective::Mape,
        ];
        for obj in objectives {
            let gsql = gradient_sql(&obj, Expr::col("y"), Expr::col("p"));
            let hsql = hessian_sql(&obj, Expr::col("y"), Expr::col("p"));
            let t = db
                .query(&format!("SELECT y, p, {gsql} AS g, {hsql} AS h FROM d"))
                .unwrap();
            for i in 0..t.num_rows() {
                let y = t.column(None, "y").unwrap().f64_at(i).unwrap();
                let p = t.column(None, "p").unwrap().f64_at(i).unwrap();
                let g = t.column(None, "g").unwrap().f64_at(i).unwrap();
                let h = t.column(None, "h").unwrap().f64_at(i).unwrap();
                assert!(
                    (g - obj.gradient(y, p)).abs() < 1e-9,
                    "{} gradient at ({y},{p}): sql {g} rust {}",
                    obj.name(),
                    obj.gradient(y, p)
                );
                assert!(
                    (h - obj.hessian(y, p)).abs() < 1e-9,
                    "{} hessian at ({y},{p})",
                    obj.name()
                );
            }
        }
    }

    #[test]
    fn logistic_sql_matches_rust() {
        let db = Database::in_memory();
        db.create_table(
            "d",
            Table::from_columns(vec![
                ("y", Column::float(vec![0.0, 1.0, 1.0])),
                ("p", Column::float(vec![0.5, -2.0, 3.0])),
            ]),
        )
        .unwrap();
        let obj = Objective::Logistic;
        let gsql = gradient_sql(&obj, Expr::col("y"), Expr::col("p"));
        let hsql = hessian_sql(&obj, Expr::col("y"), Expr::col("p"));
        let t = db
            .query(&format!("SELECT y, p, {gsql} AS g, {hsql} AS h FROM d"))
            .unwrap();
        for i in 0..t.num_rows() {
            let y = t.column(None, "y").unwrap().f64_at(i).unwrap();
            let p = t.column(None, "p").unwrap().f64_at(i).unwrap();
            assert!(
                (t.column(None, "g").unwrap().f64_at(i).unwrap() - obj.gradient(y, p)).abs() < 1e-9
            );
            assert!(
                (t.column(None, "h").unwrap().f64_at(i).unwrap() - obj.hessian(y, p)).abs() < 1e-9
            );
        }
    }
}
