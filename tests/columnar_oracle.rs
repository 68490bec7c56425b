//! Columnar-vs-oracle bit-identity — the acceptance property of the
//! columnar world-evaluation path.
//!
//! The columnar kernels are a *layout* change, never a different
//! computation: they perform the same floating-point operations in the
//! same order as the per-world oracle loops. These tests pin that claim
//! over every axis that could break it: simulation shape (black box vs
//! both plan engines, det/stoch columns, stochastic filters, every
//! aggregate), thread budget, worker pool, window offset, and explicit
//! evaluation path. Equality is always on `f64::to_bits` — `Vec<f64>` `==` would
//! falsely reject worlds where a stochastic filter drops every row (the
//! Min/Max/Avg of an empty world is NaN, identically, on both paths).

use std::sync::Arc;

use jigsaw::blackbox::{FnBlackBox, ParamDecl, ParamSpace};
use jigsaw::pdb::{
    eval_window_on, AggFunc, AggSpec, BinOp, BlackBoxSim, Catalog, CmpOp, ColumnType, DbmsEngine,
    DirectEngine, Engine, EvalPath, Expr, Plan, PlanSim, Simulation, TableBuilder, Value,
};
use jigsaw::prng::dist::Normal;
use jigsaw::prng::{SeedSet, Xoshiro256pp};
use proptest::prelude::*;

mod common;
use common::{eval_one, pools};

/// Thread budgets every comparison runs under (1 = sequential reference;
/// 16 exceeds the window size in many cases, exercising the clamp).
const BUDGETS: [usize; 5] = [1, 2, 4, 8, 16];

/// A stochastic black box: affine-in-`p` mean and spread over a shared
/// standard normal draw.
fn bb_sim(master: u64) -> BlackBoxSim {
    let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 19, 1)]);
    let bb = FnBlackBox::new("F", 1, |p: &[f64], seed| {
        let mut rng = Xoshiro256pp::seeded(seed);
        let z = Normal::standard(&mut rng);
        (1.5 + 0.25 * p[0]) + (0.5 + 0.1 * p[0]) * z
    });
    BlackBoxSim::new(Arc::new(bb), space, SeedSet::new(master))
}

fn plan_catalog() -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.add_function(Arc::new(FnBlackBox::new("Noise", 1, |p: &[f64], seed| {
        let mut rng = Xoshiro256pp::seeded(seed);
        p[0] + Normal::standard(&mut rng)
    })));
    c.add_table(
        "items",
        TableBuilder::new()
            .column("id", ColumnType::Int)
            .column("grp", ColumnType::Int)
            .column("w", ColumnType::Float)
            .row(vec![Value::Int(1), Value::Int(0), Value::Float(1.0)])
            .row(vec![Value::Int(2), Value::Int(0), Value::Float(2.0)])
            .row(vec![Value::Int(3), Value::Int(1), Value::Float(3.0)])
            .row(vec![Value::Int(4), Value::Int(1), Value::Float(4.0)])
            .build(),
    );
    Arc::new(c)
}

/// A plan hitting every columnar kernel: a black-box call with a mixed
/// det/stoch argument, arithmetic and comparison over stochastic columns,
/// a *stochastic* filter (per-world presence masks), and all five
/// aggregate functions over both masked and unmasked operands.
fn plan_sim(engine: Arc<dyn Engine>, master: u64) -> PlanSim {
    let cat = plan_catalog();
    let space = ParamSpace::new(vec![ParamDecl::range("x", 0, 3, 1)]);
    let plan = Plan::Scan { table: "items".into() }
        .project(vec![
            (
                "noisy",
                Expr::call("Noise", vec![Expr::bin(BinOp::Add, Expr::col("w"), Expr::param("x"))]),
            ),
            ("w", Expr::col("w")),
        ])
        .project(vec![
            ("noisy", Expr::col("noisy")),
            ("scaled", Expr::bin(BinOp::Mul, Expr::col("noisy"), Expr::lit_f(1.5))),
            ("hot", Expr::cmp(CmpOp::Gt, Expr::col("noisy"), Expr::col("w"))),
        ])
        .filter(Expr::cmp(CmpOp::Lt, Expr::col("noisy"), Expr::lit_f(6.0)))
        .aggregate(
            vec![],
            vec![
                AggSpec {
                    name: "total".into(),
                    func: AggFunc::Sum,
                    arg: Some(Expr::col("scaled")),
                },
                AggSpec { name: "lo".into(), func: AggFunc::Min, arg: Some(Expr::col("noisy")) },
                AggSpec { name: "hi".into(), func: AggFunc::Max, arg: Some(Expr::col("noisy")) },
                AggSpec { name: "mean".into(), func: AggFunc::Avg, arg: Some(Expr::col("noisy")) },
                AggSpec { name: "hots".into(), func: AggFunc::Sum, arg: Some(Expr::col("hot")) },
                AggSpec { name: "n".into(), func: AggFunc::Count, arg: None },
            ],
        )
        .bind(&cat, &["x".to_string()])
        .unwrap();
    PlanSim::new(engine, plan, cat, space, SeedSet::new(master))
}

/// Bit patterns of every world in every column — the equality that treats
/// NaN as equal to itself (same bits) and nothing else.
fn bits(columns: &[Vec<f64>]) -> Vec<Vec<u64>> {
    columns.iter().map(|col| col.iter().map(|x| x.to_bits()).collect()).collect()
}

/// Both explicit paths at every budget on every pool must reproduce the
/// sequential per-world oracle bit-for-bit — and windows must compose:
/// `[start, mid)` stitched with `[mid, start+count)` equals
/// `[start, start+count)`.
fn assert_paths_agree(sim: &dyn Simulation, point: &[f64], start: usize, count: usize) {
    let oracle = bits(&sim.eval_worlds(point, start, count).expect("oracle evaluates"));
    for (name, pool) in pools() {
        for &threads in &BUDGETS {
            for path in [EvalPath::Columnar, EvalPath::Oracle] {
                let what = format!("{name} threads={threads} {path:?} start={start} count={count}");
                let batch = eval_one(sim, point, start, count, threads, pool, path)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(batch.n_worlds(), count, "{what}");
                assert_eq!(bits(batch.columns()), oracle, "{what}");
            }
        }
    }
    let mid = count / 2;
    let mut stitched = eval_window_on(sim, point, start, mid, EvalPath::Columnar).unwrap();
    stitched
        .extend(eval_window_on(sim, point, start + mid, count - mid, EvalPath::Columnar).unwrap());
    assert_eq!(bits(stitched.columns()), oracle, "window composition start={start} count={count}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn black_box_columnar_matches_oracle(
        master in 0u64..500,
        point in 0.0f64..19.0,
        start in 0usize..40,
        count in 0usize..70,
    ) {
        let sim = bb_sim(master);
        assert_paths_agree(&sim, &[point.floor()], start, count);
    }

    #[test]
    fn plan_columnar_matches_oracle_on_both_engines(
        master in 0u64..200,
        x in 0i64..4,
        start in 0usize..20,
        count in 0usize..80,
    ) {
        let direct = plan_sim(Arc::new(DirectEngine::new()), master);
        let dbms = plan_sim(Arc::new(DbmsEngine::new()), master);
        let point = [x as f64];
        assert_paths_agree(&direct, &point, start, count);
        assert_paths_agree(&dbms, &point, start, count);
        // And the engines agree with each other, as ever.
        let a = bits(&direct.eval_worlds(&point, start, count).unwrap());
        let b = bits(&dbms.eval_worlds(&point, start, count).unwrap());
        prop_assert_eq!(a, b, "engines diverged");
    }
}

/// The fixed corner cases proptest ranges can miss: empty windows, a
/// one-world window, and a budget far above the window size.
#[test]
fn corner_windows_agree_everywhere() {
    let sims: Vec<Box<dyn Simulation>> = vec![
        Box::new(bb_sim(21)),
        Box::new(plan_sim(Arc::new(DirectEngine::new()), 21)),
        Box::new(plan_sim(Arc::new(DbmsEngine::new()), 21)),
    ];
    for sim in &sims {
        for (start, count) in [(0, 0), (7, 0), (0, 1), (3, 1), (0, 64), (9, 33)] {
            assert_paths_agree(sim.as_ref(), &[1.0], start, count);
        }
    }
}
