//! Criterion bench for E11: per-world oracle vs columnar batch evaluation
//! of the universal inner loop, on plan-heavy and model-bound simulations.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jigsaw_bench::experiments::user_catalog;
use jigsaw_blackbox::{ParamDecl, ParamSpace};
use jigsaw_pdb::{
    eval_window_on, AggFunc, AggSpec, DbmsEngine, DirectEngine, Engine, EvalPath, Expr, Plan,
    PlanSim,
};
use jigsaw_prng::SeedSet;

/// The data-bound aggregate plan over 500 users — per-world tuple work is
/// where the columnar layout earns its keep.
fn user_sim(engine: Arc<dyn Engine>) -> PlanSim {
    let catalog = Arc::new(user_catalog(500));
    let plan = Plan::Scan { table: "users".into() }
        .project(vec![(
            "req",
            Expr::call(
                "UserReq",
                vec![
                    Expr::col("id"),
                    Expr::col("base"),
                    Expr::col("growth"),
                    Expr::col("shape"),
                    Expr::param("week"),
                ],
            ),
        )])
        .aggregate(
            vec![],
            vec![
                AggSpec { name: "total".into(), func: AggFunc::Sum, arg: Some(Expr::col("req")) },
                AggSpec { name: "peak".into(), func: AggFunc::Max, arg: Some(Expr::col("req")) },
            ],
        )
        .bind(&catalog, &["week".to_string()])
        .unwrap();
    let space = ParamSpace::new(vec![ParamDecl::range("week", 0, 51, 1)]);
    PlanSim::new(engine, plan, catalog, space, SeedSet::new(7))
}

fn world_batch(c: &mut Criterion) {
    for (engine_name, sim) in [
        ("direct", user_sim(Arc::new(DirectEngine::new()))),
        ("dbms", user_sim(Arc::new(DbmsEngine::new()))),
    ] {
        let mut group = c.benchmark_group(format!("world_batch/user_agg_{engine_name}"));
        for path in [EvalPath::Oracle, EvalPath::Columnar] {
            group.bench_function(BenchmarkId::from_parameter(format!("{path:?}")), |b| {
                b.iter(|| eval_window_on(&sim, &[26.0], 0, 100, path).unwrap())
            });
        }
        group.finish();
    }
}

criterion_group!(benches, world_batch);
criterion_main!(benches);
