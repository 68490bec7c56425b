//! E11 — per-world vs columnar world evaluation (reproduction extension,
//! not a paper figure).
//!
//! The columnar path restructures the universal inner loop — evaluate the
//! query in worlds `start..start+count` — from per-world `BundleCell`
//! dispatch into contiguous per-column `f64` slices. This experiment
//! measures both paths through [`eval_windows`] on the same plan-heavy
//! workloads (cheap models, so expression and aggregate work dominates —
//! exactly where layout matters) and verifies the acceptance property:
//! the outputs are **bit-identical**, world for world.

use std::sync::Arc;
use std::time::Instant;

use jigsaw_blackbox::{FnBlackBox, ParamDecl, ParamSpace};
use jigsaw_core::{eval_windows, EvalJob, ScopedPool};
use jigsaw_pdb::{
    AggFunc, AggSpec, BinOp, BlackBoxSim, Catalog, CmpOp, ColumnType, DbmsEngine, DirectEngine,
    Engine, EvalPath, Expr, Plan, PlanSim, Simulation, TableBuilder, Value, WorldBatch,
};
use jigsaw_prng::dist::Normal;
use jigsaw_prng::{SeedSet, Xoshiro256pp};

use crate::table::{fmt_ratio, fmt_secs, Table};
use crate::Scale;

use super::MASTER_SEED;

/// One (simulation, thread-budget) measurement.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Simulation under test.
    pub sim: &'static str,
    /// Thread budget handed to [`eval_windows`].
    pub threads: usize,
    /// Wall-clock seconds for the per-world oracle path.
    pub oracle_secs: f64,
    /// Wall-clock seconds for the columnar path.
    pub columnar_secs: f64,
    /// `oracle_secs / columnar_secs`.
    pub speedup: f64,
    /// Whether the two paths produced bit-identical worlds.
    pub identical: bool,
}

/// Thread budgets measured (1 isolates the kernel effect; 4 shows the
/// paths compose identically with window-parallel evaluation).
pub const BUDGETS: [usize; 2] = [1, 4];

fn plan_catalog(rows: usize) -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.add_function(Arc::new(FnBlackBox::new("Noise", 1, |p: &[f64], seed| {
        let mut rng = Xoshiro256pp::seeded(seed);
        p[0] + Normal::standard(&mut rng)
    })));
    let mut builder = TableBuilder::new()
        .column("id", ColumnType::Int)
        .column("grp", ColumnType::Int)
        .column("w", ColumnType::Float);
    for i in 0..rows {
        builder = builder.row(vec![
            Value::Int(i as i64),
            Value::Int((i % 4) as i64),
            Value::Float(1.0 + (i % 7) as f64 * 0.5),
        ]);
    }
    c.add_table("items", builder.build());
    Arc::new(c)
}

/// The measured plan: black-box calls over a mixed det/stoch argument,
/// arithmetic, a comparison, a stochastic filter, and all five aggregates
/// — every kernel the columnar path implements.
fn plan_sim(engine: Arc<dyn Engine>, rows: usize) -> PlanSim {
    let cat = plan_catalog(rows);
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
        .filter(Expr::cmp(CmpOp::Lt, Expr::col("noisy"), Expr::lit_f(8.0)))
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
                AggSpec { name: "n".into(), func: AggFunc::Count, arg: None },
            ],
        )
        .bind(&cat, &["x".to_string()])
        .expect("plan binds");
    PlanSim::new(engine, plan, cat, space, SeedSet::new(MASTER_SEED))
}

fn black_box_sim() -> BlackBoxSim {
    let space = ParamSpace::new(vec![ParamDecl::range("x", 0, 3, 1)]);
    let bb = FnBlackBox::new("F", 1, |p: &[f64], seed| {
        let mut rng = Xoshiro256pp::seeded(seed);
        (2.0 + p[0]) + (0.5 + 0.1 * p[0]) * Normal::standard(&mut rng)
    });
    BlackBoxSim::new(Arc::new(bb), space, SeedSet::new(MASTER_SEED))
}

/// Evaluate `n` worlds at every point of the space via the given path.
fn run_path(sim: &dyn Simulation, n: usize, threads: usize, path: EvalPath) -> Vec<WorldBatch> {
    (0..sim.space().len())
        .map(|i| {
            let point = sim.space().point_at(i);
            let job = EvalJob { point: &point, start: 0, count: n };
            let mut out = eval_windows(sim, &[job], threads, &ScopedPool, path);
            out.pop().expect("one job").expect("evaluation succeeds")
        })
        .collect()
}

fn identical_bits(a: &[WorldBatch], b: &[WorldBatch]) -> bool {
    let bits = |batches: &[WorldBatch]| -> Vec<Vec<Vec<u64>>> {
        batches
            .iter()
            .map(|wb| {
                wb.columns().iter().map(|col| col.iter().map(|x| x.to_bits()).collect()).collect()
            })
            .collect()
    };
    bits(a) == bits(b)
}

/// Run the comparison over both engines and the raw black box.
pub fn run(scale: Scale) -> Vec<E11Row> {
    let table_rows = if scale.space_divisor > 1 { 24 } else { 64 };
    let sims: Vec<(&'static str, Box<dyn Simulation>)> = vec![
        ("plan / direct", Box::new(plan_sim(Arc::new(DirectEngine::new()), table_rows))),
        ("plan / dbms", Box::new(plan_sim(Arc::new(DbmsEngine::new()), table_rows))),
        ("black box", Box::new(black_box_sim())),
    ];
    let n = scale.n_samples;
    let mut out = Vec::new();
    for (name, sim) in &sims {
        for threads in BUDGETS {
            // One untimed pass per path warms allocators and caches.
            run_path(sim.as_ref(), n, threads, EvalPath::Oracle);
            let t0 = Instant::now();
            let oracle = run_path(sim.as_ref(), n, threads, EvalPath::Oracle);
            let oracle_secs = t0.elapsed().as_secs_f64();
            run_path(sim.as_ref(), n, threads, EvalPath::Columnar);
            let t1 = Instant::now();
            let columnar = run_path(sim.as_ref(), n, threads, EvalPath::Columnar);
            let columnar_secs = t1.elapsed().as_secs_f64();
            out.push(E11Row {
                sim: name,
                threads,
                oracle_secs,
                columnar_secs,
                speedup: oracle_secs / columnar_secs,
                identical: identical_bits(&oracle, &columnar),
            });
        }
    }
    out
}

/// Render the comparison.
pub fn report(rows: &[E11Row]) -> Table {
    let mut t = Table::new(
        "E11 — per-world vs columnar world evaluation (same worlds, bit-identical)",
        &["Simulation", "Threads", "Per-world", "Columnar", "Speedup", "Identical"],
    );
    t.mark_timing(&["Per-world", "Columnar", "Speedup"]);
    for r in rows {
        t.row(vec![
            r.sim.to_string(),
            r.threads.to_string(),
            fmt_secs(r.oracle_secs),
            fmt_secs(r.columnar_secs),
            fmt_ratio(r.speedup),
            if r.identical { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_are_bit_identical_everywhere() {
        let rows = run(Scale { n_samples: 40, m: 10, space_divisor: 4, threads: 1 });
        assert_eq!(rows.len(), 3 * BUDGETS.len());
        for r in &rows {
            assert!(r.identical, "{} threads={} diverged", r.sim, r.threads);
            assert!(r.speedup.is_finite() && r.speedup > 0.0);
        }
    }
}
