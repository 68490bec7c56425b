//! Batch work: an analyst's closed loop of `OPTIMIZE` queries, each one
//! `jigsaw_sql::compile` + `Scenario::run_batch` with a fresh seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jigsaw_core::{PhaseTimings, SweepRunner, SweepStats};
use jigsaw_pdb::DirectEngine;
use jigsaw_prng::stats::quantile;
use jigsaw_prng::SeedSet;
use jigsaw_sql::{compile, BatchOutcome};

use crate::gates;
use crate::report::Report;
use crate::scenarios::{mix, Spec};
use crate::trace::Recorder;

/// The seeds of query `i` of a run.
pub fn query_seeds(seed: u64, i: u64) -> SeedSet {
    SeedSet::new(mix(seed, 0x5EED_0000 + i))
}

/// One query. With the recorder on, spans wrap the compile and the batch
/// run, and the executor phases `run_batch` reports become its children.
pub fn query(
    spec: &Spec,
    seeds: SeedSet,
    rec: &mut Recorder,
    trace: u64,
) -> Result<BatchOutcome, String> {
    let t0 = Instant::now();
    let sc = compile(&spec.sql, &spec.catalog).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let out = sc
        .run_batch(Arc::new(DirectEngine::new()), spec.catalog.clone(), seeds, spec.cfg.clone())
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    if rec.on() {
        let root = rec.reserve();
        rec.span(trace, Some(root), "sqlfront.compile", "sqlfront", t0, t1);
        let run = rec.span(trace, Some(root), "sqlfront.run_batch", "optimizer", t1, t2);
        let p = out.sweep.stats.phase;
        rec.phases(
            trace,
            run,
            t1,
            t2,
            &[
                ("optimizer.fingerprint", "pdb", p.fingerprint),
                ("optimizer.resolve", "basis", p.resolve),
                ("optimizer.completion", "pdb", p.completion),
                ("optimizer.commit", "optimizer", p.commit),
            ],
        );
        rec.fill(root, trace, None, "query", "bench", t0, Instant::now());
    }
    Ok(out)
}

/// What the gates and the counts need of a loop's first query. The
/// outcome itself is dropped so it does not inflate the loop's memory.
pub struct First {
    /// The query's seeds.
    pub seeds: SeedSet,
    /// Its sweep statistics.
    pub stats: SweepStats,
    /// Expectation per point per column.
    pub expectations: Vec<Vec<f64>>,
    /// Σ retained samples × 8 over every result cell.
    pub sample_bytes: usize,
    /// The feasibility gate on its selection.
    pub feasible: Result<(), String>,
}

impl First {
    fn of(spec: &Spec, seeds: SeedSet, out: &BatchOutcome) -> First {
        let feasible = compile(&spec.sql, &spec.catalog)
            .map_err(|e| e.to_string())
            .and_then(|sc| gates::feasible(&sc, &out.sweep, out.selection.as_ref()));
        let points = &out.sweep.points;
        First {
            seeds,
            stats: out.sweep.stats.clone(),
            expectations: points
                .iter()
                .map(|p| p.metrics.iter().map(|m| m.expectation()).collect())
                .collect(),
            sample_bytes: points
                .iter()
                .flat_map(|p| &p.metrics)
                .map(|m| m.samples().len() * 8)
                .sum(),
            feasible,
        }
    }
}

/// What a closed loop of queries measured.
#[derive(Default)]
pub struct Loop {
    /// Latency of every completed query, ms.
    pub latency_ms: Vec<f64>,
    /// Latencies of the untraced and traced queries of a traced loop.
    pub untraced_ms: Vec<f64>,
    /// See `untraced_ms`.
    pub traced_ms: Vec<f64>,
    /// Points per second of every completed query.
    pub points_per_s: Vec<f64>,
    /// Executor phases of every completed query.
    pub phases: Vec<PhaseTimings>,
    /// The first query, when it completed.
    pub first: Option<First>,
}

/// Run queries back to back until `budget` has passed (and at least
/// `min_queries` ran). With the recorder on, every other query is traced,
/// so the two halves give the tracing overhead.
pub fn closed_loop(
    spec: &Spec,
    seed: u64,
    budget: Duration,
    min_queries: usize,
    rec: &mut Recorder,
    report: &mut Report,
) -> Loop {
    let mut lp = Loop::default();
    let start = Instant::now();
    let mut off = Recorder::new(false, start);
    let mut i = 0u64;
    while start.elapsed() < budget || (i as usize) < min_queries {
        let seeds = query_seeds(seed, i);
        let traced = rec.on() && i % 2 == 1;
        let t = Instant::now();
        let res = query(spec, seeds, if traced { &mut *rec } else { &mut off }, i);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        report.count(res.is_ok());
        match res {
            Ok(out) => {
                lp.latency_ms.push(ms);
                if traced { &mut lp.traced_ms } else { &mut lp.untraced_ms }.push(ms);
                lp.points_per_s.push(out.sweep.stats.points as f64 / (ms / 1e3));
                lp.phases.push(out.sweep.stats.phase);
                if i == 0 {
                    lp.first = Some(First::of(spec, seeds, &out));
                }
            }
            Err(e) => eprintln!("query {i} failed: {e}"),
        }
        i += 1;
    }
    lp
}

/// Check the loop's first query, untimed: its selection must be feasible,
/// and it must agree with the naive sweep of the same seed.
pub fn check_first(spec: &Spec, lp: &Loop, report: &mut Report) {
    let Some(first) = &lp.first else {
        report.wrong("the first query did not complete");
        return;
    };
    let checked = first.feasible.clone().and_then(|()| {
        let sc = compile(&spec.sql, &spec.catalog).map_err(|e| e.to_string())?;
        let sim = sc.simulation(Arc::new(DirectEngine::new()), spec.catalog.clone(), first.seeds);
        let naive = SweepRunner::naive(spec.cfg.clone()).run(&sim).map_err(|e| e.to_string())?;
        gates::against_naive(&first.expectations, &naive, &spec.tolerances)
    });
    match checked {
        Ok(()) => report.count(true),
        Err(e) => report.wrong(format!("{}: first query: {e}", spec.label)),
    }
}

/// The per-layer numbers a loop yields: phase medians, the first query's
/// counts, and the traced queries' self time per layer.
pub fn layer_metrics(lp: &Loop, rec: &Recorder, report: &mut Report) {
    let ms = |f: fn(&PhaseTimings) -> Duration| {
        quantile(&lp.phases.iter().map(|p| f(p).as_secs_f64() * 1e3).collect::<Vec<_>>(), 0.5)
    };
    report.set("optimizer.fingerprint_ms", ms(|p| p.fingerprint));
    report.set("optimizer.resolve_ms", ms(|p| p.resolve));
    report.set("optimizer.completion_ms", ms(|p| p.completion));
    report.set("optimizer.commit_ms", ms(|p| p.commit));
    report.set("points_per_s", quantile(&lp.points_per_s, 0.5));
    if let Some(first) = &lp.first {
        let s = &first.stats;
        report.set("optimizer.worlds_per_query", s.worlds_evaluated as f64);
        report.set("optimizer.full_sims_per_query", s.full_simulations as f64);
        report.set("optimizer.pairings_per_query", s.pairings_tested as f64);
        report.set("optimizer.waves_per_query", s.waves as f64);
        report.set("optimizer.reuse_rate", s.reuse_rate());
        report.set("optimizer.result_sample_bytes", first.sample_bytes as f64);
    }
    let (by_layer, mean_ns, n) = rec.layer_self_means("query");
    let layer = |l: &str| by_layer.get(l).copied().unwrap_or(0.0) / 1e6;
    report.set("trace.query_ms", mean_ns / 1e6);
    report.set("self.query.bench_ms", layer("bench"));
    report.set("self.query.sqlfront_ms", layer("sqlfront"));
    report.set("self.query.optimizer_ms", layer("optimizer"));
    report.set("self.query.basis_ms", layer("basis"));
    report.set("self.query.pdb_ms", layer("pdb"));
    report.note("traced_queries", n);
}
