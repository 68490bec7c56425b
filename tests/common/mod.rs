//! Shared helpers for the integration-test suite (not a test target
//! itself; pulled in with `mod common;`, so each target uses a subset).
#![allow(dead_code)]

use std::sync::OnceLock;

use jigsaw::core::{eval_windows, EvalJob, PersistentPool, ScopedPool, SweepResult, WorkerPool};
use jigsaw::pdb::{EvalPath, Result, Simulation, WorldBatch};

/// An intentionally awkward pool: runs every task serially in *reverse*
/// index order. Any faithful [`WorkerPool`] must give bit-identical
/// results, because callers stitch by task index.
pub struct ReversePool;

impl WorkerPool for ReversePool {
    fn scatter(&self, _threads: usize, n_tasks: usize, run: &(dyn Fn(usize) + Sync)) {
        for t in (0..n_tasks).rev() {
            run(t);
        }
    }
}

/// The pools every thread-invariance test runs on: per-scatter scoped
/// threads, one shared persistent pool (budgets above 16 seat 15 workers
/// plus the caller), and the reverse-order pool.
pub fn pools() -> [(&'static str, &'static dyn WorkerPool); 3] {
    static PERSISTENT: OnceLock<PersistentPool> = OnceLock::new();
    [
        ("scoped", &ScopedPool),
        ("persistent", PERSISTENT.get_or_init(|| PersistentPool::new(16))),
        ("reverse", &ReversePool),
    ]
}

/// Evaluate one world window through [`eval_windows`].
pub fn eval_one(
    sim: &dyn Simulation,
    point: &[f64],
    start: usize,
    count: usize,
    threads: usize,
    pool: &dyn WorkerPool,
    path: EvalPath,
) -> Result<WorldBatch> {
    let job = EvalJob { point, start, count };
    eval_windows(sim, &[job], threads, pool, path).pop().expect("one job, one result")
}

/// Full bit-level equality: every point (index, materialized parameters,
/// per-column metrics, per-column reuse provenance) plus the deterministic
/// counter snapshot (reuse counts, warm hits, worlds evaluated, bases per
/// column, pairings tested).
pub fn assert_bit_identical(a: &SweepResult, b: &SweepResult, what: &str) {
    assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.point_idx, y.point_idx, "{what}");
        assert_eq!(x.point, y.point, "{what}: point {}", x.point_idx);
        assert_eq!(x.reused_from, y.reused_from, "{what}: point {}", x.point_idx);
        // Sketch-then-refine survival must also be bit-stable: the same
        // points carry coarse metrics on every run.
        assert_eq!(x.coarse, y.coarse, "{what}: point {} survival", x.point_idx);
        assert_eq!(x.metrics.len(), y.metrics.len(), "{what}: point {}", x.point_idx);
        for (ma, mb) in x.metrics.iter().zip(&y.metrics) {
            // Sample-vector equality is the strongest statement: every
            // derived metric (mean, sd, quantiles, histograms) follows.
            assert_eq!(ma.samples(), mb.samples(), "{what}: point {}", x.point_idx);
            assert_eq!(ma.expectation().to_bits(), mb.expectation().to_bits(), "{what}");
            assert_eq!(ma.std_dev().to_bits(), mb.std_dev().to_bits(), "{what}");
        }
    }
    assert_eq!(a.stats.counters(), b.stats.counters(), "{what}: counters");
}
