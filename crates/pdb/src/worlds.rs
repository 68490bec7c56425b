//! World-window evaluation — the sequential, panic-catching unit that every
//! layer above schedules.
//!
//! Monte Carlo worlds are embarrassingly parallel: world `k`'s randomness is
//! fully determined by `σ_k`, so any partition of a world range evaluates
//! to the same bits. This crate spends no threads itself; the one budgeted
//! fan-out is `jigsaw-core`'s `eval_windows`, which splits windows into
//! chunks, runs each through [`eval_window_on`] on a worker pool, and
//! stitches them back in window order (paper §2.1: "queries are run on each
//! sampled world in parallel").
//!
//! A window evaluates on one of two [`EvalPath`]s: `Columnar` (default)
//! drives [`Simulation::eval_batch`], whose engines fill contiguous `f64`
//! columns with slice kernels; `Oracle` drives the historical per-world
//! [`Simulation::eval_worlds`] path. Both produce bit-identical bytes — the
//! columnar kernels perform the same floating-point operations in the same
//! order — which CI pins with a forced-path twin-run diff and
//! `tests/columnar_oracle.rs` property tests.
//!
//! Panics inside a simulation are caught at this boundary and surfaced as
//! [`PdbError::WorkerPanic`], so a buggy black box cannot abort a
//! long-lived host process (the session server answers `ERR` and keeps
//! serving).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use crate::batch::WorldBatch;
use crate::error::{PdbError, Result};
use crate::sim::Simulation;

/// Which world-evaluation implementation [`eval_window_on`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPath {
    /// Struct-of-arrays kernels over contiguous columns (the default).
    Columnar,
    /// The historical per-world reference path.
    Oracle,
}

static EVAL_PATH: OnceLock<EvalPath> = OnceLock::new();

/// The process-wide evaluation path. Resolved once, from the
/// `JIGSAW_EVAL_PATH` environment variable (`oracle` selects the per-world
/// reference path; anything else means columnar) unless
/// [`force_eval_path`] ran first.
pub fn eval_path() -> EvalPath {
    *EVAL_PATH.get_or_init(|| match std::env::var("JIGSAW_EVAL_PATH") {
        Ok(v) if v.eq_ignore_ascii_case("oracle") => EvalPath::Oracle,
        _ => EvalPath::Columnar,
    })
}

/// Pin the process-wide evaluation path (first caller wins; the repro
/// binary's `--eval-path` flag goes through here before any evaluation).
/// Returns the path actually in effect.
pub fn force_eval_path(path: EvalPath) -> EvalPath {
    *EVAL_PATH.get_or_init(|| path)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

fn catch_panics<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(PdbError::WorkerPanic(panic_message(p))))
}

/// Evaluate one window **sequentially** on an explicit path, converting any
/// simulation panic into [`PdbError::WorkerPanic`]. This is the per-task
/// unit `jigsaw-core`'s worker pools schedule: because the panic is caught
/// inside the task, no unwinding ever crosses a pool boundary.
pub fn eval_window_on(
    sim: &dyn Simulation,
    point: &[f64],
    start: usize,
    count: usize,
    path: EvalPath,
) -> Result<WorldBatch> {
    catch_panics(|| match path {
        EvalPath::Columnar => sim.eval_batch(point, start, count),
        EvalPath::Oracle => {
            Ok(WorldBatch::from_columns(sim.eval_worlds(point, start, count)?, count))
        }
    })
}

/// [`eval_window_on`] on the process-wide [`eval_path`].
pub fn eval_window(
    sim: &dyn Simulation,
    point: &[f64],
    start: usize,
    count: usize,
) -> Result<WorldBatch> {
    eval_window_on(sim, point, start, count, eval_path())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::BlackBoxSim;
    use jigsaw_blackbox::{FnBlackBox, ParamDecl, ParamSpace};
    use jigsaw_prng::SeedSet;
    use std::sync::Arc;

    fn sim() -> BlackBoxSim {
        BlackBoxSim::new(
            Arc::new(FnBlackBox::new("F", 1, |p: &[f64], s| p[0] + (s.0 as f64 / u64::MAX as f64))),
            ParamSpace::new(vec![ParamDecl::range("x", 0, 3, 1)]),
            SeedSet::new(21),
        )
    }

    #[test]
    fn offset_windows_compose() {
        let s = sim();
        let window = |start, count| {
            eval_window_on(&s, &[2.0], start, count, EvalPath::Oracle).unwrap().into_columns()
        };
        let all = window(0, 50);
        let glued: Vec<f64> = window(0, 20)[0].iter().chain(&window(20, 30)[0]).copied().collect();
        assert_eq!(all[0], glued);
    }

    #[test]
    fn zero_count_is_empty() {
        let s = sim();
        for path in [EvalPath::Columnar, EvalPath::Oracle] {
            let batch = eval_window_on(&s, &[0.0], 0, 0, path).unwrap();
            assert_eq!(batch.n_worlds(), 0);
            assert!(batch.column(0).is_empty());
        }
    }
}
