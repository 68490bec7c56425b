//! Correctness gates. Each returns `Err(description)` for a wrong answer;
//! the caller counts it into `error_ratio` and fails the run.

use jigsaw_core::optimizer::{Comparison, OuterAgg, Selection};
use jigsaw_core::SweepResult;
use jigsaw_server::Response;
use jigsaw_sql::Scenario;

/// Compare a reuse sweep's expectations (per point, per column) with the
/// naive sweep of the same seed, column by column, under experiment E2's
/// rule: a tolerance up to `1e-3` bounds every point (relative, floor 1);
/// a larger one bounds the mean absolute deviation against the column's
/// largest expectation.
pub fn against_naive(fast: &[Vec<f64>], naive: &SweepResult, tols: &[f64]) -> Result<(), String> {
    if fast.len() != naive.points.len() {
        return Err(format!("{} points, naive has {}", fast.len(), naive.points.len()));
    }
    for (col, &tol) in tols.iter().enumerate() {
        let pairs = fast
            .iter()
            .zip(&naive.points)
            .map(|(f, n)| (f[col], n.metrics[col].expectation(), n.point_idx));
        if tol <= 1e-3 {
            for (x, y, idx) in pairs {
                let close = (x - y).abs() <= tol * y.abs().max(1.0);
                if !close {
                    return Err(format!("column {col}, point {idx}: {x} vs naive {y}"));
                }
            }
        } else {
            let scale = naive
                .points
                .iter()
                .map(|p| p.metrics[col].expectation().abs())
                .fold(1.0f64, f64::max);
            let dev = pairs.map(|(x, y, _)| (x - y).abs()).sum::<f64>() / fast.len() as f64;
            let close = dev <= tol * scale;
            if !close {
                return Err(format!("column {col}: mean deviation {dev} exceeds {tol} of {scale}"));
            }
        }
    }
    Ok(())
}

/// The selection must exist and satisfy every constraint on the sweep it
/// was chosen from, with the achieved values it reports.
pub fn feasible(sc: &Scenario, sweep: &SweepResult, sel: Option<&Selection>) -> Result<(), String> {
    let goal = sc.goal.as_ref().ok_or("scenario has no OPTIMIZE goal")?;
    let sel = sel.ok_or("no feasible selection")?;
    if sel.member_points.is_empty() {
        return Err("selection has no member points".into());
    }
    for (i, c) in goal.constraints.iter().enumerate() {
        let col = sc.columns.iter().position(|n| *n == c.column).ok_or("unknown column")?;
        let xs = sel.member_points.iter().map(|&p| c.metric.of(&sweep.points[p].metrics[col]));
        let v = match c.outer {
            OuterAgg::Max => xs.fold(f64::NEG_INFINITY, f64::max),
            OuterAgg::Min => xs.fold(f64::INFINITY, f64::min),
            OuterAgg::Avg => xs.sum::<f64>() / sel.member_points.len() as f64,
        };
        let ok = match c.cmp {
            Comparison::Lt => v < c.threshold,
            Comparison::Le => v <= c.threshold,
            Comparison::Gt => v > c.threshold,
            Comparison::Ge => v >= c.threshold,
        };
        if !ok || sel.achieved.get(i).map(|a| a.to_bits()) != Some(v.to_bits()) {
            return Err(format!(
                "constraint on {} not met: {v} vs {} (reported {:?})",
                c.column,
                c.threshold,
                sel.achieved.get(i)
            ));
        }
    }
    Ok(())
}

/// An `ESTIMATE` reply must equal, bit for bit, the reply recorded for the
/// same key at set-up.
pub fn same_estimate(reply: &Response, reference: &Response) -> Result<(), String> {
    match reply {
        Response::Estimated { .. } if reply == reference => Ok(()),
        Response::Estimated { .. } => Err(format!("estimate {reply:?} != reference {reference:?}")),
        other => Err(format!("expected an estimate, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{capacity, Scale};
    use jigsaw_core::SweepRunner;
    use jigsaw_pdb::DirectEngine;
    use jigsaw_prng::SeedSet;
    use std::sync::Arc;

    #[test]
    fn gates_pass_on_a_true_answer_and_fire_on_a_corrupted_one() {
        let spec = capacity(5, &Scale::micro());
        let sc = jigsaw_sql::compile(&spec.sql, &spec.catalog).unwrap();
        let seeds = SeedSet::new(11);
        let out = sc
            .run_batch(Arc::new(DirectEngine::new()), spec.catalog.clone(), seeds, spec.cfg.clone())
            .unwrap();
        let sim = sc.simulation(Arc::new(DirectEngine::new()), spec.catalog.clone(), seeds);
        let naive = SweepRunner::naive(spec.cfg.clone()).run(&sim).unwrap();
        let expect = |r: &SweepResult| -> Vec<Vec<f64>> {
            r.points.iter().map(|p| p.metrics.iter().map(|m| m.expectation()).collect()).collect()
        };
        against_naive(&expect(&out.sweep), &naive, &spec.tolerances).unwrap();
        feasible(&sc, &out.sweep, out.selection.as_ref()).unwrap();

        // A shifted demand estimate at one point breaks the per-point rule,
        // and a shift of every capacity estimate the distribution rule.
        let mut bad = expect(&naive);
        bad[3][0] += 1.0;
        assert!(against_naive(&bad, &naive, &spec.tolerances).is_err());
        let mut bad = expect(&naive);
        bad.iter_mut().for_each(|p| p[1] = p[1] * 1.5 + 1.0);
        assert!(against_naive(&bad, &naive, &spec.tolerances).is_err());

        // A selection whose reported risk differs from the sweep fails.
        let mut sel = out.selection.clone().unwrap();
        sel.achieved[0] += 1e-3;
        assert!(feasible(&sc, &out.sweep, Some(&sel)).is_err());
        assert!(feasible(&sc, &out.sweep, None).is_err());
    }

    #[test]
    fn estimate_gate_is_bit_exact() {
        let est = |bits: u64| Response::Estimated {
            point: 1,
            col: 0,
            n_samples: 10,
            source: jigsaw_core::interactive::EstimateSource::MappedBasis,
            expectation_bits: bits,
            std_dev_bits: 0,
            lo_bits: 0,
            hi_bits: 0,
        };
        assert!(same_estimate(&est(7), &est(7)).is_ok());
        assert!(same_estimate(&est(8), &est(7)).is_err());
        let err = Response::Error { code: jigsaw_server::ErrorCode::Exec, message: "x".into() };
        assert!(same_estimate(&err, &est(7)).is_err());
    }
}
