//! Execution statistics for sweeps and Markov runs.

use std::time::Duration;

/// Wall-clock time spent in each phase of the batch-synchronous sweep
/// executor. Purely observational: never part of determinism comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Parallel fingerprint evaluation (worlds `0..m`).
    pub fingerprint: Duration,
    /// Sequential resolve/stage pass at the wave barrier.
    pub resolve: Duration,
    /// Parallel completion simulations (worlds `m..n`).
    pub completion: Duration,
    /// Sequential metric assembly and basis commits.
    pub commit: Duration,
}

/// Reuse counters for one wave of the sweep executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveReuse {
    /// Points processed in the wave.
    pub points: usize,
    /// Points fully served by intra-sweep basis reuse (at least one matched
    /// basis was created during this sweep).
    pub reused: usize,
    /// Points fully served by bases loaded from a snapshot (cross-sweep
    /// warm-start reuse; zero when no snapshot was loaded).
    pub warm_hits: usize,
    /// Points that ran a completion simulation.
    pub full_simulations: usize,
}

/// Counters collected during a parameter-space sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Points visited.
    pub points: usize,
    /// Points answered by full Monte Carlo simulation.
    pub full_simulations: usize,
    /// Points answered by intra-sweep basis reuse through a mapping.
    pub reused: usize,
    /// Points answered entirely by bases loaded from a snapshot — the
    /// cross-sweep warm-start hits, kept distinct from intra-sweep reuse so
    /// telemetry shows how much a warm store actually saved.
    pub warm_hits: usize,
    /// Simulation worlds evaluated (fingerprint + completion).
    pub worlds_evaluated: u64,
    /// Basis distributions at end of sweep, per output column.
    pub bases_per_column: Vec<usize>,
    /// Mapping validations attempted across all columns.
    pub pairings_tested: u64,
    /// Points coarse-swept by the sketch pass of a sketch-then-refine
    /// sweep (the whole space); 0 when sketching is off. In sketch mode
    /// the store-ledger fields above (`full_simulations`, `reused`,
    /// `warm_hits`, `bases_per_column`, `pairings_tested`) and the wave
    /// ledger describe the *refine* pass — the full-fidelity store — while
    /// the sketch pass's aggregate cost lives here and in `sketch_worlds`.
    pub sketch_points: usize,
    /// Worlds evaluated by the sketch pass (already included in
    /// `worlds_evaluated`, which stays the whole-sweep total).
    pub sketch_worlds: u64,
    /// Surviving frontier points re-run at full budget by the refine pass.
    pub refined_points: usize,
    /// Points pruned by the sketch: their final metrics are the coarse
    /// estimates (`PointResult::coarse`).
    pub pruned_points: usize,
    /// Thread budget the executor actually used.
    pub threads: usize,
    /// Number of batch-synchronous waves the sweep was processed in.
    pub waves: usize,
    /// Per-wave reuse counters, in wave order.
    pub wave_reuse: Vec<WaveReuse>,
    /// Per-phase wall-clock breakdown.
    pub phase: PhaseTimings,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl SweepStats {
    /// The determinism snapshot: a copy with only the schedule-dependent
    /// fields reset — `threads`, `waves`, `wave_reuse`, `phase` and
    /// `elapsed`. Every other field must be identical across thread budgets
    /// and wave sizes (the property tests and the CI twin-run diff assert
    /// this), so a field added later joins the comparison by default.
    pub fn counters(&self) -> SweepStats {
        SweepStats {
            threads: 0,
            waves: 0,
            wave_reuse: Vec::new(),
            phase: PhaseTimings::default(),
            elapsed: Duration::ZERO,
            ..self.clone()
        }
    }

    /// Fraction of points served by reuse (intra-sweep or warm-start).
    pub fn reuse_rate(&self) -> f64 {
        if self.points == 0 {
            return 0.0;
        }
        (self.reused + self.warm_hits) as f64 / self.points as f64
    }

    /// Wall-clock seconds per parameter point (the paper's "s/pc" unit).
    pub fn seconds_per_point(&self) -> f64 {
        if self.points == 0 {
            return 0.0;
        }
        self.elapsed.as_secs_f64() / self.points as f64
    }
}

/// Counters collected during a Markov-process evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MarkovStats {
    /// Chain length evaluated.
    pub steps: usize,
    /// Steps advanced with the full `n`-instance state.
    pub full_steps: usize,
    /// Steps advanced with only the `m` fingerprint instances.
    pub fingerprint_steps: usize,
    /// Estimator (re)synthesis events.
    pub estimator_rebuilds: usize,
    /// Full-state reconstructions through a mapped estimator.
    pub state_reconstructions: usize,
    /// `output()` invocations (the cost driver).
    pub model_invocations: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl MarkovStats {
    /// Wall-clock milliseconds per chain step (Figure 12's unit).
    pub fn ms_per_step(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.elapsed.as_secs_f64() * 1e3 / self.steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_rate() {
        let s = SweepStats { points: 10, reused: 4, ..Default::default() };
        assert!((s.reuse_rate() - 0.4).abs() < 1e-12);
        assert_eq!(SweepStats::default().reuse_rate(), 0.0);
    }

    #[test]
    fn reuse_rate_counts_warm_hits() {
        // A fully warm-started sweep has zero intra-sweep reuse but a 100%
        // effective reuse rate.
        let s = SweepStats { points: 10, reused: 0, warm_hits: 10, ..Default::default() };
        assert!((s.reuse_rate() - 1.0).abs() < 1e-12);
        let mixed = SweepStats { points: 10, reused: 3, warm_hits: 4, ..Default::default() };
        assert!((mixed.reuse_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn counters_capture_every_deterministic_field() {
        let s = SweepStats {
            points: 12,
            full_simulations: 2,
            reused: 3,
            warm_hits: 7,
            worlds_evaluated: 500,
            bases_per_column: vec![2, 4],
            pairings_tested: 31,
            sketch_points: 12,
            sketch_worlds: 240,
            refined_points: 5,
            pruned_points: 7,
            ..Default::default()
        };
        let c = s.counters();
        assert_eq!(c.points, 12);
        assert_eq!(c.full_simulations, 2);
        assert_eq!(c.reused, 3);
        assert_eq!(c.warm_hits, 7);
        assert_eq!(c.worlds_evaluated, 500);
        assert_eq!(c.bases_per_column, vec![2, 4]);
        assert_eq!(c.pairings_tested, 31);
        assert_eq!(c.sketch_points, 12);
        assert_eq!(c.sketch_worlds, 240);
        assert_eq!(c.refined_points, 5);
        assert_eq!(c.pruned_points, 7);
        // Every counter participates in the equality the determinism tests
        // rely on: flipping any single field breaks it.
        let base = s.counters();
        let variants = [
            SweepStats { points: 13, ..s.clone() },
            SweepStats { full_simulations: 3, ..s.clone() },
            SweepStats { reused: 4, ..s.clone() },
            SweepStats { warm_hits: 8, ..s.clone() },
            SweepStats { worlds_evaluated: 501, ..s.clone() },
            SweepStats { bases_per_column: vec![2, 5], ..s.clone() },
            SweepStats { pairings_tested: 32, ..s.clone() },
            SweepStats { sketch_points: 13, ..s.clone() },
            SweepStats { sketch_worlds: 241, ..s.clone() },
            SweepStats { refined_points: 6, ..s.clone() },
            SweepStats { pruned_points: 8, ..s.clone() },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, v.counters(), "field {i} must be part of the snapshot");
        }
    }

    #[test]
    fn wave_reuse_partitions_points() {
        // The executor's per-wave invariant: every point is exactly one of
        // warm hit, intra-sweep reuse, or full simulation.
        let w = WaveReuse { points: 9, reused: 2, warm_hits: 4, full_simulations: 3 };
        assert_eq!(w.points, w.reused + w.warm_hits + w.full_simulations);
        assert_eq!(WaveReuse::default(), WaveReuse { points: 0, ..Default::default() });
    }

    #[test]
    fn counters_exclude_wall_clock_and_layout() {
        let mut a = SweepStats {
            points: 8,
            reused: 5,
            full_simulations: 3,
            worlds_evaluated: 640,
            bases_per_column: vec![3],
            pairings_tested: 12,
            ..Default::default()
        };
        let mut b = a.clone();
        // Different thread budget, wave layout, and timings…
        a.threads = 1;
        a.waves = 1;
        a.elapsed = Duration::from_secs(9);
        b.threads = 8;
        b.waves = 4;
        b.wave_reuse = vec![WaveReuse { points: 2, ..Default::default() }; 4];
        b.phase.completion = Duration::from_millis(3);
        // …must not affect the deterministic snapshot.
        assert_eq!(a.counters(), b.counters());
        b.pairings_tested += 1;
        assert_ne!(a.counters(), b.counters());
    }

    #[test]
    fn per_unit_times() {
        let s = SweepStats { points: 4, elapsed: Duration::from_secs(2), ..Default::default() };
        assert!((s.seconds_per_point() - 0.5).abs() < 1e-12);
        let m =
            MarkovStats { steps: 100, elapsed: Duration::from_millis(250), ..Default::default() };
        assert!((m.ms_per_step() - 2.5).abs() < 1e-12);
    }

    /// The divide-by-zero family: zero points/steps must answer an exact
    /// 0.0, never NaN or infinity — these ratios flow into rendered bench
    /// tables and NDJSON traces where a NaN would poison downstream math
    /// and diffing.
    #[test]
    fn zero_denominators_answer_zero_not_nan() {
        // Zero points, with and without elapsed time on the clock.
        let idle = SweepStats { elapsed: Duration::from_secs(3), ..Default::default() };
        assert_eq!(idle.seconds_per_point(), 0.0);
        assert_eq!(SweepStats::default().seconds_per_point(), 0.0);
        // Zero points: reuse rate of an empty sweep is 0.0 even though
        // 0/0 would be NaN.
        assert_eq!(idle.reuse_rate(), 0.0);
        let no_points = SweepStats { reused: 0, warm_hits: 0, points: 0, ..Default::default() };
        assert_eq!(no_points.reuse_rate(), 0.0);
        // Zero Markov steps, again with time on the clock.
        let m = MarkovStats { elapsed: Duration::from_millis(9), ..Default::default() };
        assert_eq!(m.ms_per_step(), 0.0);
        assert_eq!(MarkovStats::default().ms_per_step(), 0.0);
        // All three must be finite (the property the guards exist for).
        assert!(idle.seconds_per_point().is_finite());
        assert!(idle.reuse_rate().is_finite());
        assert!(m.ms_per_step().is_finite());
    }
}
