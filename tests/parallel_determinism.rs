//! Determinism under parallelism: the batch-synchronous executor must give
//! bit-identical sweeps — points, metrics, `reused_from`, basis sets, and
//! deterministic telemetry counters — for every thread budget, and the one
//! world-evaluation fan-out (`eval_windows`) must equal the serial path for
//! awkward window splits on every pool.

use std::sync::Arc;

use jigsaw::blackbox::models::{Demand, SynthBasis};
use jigsaw::blackbox::{ParamDecl, ParamSpace};
use jigsaw::core::{JigsawConfig, SweepRunner};
use jigsaw::pdb::{BlackBoxSim, EvalPath, Simulation};
use jigsaw::prng::SeedSet;
use proptest::prelude::*;

mod common;
use common::{assert_bit_identical, eval_one, pools};

const THREAD_LADDER: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn demand_sweep_identical_across_thread_ladder(
        master in 0u64..500,
        weeks in 8i64..24,
        wave_pick in 0usize..4,
    ) {
        let wave = [0usize, 1, 5, 64][wave_pick];
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 0, weeks, 1),
            ParamDecl::set("feature", vec![5, 12]),
        ]);
        let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(master));
        let cfg = JigsawConfig::paper().with_n_samples(80).with_wave_size(wave);
        let base = SweepRunner::new(cfg.clone().with_threads(1)).run(&sim).unwrap();
        for threads in THREAD_LADDER {
            let r = SweepRunner::new(cfg.clone().with_threads(threads)).run(&sim).unwrap();
            assert_bit_identical(&base, &r, &format!("Demand threads={threads} wave={wave}"));
        }
    }

    #[test]
    fn synth_basis_sweep_identical_across_thread_ladder(
        master in 0u64..500,
        n_bases in 1usize..8,
    ) {
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 39, 1)]);
        let sim = BlackBoxSim::new(
            Arc::new(SynthBasis::new(n_bases)),
            space,
            SeedSet::new(master),
        );
        let cfg = JigsawConfig::paper().with_n_samples(60);
        let base = SweepRunner::new(cfg.clone().with_threads(1)).run(&sim).unwrap();
        prop_assert_eq!(base.stats.bases_per_column[0], n_bases);
        for threads in THREAD_LADDER {
            let r = SweepRunner::new(cfg.clone().with_threads(threads)).run(&sim).unwrap();
            assert_bit_identical(&base, &r, &format!("SynthBasis threads={threads}"));
        }
    }

    #[test]
    fn world_windows_equal_serial_for_awkward_splits(
        master in 0u64..500,
        start in 0usize..50,
        count in 0usize..100,
        threads in 1usize..16,
    ) {
        let space = ParamSpace::new(vec![ParamDecl::range("week", 0, 9, 1)]);
        let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(master));
        let point = [3.0, 5.0];
        let serial = sim.eval_worlds(&point, start, count).unwrap();
        for (name, pool) in pools() {
            let par = eval_one(&sim, &point, start, count, threads, pool, EvalPath::Oracle).unwrap();
            prop_assert_eq!(&serial, &par.into_columns(), "{}", name);
        }
    }
}

#[test]
fn window_edge_cases_match_serial() {
    let space = ParamSpace::new(vec![ParamDecl::range("week", 0, 9, 1)]);
    let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(7));
    let point = [2.0, 5.0];
    for (name, pool) in pools() {
        let eval = |start, count, threads| {
            eval_one(&sim, &point, start, count, threads, pool, EvalPath::Oracle)
                .unwrap()
                .into_columns()
        };
        // count == 0: empty columns, no worker spawned.
        assert!(eval(4, 0, 8)[0].is_empty(), "{name}");
        // count < threads: one world per chunk, inline below the 32-world
        // cutoff and scattered above it.
        for count in [3, 33] {
            assert_eq!(eval(0, count, 64), sim.eval_worlds(&point, 0, count).unwrap(), "{name}");
        }
    }
}

#[test]
fn naive_runner_identical_across_threads() {
    let space = ParamSpace::new(vec![
        ParamDecl::range("week", 0, 14, 1),
        ParamDecl::set("feature", vec![5]),
    ]);
    let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(3));
    let cfg = JigsawConfig::paper().with_n_samples(50);
    let base = SweepRunner::naive(cfg.clone().with_threads(1)).run(&sim).unwrap();
    for threads in THREAD_LADDER {
        let r = SweepRunner::naive(cfg.clone().with_threads(threads)).run(&sim).unwrap();
        assert_bit_identical(&base, &r, &format!("naive threads={threads}"));
    }
}
