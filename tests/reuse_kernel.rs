//! The reuse kernel's contract across its two callers: the sweep executor
//! and an interactive session go through the same `BasisStore::resolve` →
//! `BasisStore::mapped` path. A session attached to the store a sweep
//! built therefore serves every point from the sweep's bases and answers
//! with exactly the sweep's numbers, paying only the fingerprint worlds.
//! A session that refines a basis past the sweep's sample count leaves the
//! finished sweep's cells pinned to the samples they were committed with.

use std::sync::Arc;

use jigsaw::blackbox::models::{Demand, SynthBasis};
use jigsaw::blackbox::{ParamDecl, ParamSpace};
use jigsaw::core::interactive::EstimateSource;
use jigsaw::core::{
    AffineFamily, InteractiveSession, JigsawConfig, SessionConfig, SharedBasisStore, SweepRunner,
};
use jigsaw::pdb::{BlackBoxSim, Simulation};
use jigsaw::prng::SeedSet;

fn cfg() -> JigsawConfig {
    JigsawConfig::paper().with_n_samples(120)
}

/// 25 weeks × 2 feature sizes = 50 points.
fn demand_sim() -> Arc<dyn Simulation> {
    let space = ParamSpace::new(vec![
        ParamDecl::range("week", 0, 24, 1),
        ParamDecl::set("feature", vec![5, 12]),
    ]);
    Arc::new(BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(2024)))
}

/// 49 points over 4 underlying basis shapes.
fn synth_sim() -> Arc<dyn Simulation> {
    let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 48, 1)]);
    Arc::new(BlackBoxSim::new(Arc::new(SynthBasis::new(4)), space, SeedSet::new(7)))
}

fn assert_session_replays_sweep(sim: Arc<dyn Simulation>, expected_points: usize, what: &str) {
    let cfg = cfg();
    let shared = SharedBasisStore::new(sim.columns().len(), &cfg, Arc::new(AffineFamily));
    let sweep = shared
        .with_store_mut(|stores| SweepRunner::new(cfg.clone()).store(stores).run(&*sim))
        .expect("sweep");
    assert_eq!(sweep.points.len(), expected_points, "{what}: point count");

    let mut session =
        InteractiveSession::attach(sim.clone(), SessionConfig::from_jigsaw(&cfg), shared.clone());
    for p in &sweep.points {
        for (col, metrics) in p.metrics.iter().enumerate() {
            let est = session.estimate_now(p.point_idx, col).expect("estimate");
            assert_eq!(est.source, EstimateSource::MappedBasis, "{what}: point {}", p.point_idx);
            assert_eq!(
                est.expectation.to_bits(),
                metrics.expectation().to_bits(),
                "{what}: point {} expectation",
                p.point_idx
            );
            assert_eq!(
                est.std_dev.to_bits(),
                metrics.std_dev().to_bits(),
                "{what}: point {} std_dev",
                p.point_idx
            );
            assert_eq!(est.n_samples, metrics.n(), "{what}: point {} n", p.point_idx);
        }
    }
    let points = sweep.points.len() as u64;
    assert_eq!(session.worlds_evaluated, points * cfg.fingerprint_len as u64, "{what}: worlds");
    assert_eq!(session.warm_hits, points, "{what}: every first touch rides a sweep basis");
    assert_eq!(shared.bases_per_column(), sweep.stats.bases_per_column, "{what}: no new bases");
}

#[test]
fn session_on_swept_store_serves_sweep_bits_demand() {
    assert_session_replays_sweep(demand_sim(), 50, "Demand");
}

#[test]
fn session_on_swept_store_serves_sweep_bits_synth_basis() {
    assert_session_replays_sweep(synth_sim(), 49, "SynthBasis(4)");
}

#[test]
fn session_refinement_leaves_a_finished_sweep_pinned() {
    let cfg = cfg();
    let sim = synth_sim();
    let shared = SharedBasisStore::new(sim.columns().len(), &cfg, Arc::new(AffineFamily));
    let sweep = shared
        .with_store_mut(|stores| SweepRunner::new(cfg.clone()).store(stores).run(&*sim))
        .expect("sweep");
    let pinned: Vec<Vec<_>> = sweep
        .points
        .iter()
        .map(|p| p.metrics.iter().map(|m| (m.samples().into_owned(), *m.moments())).collect())
        .collect();

    // A session allowed past the sweep's n folds its fresh samples back
    // into the basis a reused point was mapped from.
    let p = sweep.points.iter().find(|p| p.reused_from[0].is_some()).expect("a reused point");
    let id = p.reused_from[0].unwrap();
    let basis_n = || shared.with_store(|s| s.shard(0).get(id).metrics.n());
    let session_cfg = SessionConfig {
        batch: 60,
        n_target: 2 * cfg.n_samples,
        ..SessionConfig::from_jigsaw(&cfg)
    };
    let mut session = InteractiveSession::attach(sim.clone(), session_cfg, shared.clone());
    for _ in 0..4 {
        session.refine_once(p.point_idx, 0).expect("refine");
    }
    assert!(basis_n() > cfg.n_samples, "the session refined basis {id:?}: n = {}", basis_n());

    for (p, before) in sweep.points.iter().zip(&pinned) {
        for (m, (samples, moments)) in p.metrics.iter().zip(before) {
            assert_eq!(m.n(), samples.len(), "point {}: n", p.point_idx);
            let now: Vec<u64> = m.samples().iter().map(|x| x.to_bits()).collect();
            let then: Vec<u64> = samples.iter().map(|x| x.to_bits()).collect();
            assert_eq!(now, then, "point {}: samples", p.point_idx);
            assert_eq!(m.moments(), moments, "point {}: moments", p.point_idx);
        }
    }
}
