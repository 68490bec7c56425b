//! Per-layer probes: each times calls into one layer's public functions on
//! the workload's own inputs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use jigsaw_core::interactive::{InteractiveSession, SessionConfig};
use jigsaw_core::optimizer::selector;
use jigsaw_core::{
    AffineFamily, Fingerprint, MappingFamily, PersistentPool, ScopedPool, ShardedBasisStore,
    SharedBasisStore, SweepRunner, WorkerPool,
};
use jigsaw_pdb::{DirectEngine, Simulation};
use jigsaw_prng::dist::{Distribution, Exponential, Gamma, Normal};
use jigsaw_prng::stats::quantile;
use jigsaw_prng::{Rng, Seed, SeedSet, Xoshiro256pp};
use jigsaw_server::{Request, Response};
use jigsaw_sql::compile;

use crate::report::Report;
use crate::scenarios::{mix, Draws, Scale, Spec, THREADS};

/// Median seconds per call of `f` over `reps` calls.
fn time_each(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    quantile(&xs, 0.5)
}

/// Run every layer probe for `spec` with the query seeds `seeds`.
pub fn probe(
    spec: &Spec,
    seeds: SeedSet,
    seed: u64,
    scale: &Scale,
    report: &mut Report,
) -> Result<(), String> {
    let reps = scale.reps;
    let cfg = &spec.cfg;
    let sc = compile(&spec.sql, &spec.catalog).map_err(|e| e.to_string())?;
    let compile_s = time_each(reps / 10, || {
        black_box(compile(black_box(&spec.sql), &spec.catalog).expect("compiled above"));
    });
    report.set("sqlfront.compile_us", compile_s * 1e6);

    // A sweep into a store this probe owns: the "final store" of a query.
    let sim = Arc::new(sc.simulation(Arc::new(DirectEngine::new()), spec.catalog.clone(), seeds));
    let family: Arc<dyn MappingFamily> = Arc::new(AffineFamily);
    let n_cols = sc.columns.len();
    let mut store = ShardedBasisStore::new(n_cols, cfg, family.clone());
    let sweep =
        SweepRunner::new(cfg.clone()).store(&mut store).run(&*sim).map_err(|e| e.to_string())?;
    let goal = sc.goal.as_ref().ok_or("scenario has no goal")?;
    let select_s = time_each(reps / 10, || {
        black_box(selector::select(&sc.space, &sweep, goal, &sc.columns).expect("selects"));
    });
    report.set("optimizer.select_us", select_s * 1e6);

    // Pools: a scatter of two no-op tasks on two threads, whatever the
    // scenario's own budget (one thread would run them inline).
    let noop = |t: usize| {
        black_box(t);
    };
    let scoped = time_each(reps * 10, || ScopedPool.scatter(THREADS, 2, &noop));
    let pool = PersistentPool::new(THREADS);
    let persistent = time_each(reps * 10, || pool.scatter(THREADS, 2, &noop));
    drop(pool);
    report.set("pool.scatter_us.scoped", scoped * 1e6);
    report.set("pool.scatter_us.persistent", persistent * 1e6);

    // World evaluation at seed-sampled points: fingerprint and completion
    // windows.
    let mut rng = Xoshiro256pp::seeded(Seed(mix(seed, 0x4C41_5945)));
    let n_pts = 8.min(sc.space.len());
    let points: Vec<usize> =
        (0..n_pts).map(|_| (rng.next_u64() % sc.space.len() as u64) as usize).collect();
    let (m, n) = (cfg.fingerprint_len, cfg.n_samples);
    let (mut fp_s, mut done_s) = (0.0, 0.0);
    let mut fingerprints = Vec::new();
    for &p in &points {
        let x = sc.space.point_at(p);
        let t = Instant::now();
        let head = sim.eval_batch(&x, 0, m).map_err(|e| e.to_string())?;
        fp_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(sim.eval_batch(&x, m, n - m).map_err(|e| e.to_string())?);
        done_s += t.elapsed().as_secs_f64();
        for c in 0..n_cols {
            fingerprints.push((c, Fingerprint::new(head.column(c).to_vec())));
        }
    }
    report.set("pdb.fingerprint_ns_per_world", fp_s * 1e9 / (n_pts * m) as f64);
    report.set("pdb.completion_ns_per_world", done_s * 1e9 / (n_pts * (n - m)) as f64);

    // The commit's copy: one basis's metrics carried through an affine map.
    let basis = &store.shard(0).bases()[0].metrics;
    let image_s = time_each(reps, || {
        black_box(basis.affine_image(black_box(1.0001), 0.5));
    });
    report.set("pdb.affine_image_ns_per_sample", image_s * 1e9 / basis.samples().len() as f64);

    // The scenario's black boxes, called directly.
    let mut bb_s = Vec::new();
    for (name, args) in &spec.calls {
        let f = spec.catalog.function(name).map_err(|e| e.to_string())?;
        let calls = 1000;
        bb_s.push(
            time_each(reps / 10, || {
                for i in 0..calls {
                    black_box(f.eval(black_box(args), Seed(i)));
                }
            }) / calls as f64,
        );
    }
    report.set("blackbox.eval_ns_per_call", bb_s.iter().sum::<f64>() / bb_s.len() as f64 * 1e9);

    // The models' draws.
    let draws = 10_000;
    let mut rng = Xoshiro256pp::seeded(Seed(seed));
    let draw_s = match spec.draws {
        Draws::NormalExponential => {
            let (norm, exp) = (Normal::new(0.0, 1.0), Exponential::from_mean(4.0));
            time_each(reps / 10, || {
                for _ in 0..draws / 2 {
                    black_box(norm.sample(&mut rng) + exp.sample(&mut rng));
                }
            })
        }
        Draws::Gamma => {
            let g = Gamma::new(2.5, 1.0);
            time_each(reps / 10, || {
                for _ in 0..draws {
                    black_box(g.sample(&mut rng));
                }
            })
        }
    };
    report.set("prng.ns_per_draw", draw_s * 1e9 / draws as f64);

    // FindMatch of the sampled fingerprints against the final store.
    let mut pairings = 0u64;
    let mut lookups = Vec::new();
    for (c, fp) in &fingerprints {
        let view = store.shard(*c).freeze();
        pairings += view.find_match(fp).1;
        lookups.push(time_each(reps / 10, || {
            black_box(view.find_match(black_box(fp)));
        }));
    }
    report.set("basis.find_match_ns", quantile(&lookups, 0.5) * 1e9);
    report.set("basis.pairings_per_lookup", pairings as f64 / fingerprints.len() as f64);

    // Snapshot encode/decode of the store.
    let bytes = store.to_snapshot_bytes(cfg, family.name()).map_err(|e| e.to_string())?;
    let mb = bytes.len() as f64 / 1e6;
    let enc = time_each(reps / 20, || {
        black_box(store.to_snapshot_bytes(cfg, family.name()).expect("encoded above"));
    });
    let dec = time_each(reps / 20, || {
        black_box(
            ShardedBasisStore::from_snapshot_bytes(&bytes, cfg, family.clone(), n_cols)
                .expect("decodes its own snapshot"),
        );
    });
    report.set("basis.store_bytes", bytes.len() as f64);
    report.set("basis.snapshot_encode_mb_per_s", mb / enc);
    report.set("basis.snapshot_decode_mb_per_s", mb / dec);

    // First-touch estimates in a session attached to the warm store, and
    // to an empty one.
    let shared = SharedBasisStore::from_store(store);
    let scfg = SessionConfig::from_jigsaw(cfg);
    let dyn_sim: Arc<dyn Simulation> = sim.clone();
    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    let mut est = None;
    for &p in &points {
        let t = Instant::now();
        let mut s = InteractiveSession::attach(dyn_sim.clone(), scfg, shared.clone());
        let e = s.estimate_now(p, 0).map_err(|e| e.to_string())?;
        warm.push(t.elapsed().as_secs_f64());
        est = Some(e);
        let empty = SharedBasisStore::new(n_cols, cfg, family.clone());
        let t = Instant::now();
        let mut s = InteractiveSession::attach(dyn_sim.clone(), scfg, empty);
        black_box(s.estimate_now(p, 0).map_err(|e| e.to_string())?);
        cold.push(t.elapsed().as_secs_f64());
    }
    report.set("session.estimate_warm_us", quantile(&warm, 0.5) * 1e6);
    report.set("session.estimate_cold_us", quantile(&cold, 0.5) * 1e6);

    // Frame encode + decode of the requests and replies this workload sends.
    let est = est.ok_or("no estimate")?;
    let requests =
        [Request::Compile { src: spec.sql.clone() }, Request::Estimate { point: 3, col: 0 }];
    let responses = [
        Response::Estimated {
            point: est.point_idx,
            col: 0,
            n_samples: est.n_samples,
            source: est.source,
            expectation_bits: est.expectation.to_bits(),
            std_dev_bits: est.std_dev.to_bits(),
            lo_bits: est.lo.to_bits(),
            hi_bits: est.hi.to_bits(),
        },
        Response::Swept {
            points: sweep.stats.points,
            worlds: sweep.stats.worlds_evaluated,
            full_sims: sweep.stats.full_simulations,
            reused: sweep.stats.reused,
            warm_hits: sweep.stats.warm_hits,
            bases: sweep.stats.bases_per_column.clone(),
        },
    ];
    let rounds = 100;
    let req_s: f64 = requests
        .iter()
        .map(|r| {
            time_each(reps / 10, || {
                for _ in 0..rounds {
                    black_box(Request::decode(&black_box(r).encode()).expect("round trip"));
                }
            })
        })
        .sum();
    let resp_s: f64 = responses
        .iter()
        .map(|r| {
            time_each(reps / 10, || {
                for _ in 0..rounds {
                    black_box(Response::decode(&black_box(r).encode()).expect("round trip"));
                }
            })
        })
        .sum();
    report.set("protocol.request_roundtrip_ns", req_s * 1e9 / (rounds * requests.len()) as f64);
    report.set("protocol.response_roundtrip_ns", resp_s * 1e9 / (rounds * responses.len()) as f64);
    Ok(())
}
