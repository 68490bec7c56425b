//! Full-state chain stepping (the naive baseline).

use std::sync::Mutex;
use std::time::Instant;

use jigsaw_blackbox::MarkovModel;
use jigsaw_prng::{stream_seed, Seed};

use crate::config::resolve_thread_budget;
use crate::optimizer::{ScopedPool, WorkerPool};
use crate::telemetry::MarkovStats;

/// Seed-derivation key separating chain-transition randomness from output
/// randomness at the same `(instance, step)`.
pub(crate) const K_TRANSITION: u64 = 1;

/// The state of `n` chain instances entering a step.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainState {
    /// The step the chains are about to produce output for.
    pub step: usize,
    /// Per-instance chain values entering `step`.
    pub chains: Vec<f64>,
}

impl ChainState {
    /// Initial state: every instance at the model's initial chain value.
    pub fn initial(model: &dyn MarkovModel, n: usize) -> Self {
        ChainState { step: 0, chains: vec![model.initial_chain(); n] }
    }

    /// Number of instances.
    pub fn n(&self) -> usize {
        self.chains.len()
    }

    /// Advance every instance one step, returning the outputs produced at
    /// `self.step` (before the advance).
    pub fn step_all(&mut self, model: &dyn MarkovModel, master: Seed) -> Vec<f64> {
        self.step_all_threaded(model, master, 1)
    }

    /// [`Self::step_all`] with a thread budget (`0` = all available cores).
    /// Instance `i`'s randomness is the counter-based stream
    /// `(master, i, step)`, so scattering instance chunks through
    /// [`ScopedPool`] and writing each chunk in place is bit-identical to
    /// the sequential walk for any budget.
    pub fn step_all_threaded(
        &mut self,
        model: &dyn MarkovModel,
        master: Seed,
        threads: usize,
    ) -> Vec<f64> {
        let t = self.step;
        let n = self.chains.len();
        let threads = resolve_thread_budget(threads).min(n.max(1));
        let chunk = n.div_ceil(threads).max(1);
        let mut outputs = vec![0.0f64; n];
        // One lock per chunk hands each task exclusive access to its slices;
        // every lock is taken exactly once, so it never contends.
        let parts: Vec<Mutex<(&mut [f64], &mut [f64])>> =
            self.chains.chunks_mut(chunk).zip(outputs.chunks_mut(chunk)).map(Mutex::new).collect();
        ScopedPool.scatter(threads, parts.len(), &|ci| {
            let mut part = parts[ci].lock().expect("chunk lock poisoned");
            let (chains, outs) = &mut *part;
            for (k, (chain, out)) in chains.iter_mut().zip(outs.iter_mut()).enumerate() {
                let seed = stream_seed(master, ci * chunk + k, t);
                *out = model.output(t, *chain, seed);
                *chain = model.next_chain(t, *chain, *out, seed.derive(K_TRANSITION));
            }
        });
        self.step += 1;
        outputs
    }
}

/// Evaluate `steps` chain steps for `n` instances naively (cost `n` model
/// outputs per step). Returns the outputs of the **final** step and stats.
pub fn run_naive(
    model: &dyn MarkovModel,
    master: Seed,
    n: usize,
    steps: usize,
) -> (Vec<f64>, MarkovStats) {
    run_naive_threaded(model, master, n, steps, 1)
}

/// [`run_naive`] with a thread budget for the per-step instance walk.
/// Bit-identical to the sequential run for any budget.
pub fn run_naive_threaded(
    model: &dyn MarkovModel,
    master: Seed,
    n: usize,
    steps: usize,
    threads: usize,
) -> (Vec<f64>, MarkovStats) {
    assert!(steps > 0, "need at least one step");
    let start = Instant::now();
    let mut state = ChainState::initial(model, n);
    let mut last = Vec::new();
    for _ in 0..steps {
        last = state.step_all_threaded(model, master, threads);
    }
    let stats = MarkovStats {
        steps,
        full_steps: steps,
        fingerprint_steps: 0,
        estimator_rebuilds: 0,
        state_reconstructions: 0,
        model_invocations: (n * steps) as u64,
        elapsed: start.elapsed(),
    };
    (last, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_blackbox::models::MarkovBranch;

    #[test]
    fn naive_run_shape_and_counts() {
        let model = MarkovBranch::new(0.1);
        let (out, stats) = run_naive(&model, Seed(9), 50, 20);
        assert_eq!(out.len(), 50);
        assert_eq!(stats.model_invocations, 1000);
        assert_eq!(stats.full_steps, 20);
    }

    #[test]
    fn stepping_is_deterministic() {
        let model = MarkovBranch::new(0.2);
        let (a, _) = run_naive(&model, Seed(5), 20, 30);
        let (b, _) = run_naive(&model, Seed(5), 20, 30);
        assert_eq!(a, b);
        let (c, _) = run_naive(&model, Seed(6), 20, 30);
        assert_ne!(a, c);
    }

    #[test]
    fn state_step_matches_run_naive() {
        let model = MarkovBranch::new(0.05);
        let mut st = ChainState::initial(&model, 10);
        let mut last = Vec::new();
        for _ in 0..7 {
            last = st.step_all(&model, Seed(11));
        }
        let (direct, _) = run_naive(&model, Seed(11), 10, 7);
        assert_eq!(last, direct);
        assert_eq!(st.step, 7);
    }

    #[test]
    fn threaded_stepping_matches_sequential() {
        let model = MarkovBranch::new(0.15);
        let (seq, _) = run_naive(&model, Seed(8), 53, 12);
        for threads in [2usize, 3, 8, 100] {
            let (par, stats) = run_naive_threaded(&model, Seed(8), 53, 12, threads);
            assert_eq!(seq, par, "threads={threads}");
            assert_eq!(stats.model_invocations, 53 * 12);
        }
    }

    #[test]
    fn instance_prefix_stability() {
        // Instance i's trajectory must not depend on n — the property that
        // lets the first m instances double as the fingerprint set.
        let model = MarkovBranch::new(0.1);
        let (small, _) = run_naive(&model, Seed(4), 10, 25);
        let (large, _) = run_naive(&model, Seed(4), 100, 25);
        assert_eq!(small[..], large[..10]);
    }
}
