//! A persistent worker pool: threads spawned once, surviving across waves,
//! sweeps, and requests.
//!
//! [`ScopedPool`](super::executor::ScopedPool) spawns fresh OS threads for
//! every parallel phase — fine for one batch sweep, pure churn for a
//! long-lived session server that runs thousands of small scatters against
//! warm stores. [`PersistentPool`] moves provisioning out of the hot path:
//! workers are created in [`PersistentPool::new`] and parked on a condvar;
//! each [`scatter`](super::executor::WorkerPool::scatter) publishes one
//! *job* (an atomic task cursor plus a completion counter), wakes the
//! workers, participates from the calling thread, and returns when the
//! counter says every task ran. Which worker runs which task is — as the
//! [`WorkerPool`] contract requires — irrelevant: the executor stitches by
//! task index, so sweeps through a `PersistentPool` are **bit-identical**
//! to `ScopedPool` sweeps at every thread budget.
//!
//! Scatters are serialized by an internal gate (one job slot, one worker
//! set); concurrent callers — e.g. two server connections sweeping
//! different scenarios — queue rather than oversubscribe the budget.
//! Nested scatters from inside a task would deadlock on that gate; the
//! executor never does this.
//!
//! A panicking task does not wedge the pool. Each task runs under
//! `catch_unwind` and counts as finished either way; the scatter waits for
//! every task, retires the job, releases the gate, and only then re-raises
//! the first panic on the caller. The pool keeps serving afterwards, like
//! [`ScopedPool`](super::executor::ScopedPool), which re-raises after
//! joining its threads. (Evaluation tasks never panic in practice:
//! [`jigsaw_pdb::eval_window_on`] already turns simulation panics into
//! typed errors.)
//!
//! This module holds the workspace's only `unsafe`: see [`TaskFn`].
//! `crates/core/tests/pool_stress.rs` drives it through thousands of mixed
//! scatters, panicking ones included, under a hang watchdog.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use super::executor::WorkerPool;

/// The borrowed task closure, erased to a raw pointer so parked worker
/// threads (which are `'static`) can carry it.
///
/// # Safety
///
/// The pointee is only ever dereferenced for a task index claimed from the
/// job's cursor while the index is `< n_tasks`. Every such index is claimed
/// exactly once, and `scatter` neither returns nor unwinds until the
/// completion counter says all `n_tasks` claimed tasks have *finished* (a
/// panicking task is caught and counted too) — so every dereference
/// happens-before `scatter` exits, i.e. strictly inside the closure's real
/// lifetime. Workers that wake late observe an exhausted cursor and never
/// touch the pointer.
#[derive(Clone, Copy)]
struct TaskFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are fine) and the pointer is
// only dereferenced within the window described on [`TaskFn`].
unsafe impl Send for TaskFn {}
unsafe impl Sync for TaskFn {}

/// One scatter's work order, shared between the caller and the workers.
#[derive(Clone)]
struct Job {
    run: TaskFn,
    /// Next task index to claim (claims past `n_tasks` are no-ops).
    cursor: Arc<AtomicUsize>,
    /// Tasks that have *finished* running, panicked ones included.
    finished: Arc<AtomicUsize>,
    /// The first panic payload any task raised, re-raised by the caller.
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
    n_tasks: usize,
    /// Seats taken by pool workers; beyond `seat_limit` a worker re-parks
    /// without touching the job (enforces the scatter's thread budget).
    seats: Arc<AtomicUsize>,
    seat_limit: usize,
}

#[derive(Default)]
struct PoolState {
    /// Bumped once per published job; workers use it to tell a fresh job
    /// from the one they already served.
    epoch: u64,
    job: Option<Job>,
    /// Worker threads that have started (the constructor's startup barrier,
    /// which is what makes [`PersistentPool::spawned_workers`] exact).
    started: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The scattering caller parks here until the job completes (also used
    /// once at construction for the startup barrier).
    done: Condvar,
}

/// A [`WorkerPool`] whose worker threads are spawned **once** — at
/// construction — and survive across waves, sweeps, and requests, parked on
/// a condvar between jobs.
///
/// `PersistentPool::new(threads)` spawns `threads - 1` workers; the thread
/// calling `scatter` always participates as the final seat, so a budget-`t`
/// scatter runs on at most `t` concurrent threads exactly like
/// [`ScopedPool`](super::executor::ScopedPool) — and, because the executor
/// stitches by task index, with bit-identical results. Scatters with a
/// smaller budget than the pool simply seat fewer workers.
///
/// Dropping the pool parks no one: workers are flagged down, woken, and
/// joined.
pub struct PersistentPool {
    shared: Arc<Shared>,
    /// Serializes scatters: one job slot, one worker set.
    gate: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    /// Threads ever created by this pool — stays at `workers.len()` for the
    /// pool's whole lifetime (the property the reuse tests pin).
    spawn_count: usize,
}

impl PersistentPool {
    /// Spawn a pool for a thread budget of `threads` (`threads - 1` parked
    /// workers plus the scattering caller). Budgets of 0 or 1 spawn no
    /// workers; every scatter then runs inline on the caller.
    ///
    /// Returns once every worker thread has actually started, so
    /// [`Self::spawned_workers`] is exact from the moment of construction.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let n_workers = threads.saturating_sub(1);
        let workers: Vec<JoinHandle<()>> = (0..n_workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        // Startup barrier: wait until all workers are inside their loop.
        let mut st = shared.state.lock().expect("pool state poisoned");
        while st.started < n_workers {
            st = shared.done.wait(st).expect("pool state poisoned");
        }
        drop(st);
        pool_obs().workers.add(n_workers as i64);
        PersistentPool { shared, gate: Mutex::new(()), workers, spawn_count: n_workers }
    }

    /// Total worker threads this pool has ever spawned. Constant for the
    /// pool's lifetime (`threads - 1` from [`Self::new`]): scatters reuse
    /// workers, they never create threads.
    pub fn spawned_workers(&self) -> usize {
        self.spawn_count
    }
}

impl std::fmt::Debug for PersistentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPool").field("workers", &self.workers.len()).finish()
    }
}

/// Handles to the pool's global instruments (see `jigsaw_obs`);
/// registered once, lock-free to update, purely observational.
struct PoolObs {
    parks: jigsaw_obs::Counter,
    wakes: jigsaw_obs::Counter,
    scatters: jigsaw_obs::Counter,
    tasks: jigsaw_obs::Histogram,
    workers: jigsaw_obs::Gauge,
}

fn pool_obs() -> &'static PoolObs {
    static OBS: std::sync::OnceLock<PoolObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let g = jigsaw_obs::global();
        PoolObs {
            parks: g.counter("jigsaw_pool_parks_total", &[]),
            wakes: g.counter("jigsaw_pool_wakes_total", &[]),
            scatters: g.counter("jigsaw_pool_scatters_total", &[]),
            tasks: g.histogram("jigsaw_pool_tasks_per_scatter", &[]),
            workers: g.gauge("jigsaw_pool_workers", &[]),
        }
    })
}

fn worker_loop(shared: &Shared) {
    // Announce startup (releases the constructor's barrier).
    {
        let mut st = shared.state.lock().expect("pool state poisoned");
        st.started += 1;
        shared.done.notify_all();
    }
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    // The job may already be retired (scatter finished
                    // before this worker woke); then just park again.
                    if let Some(job) = st.job.clone() {
                        pool_obs().wakes.inc();
                        break job;
                    }
                }
                pool_obs().parks.inc();
                st = shared.work.wait(st).expect("pool state poisoned");
            }
        };
        if job.seats.fetch_add(1, Ordering::AcqRel) < job.seat_limit {
            // SAFETY: scatter is still blocked in its completion wait (the
            // job was cloned out of the live slot), so the closure behind
            // the pointer outlives every dereference; see [`TaskFn`].
            let run = unsafe { &*job.run.0 };
            drain(&job, run, shared);
        }
    }
}

/// Claim and run tasks off the job's cursor until it is exhausted,
/// signalling the completion condvar when the last task finishes. A
/// panicking task is caught, its payload kept if it is the job's first,
/// and counted as finished like any other.
fn drain(job: &Job, run: &(dyn Fn(usize) + Sync), shared: &Shared) {
    loop {
        let t = job.cursor.fetch_add(1, Ordering::Relaxed);
        if t >= job.n_tasks {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(t))) {
            job.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
        }
        if job.finished.fetch_add(1, Ordering::AcqRel) + 1 == job.n_tasks {
            // Touch the lock before notifying so the wakeup cannot slip
            // between the caller's counter check and its wait.
            drop(shared.state.lock().expect("pool state poisoned"));
            shared.done.notify_all();
        }
    }
}

impl WorkerPool for PersistentPool {
    fn scatter(&self, threads: usize, n_tasks: usize, run: &(dyn Fn(usize) + Sync)) {
        // Inline fast path: nothing to parallelize (this also covers the
        // zero-task scatter — no job is published, no worker wakes).
        if threads <= 1 || n_tasks <= 1 || self.workers.is_empty() {
            for t in 0..n_tasks {
                run(t);
            }
            return;
        }
        let gate = self.gate.lock().expect("pool gate poisoned");
        let obs = pool_obs();
        obs.scatters.inc();
        obs.tasks.record(n_tasks as u64);
        // SAFETY: pure lifetime erasure (`&'a dyn …` → `&'static dyn …`) so
        // the borrow can ride in the `'static` job slot. The pointer is
        // retired from that slot before this function — and with it the real
        // borrow — ends; see [`TaskFn`] for the full argument.
        let run_erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
        let job = Job {
            run: TaskFn(run_erased as *const _),
            cursor: Arc::new(AtomicUsize::new(0)),
            finished: Arc::new(AtomicUsize::new(0)),
            panic: Arc::new(Mutex::new(None)),
            n_tasks,
            seats: Arc::new(AtomicUsize::new(0)),
            // The caller takes one seat itself.
            seat_limit: threads - 1,
        };
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.epoch += 1;
            st.job = Some(job.clone());
        }
        self.shared.work.notify_all();
        // Participate from the calling thread, then wait out the stragglers.
        drain(&job, run, &self.shared);
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        while job.finished.load(Ordering::Acquire) < n_tasks {
            st = self.shared.done.wait(st).expect("pool state poisoned");
        }
        // Retire the job before `run`'s borrow ends: after this, no worker
        // can clone (and thus ever dereference) the erased pointer.
        st.job = None;
        drop(st);
        // Release the gate before re-raising, so a panic never poisons it.
        drop(gate);
        let payload = job.panic.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for PersistentPool {
    fn drop(&mut self) {
        pool_obs().workers.add(-(self.spawn_count as i64));
        self.shared.state.lock().expect("pool state poisoned").shutdown = true;
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::ShardedBasisStore;
    use crate::config::JigsawConfig;
    use crate::mapping::AffineFamily;
    use crate::optimizer::{executor::ScopedPool, SweepResult, SweepRunner};
    use jigsaw_blackbox::models::{Demand, SynthBasis};
    use jigsaw_blackbox::{ParamDecl, ParamSpace};
    use jigsaw_pdb::{BlackBoxSim, Simulation};
    use jigsaw_prng::SeedSet;
    use std::collections::HashSet;

    #[test]
    fn scatter_runs_every_task_exactly_once() {
        let pool = PersistentPool::new(4);
        for n_tasks in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..n_tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.scatter(4, n_tasks, &|t| {
                hits[t].fetch_add(1, Ordering::SeqCst);
            });
            for (t, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "task {t} of {n_tasks}");
            }
        }
    }

    #[test]
    fn zero_task_scatter_is_a_clean_no_op_and_drop_parks_cleanly() {
        let pool = PersistentPool::new(4);
        assert_eq!(pool.spawned_workers(), 3);
        // A zero-task scatter must neither run anything nor wedge a worker.
        pool.scatter(4, 0, &|_| panic!("no tasks to run"));
        // Workers are still parked and reusable afterwards…
        let ran = AtomicUsize::new(0);
        pool.scatter(4, 16, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        assert_eq!(pool.spawned_workers(), 3, "reuse, not respawn");
        // …and drop joins them without hanging.
        drop(pool);
    }

    #[test]
    fn budget_one_runs_inline() {
        let pool = PersistentPool::new(1);
        assert_eq!(pool.spawned_workers(), 0);
        let main = std::thread::current().id();
        pool.scatter(1, 8, &|_| assert_eq!(std::thread::current().id(), main));
    }

    #[test]
    fn seat_limit_caps_concurrency_below_pool_size() {
        // An 8-thread pool given budget-2 scatters must run at most 2
        // tasks concurrently (1 worker + the caller).
        let pool = PersistentPool::new(8);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (live2, peak2) = (Arc::clone(&live), Arc::clone(&peak));
        pool.scatter(2, 64, &move |_| {
            let now = live2.fetch_add(1, Ordering::SeqCst) + 1;
            peak2.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live2.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {}", peak.load(Ordering::SeqCst));
    }

    fn demand_sim() -> BlackBoxSim {
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 0, 24, 1),
            ParamDecl::set("feature", vec![5, 12]),
        ]);
        BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(2024))
    }

    fn synth_sim(n_bases: usize) -> BlackBoxSim {
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 48, 1)]);
        BlackBoxSim::new(Arc::new(SynthBasis::new(n_bases)), space, SeedSet::new(7))
    }

    fn cfg(threads: usize) -> JigsawConfig {
        JigsawConfig::paper().with_n_samples(120).with_threads(threads)
    }

    fn assert_identical(a: &SweepResult, b: &SweepResult, what: &str) {
        assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x, y, "{what}: point {} diverged", x.point_idx);
        }
        assert_eq!(a.stats.counters(), b.stats.counters(), "{what}: counters");
    }

    /// Sweep `sim` on `pool`, returning the result plus the store's exact
    /// snapshot bytes — the strongest equality we can ask for.
    fn sweep_bytes(
        sim: &dyn jigsaw_pdb::Simulation,
        threads: usize,
        pool: Arc<dyn WorkerPool>,
    ) -> (SweepResult, Vec<u8>) {
        let c = cfg(threads);
        let mut stores = ShardedBasisStore::new(sim.columns().len(), &c, Arc::new(AffineFamily));
        let r = SweepRunner::new(c.clone()).pool(pool).store(&mut stores).run(sim).unwrap();
        let bytes = stores.to_snapshot_bytes(&c, "affine").unwrap();
        (r, bytes)
    }

    #[test]
    fn sweeps_are_bit_identical_to_scoped_pool() {
        for (name, sim) in [
            ("Demand", demand_sim()),
            ("SynthBasis(1)", synth_sim(1)),
            ("SynthBasis(4)", synth_sim(4)),
        ] {
            for threads in [1usize, 4] {
                let (scoped, scoped_bytes) = sweep_bytes(&sim, threads, Arc::new(ScopedPool));
                let (persist, persist_bytes) =
                    sweep_bytes(&sim, threads, Arc::new(PersistentPool::new(threads)));
                let what = format!("{name} threads={threads}");
                assert_identical(&scoped, &persist, &what);
                assert_eq!(scoped_bytes, persist_bytes, "{what}: snapshot bytes diverged");
            }
        }
    }

    #[test]
    fn workers_survive_across_consecutive_sweeps() {
        let sim = demand_sim();
        let pool = Arc::new(PersistentPool::new(4));
        assert_eq!(pool.spawned_workers(), 3, "workers spawned once, at construction");
        let c = cfg(4);
        let mut stores = ShardedBasisStore::new(sim.columns().len(), &c, Arc::new(AffineFamily));
        let mut runner = SweepRunner::new(c.clone())
            .pool(pool.clone() as Arc<dyn WorkerPool>)
            .store(&mut stores);
        let cold = runner.run(&sim).unwrap();
        assert!(cold.stats.full_simulations > 0);
        let warm = runner.run(&sim).unwrap();
        assert_eq!(warm.stats.warm_hits, warm.stats.points, "second sweep rides warm bases");
        // The whole point of the pool: two sweeps, zero new thread spawns.
        assert_eq!(pool.spawned_workers(), 3, "sweeps must reuse workers, never respawn");
    }

    #[test]
    fn tasks_run_on_reused_worker_threads() {
        let pool = PersistentPool::new(4);
        let grab = || {
            let ids = Mutex::new(HashSet::new());
            pool.scatter(4, 256, &|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(20));
            });
            ids.into_inner().unwrap()
        };
        let first = grab();
        let second = grab();
        assert!(first.len() > 1, "scatter actually fanned out");
        // Every thread of the second scatter already served the first (the
        // caller plus parked workers) — nothing was spawned in between.
        assert!(second.is_subset(&first), "workers were reused, not respawned");
        assert_eq!(pool.spawned_workers(), 3);
    }
}
