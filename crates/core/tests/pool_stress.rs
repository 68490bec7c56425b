//! Stress test for the worker pools — above all `PersistentPool`, which
//! holds the workspace's only `unsafe` (a lifetime-erased task closure).
//!
//! Thousands of scatters mix zero-task, one-task, many-task and panicking
//! jobs; panics fire on the scattering caller's thread and on worker
//! threads. Every non-panicking scatter must run each task exactly once, a
//! panicking scatter must re-raise on the caller, and the pool must keep
//! serving afterwards. Pools are also dropped while idle and right after a
//! scatter. Each scatter runs under a watchdog, so a scatter that never
//! returns fails the test instead of hanging the suite.
//!
//! Run it alone, in release, with:
//! `cargo test --release -p jigsaw-core --test pool_stress`

use std::panic::{self, catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Once;
use std::thread;
use std::time::Duration;

use jigsaw_core::{PersistentPool, ScopedPool, WorkerPool};

/// Longest a single scatter (or pool construction/drop) may take.
const WATCHDOG: Duration = Duration::from_secs(20);

const DELIBERATE: &str = "pool stress: deliberate task panic";

/// Keep the hundreds of deliberate panics out of the test output; any other
/// panic still reports through the default hook.
fn quiet_deliberate_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let msg = info.payload().downcast_ref::<&str>().copied();
            // `std::thread::scope` re-raises a worker panic with this text.
            if !matches!(msg, Some(DELIBERATE | "a scoped thread panicked")) {
                default(info);
            }
        }));
    });
}

/// Run `body` on a runner thread that calls `beat` after every scatter.
/// Fails if the runner panics, or if it goes [`WATCHDOG`] without a beat
/// (the hung runner is left behind; the test process exits without it).
fn watched(what: &'static str, body: impl FnOnce(&dyn Fn()) + Send + 'static) {
    quiet_deliberate_panics();
    let (tx, rx) = mpsc::channel::<()>();
    let runner = thread::spawn(move || body(&|| tx.send(()).expect("watchdog hung up")));
    let mut beats = 0usize;
    loop {
        match rx.recv_timeout(WATCHDOG) {
            Ok(()) => beats += 1,
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                panic!("{what}: step {beats} did not finish within {WATCHDOG:?}")
            }
        }
    }
    if let Err(payload) = runner.join() {
        resume_unwind(payload);
    }
}

/// Which tasks of a scatter panic.
#[derive(Debug, Clone, Copy)]
enum Panics {
    Never,
    /// Task `k` panics, wherever it runs.
    AtTask(usize),
    /// Every task that runs on the scattering caller's thread panics.
    OnCaller,
    /// Every task that runs on any other thread panics.
    OffCaller,
}

/// Panics observed over a run, by the thread they fired on.
#[derive(Debug, Default)]
struct Tally {
    scatters: usize,
    caller_panics: usize,
    worker_panics: usize,
}

/// One scatter of `n_tasks` tasks under `rule`, with every invariant
/// checked. `own_payload` pools (the persistent one) re-raise the task's
/// own panic payload rather than a wrapper.
fn scatter_once(
    pool: &dyn WorkerPool,
    threads: usize,
    n_tasks: usize,
    rule: Panics,
    own_payload: bool,
    tally: &mut Tally,
) {
    let caller = thread::current().id();
    // Both pools run a scatter inline on the caller exactly when it has a
    // budget of one or a single task; otherwise other threads claim tasks.
    let dispatched = threads > 1 && n_tasks > 1;
    let hits: Vec<AtomicUsize> = (0..n_tasks).map(|_| AtomicUsize::new(0)).collect();
    let off_started = AtomicUsize::new(0);
    let on_caller = AtomicUsize::new(0);
    let off_caller = AtomicUsize::new(0);
    let task = |t: usize| {
        hits[t].fetch_add(1, Ordering::SeqCst);
        let here = thread::current().id() == caller;
        if !here {
            off_started.fetch_add(1, Ordering::SeqCst);
        } else if matches!(rule, Panics::OffCaller) && dispatched {
            // Hold the caller in its task until a worker has claimed one,
            // so every dispatched OffCaller scatter panics on a worker.
            while off_started.load(Ordering::SeqCst) == 0 {
                thread::yield_now();
            }
        }
        let fire = match rule {
            Panics::Never => false,
            Panics::AtTask(k) => t == k,
            Panics::OnCaller => here,
            Panics::OffCaller => !here,
        };
        if fire {
            if here { &on_caller } else { &off_caller }.fetch_add(1, Ordering::SeqCst);
            panic::panic_any(DELIBERATE);
        }
    };
    let result = catch_unwind(AssertUnwindSafe(|| pool.scatter(threads, n_tasks, &task)));
    let (on, off) = (on_caller.load(Ordering::SeqCst), off_caller.load(Ordering::SeqCst));
    let what = format!("threads={threads} n_tasks={n_tasks} {rule:?}");
    assert_eq!(result.is_err(), on + off > 0, "{what}: a scatter re-raises iff a task panicked");
    if matches!(rule, Panics::OffCaller) && dispatched {
        assert!(off > 0, "{what}: a worker-side task must have panicked");
    }
    for (t, h) in hits.iter().enumerate() {
        let runs = h.load(Ordering::SeqCst);
        // A panic may cut a scatter short, but no task ever runs twice.
        let ok = if result.is_ok() { runs == 1 } else { runs <= 1 };
        assert!(ok, "{what}: task {t} ran {runs} times");
    }
    if let (Err(payload), true) = (&result, own_payload) {
        assert_eq!(payload.downcast_ref::<&str>(), Some(&DELIBERATE), "{what}: payload");
    }
    tally.scatters += 1;
    tally.caller_panics += on;
    tally.worker_panics += off;
}

/// A small deterministic generator for the scatter mix.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// `rounds` scatters of the mixed workload on `pool`, one beat each.
fn mixed_scatters(
    pool: &dyn WorkerPool,
    own_payload: bool,
    rounds: usize,
    seed: u64,
    beat: &dyn Fn(),
) -> Tally {
    let mut mix = Mix(seed);
    let mut tally = Tally::default();
    for _ in 0..rounds {
        let threads = [1, 2, 3, 4, 8][mix.below(5)];
        let (n_tasks, rule) = match mix.below(10) {
            0 | 1 => (0, Panics::Never),
            2 | 3 => (1, Panics::Never),
            4..=6 => (2 + mix.below(63), Panics::Never),
            7 => {
                let n = 1 + mix.below(64);
                (n, Panics::AtTask(mix.below(n)))
            }
            8 => (1 + mix.below(64), Panics::OnCaller),
            _ => (2 + mix.below(24), Panics::OffCaller),
        };
        scatter_once(pool, threads, n_tasks, rule, own_payload, &mut tally);
        beat();
    }
    tally
}

#[test]
fn scoped_pool_survives_mixed_scatters() {
    watched("ScopedPool", |beat| {
        let tally = mixed_scatters(&ScopedPool, false, 2000, 0x9E37_79B9, beat);
        // Inline scatters (budget 1 or a single task) panic on the caller;
        // threaded scatters panic on spawned workers.
        assert!(tally.caller_panics > 0, "{tally:?}");
        assert!(tally.worker_panics > 0, "{tally:?}");
    });
}

#[test]
fn persistent_pool_survives_mixed_scatters() {
    watched("PersistentPool", |beat| {
        for (size, seed) in [(2, 0x5EED_0001), (4, 0x5EED_0002), (8, 0x5EED_0003)] {
            let pool = PersistentPool::new(size);
            let tally = mixed_scatters(&pool, true, 1500, seed, beat);
            assert!(tally.caller_panics > 0, "size {size}: {tally:?}");
            assert!(tally.worker_panics > 0, "size {size}: {tally:?}");
            // Reuse, not respawn, all the way through the panics.
            assert_eq!(pool.spawned_workers(), size - 1);
        }
    });
}

#[test]
fn persistent_pool_drops_cleanly_while_idle_and_after_scatters() {
    watched("PersistentPool drop", |beat| {
        let mut tally = Tally::default();
        for round in 0..150 {
            let size = 2 + round % 4;
            // Dropped while idle, straight after construction.
            drop(PersistentPool::new(size));
            beat();
            // Dropped right after a plain scatter…
            let pool = PersistentPool::new(size);
            scatter_once(&pool, size, 1 + round % 40, Panics::Never, true, &mut tally);
            drop(pool);
            beat();
            // …and right after a panicking one.
            let pool = PersistentPool::new(size);
            let rule = if round % 2 == 0 { Panics::OnCaller } else { Panics::OffCaller };
            scatter_once(&pool, size, 2 + round % 20, rule, true, &mut tally);
            drop(pool);
            beat();
        }
        assert_eq!(tally.scatters, 300);
    });
}
