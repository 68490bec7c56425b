//! Reuse stops copying, measured by count rather than by time.
//!
//! A warm re-sweep resolves every point against bases the first sweep
//! committed, so every result cell is `M_est` of a basis: a view over the
//! basis's shared samples, not a fresh `n`-sample vector. A counting global
//! allocator tallies the bytes the re-sweep requests; an eager copy per
//! cell alone would request `points × columns × n × 8` bytes.
//!
//! The allocator counts every thread of the process, so this binary holds
//! exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use jigsaw::blackbox::models::Demand;
use jigsaw::blackbox::{ParamDecl, ParamSpace};
use jigsaw::core::{AffineFamily, JigsawConfig, ShardedBasisStore, SweepRunner};
use jigsaw::pdb::{BlackBoxSim, Simulation};
use jigsaw::prng::SeedSet;

/// Bytes requested so far: every allocation's size, plus the new size of
/// every reallocation (so growth is counted in full, never netted out).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_resweep_maps_cells_without_copying_samples() {
    // 25 weeks × 2 feature sizes = 50 points, at the paper's n = 1000.
    let space = ParamSpace::new(vec![
        ParamDecl::range("week", 0, 24, 1),
        ParamDecl::set("feature", vec![5, 12]),
    ]);
    let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(2024));
    let cfg = JigsawConfig::paper();
    let n_cols = sim.columns().len();
    let mut stores = ShardedBasisStore::new(n_cols, &cfg, Arc::new(AffineFamily));
    let cold = SweepRunner::new(cfg.clone()).store(&mut stores).run(&sim).expect("cold sweep");

    let before = REQUESTED.load(Ordering::Relaxed);
    let warm = SweepRunner::new(cfg.clone()).store(&mut stores).run(&sim).expect("warm sweep");
    let requested = REQUESTED.load(Ordering::Relaxed) - before;

    let points = warm.points.len();
    assert_eq!(points, 50);
    assert_eq!(warm.stats.warm_hits, points, "every point of the re-sweep is a warm hit");
    for (c, w) in cold.points.iter().zip(&warm.points) {
        assert_eq!(
            c.metrics, w.metrics,
            "point {}: the re-sweep serves the cold bits",
            c.point_idx
        );
    }
    // One eager copy of every cell's samples. The views themselves cost a
    // small constant per cell: the measured total, in debug and release
    // alike, is 33.7 KB (about a twelfth of this), spent on the fingerprint
    // worlds and the result's bookkeeping; copying every cell measured
    // 433 KB. A quarter leaves a 3× margin for allocator and inlining
    // differences while still failing if a fifth of the cells were copied.
    let eager_copy = points * n_cols * cfg.n_samples * 8;
    assert!(
        requested < eager_copy / 4,
        "warm re-sweep requested {requested} bytes; one copy per cell is {eager_copy}"
    );
}
