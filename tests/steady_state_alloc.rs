//! Zero steady-state heap allocation in the fused-iteration kernels.
//!
//! A counting global allocator wraps `System`. After one warm-up call
//! (which may size the operator's reused result buffer and spawn the
//! kernel pool), repeated compact EBE applies — threaded and on one
//! thread — and long `dot_multi` reductions must not allocate at all.
//! This file holds a single test so that no other test's allocations run
//! concurrently with the counted sections.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hetsolve::fem::FemProblem;
use hetsolve::prelude::*;
use hetsolve::sparse::vecops::dot_multi;
use hetsolve::sparse::MultiOperator;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counter is a
// relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes (on any thread) while it runs.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn fused_kernels_allocate_nothing_in_steady_state() {
    // 7,803 DOF: above the apply's work grain, and n·r above the
    // threshold where `dot_multi` sums in chunks
    let spec = GroundModelSpec::paper_like(8, 8, 4, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, true);
    let r = 4;
    let n = backend.n_dofs();
    let x: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n * r];

    for parallel in [true, false] {
        let mut op = backend.ebe_a(r);
        op.parallel = parallel;
        op.apply_multi(&x, &mut y);
        let count = allocations_in(|| {
            for _ in 0..100 {
                op.apply_multi(&x, &mut y);
            }
        });
        assert_eq!(count, 0, "compact apply, parallel = {parallel}");
    }

    let mut out = vec![0.0; r];
    dot_multi(&x, &y, r, &mut out);
    let count = allocations_in(|| {
        for _ in 0..100 {
            dot_multi(&x, &y, r, &mut out);
        }
    });
    assert_eq!(count, 0, "dot_multi over {} values", n * r);
    assert!(out.iter().all(|v| v.is_finite()));
}
