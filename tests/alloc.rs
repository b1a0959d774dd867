//! Steady-state allocation accounting for the solver hot paths.
//!
//! The per-chain scratch arena (DESIGN.md §2.6) exists so that applying
//! the preconditioner — the operation the W-cycle repeats thousands of
//! times per solve — touches the heap **zero** times once its buffers are
//! warm. That claim is enforced here with a counting global allocator:
//!
//! 1. after one warm-up application, further `precondition_block_rm`
//!    calls perform no allocation at all (widths 1, 3 and 4 — 3 stands
//!    for the widths outside the monomorphised kernels, which the outer
//!    PCG reaches by deflating converged columns), and
//! 2. a longer outer solve allocates exactly as much as a shorter one —
//!    i.e. the per-iteration allocation count of `solve` is zero (the
//!    remaining allocations are per-solve boundary work).
//!
//! Both tests run the 64×64 grid (n = 4096), and the first also zoo
//! smallworld/small (n = 1500) over an iterative bottom, at pool width 1:
//! every level sits below the parallel-dispatch cutoffs, so the whole
//! application takes the sequential kernel paths the zero-allocation
//! contract covers (the parallel dispatch paths collect per-chunk
//! partials by design).
//!
//! The counter is thread-local, so the harness running other tests on
//! sibling threads cannot perturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parsdd_graph::parutil::with_threads;
use parsdd_solver::chain::{build_chain, ChainOptions, Precision};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (and growth reallocations) observed on this thread.
fn allocs_here() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn grid_rhs(n: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) - 11.0).collect();
    let mean = b.iter().sum::<f64>() / n as f64;
    b.iter_mut().for_each(|v| *v -= mean);
    b
}

/// Zero heap allocations per preconditioner application once warm, at
/// block widths 1, 3 and 4 — in both storage precisions (each chain's
/// cycle keeps its scratch in a `ChainWorkspace` arena at its own
/// precision), over a direct bottom and over an iterative one (whose
/// Jacobi-PCG state, and the f64 staging the f32 cycle passes it through,
/// live there too).
#[test]
fn preconditioner_application_is_allocation_free_when_warm() {
    with_threads(1, || {
        let grid = parsdd_graph::generators::grid2d(64, 64, |x, y| 1.0 + ((x * 3 + y) % 5) as f64);
        let smallworld = parsdd_bench::zoo::build("smallworld", parsdd_bench::zoo::Tier::Small);
        let iterative_bottom = ChainOptions {
            dense_bottom_limit: 0,
            ..ChainOptions::default()
        };
        let cases = [
            (&grid, ChainOptions::default(), true),
            (&smallworld, iterative_bottom, false),
        ];
        for ((g, options, direct), precision) in cases
            .iter()
            .flat_map(|c| [(c, Precision::F64), (c, Precision::F32)])
        {
            let chain = build_chain(g, &options.with_precision(precision));
            assert_eq!(chain.stats().direct_bottom, *direct);
            let n = g.n();
            for k in [1usize, 3, 4] {
                let br: Vec<f64> = (0..n * k).map(|i| ((i % 19) as f64) - 9.0).collect();
                let mut out = Vec::new();
                // Warm-up: the first application grows every arena buffer to
                // its steady-state size (sizes are deterministic per level).
                chain.precondition_block_rm(&br, k, &mut out);
                chain.precondition_block_rm(&br, k, &mut out);
                let before = allocs_here();
                for _ in 0..5 {
                    chain.precondition_block_rm(&br, k, &mut out);
                }
                let grew = allocs_here() - before;
                assert_eq!(
                    grew, 0,
                    "width-{k} {precision:?} preconditioner application allocated \
                     {grew} times in steady state"
                );
            }
        }
    });
}

/// The outer solve's allocation count does not depend on the iteration
/// count: everything the PCG loop needs lives in reused buffers, so a
/// 25-iteration solve allocates exactly as much as a 10-iteration one.
/// (Counts stay below `STALL_WINDOW` so neither run trips stall exit;
/// tolerance 0 pins the iteration counts exactly.)
#[test]
fn solve_allocations_are_iteration_count_independent() {
    with_threads(1, || {
        let g = parsdd_graph::generators::grid2d(64, 64, |x, y| 1.0 + ((x * 3 + y) % 5) as f64);
        for precision in [Precision::F64, Precision::F32] {
            let chain = build_chain(&g, &ChainOptions::default().with_precision(precision));
            let b = grid_rhs(g.n());
            // Warm the workspace pool and the outer-solve buffers.
            let _ = chain.solve(&b, 0.0, 5);

            let measure = |iters: usize| {
                let before = allocs_here();
                let outcome = chain.solve(&b, 0.0, iters);
                assert_eq!(outcome.iterations, iters);
                allocs_here() - before
            };
            let short = measure(10);
            let long = measure(25);
            assert_eq!(
                short, long,
                "{precision:?} solve allocates per iteration: {short} allocations \
                 at 10 iterations vs {long} at 25"
            );
        }
    });
}
