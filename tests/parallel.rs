//! Scaling and determinism tests for the real parallel runtime.
//!
//! Four claims are pinned down here:
//!
//! 1. **Concurrency is real** — `rayon::join` on a 2-wide pool executes its
//!    arms on different workers simultaneously (proved by a rendezvous that
//!    would time out under sequential execution), and leaf tasks observe
//!    the width of the pool they run in.
//! 2. **Ordered combinators stay ordered** — `par_iter().map().collect()`
//!    and `filter().collect()` return exactly the sequential result on a
//!    wide pool.
//! 3. **The PRAM primitives agree with their sequential counterparts** on
//!    proptest-generated inputs spanning the sequential/parallel cutoff.
//! 4. **The full solver pipeline is bitwise reproducible across widths** —
//!    a fixed-iteration solve produces identical iterates and residuals at
//!    1 and 4 threads (the shim's width-independent reduction trees at
//!    work; real rayon does not give this).

use proptest::prelude::*;
use rayon::prelude::*;

use parsdd_graph::parutil::{exclusive_prefix_sum, par_count, par_filter, with_threads};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Both arms of a `join` must be in flight at once on a 2-wide pool: each
/// arm bumps a shared counter and then waits (with a deadline, so a
/// regression to sequential execution fails instead of hanging) until it
/// has seen the other arm arrive.
#[test]
fn join_overlaps_across_workers() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool");
    let arrived = AtomicUsize::new(0);
    let rendezvous = || {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(30);
        while arrived.load(Ordering::SeqCst) < 2 {
            assert!(
                Instant::now() < deadline,
                "join arms never overlapped: runtime is executing sequentially"
            );
            std::thread::yield_now();
        }
        arrived.load(Ordering::SeqCst)
    };
    let (a, b) = pool.install(|| rayon::join(rendezvous, rendezvous));
    assert_eq!((a, b), (2, 2));
}

/// Parallel leaves run *inside* the installed pool: every task observes
/// that pool's width via `current_num_threads`, even though the test
/// thread itself is not a worker.
#[test]
fn pool_width_is_visible_from_worker_tasks() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .expect("pool");
    let widths: Vec<usize> = pool.install(|| {
        (0..100_000usize)
            .into_par_iter()
            .map(|_| rayon::current_num_threads())
            .collect()
    });
    assert_eq!(widths.len(), 100_000);
    assert!(widths.iter().all(|&w| w == 3));
}

/// Ordered combinators return exactly the sequential result on a wide pool.
#[test]
fn ordered_combinators_preserve_order_on_wide_pool() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool");
    let xs: Vec<u64> = (0..300_000u64).collect();
    let tripled: Vec<u64> = pool.install(|| xs.par_iter().map(|&x| 3 * x).collect());
    assert!(tripled.iter().enumerate().all(|(i, &v)| v == 3 * i as u64));
    let picked: Vec<u64> = pool.install(|| xs.par_iter().copied().filter(|x| x % 7 == 0).collect());
    let expect: Vec<u64> = xs.iter().copied().filter(|x| x % 7 == 0).collect();
    assert_eq!(picked, expect);
}

/// Sorting through the parallel merge sort matches std, including the
/// relative order of equal keys, at several pool widths.
#[test]
fn par_sort_matches_std_across_widths() {
    let input: Vec<(u32, u32)> = (0..150_000u32)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) % 512, i))
        .collect();
    let mut expect = input.clone();
    expect.sort_by_key(|p| p.0);
    for threads in [1usize, 2, 4] {
        let sorted = with_threads(threads, || {
            let mut v = input.clone();
            v.par_sort_by_key(|p| p.0);
            v
        });
        assert_eq!(
            sorted, expect,
            "stable par_sort diverged at width {threads}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Prefix sums and compaction agree with their sequential definitions
    /// on inputs spanning the SEQ_CUTOFF boundary, at widths 1 and 2.
    #[test]
    fn pram_primitives_match_sequential(len in 0usize..20_000, seed in 0u64..1_000, threads in 1usize..3) {
        // Deterministic LCG input.
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let xs: Vec<usize> = (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 59) as usize
            })
            .collect();

        let (prefix, kept, count) = with_threads(threads, || {
            (
                exclusive_prefix_sum(&xs),
                par_filter(&xs, |x| x % 3 == 0),
                par_count(&xs, |x| x % 2 == 1),
            )
        });

        let mut acc = 0usize;
        let mut seq_prefix = vec![0usize];
        for &x in &xs {
            acc += x;
            seq_prefix.push(acc);
        }
        prop_assert_eq!(prefix, seq_prefix);
        let seq_kept: Vec<usize> = xs.iter().copied().filter(|x| x % 3 == 0).collect();
        prop_assert_eq!(kept, seq_kept);
        prop_assert_eq!(count, xs.iter().filter(|x| *x % 2 == 1).count());
    }
}

/// `scope` spawns must also be in flight simultaneously on a 2-wide pool:
/// the same rendezvous as [`join_overlaps_across_workers`], but through
/// the dynamic-task API the chain builder uses.
#[test]
fn scope_spawns_overlap_across_workers() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool");
    let arrived = AtomicUsize::new(0);
    let rendezvous = |arrived: &AtomicUsize| {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(30);
        while arrived.load(Ordering::SeqCst) < 2 {
            assert!(
                Instant::now() < deadline,
                "scope spawns never overlapped: runtime is executing sequentially"
            );
            std::thread::yield_now();
        }
    };
    pool.install(|| {
        rayon::scope(|s| {
            s.spawn(|_| rendezvous(&arrived));
            s.spawn(|_| rendezvous(&arrived));
        })
    });
    assert_eq!(arrived.load(Ordering::SeqCst), 2);
}

/// A panic inside a spawned task propagates out of `scope` — after every
/// other spawn has completed — and the pool stays usable afterwards.
#[test]
fn scope_propagates_spawn_panic_and_pool_survives() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool");
    let finished = AtomicUsize::new(0);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            rayon::scope(|s| {
                s.spawn(|_| panic!("deliberate task panic"));
                s.spawn(|_| {
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            })
        })
    }));
    assert!(outcome.is_err(), "spawned panic was swallowed by scope");
    assert_eq!(
        finished.load(Ordering::SeqCst),
        1,
        "sibling spawn did not complete before the scope unwound"
    );
    // The pool must not be poisoned by the unwound scope.
    let sum: u64 = pool.install(|| (0..10_000u64).into_par_iter().sum());
    assert_eq!(sum, 49_995_000);
}

/// Everything the chain build decides, as comparable bits: structure,
/// per-level κ/scales/calibrated Chebyshev bounds, and the preconditioner
/// action on a deterministic right-hand side (which transitively covers
/// the eliminations, sparsifier matrices, and bottom factor).
fn chain_fingerprint(g: &parsdd_graph::Graph, rhs_seed: u64) -> Vec<u64> {
    use parsdd_solver::chain::{build_chain, ChainOptions};
    let chain = build_chain(g, &ChainOptions::default());
    let mut fp = vec![chain.depth() as u64];
    for lvl in chain.levels() {
        fp.push(lvl.n() as u64);
        fp.push(lvl.m() as u64);
        fp.push(lvl.kappa.to_bits());
        fp.push(lvl.tree_scale.to_bits());
        fp.push(lvl.kappa_clamped as u64);
        fp.push(lvl.measured_ratio.0.to_bits());
        fp.push(lvl.measured_ratio.1.to_bits());
        fp.push(lvl.sparsifier_edges as u64);
        fp.push(lvl.subgraph_edges as u64);
        fp.push(lvl.inner_iterations as u64);
        fp.push(lvl.cheb_bounds.0.to_bits());
        fp.push(lvl.cheb_bounds.1.to_bits());
    }
    fp.push(chain.bottom_graph().n() as u64);
    fp.push(chain.bottom_graph().m() as u64);
    let b: Vec<f64> = (0..g.n())
        .map(|i| (((i as u64).wrapping_mul(rhs_seed.wrapping_add(7)) % 23) as f64) - 11.0)
        .collect();
    let mut z = Vec::new();
    chain.precondition_block_rm(&b, 1, &mut z);
    fp.extend(z.iter().map(|v| v.to_bits()));
    fp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The parallel chain build is **bitwise deterministic across pool
    /// widths**: structure, calibration, and preconditioner action are
    /// identical at widths 1, 2, and 4 on the grid and two zoo families.
    #[test]
    fn build_chain_bitwise_identical_across_widths(family in 0usize..3, rhs_seed in 0u64..1_000) {
        let g = match family {
            0 => parsdd_graph::generators::grid2d(40, 40, |x, y| 1.0 + ((x * 3 + y) % 5) as f64),
            1 => parsdd_bench::zoo::build("rmat", parsdd_bench::zoo::Tier::Small),
            _ => parsdd_bench::zoo::build("road", parsdd_bench::zoo::Tier::Small),
        };
        let base = with_threads(1, || chain_fingerprint(&g, rhs_seed));
        for threads in [2usize, 4] {
            let fp = with_threads(threads, || chain_fingerprint(&g, rhs_seed));
            prop_assert_eq!(&base, &fp);
        }
    }
}

/// Zoo smallworld/small's generator at 400 of its 1 500 vertices, so the
/// debug suite stays quick. With the direct-factor limit at 0 its chain
/// still keeps a calibrated Chebyshev level above the iterative bottom
/// (400 → 301 → 236 vertices); at 320 vertices it would be depth 1.
fn iterative_bottom_input() -> parsdd_graph::Graph {
    parsdd_graph::generators::watts_strogatz(400, 6, 0.1, 0x2002)
}

/// The chain of [`iterative_bottom_input`] with the direct-factor limit
/// at 0: a depth-2 chain that ends on an iterative bottom, the inexact
/// Jacobi-PCG that runs inside every preconditioner application.
fn iterative_bottom_chain(
    g: &parsdd_graph::Graph,
    precision: parsdd_solver::chain::Precision,
) -> parsdd_solver::chain::SolverChain {
    use parsdd_solver::chain::{build_chain, ChainOptions};
    let options = ChainOptions {
        direct_bottom_entry_limit: 0,
        ..ChainOptions::default()
    };
    let chain = build_chain(g, &options.with_precision(precision));
    assert!(
        chain.depth() >= 2,
        "a Chebyshev level must sit above the bottom"
    );
    assert!(!chain.stats().direct_bottom, "the bottom must be iterative");
    chain
}

fn mean_free_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed.wrapping_add(11)) % 29) as f64) - 14.0)
        .collect();
    let mean = b.iter().sum::<f64>() / n as f64;
    b.iter_mut().for_each(|v| *v -= mean);
    b
}

const PRECISIONS: [parsdd_solver::chain::Precision; 2] = [
    parsdd_solver::chain::Precision::F64,
    parsdd_solver::chain::Precision::F32,
];

/// An iterative-bottom chain keeps the batched ≡ looped contract
/// bitwise in both precisions: each column's bottom CG freezes on its own
/// residual, whatever the other columns of the block do.
#[test]
fn iterative_bottom_batched_solves_match_looped_bitwise() {
    let g = iterative_bottom_input();
    let cols: Vec<Vec<f64>> = (0..3).map(|s| mean_free_rhs(g.n(), s)).collect();
    for precision in PRECISIONS {
        let chain = iterative_bottom_chain(&g, precision);
        let block = parsdd_linalg::MultiVector::from_columns(&cols);
        let batched = chain.solve_block(&block, 1e-8, 300);
        for (j, b) in cols.iter().enumerate() {
            let single = chain.solve(b, 1e-8, 300);
            assert!(
                single.converged,
                "{precision:?} column {j}: rel {}",
                single.relative_residual
            );
            assert_eq!(
                batched[j].iterations, single.iterations,
                "{precision:?} column {j}"
            );
            assert_eq!(
                batched[j].relative_residual.to_bits(),
                single.relative_residual.to_bits(),
                "{precision:?} column {j}"
            );
            for (a, s) in batched[j].x.iter().zip(&single.x) {
                assert_eq!(a.to_bits(), s.to_bits(), "{precision:?} column {j}");
            }
        }
    }
}

/// An iterative-bottom chain — its build (probe iteration count,
/// calibrated intervals) and its solve — is bitwise identical at pool
/// widths 1, 2 and 4 in both precisions.
#[test]
fn iterative_bottom_chains_bitwise_identical_across_widths() {
    let g = iterative_bottom_input();
    let b = mean_free_rhs(g.n(), 5);
    for precision in PRECISIONS {
        let fingerprint = || {
            let chain = iterative_bottom_chain(&g, precision);
            let mut fp = vec![chain.stats().bottom_iterations as u64];
            for lvl in chain.levels() {
                fp.push(lvl.cheb_bounds.0.to_bits());
                fp.push(lvl.cheb_bounds.1.to_bits());
                fp.push(lvl.inner_iterations as u64);
            }
            let out = chain.solve(&b, 1e-8, 300);
            fp.push(out.iterations as u64);
            fp.push(out.relative_residual.to_bits());
            fp.extend(out.x.iter().map(|v| v.to_bits()));
            fp
        };
        let base = with_threads(1, fingerprint);
        for threads in [2usize, 4] {
            assert_eq!(
                base,
                with_threads(threads, fingerprint),
                "{precision:?} differs at pool width {threads}"
            );
        }
    }
}

/// The full paper pipeline — decomposition, low-stretch subgraph,
/// preconditioner chain, and a fixed number of outer solver iterations on
/// a grid big enough to cross every parallel cutoff — produces **bitwise
/// identical** iterates and residuals at 1 and 4 threads.
#[test]
fn pipeline_residuals_identical_at_1_and_n_threads() {
    let g = parsdd_graph::generators::grid2d(96, 96, |_, _| 1.0);
    let b: Vec<f64> = (0..g.n()).map(|i| ((i % 13) as f64) - 6.0).collect();
    // Fixed work: tolerance 0 never converges, so both runs execute exactly
    // `max_iterations` outer iterations over identical reduction trees.
    let options = SddSolverOptions {
        tolerance: 0.0,
        max_iterations: 6,
        ..SddSolverOptions::default()
    };

    let run = |threads: usize| {
        with_threads(threads, || {
            let solver = SddSolver::new_laplacian(&g, options);
            solver.solve(&b)
        })
    };
    let seq = run(1);
    let par = run(4);

    assert_eq!(seq.iterations, par.iterations);
    assert_eq!(
        seq.relative_residual.to_bits(),
        par.relative_residual.to_bits(),
        "residual differs between 1 and 4 threads: {} vs {}",
        seq.relative_residual,
        par.relative_residual
    );
    assert_eq!(seq.x.len(), par.x.len());
    for (i, (a, b)) in seq.x.iter().zip(&par.x).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "solution component {i} differs between 1 and 4 threads: {a} vs {b}"
        );
    }
}
