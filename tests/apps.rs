//! Application-layer integration tests for the blocked multi-RHS solve
//! path: `solve_many` must agree **bitwise** with looped single solves at
//! every pool width, per-column convergence must be tracked honestly, and
//! the batched applications (effective resistances, harmonic
//! interpolation, electrical flows) must reproduce their looped
//! behaviour on real workloads.

use parsdd_apps::electrical::{conservation_violation, electrical_flow, electrical_flows};
use parsdd_apps::harmonic::{harmonic_interpolation, harmonic_interpolation_many};
use parsdd_apps::resistance::{approximate_effective_resistances, exact_effective_resistances};
use parsdd_graph::generators;
use parsdd_graph::parutil::with_threads;
use parsdd_linalg::vector::{norm2, project_out_constant};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};
use std::collections::HashMap;

fn rhs_set(n: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|s| {
            let mut b: Vec<f64> = (0..n)
                .map(|i| (((i * (2 * s + 3)) % 23) as f64) - 11.0)
                .collect();
            project_out_constant(&mut b);
            b
        })
        .collect()
}

#[test]
fn solve_many_matches_looped_solve_bitwise_across_widths() {
    let g = generators::grid2d(28, 28, |_, _| 1.0);
    let bs = rhs_set(g.n(), 5);
    // (batched, looped) under a given pool width.
    let run = |threads: usize| {
        with_threads(threads, || {
            let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
            let batched = solver.solve_many(&bs);
            let looped: Vec<_> = bs.iter().map(|b| solver.solve(b)).collect();
            (batched, looped)
        })
    };
    let (batched_1, looped_1) = run(1);
    let (batched_4, looped_4) = run(4);
    for j in 0..bs.len() {
        assert!(looped_1[j].converged, "column {j} did not converge");
        // Batched ≡ looped at each width...
        for (batched, looped) in [(&batched_1, &looped_1), (&batched_4, &looped_4)] {
            assert_eq!(batched[j].iterations, looped[j].iterations, "column {j}");
            assert_eq!(batched[j].converged, looped[j].converged, "column {j}");
            assert_eq!(
                batched[j].relative_residual.to_bits(),
                looped[j].relative_residual.to_bits(),
                "column {j} residual"
            );
            for (a, b) in batched[j].x.iter().zip(&looped[j].x) {
                assert_eq!(a.to_bits(), b.to_bits(), "column {j} solution");
            }
        }
        // ... and 1-thread ≡ 4-thread bitwise (the runtime's
        // width-independent split trees carry over to blocks).
        for (a, b) in batched_1[j].x.iter().zip(&batched_4[j].x) {
            assert_eq!(a.to_bits(), b.to_bits(), "column {j} across widths");
        }
    }
}

#[test]
fn fused_permuted_path_bitwise_identical_at_widths_1_2_4() {
    // The PR 5 kernels (merged-row SpMV, fused Chebyshev sweeps, fused
    // apply+dot, envelope bottom) must keep the pool-width-independence
    // contract: identical bits at 1, 2 and 4 threads, batched and looped.
    let g = generators::grid2d(30, 30, |_, _| 1.0);
    let bs = rhs_set(g.n(), 3);
    let run = |threads: usize| {
        with_threads(threads, || {
            let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
            solver.solve_many(&bs)
        })
    };
    let w1 = run(1);
    let w2 = run(2);
    let w4 = run(4);
    for j in 0..bs.len() {
        assert!(w1[j].converged, "column {j}");
        for (tag, other) in [("2", &w2), ("4", &w4)] {
            assert_eq!(w1[j].iterations, other[j].iterations, "column {j} @{tag}t");
            assert_eq!(
                w1[j].relative_residual.to_bits(),
                other[j].relative_residual.to_bits(),
                "column {j} residual @{tag}t"
            );
            for (a, b) in w1[j].x.iter().zip(&other[j].x) {
                assert_eq!(a.to_bits(), b.to_bits(), "column {j} solution @{tag}t");
            }
        }
    }
}

#[test]
fn per_column_convergence_flags_honored() {
    let g = generators::grid2d(24, 24, |_, _| 1.0);
    let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
    let mut bs = rhs_set(g.n(), 2);
    // A zero column converges instantly; a hard column does not — the
    // outcome of each must reflect its own trajectory, not the block's.
    bs.insert(1, vec![0.0; g.n()]);
    let outs = solver.solve_many(&bs);
    assert!(outs[1].converged);
    assert_eq!(outs[1].iterations, 0);
    assert_eq!(outs[1].relative_residual, 0.0);
    assert!(outs[1].x.iter().all(|&v| v == 0.0));
    for j in [0usize, 2] {
        assert!(outs[j].converged, "column {j}");
        assert!(outs[j].iterations > 0, "column {j}");
        assert!(outs[j].relative_residual <= 1e-8, "column {j}");
    }
    // An unreachable tolerance must be reported per column, not papered
    // over by the block.
    let strict = solver.solve_many_with_tolerance(&bs[..1], 1e-30);
    assert!(!strict[0].converged);
    assert!(strict[0].relative_residual > 1e-30);
}

#[test]
fn exact_and_approximate_resistances_agree_on_grid() {
    let g = generators::grid2d(7, 7, |_, _| 1.0);
    let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default().with_tolerance(1e-10));
    let exact = exact_effective_resistances(&g, &solver);
    let approx = approximate_effective_resistances(&g, &solver, 200, 11);
    assert_eq!(exact.len(), g.m());
    for (i, (a, e)) in approx.iter().zip(&exact).enumerate() {
        assert!(
            (a - e).abs() <= 0.3 * e + 1e-6,
            "edge {i}: approx {a} vs exact {e}"
        );
    }
    // Foster's theorem pins the exact values globally: Σ w_e R_e = n − 1.
    let total: f64 = exact.iter().zip(g.edges()).map(|(r, e)| r * e.w).sum();
    assert!(
        (total - (g.n() as f64 - 1.0)).abs() < 1e-5,
        "Foster {total}"
    );
}

#[test]
fn approximate_resistances_bitwise_reproducible_across_widths() {
    let g = generators::grid2d(10, 10, |_, _| 1.0);
    let run = |threads: usize| {
        with_threads(threads, || {
            let solver =
                SddSolver::new_laplacian(&g, SddSolverOptions::default().with_tolerance(1e-10));
            approximate_effective_resistances(&g, &solver, 24, 5)
        })
    };
    let a = run(1);
    let b = run(4);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "edge {i} differs across widths");
    }
}

#[test]
fn harmonic_batch_on_grid_respects_dirichlet_data() {
    let g = generators::grid2d(12, 12, |_, _| 1.0);
    // Two Dirichlet problems over the same boundary set (left and right
    // columns), batched through one grounded system.
    let mut left_right = HashMap::new();
    let mut gradient = HashMap::new();
    for r in 0..12u32 {
        left_right.insert(r * 12, 0.0);
        left_right.insert(r * 12 + 11, 1.0);
        gradient.insert(r * 12, r as f64);
        gradient.insert(r * 12 + 11, 11.0 - r as f64);
    }
    let batched = harmonic_interpolation_many(
        &g,
        &[left_right.clone(), gradient.clone()],
        SddSolverOptions::default(),
    );
    for res in &batched {
        assert!(res.converged);
        assert!(res.max_mean_value_violation < 1e-5);
    }
    // Maximum principle per problem.
    for (v, &x) in batched[0].values.iter().enumerate() {
        if !left_right.contains_key(&(v as u32)) {
            assert!((-1e-9..=1.0 + 1e-9).contains(&x), "vertex {v}: {x}");
        }
    }
    // The batch matches the single-problem path bitwise.
    for (boundary, res) in [left_right, gradient].iter().zip(&batched) {
        let single = harmonic_interpolation(&g, boundary, SddSolverOptions::default());
        for (a, b) in res.values.iter().zip(&single.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn electrical_flow_batch_on_grid_conserves_current() {
    let g = generators::grid2d(11, 11, |_, _| 1.0);
    let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default().with_tolerance(1e-10));
    let pairs = [(0u32, 120u32), (10, 110), (0, 10)];
    let flows = electrical_flows(&g, &solver, &pairs);
    for (&(s, t), f) in pairs.iter().zip(&flows) {
        assert!(f.converged);
        assert!(conservation_violation(&g, f, s, t) < 1e-6);
        assert!((f.energy - f.effective_resistance).abs() < 1e-6);
        let single = electrical_flow(&g, &solver, s, t);
        assert_eq!(
            single.effective_resistance.to_bits(),
            f.effective_resistance.to_bits()
        );
    }
    // Symmetric terminals on a symmetric grid: equal resistances.
    let corner = flows[0].effective_resistance;
    assert!(corner > 0.0 && corner.is_finite());
    let b = norm2(&flows[0].potentials);
    assert!(b.is_finite());
}
