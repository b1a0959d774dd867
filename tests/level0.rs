//! The level-0 cut (DESIGN.md §2.10): `SddSolver`'s constructors probe
//! level 0 with a capped Jacobi-PCG solve and either stop at depth 0 —
//! Jacobi-PCG on the input — or build `build_chain`'s chain unchanged.
//!
//! 1. Expander-like inputs (zoo rmat and smallworld, small and medium)
//!    take depth 0, and their answers agree with an independent
//!    Jacobi-PCG solve at 1e-10 (the differential oracle).
//! 2. Grids keep their chain bit for bit: structure, calibrated
//!    `cheb_bounds` and one solve's bits equal `build_chain`'s.
//! 3. Tolerance 0 never probes and always builds the chain.
//! 4. A depth-0 solve reports each column's own Jacobi-PCG iteration
//!    count, and batched ≡ looped holds bitwise, counts included.
//! 5. A depth-0 solve honours the iteration budget, and its solutions are
//!    mean-zero on every component, like every other solve's.

use parsdd_bench::zoo::{self, Tier};
use parsdd_graph::{generators, Graph};
use parsdd_linalg::vector::{norm2, project_out_constant};
use parsdd_linalg::MultiVector;
use parsdd_solver::baseline::solve_jacobi_pcg;
use parsdd_solver::chain::{build_chain, SolverChain};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};
use parsdd_solver::{Level0Path, SolveOutcome};

const TOLERANCE: f64 = 1e-8;

fn solver(g: &Graph, tolerance: f64) -> SddSolver {
    SddSolver::new_laplacian(g, SddSolverOptions::default().with_tolerance(tolerance))
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    parsdd_bench::workloads::rhs(n, seed)
}

/// Expander-like zoo cases take depth 0 with a recorded Jacobi-PCG
/// decision, and each solution agrees within 1e-6 relative with an
/// independent Jacobi-PCG solve to 1e-10.
#[test]
fn expanders_take_depth_0_and_match_the_jacobi_oracle() {
    for family in ["rmat", "smallworld"] {
        for tier in [Tier::Small, Tier::Medium] {
            let g = zoo::build(family, tier);
            let solver = solver(&g, TOLERANCE);
            let q = solver.quality();
            let case = format!("{family}/{}", tier.name());
            eprintln!("[level0 {case}] {}", q.summary());
            assert_eq!(q.depth, 0, "{case}: {}", q.summary());
            let d = q.level0.expect("a probe ran");
            assert_eq!(d.path, Level0Path::JacobiPcg, "{case}");
            assert!(d.probe_sweeps <= d.cap, "{case}: {d:?}");
            assert!(d.predicted_iterations.is_some(), "{case}: {d:?}");
            assert_eq!(q.summary().matches(&d.to_string()).count(), 1);

            let b = rhs(g.n(), 7);
            let out = solver.solve(&b);
            assert!(out.converged, "{case}: rel {}", out.relative_residual);
            let mut x = out.x.clone();
            let reference = solve_jacobi_pcg(&g, &b, 1e-10, 20_000);
            assert!(reference.converged, "{case}: oracle did not converge");
            let mut xr = reference.x;
            project_out_constant(&mut x);
            project_out_constant(&mut xr);
            let diff: Vec<f64> = x.iter().zip(&xr).map(|(a, r)| a - r).collect();
            let rel = norm2(&diff) / norm2(&xr);
            assert!(rel <= 1e-6, "{case}: off the oracle by {rel:.3e}");
        }
    }
}

/// Everything a chain computes, as comparable bits: structure, calibrated
/// intervals, and one solve's iterations, residual and solution.
fn chain_bits(chain: &SolverChain, b: &[f64]) -> Vec<u64> {
    let stats = chain.stats();
    let mut words = vec![
        chain.depth() as u64,
        stats.direct_bottom as u64,
        stats.bottom_factor_nnz as u64,
        stats.bottom_iterations as u64,
    ];
    words.extend(
        (stats.level_vertices.iter())
            .chain(&stats.level_edges)
            .chain(&stats.inner_iterations)
            .map(|&v| v as u64),
    );
    for lvl in chain.levels() {
        words.extend([lvl.cheb_bounds.0.to_bits(), lvl.cheb_bounds.1.to_bits()]);
    }
    let out = chain.solve(b, TOLERANCE, 300);
    words.extend([out.iterations as u64, out.relative_residual.to_bits()]);
    words.extend(out.x.iter().map(|v| v.to_bits()));
    words
}

/// Grids stay on the chain, and `SddSolver::chain()` is bitwise the
/// chain `build_chain` builds from the same options.
#[test]
fn grids_keep_build_chains_chain_bit_for_bit() {
    let weighted = generators::grid2d(48, 48, |x, y| 1.0 + ((x * 3 + y) % 5) as f64);
    let grid120 = generators::grid2d(120, 120, |_, _| 1.0);
    for (name, g) in [("grid48-weighted", &weighted), ("grid120", &grid120)] {
        let options = SddSolverOptions::default();
        let solver = SddSolver::new_laplacian(g, options);
        let q = solver.quality();
        eprintln!("[level0 {name}] {}", q.summary());
        let d = q.level0.expect("a probe ran");
        assert_eq!(d.path, Level0Path::Chain, "{name}: {d:?}");
        assert_eq!(d.probe_sweeps, d.cap, "{name}: the probe stops at its cap");
        assert!(solver.chain().depth() >= 1, "{name}");
        let b = rhs(g.n(), 11);
        let reference = build_chain(g, &options.chain);
        assert_eq!(
            chain_bits(solver.chain(), &b),
            chain_bits(&reference, &b),
            "{name}: the solver's chain is not build_chain's"
        );
    }
}

/// `tolerance: 0.0` asks for the full iteration budget: no probe runs and
/// the solver builds the chain, even on an input the probe would cut.
#[test]
fn zero_tolerance_always_builds_the_chain() {
    let g = zoo::build("rmat", Tier::Small);
    let solver = solver(&g, 0.0);
    assert!(solver.chain().depth() >= 1);
    assert_eq!(solver.quality().level0, None);
    let b = rhs(g.n(), 3);
    let reference = build_chain(&g, &SddSolverOptions::default().chain);
    assert_eq!(chain_bits(solver.chain(), &b), chain_bits(&reference, &b));
}

fn assert_same(a: &SolveOutcome, b: &SolveOutcome, column: usize) {
    assert_eq!(a.iterations, b.iterations, "column {column} iterations");
    assert_eq!(a.converged, b.converged, "column {column}");
    assert_eq!(
        a.relative_residual.to_bits(),
        b.relative_residual.to_bits(),
        "column {column} residual"
    );
    for (u, v) in a.x.iter().zip(&b.x) {
        assert_eq!(u.to_bits(), v.to_bits(), "column {column} solution");
    }
}

/// A depth-0 solve reports each column's own Jacobi-PCG iteration count,
/// not 1, and a batched solve (with a zero column) matches looped single
/// solves bitwise, counts included.
#[test]
fn depth_0_solves_report_per_column_iterations_batched_as_looped() {
    let g = zoo::build("smallworld", Tier::Small);
    let solver = solver(&g, TOLERANCE);
    assert_eq!(solver.chain().depth(), 0);
    let mut cols: Vec<Vec<f64>> = (0..3).map(|s| rhs(g.n(), 5 + s)).collect();
    cols.insert(1, vec![0.0; g.n()]);
    let batched = solver.solve_many(&cols);
    for (j, b) in cols.iter().enumerate() {
        assert_same(&batched[j], &solver.solve(b), j);
    }
    assert_eq!(batched[1].iterations, 0, "a zero column short-circuits");
    for j in [0, 2, 3] {
        assert!(batched[j].converged);
        assert!(
            batched[j].iterations > 1,
            "column {j}: {} iterations",
            batched[j].iterations
        );
    }
    // The chain's blocked entry point agrees too.
    let block = solver
        .chain()
        .solve_block(&MultiVector::from_columns(&cols), TOLERANCE, 200);
    for (j, o) in block.iter().enumerate() {
        assert_same(o, &batched[j], j);
    }
}

/// A depth-0 solve honours the iteration budget like every other solve:
/// with a budget of one it stops after one iteration, unconverged.
#[test]
fn depth_0_solves_honour_the_iteration_budget() {
    let g = zoo::build("rmat", Tier::Small);
    let solver = solver(&g, TOLERANCE);
    assert_eq!(solver.chain().depth(), 0);
    let out = solver.chain().solve(&rhs(g.n(), 7), TOLERANCE, 1);
    assert!(out.iterations <= 1, "{} iterations", out.iterations);
    assert!(!out.converged, "rel {}", out.relative_residual);
}

/// Depth-0 solutions are mean-zero on every connected component, from
/// `solve` and from `solve_many` alike.
#[test]
fn depth_0_solutions_are_mean_zero_on_every_component() {
    for family in ["rmat", "smallworld"] {
        let g = zoo::build(family, Tier::Small);
        let solver = solver(&g, TOLERANCE);
        assert_eq!(solver.chain().depth(), 0, "{family}");
        let (labels, count) = (
            solver.chain().component_labels(),
            solver.chain().components(),
        );
        let cols: Vec<Vec<f64>> = (0..2).map(|s| rhs(g.n(), 3 + s)).collect();
        let mut outs = solver.solve_many(&cols);
        outs.push(solver.solve(&cols[0]));
        for (j, out) in outs.iter().enumerate() {
            assert!(out.converged, "{family} column {j}");
            let (mut sums, mut sizes) = (vec![0.0f64; count], vec![0usize; count]);
            for (&v, &l) in out.x.iter().zip(&labels) {
                sums[l as usize] += v;
                sizes[l as usize] += 1;
            }
            let scale = norm2(&out.x);
            for (comp, (&s, &size)) in sums.iter().zip(&sizes).enumerate() {
                let mean = s / size as f64;
                assert!(
                    mean.abs() <= 1e-12 * scale,
                    "{family} column {j} component {comp}: mean {mean:.3e}"
                );
            }
        }
    }
}
