//! Quickstart: build a grid Laplacian, construct the parallel solver chain
//! once, and solve a couple of right-hand sides.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use parsdd::prelude::*;
use parsdd_linalg::laplacian::LaplacianOp;
use parsdd_linalg::operator::LinearOperator;
use parsdd_linalg::vector::{norm2, project_out_constant};

fn main() {
    // A 120 x 120 grid — the discrete Poisson problem that motivates SDD
    // solvers in vision/graphics applications. (Large enough that the
    // preconditioner chain matters, small enough that the demo finishes in
    // seconds; scaling behaviour is measured by the E8/E9 experiments.)
    let rows = 120;
    let cols = 120;
    println!("Building a {rows}x{cols} grid Laplacian ...");
    let graph = parsdd::graph::generators::grid2d(rows, cols, |_, _| 1.0);
    println!("  n = {} vertices, m = {} edges", graph.n(), graph.m());

    // Build the preconditioner chain (Theorem 1.1 solver). This is the
    // expensive, reusable part.
    let t0 = std::time::Instant::now();
    let options = SddSolverOptions::default().with_tolerance(1e-8);
    let solver = SddSolver::new_laplacian(&graph, options);
    println!(
        "Built a {}-level preconditioner chain in {:.2?}",
        solver.chain().depth(),
        t0.elapsed()
    );
    let stats = solver.stats();
    println!("  level sizes (vertices): {:?}", stats.level_vertices);
    println!("  level sizes (edges):    {:?}", stats.level_edges);
    println!(
        "  direct bottom solve:    {} (factor nnz {})",
        stats.direct_bottom, stats.bottom_factor_nnz
    );

    // Solve a few right-hand sides, reusing the chain.
    for (name, rhs) in [
        ("dipole (corner source/sink)", {
            let mut b = vec![0.0; graph.n()];
            b[0] = 1.0;
            b[graph.n() - 1] = -1.0;
            b
        }),
        ("smooth charge distribution", {
            let mut b: Vec<f64> = (0..graph.n())
                .map(|i| ((i / cols) as f64 * 0.21).sin() * ((i % cols) as f64 * 0.13).cos())
                .collect();
            project_out_constant(&mut b);
            b
        }),
    ] {
        let t1 = std::time::Instant::now();
        let out = solver.solve(&rhs);
        let op = LaplacianOp::new(&graph);
        let res = op.residual(&out.x, &rhs);
        println!(
            "Solved '{name}' in {:.2?}: {} outer iterations, relative residual {:.2e} (true {:.2e})",
            t1.elapsed(),
            out.iterations,
            out.relative_residual,
            norm2(&res) / norm2(&rhs),
        );
    }
}
