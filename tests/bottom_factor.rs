//! Differential tests of the chain's bottom factor (`SparseLdl`, built in
//! minimum-degree order) against the dense reference `DenseLdl`, on grids,
//! random graphs and disconnected graphs with weight spreads up to 1e6, at
//! f64 and f32 storage; plus its two solve contracts: batched solves are
//! bitwise identical to looped ones at every block width, and a solve
//! allocates nothing once its output buffer has capacity.
//!
//! The allocation counter is thread-local, so the harness running other
//! tests on sibling threads cannot perturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parsdd_graph::components::connected_components;
use parsdd_graph::reorder::{min_degree_order, relabel};
use parsdd_graph::{generators, Edge, Graph};
use parsdd_linalg::laplacian::laplacian_of;
use parsdd_linalg::operator::LinearOperator;
use parsdd_linalg::vector::{norm2, project_out_componentwise_constant, sub};
use parsdd_linalg::{DenseLdl, Scalar, SparseLdl};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

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

/// The vertex-disjoint union of `parts`, plus `isolated` edgeless vertices.
fn disjoint_union(parts: &[&Graph], isolated: usize) -> Graph {
    let mut edges = Vec::new();
    let mut offset = 0u32;
    for g in parts {
        edges.extend(
            g.edges()
                .iter()
                .map(|e| Edge::new(e.u + offset, e.v + offset, e.w)),
        );
        offset += g.n() as u32;
    }
    Graph::from_edges(offset as usize + isolated, edges)
}

/// The test inputs, each in its minimum-degree order (the order the chain
/// factors a direct bottom in).
fn cases() -> Vec<(&'static str, Graph)> {
    let spread = |x: u32, y: u32| 10f64.powi(((x * 7 + y * 3) % 7) as i32);
    let grid = generators::grid2d(17, 13, |_, _| 1.0);
    let grid_spread = generators::grid2d(15, 15, spread);
    let random = generators::weighted_random_graph(250, 800, 1.0, 8.0, 21);
    let random_spread = generators::weighted_random_graph(200, 700, 1.0, 1e6, 22);
    let disconnected = disjoint_union(&[&grid_spread, &random, &grid], 3);
    [
        ("grid", grid),
        ("grid spread 1e6", grid_spread),
        ("random", random),
        ("random spread 1e6", random_spread),
        ("disconnected", disconnected),
    ]
    .into_iter()
    .map(|(name, g)| {
        let (order, _) = min_degree_order(&g, usize::MAX).expect("no budget");
        (name, relabel(&g, &order))
    })
    .collect()
}

/// A right-hand side in the range of the Laplacian of `g`.
fn range_rhs(g: &Graph, seed: usize) -> Vec<f64> {
    let comps = connected_components(g);
    let mut b: Vec<f64> = (0..g.n())
        .map(|i| ((i * (13 + seed)) % 17) as f64 - 8.0)
        .collect();
    project_out_componentwise_constant(&mut b, &comps.labels, comps.count);
    b
}

/// `‖b − A x‖ / (‖A‖_F·‖x‖ + ‖b‖)`: the normwise backward error of `x`,
/// which a stable direct solve keeps near the storage precision's unit
/// roundoff whatever the conditioning.
fn backward_error(g: &Graph, x: &[f64], b: &[f64]) -> f64 {
    let a = laplacian_of(g);
    let frobenius = g
        .edges()
        .iter()
        .map(|e| 2.0 * e.w * e.w)
        .sum::<f64>()
        .sqrt()
        + (0..g.n() as u32)
            .map(|v| g.weighted_degree(v).powi(2))
            .sum::<f64>()
            .sqrt();
    norm2(&sub(b, &a.apply_vec(x))) / (frobenius * norm2(x) + norm2(b))
}

/// Solves one right-hand side at storage precision `T`, widened to f64.
fn solve_at<T: Scalar>(factor: &SparseLdl<T>, b: &[f64]) -> Vec<f64> {
    let bt: Vec<T> = b.iter().map(|&v| T::from_f64(v)).collect();
    let mut x = Vec::new();
    factor.solve_rowmajor_into(&bt, 1, &mut x);
    x.into_iter().map(Into::into).collect()
}

/// The factor agrees with the dense reference: the same null dimension
/// (one per component), the same solution up to the componentwise
/// constants, and a backward error at f64 rounding.
#[test]
fn f64_factor_matches_dense_ldl() {
    for (name, g) in cases() {
        let comps = connected_components(&g);
        let sparse = SparseLdl::from_graph(&g, 1e-10);
        let dense = DenseLdl::from_csr(&laplacian_of(&g), 1e-10);
        assert_eq!(sparse.null_dim(), comps.count, "{name}");
        assert_eq!(dense.null_dim(), comps.count, "{name}");
        for seed in 0..3 {
            let b = range_rhs(&g, seed);
            let mut xs = sparse.solve(&b);
            let mut xd = dense.solve(&b);
            assert!(
                backward_error(&g, &xs, &b) < 1e-14,
                "{name}: backward error {:.3e}",
                backward_error(&g, &xs, &b)
            );
            project_out_componentwise_constant(&mut xs, &comps.labels, comps.count);
            project_out_componentwise_constant(&mut xd, &comps.labels, comps.count);
            let rel = norm2(&sub(&xs, &xd)) / norm2(&xd);
            assert!(rel < 1e-7, "{name}: off the dense solution by {rel:.3e}");
        }
    }
}

/// The f32 factor keeps the structure (entries, null directions) and
/// solves with a backward error at f32 rounding.
#[test]
fn f32_factor_keeps_structure_and_backward_stability() {
    for (name, g) in cases() {
        let factor = SparseLdl::from_graph(&g, 1e-10);
        let factor32 = SparseLdl::<f32>::from_f64(&factor);
        assert_eq!(factor32.nnz(), factor.nnz(), "{name}");
        assert_eq!(factor32.null_dim(), factor.null_dim(), "{name}");
        let b = range_rhs(&g, 5);
        let x = solve_at(&factor32, &b);
        let err = backward_error(&g, &x, &b);
        assert!(err < 1e-5, "{name}: f32 backward error {err:.3e}");
        assert!(backward_error(&g, &solve_at(&factor, &b), &b) < err.max(1e-14));
    }
}

/// Batched solves are bitwise identical to looped single solves at every
/// width, monomorphised or generic, at both precisions.
#[test]
fn batched_solves_match_looped_bitwise() {
    fn check<T: Scalar>(name: &str, g: &Graph, factor: &SparseLdl<T>) {
        let n = g.n();
        for k in [1usize, 2, 3, 4, 8, 16, 32, 33] {
            let cols: Vec<Vec<T>> = (0..k)
                .map(|s| {
                    range_rhs(g, s)
                        .into_iter()
                        .map(|v| T::from_f64(v))
                        .collect()
                })
                .collect();
            let block: Vec<T> = (0..n * k).map(|i| cols[i % k][i / k]).collect();
            let mut batched = Vec::new();
            factor.solve_rowmajor_into(&block, k, &mut batched);
            let mut single = Vec::new();
            for (j, c) in cols.iter().enumerate() {
                factor.solve_rowmajor_into(c, 1, &mut single);
                for i in 0..n {
                    let (a, s): (f64, f64) = (batched[i * k + j].into(), single[i].into());
                    assert_eq!(a.to_bits(), s.to_bits(), "{name}: k={k} col {j} row {i}");
                }
            }
        }
    }
    for (name, g) in cases() {
        let factor = SparseLdl::from_graph(&g, 1e-10);
        check(name, &g, &factor);
        check(name, &g, &SparseLdl::<f32>::from_f64(&factor));
    }
}

/// A solve into a buffer that already has capacity allocates nothing, at
/// monomorphised and generic widths and at both precisions.
#[test]
fn warm_solves_allocate_nothing() {
    fn check<T: Scalar>(factor: &SparseLdl<T>) {
        let n = factor.dim();
        for k in [1usize, 3, 4, 32, 33] {
            let b: Vec<T> = (0..n * k)
                .map(|i| T::from_f64(((i % 19) as f64) - 9.0))
                .collect();
            let mut out = Vec::with_capacity(n * k);
            let before = allocs_here();
            for _ in 0..3 {
                factor.solve_rowmajor_into(&b, k, &mut out);
            }
            assert_eq!(allocs_here() - before, 0, "width {k} allocated");
        }
    }
    let (_, g) = cases().swap_remove(4);
    let factor = SparseLdl::from_graph(&g, 1e-10);
    check(&factor);
    check(&SparseLdl::<f32>::from_f64(&factor));
}
