//! E12 — fused vs unfused inner-iteration kernels (the PR 5 locality
//! work): one Chebyshev inner step's memory traffic, measured three ways
//! on the e8-sized top level (96×96 grid) and on a mid-chain-sized level.
//!
//! * `unfused`: the pre-fusion sequence — graph-walk SpMV (separate diag
//!   array, 16-byte arcs) plus two separate axpy passes over `x` and `r`,
//!   with `A·p` materialised in between.
//! * `merged_spmv`: the merged-row [`PermutedLevel`] apply plus the same
//!   two axpys (isolates the merged diag+offdiag stream's saving).
//! * `fused`: [`PermutedLevel::cheb_fused_sweep`] — one matrix pass, `A·p`
//!   never materialised (the kernel the chain's W-cycle actually runs).
//!
//! Also reports the fused `A·p` + `pᵀAp` kernel of the top-level PCG
//! against the unfused apply-then-dot pair, and the same generic sweep at
//! f32 storage (`fused_f32`: `PermutedLevel<f32>` on f32 direction,
//! iterate and residual vectors, the kernel the f32 chain's W-cycle runs)
//! — the per-kernel view of the precision knob's bandwidth saving (8 vs
//! 12 bytes per matrix entry, half-width vectors).

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use std::hint::black_box;

use parsdd_graph::reorder::{rcm_order, relabel};
use parsdd_graph::Graph;
use parsdd_linalg::laplacian::laplacian_apply_rowmajor;
use parsdd_linalg::permuted::PermutedLevel;
use parsdd_linalg::vector::{axpy, colwise_dots_rm};
use parsdd_linalg::Scalar;

const ALPHA: f64 = 0.37;

fn workload(side: usize) -> (Graph, PermutedLevel, Vec<f64>, Vec<f64>, Vec<f64>) {
    let g = parsdd_graph::generators::grid2d(side, side, |_, _| 1.0);
    let g = relabel(&g, &rcm_order(&g));
    let m = PermutedLevel::from_graph(&g);
    let n = g.n();
    let p: Vec<f64> = (0..n).map(|i| ((i * 13) % 37) as f64 - 18.0).collect();
    let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 29) as f64 - 14.0).collect();
    let r: Vec<f64> = (0..n).map(|i| ((i * 11) % 31) as f64 - 15.0).collect();
    (g, m, p, x, r)
}

/// Times the one generic fused sweep at storage precision `T`, on the
/// workload's vectors rounded to `T`.
fn bench_fused<T: Scalar>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    side: usize,
    m: &PermutedLevel<T>,
    vectors: [&[f64]; 3],
) {
    let [p, x0, r0] = vectors.map(|v| v.iter().map(|&x| T::from_f64(x)).collect::<Vec<T>>());
    group.bench_with_input(BenchmarkId::new(name, side), &side, |b, _| {
        let (mut x, mut r) = (x0.clone(), r0.clone());
        b.iter(|| {
            m.cheb_fused_sweep(ALPHA, &p, &mut x, &mut r, 1);
            black_box(r[0]);
        });
    });
}

fn bench_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_fused_sweep");
    for side in [96usize, 48] {
        let (g, m, p, x0, r0) = workload(side);
        let n = g.n();
        let diag: Vec<f64> = (0..n).map(|v| g.weighted_degree(v as u32)).collect();
        let alpha = ALPHA;

        group.bench_with_input(BenchmarkId::new("unfused", side), &side, |b, _| {
            let mut x = x0.clone();
            let mut r = r0.clone();
            let mut ap = vec![0.0f64; n];
            b.iter(|| {
                axpy(alpha, &p, &mut x);
                laplacian_apply_rowmajor(&g, &diag, &p, &mut ap, 1);
                axpy(-alpha, &ap, &mut r);
                black_box(r[0]);
            });
        });
        group.bench_with_input(BenchmarkId::new("merged_spmv", side), &side, |b, _| {
            let mut x = x0.clone();
            let mut r = r0.clone();
            let mut ap = vec![0.0f64; n];
            b.iter(|| {
                axpy(alpha, &p, &mut x);
                m.apply(&p, &mut ap);
                axpy(-alpha, &ap, &mut r);
                black_box(r[0]);
            });
        });
        let m32 = PermutedLevel::<f32>::from_level(&m);
        bench_fused(&mut group, "fused", side, &m, [&p, &x0, &r0]);
        bench_fused(&mut group, "fused_f32", side, &m32, [&p, &x0, &r0]);

        group.bench_with_input(BenchmarkId::new("apply_then_dot", side), &side, |b, _| {
            let mut ap = vec![0.0f64; n];
            b.iter(|| {
                m.apply(&p, &mut ap);
                black_box(colwise_dots_rm(&p, &ap, 1)[0]);
            });
        });
        group.bench_with_input(BenchmarkId::new("fused_apply_dot", side), &side, |b, _| {
            let mut ap = vec![0.0f64; n];
            b.iter(|| {
                black_box(m.fused_apply_dot(&p, &mut ap, 1)[0]);
            });
        });

        eprintln!(
            "e12 side={side}: n={n} m={} merged stream {} bytes (f32 tier {}) vs \
             graph-walk {} bytes/apply",
            g.m(),
            m.stream_bytes(),
            m32.stream_bytes(),
            // Graph-walk: 16 B/arc (target + weight + unused edge id) over
            // 2m arcs + usize offsets + the separate 8-byte diag array.
            2 * g.m() * 16 + (n + 1) * 8 + n * 8,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sweeps);
criterion_main!(benches);
