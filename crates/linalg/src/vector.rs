//! Parallel dense vector kernels.
//!
//! All iterative methods in this crate (CG, PCG, Chebyshev) and in the
//! solver crate are built from these primitives, which use rayon above a
//! size cutoff and plain loops below it.
//!
//! Grain sizes: `SEQ_CUTOFF` gates parallel dispatch entirely (below it a
//! plain loop wins — the fork costs more than the work), and `MIN_LEN`
//! lower-bounds the per-task leaf so the runtime never splits a cheap
//! elementwise loop into sub-microsecond jobs. Both are length-only
//! constants, never thread-count-dependent, which keeps every `f64`
//! reduction tree — and therefore the solver's residuals — bitwise
//! identical at 1 and N threads.

use rayon::prelude::*;

use crate::scalar::Scalar;

/// Below this length, vector kernels run sequentially.
const SEQ_CUTOFF: usize = 1 << 13;

/// Minimum number of elements a parallel leaf task processes. At ~1 ns per
/// fused multiply-add, a 2048-element leaf is a few microseconds of work —
/// comfortably above the runtime's per-task cost.
const MIN_LEN: usize = 1 << 11;

/// Dot product `xᵀ y`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    if x.len() < SEQ_CUTOFF {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    } else {
        x.par_iter()
            .zip(y.par_iter())
            .with_min_len(MIN_LEN)
            .map(|(a, b)| a * b)
            .sum()
    }
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    if x.len() < SEQ_CUTOFF {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    } else {
        y.par_iter_mut()
            .zip(x.par_iter())
            .with_min_len(MIN_LEN)
            .for_each(|(yi, xi)| {
                *yi += alpha * xi;
            });
    }
}

/// `x ← alpha * x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    if x.len() < SEQ_CUTOFF {
        for xi in x.iter_mut() {
            *xi *= alpha;
        }
    } else {
        x.par_iter_mut()
            .with_min_len(MIN_LEN)
            .for_each(|xi| *xi *= alpha);
    }
}

/// Elementwise `out ← a - b`.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    if a.len() < SEQ_CUTOFF {
        a.iter().zip(b).map(|(x, y)| x - y).collect()
    } else {
        a.par_iter()
            .zip(b.par_iter())
            .with_min_len(MIN_LEN)
            .map(|(x, y)| x - y)
            .collect()
    }
}

/// Elementwise `out ← a + b`.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    if a.len() < SEQ_CUTOFF {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    } else {
        a.par_iter()
            .zip(b.par_iter())
            .with_min_len(MIN_LEN)
            .map(|(x, y)| x + y)
            .collect()
    }
}

/// Sum of all entries.
pub fn sum(x: &[f64]) -> f64 {
    if x.len() < SEQ_CUTOFF {
        x.iter().sum()
    } else {
        x.par_iter().with_min_len(MIN_LEN).copied().sum()
    }
}

/// Projects `x` onto the subspace orthogonal to the all-ones vector, i.e.
/// subtracts the mean. For a connected-graph Laplacian this removes the
/// null-space component of a right-hand side or of an approximate solution.
pub fn project_out_constant(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = sum(x) / x.len() as f64;
    if x.len() < SEQ_CUTOFF {
        for xi in x.iter_mut() {
            *xi -= mean;
        }
    } else {
        x.par_iter_mut()
            .with_min_len(MIN_LEN)
            .for_each(|xi| *xi -= mean);
    }
}

/// Projects `x` onto the subspace orthogonal to the indicator vector of
/// every component: within each component (given by `labels`, values in
/// `0..count`), subtracts that component's mean. This is the null space of
/// a Laplacian with several connected components.
pub fn project_out_componentwise_constant(x: &mut [f64], labels: &[u32], count: usize) {
    assert_eq!(x.len(), labels.len());
    let mut sums = vec![0.0f64; count];
    let mut sizes = vec![0usize; count];
    for (xi, &l) in x.iter().zip(labels) {
        sums[l as usize] += *xi;
        sizes[l as usize] += 1;
    }
    let means: Vec<f64> = sums
        .iter()
        .zip(&sizes)
        .map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
        .collect();
    for (xi, &l) in x.iter_mut().zip(labels) {
        *xi -= means[l as usize];
    }
}

/// The `A`-norm `‖x‖_A = sqrt(xᵀ A x)` given `Ax` precomputed.
pub fn a_norm_with(x: &[f64], ax: &[f64]) -> f64 {
    dot(x, ax).max(0.0).sqrt()
}

/// Per-column dot products of two **row-major** blocks of width `k`:
/// entry `j` of the result is `Σ_i x[i·k+j]·y[i·k+j]`. One pass over both
/// blocks computes all `k` sums (a per-column loop would stream the
/// blocks `k` times).
///
/// Reduction tree: each fixed `MIN_LEN`-row block accumulates
/// sequentially in row order (per column), and block partials combine in
/// block order. The tree depends only on the row count — not on `k` and
/// not on the pool width — so each column's value is bitwise identical
/// whether it travels alone (`k = 1`) or inside any block, at any thread
/// count.
pub fn colwise_dots_rm(x: &[f64], y: &[f64], k: usize) -> Vec<f64> {
    let mut out = Vec::new();
    let mut partial = Vec::new();
    colwise_dots_rm_into(x, y, k, &mut out, &mut partial);
    out
}

/// [`colwise_dots_rm`] into caller-owned buffers: `out` receives the `k`
/// sums, `partial` the per-block partials. Once both buffers have
/// capacity (`k` and `⌈n/MIN_LEN⌉·k`) this performs no allocation of its
/// own on either dispatch path. Same fixed reduction tree, so results are
/// bitwise identical to [`colwise_dots_rm`]. A lone column (`k = 1`)
/// keeps its block accumulator in a register.
pub fn colwise_dots_rm_into(
    x: &[f64],
    y: &[f64],
    k: usize,
    out: &mut Vec<f64>,
    partial: &mut Vec<f64>,
) {
    assert_eq!(x.len(), y.len());
    out.clear();
    if k == 0 {
        return;
    }
    assert_eq!(x.len() % k, 0, "buffer is not a whole block");
    let n = x.len() / k;
    let blocks = n.div_ceil(MIN_LEN).max(1);
    let block_into = |b: usize, acc: &mut [f64]| {
        let lo = b * MIN_LEN;
        let hi = ((b + 1) * MIN_LEN).min(n);
        if k == 1 {
            let (xb, yb) = (&x[lo..hi], &y[lo..hi]);
            acc[0] = xb.iter().zip(yb).fold(0.0, |a, (&xv, &yv)| a + xv * yv);
            return;
        }
        acc.fill(0.0);
        for (xr, yr) in x[lo * k..hi * k]
            .chunks_exact(k)
            .zip(y[lo * k..hi * k].chunks_exact(k))
        {
            for (a, (&xv, &yv)) in acc.iter_mut().zip(xr.iter().zip(yr)) {
                *a += xv * yv;
            }
        }
    };
    partial.resize(blocks * k, 0.0);
    if n < SEQ_CUTOFF {
        for (b, acc) in partial.chunks_exact_mut(k).enumerate() {
            block_into(b, acc);
        }
    } else {
        partial
            .par_chunks_mut(k)
            .enumerate()
            .for_each(|(b, acc)| block_into(b, acc));
    }
    // Block partials fold into `out` in block order.
    out.resize(k, 0.0);
    for part in partial.chunks_exact(k) {
        for (o, &v) in out.iter_mut().zip(part) {
            *o += v;
        }
    }
}

/// Componentwise-mean projection of every column of a **row-major**
/// block of width `k` (the row-major counterpart of
/// [`project_out_componentwise_constant`]; per column the accumulation
/// order over rows is identical, so the results match it bitwise).
pub fn project_out_componentwise_rows(xr: &mut [f64], k: usize, labels: &[u32], count: usize) {
    let mut sums = Vec::new();
    let mut sizes = Vec::new();
    project_out_componentwise_rows_with(xr, k, labels, count, &mut sums, &mut sizes);
}

/// [`project_out_componentwise_rows`] at either storage precision, with
/// caller-owned accumulator buffers (`count·k` sums, `count` sizes) —
/// allocation-free once both have capacity; identical arithmetic. Sums
/// accumulate in `T`: the chain's f32 cycle projects a right-hand side
/// already at f32 rounding scale, over the small components of the bottom.
pub fn project_out_componentwise_rows_with<T: Scalar>(
    xr: &mut [T],
    k: usize,
    labels: &[u32],
    count: usize,
    sums: &mut Vec<T>,
    sizes: &mut Vec<usize>,
) {
    if k == 0 {
        return;
    }
    assert_eq!(xr.len(), labels.len() * k);
    sums.clear();
    sums.resize(count * k, T::ZERO);
    sizes.clear();
    sizes.resize(count, 0);
    for (row, &l) in xr.chunks_exact(k).zip(labels) {
        let s = &mut sums[l as usize * k..(l as usize + 1) * k];
        for (acc, &v) in s.iter_mut().zip(row) {
            *acc += v;
        }
        sizes[l as usize] += 1;
    }
    for (comp, chunk) in sums.chunks_exact_mut(k).enumerate() {
        let sz = sizes[comp];
        for m in chunk.iter_mut() {
            *m = if sz == 0 {
                T::ZERO
            } else {
                *m / T::from_f64(sz as f64)
            };
        }
    }
    for (row, &l) in xr.chunks_exact_mut(k).zip(labels) {
        let means = &sums[l as usize * k..(l as usize + 1) * k];
        for (v, &m) in row.iter_mut().zip(means) {
            *v -= m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![4.0, -5.0, 6.0];
        assert_eq!(dot(&x, &y), 12.0);
        assert!((norm2(&x) - 14.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn axpy_scale_add_sub() {
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 4.0, 5.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.5, 2.0, 2.5]);
        assert_eq!(add(&x, &x), vec![2.0, 2.0, 2.0]);
        assert_eq!(sub(&y, &x), vec![0.5, 1.0, 1.5]);
    }

    #[test]
    fn large_vectors_parallel_path() {
        let n = 100_000;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y = vec![1.0; n];
        let expected = (n as f64 - 1.0) * n as f64 / 2.0;
        assert!((dot(&x, &y) - expected).abs() < 1e-3);
        assert!((sum(&x) - expected).abs() < 1e-3);
        let mut z = x.clone();
        scale(2.0, &mut z);
        assert_eq!(z[1000], 2000.0);
    }

    #[test]
    fn projection_removes_mean() {
        let mut x = vec![1.0, 2.0, 3.0, 6.0];
        project_out_constant(&mut x);
        assert!(sum(&x).abs() < 1e-12);
        assert_eq!(x[0], -2.0);
    }

    #[test]
    fn componentwise_projection() {
        let mut x = vec![1.0, 3.0, 10.0, 20.0, 30.0];
        let labels = vec![0, 0, 1, 1, 1];
        project_out_componentwise_constant(&mut x, &labels, 2);
        assert!((x[0] + 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] + 10.0).abs() < 1e-12);
        assert!((x[4] - 10.0).abs() < 1e-12);
        assert!((x[2] + x[3] + x[4]).abs() < 1e-12);
    }

    #[test]
    fn f32_componentwise_projection_block_matches_per_column_bitwise() {
        // Column j of a k-wide projected block must carry exactly the bits
        // of projecting that column alone (k = 1), and every column must
        // sum to ~0 on each component.
        let n = 37;
        let k = 3;
        let labels: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let xr: Vec<f32> = (0..n * k)
            .map(|i| ((i * 17) % 31) as f32 / 7.0 - 2.0)
            .collect();
        let (mut sums, mut sizes) = (Vec::new(), Vec::new());
        let mut block = xr.clone();
        project_out_componentwise_rows_with(&mut block, k, &labels, 2, &mut sums, &mut sizes);
        for j in 0..k {
            let mut col: Vec<f32> = (0..n).map(|i| xr[i * k + j]).collect();
            project_out_componentwise_rows_with(&mut col, 1, &labels, 2, &mut sums, &mut sizes);
            for (i, v) in col.iter().enumerate() {
                assert_eq!(v.to_bits(), block[i * k + j].to_bits(), "col {j} row {i}");
            }
            for comp in 0..2u32 {
                let s: f32 = (0..n).filter(|&i| labels[i] == comp).map(|i| col[i]).sum();
                assert!(s.abs() < 1e-5, "col {j} component {comp} sums to {s}");
            }
        }
    }

    #[test]
    fn colwise_dots_match_single_column_at_any_width() {
        // k-invariance and pool-width determinism via the fixed block
        // tree: column j of a k-wide block must produce the same bits as
        // the same column at k = 1, on both dispatch paths and at every
        // block boundary, and the k = 1 path must be bitwise the
        // sequential sum of per-2048-row block sums folded in order.
        for n in [1usize, 2047, 2048, 2049, 8191, 8192, 20_000] {
            let k = 3;
            let mut x = vec![0.0f64; n * k];
            let mut y = vec![0.0f64; n * k];
            for i in 0..n {
                for j in 0..k {
                    x[i * k + j] = ((i * (j + 2)) % 23) as f64 / 7.0 - 1.5;
                    y[i * k + j] = ((i * (j + 5)) % 19) as f64 / 3.0 - 2.9;
                }
            }
            for width in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .expect("pool");
                let d = pool.install(|| colwise_dots_rm(&x, &y, k));
                for j in 0..k {
                    let xc: Vec<f64> = (0..n).map(|i| x[i * k + j]).collect();
                    let yc: Vec<f64> = (0..n).map(|i| y[i * k + j]).collect();
                    let d1 = pool.install(|| colwise_dots_rm(&xc, &yc, 1));
                    let case = format!("n={n} width={width} col {j}");
                    assert_eq!(d[j].to_bits(), d1[0].to_bits(), "{case}");
                    let mut reference = 0.0f64;
                    for (xb, yb) in xc.chunks(MIN_LEN).zip(yc.chunks(MIN_LEN)) {
                        let mut block = 0.0f64;
                        for (a, b) in xb.iter().zip(yb) {
                            block += a * b;
                        }
                        reference += block;
                    }
                    assert_eq!(d1[0].to_bits(), reference.to_bits(), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_norm_nonnegative() {
        let x = vec![1.0, -1.0];
        let ax = vec![2.0, -2.0];
        assert!((a_norm_with(&x, &ax) - 2.0).abs() < 1e-12);
    }
}
