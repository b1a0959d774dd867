//! Envelope (skyline) LDLᵀ factorisation for the bottom of the chain.
//!
//! The dense bottom factor was the largest single memory stream of a
//! preconditioner application: a W-cycle with recursion leaves `∏k_i`
//! solves the bottom system hundreds of times per application, and every
//! dense solve streams the full `n²/2` triangle twice. But the bottom
//! graph is a coarsened remnant of the input — under a reverse
//! Cuthill–McKee numbering (`parsdd_graph::reorder`) its profile is a
//! narrow band, and Cholesky fill is **contained in the envelope**: row
//! `i` of `L` is zero left of the first nonzero of row `i` of `A`. A
//! skyline factor therefore stores (and each solve streams) only the
//! envelope — on RCM-ordered chain bottoms roughly 5–10× fewer bytes
//! than the dense triangle, with identical numerics (the skipped entries
//! are exact zeros in the dense factorisation too).
//!
//! Same semantics as [`crate::cholesky::DenseLdl`]: symmetric positive
//! *semi*-definite input, pivots below a relative tolerance treated as
//! zero (null directions get solution coordinate 0), callers project the
//! right-hand side onto the range. A full profile degrades gracefully to
//! exactly the dense factorisation.
//!
//! The factorisation always runs in f64; [`EnvelopeLdl::from_f64`] stores a
//! finished factor at the chain's storage precision, and the solve is
//! written once over [`Scalar`] (forward-pass chains and pivot form are
//! the trait's items).

use crate::block::MultiVector;
use crate::operator::LinearOperator;
use crate::scalar::Scalar;
use parsdd_graph::Graph;

/// First column of each row of the Laplacian's lower envelope under the
/// current numbering: `first[i]` is the smallest neighbour label below `i`,
/// or `i` itself.
fn envelope_first(g: &Graph) -> Vec<u32> {
    let mut first: Vec<u32> = (0..g.n() as u32).collect();
    for e in g.edges() {
        let (lo, hi) = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
        if lo < first[hi as usize] {
            first[hi as usize] = lo;
        }
    }
    first
}

/// Envelope size of the Laplacian of `g` under its current numbering: the
/// strictly-lower entries [`EnvelopeLdl::from_graph`] would store, so
/// `envelope_profile(g) == EnvelopeLdl::from_graph(g, tol).envelope_nnz()`.
/// A symbolic `O(n + m)` pass — it prices a direct bottom without
/// factoring it.
pub fn envelope_profile(g: &Graph) -> usize {
    envelope_first(g)
        .iter()
        .enumerate()
        .map(|(i, &fi)| i - fi as usize)
        .sum()
}

/// An envelope (skyline) LDLᵀ factorisation of a graph Laplacian, stored
/// at precision `T`.
///
/// At f32 each solve streams half the envelope bytes, and the diagonal is
/// kept as reciprocals, so the pivot pass is a branch-free multiply (a
/// zero reciprocal marks a null direction). The f32 forward pass splits
/// each row's products over four chains by band position
/// ([`Scalar::CHAINS`]): the bottom solve is the W-cycle's largest work
/// term, and four independent chains break the latency-bound serial
/// reduction. The f64 solve keeps its pinned serial order. At either
/// precision the order depends only on the band position, so batched
/// solves are bitwise identical to looped single solves.
#[derive(Debug, Clone)]
pub struct EnvelopeLdl<T = f64> {
    n: usize,
    /// First stored column of each row (`first[i] ≤ i`); row `i` of `L`
    /// occupies columns `[first[i], i)`.
    first: Vec<u32>,
    /// Offsets into `l`: row `i`'s packed entries at
    /// `l[offsets[i]..offsets[i+1]]` (length `i − first[i]`).
    offsets: Vec<usize>,
    /// Packed strictly-lower rows of the unit lower-triangular factor.
    l: Vec<T>,
    /// Diagonal factor in [`Scalar::fold_divisor`] form (the pivot at
    /// f64, its reciprocal at f32); zeros mark numerically null
    /// directions.
    d: Vec<T>,
}

impl EnvelopeLdl<f64> {
    /// Factors the Laplacian of `g` under its **current** numbering (the
    /// caller is expected to have applied a bandwidth-reducing relabel
    /// first; the profile — and so the cost — is whatever the numbering
    /// gives). `rel_tol` is the zero-pivot threshold relative to the
    /// largest diagonal entry.
    pub fn from_graph(g: &Graph, rel_tol: f64) -> Self {
        let n = g.n();
        let first = envelope_first(g);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for (i, &fi) in first.iter().enumerate() {
            acc += i - fi as usize;
            offsets.push(acc);
        }
        // Numeric envelope rows of A: a_ii and the in-envelope strictly
        // lower entries (zero where no edge).
        let mut l = vec![0.0f64; acc];
        let mut diag = vec![0.0f64; n];
        for e in g.edges() {
            let (lo, hi) = if e.u < e.v {
                (e.u as usize, e.v as usize)
            } else {
                (e.v as usize, e.u as usize)
            };
            diag[lo] += e.w;
            diag[hi] += e.w;
            l[offsets[hi] + (lo - first[hi] as usize)] += -e.w;
        }
        let max_diag = diag.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
        let tol = rel_tol * max_diag;

        // Row-wise skyline factorisation (Jennings): row i's L entries are
        // computed left to right against the already-final rows above,
        // every access staying inside the envelope.
        let mut d = vec![0.0f64; n];
        for i in 0..n {
            let fi = first[i] as usize;
            let (above, row_i) = l.split_at_mut(offsets[i]);
            let row_i = &mut row_i[..i - fi];
            for j in fi..i {
                let fj = first[j] as usize;
                let lo = fi.max(fj);
                // Σ_p l_ip · d_p · l_jp over the overlap [lo, j).
                let mut s = row_i[j - fi];
                let ri = &row_i[lo - fi..j - fi];
                let rj = &above[offsets[j] + (lo - fj)..offsets[j] + (j - fj)];
                for ((&lip, &ljp), &dp) in ri.iter().zip(rj).zip(&d[lo..j]) {
                    s -= lip * dp * ljp;
                }
                row_i[j - fi] = if d[j] == 0.0 { 0.0 } else { s / d[j] };
            }
            let mut di = diag[i];
            for (&lip, &dp) in row_i.iter().zip(&d[fi..i]) {
                di -= lip * lip * dp;
            }
            d[i] = if di.abs() <= tol { 0.0 } else { di };
        }
        EnvelopeLdl {
            n,
            first,
            offsets,
            l,
            d,
        }
    }

    /// Solves `A x = b` (particular solution when `A` is singular and `b`
    /// is in the range) — the `k = 1` case of
    /// [`solve_rowmajor`](Self::solve_rowmajor).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_rowmajor(b, 1)
    }

    /// Solves `A X = B` for `k` row-major right-hand sides (`b[i·k + j]`)
    /// with one envelope stream per block per triangular pass. Per column
    /// the operation order is identical at every `k` (each column's
    /// arithmetic is the `k = 1` solve), so batched solves are bitwise
    /// identical to looped single solves.
    pub fn solve_rowmajor(&self, b: &[f64], k: usize) -> Vec<f64> {
        let mut z = Vec::new();
        self.solve_rowmajor_into(b, k, &mut z);
        z
    }

    /// Column-major blocked solve (transposes at the boundary; the chain
    /// itself calls [`solve_rowmajor_into`](Self::solve_rowmajor_into)
    /// directly).
    pub fn solve_block(&self, b: &MultiVector) -> MultiVector {
        assert_eq!(b.nrows(), self.n);
        MultiVector::from_rowmajor(&self.solve_rowmajor(&b.to_rowmajor(), b.ncols()), b.ncols())
    }
}

impl<T: Scalar> EnvelopeLdl<T> {
    /// Stores a completed f64 factorisation at precision `T`: clones the
    /// envelope structure, rounds each strictly-lower entry once, and
    /// folds each nonzero pivot ([`Scalar::fold_divisor`]; null-direction
    /// pivots stay exactly zero). A copy at f64.
    pub fn from_f64(src: &EnvelopeLdl<f64>) -> Self {
        EnvelopeLdl {
            n: src.n,
            first: src.first.clone(),
            offsets: src.offsets.clone(),
            l: src.l.iter().map(|&v| T::from_f64(v)).collect(),
            d: src
                .d
                .iter()
                .map(|&d| {
                    if d == 0.0 {
                        T::ZERO
                    } else {
                        T::fold_divisor(d)
                    }
                })
                .collect(),
        }
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of zero pivots (dimension of the detected null space).
    pub fn null_dim(&self) -> usize {
        self.d.iter().filter(|&&d| d == T::ZERO).count()
    }

    /// Stored strictly-lower entries (the envelope size). Each solve
    /// streams this twice (forward + backward); the dense factor streams
    /// `n(n−1)/2` twice. The ratio is the bottom's per-solve byte saving.
    pub fn envelope_nnz(&self) -> usize {
        self.l.len()
    }

    /// Bytes one solve streams: the packed lower entries twice (forward
    /// and backward) plus the diagonal, at the storage width.
    pub fn stream_bytes(&self) -> usize {
        (2 * self.l.len() + self.d.len()) * std::mem::size_of::<T>()
    }

    /// Heap bytes the factor keeps resident (row starts + offsets +
    /// packed lower entries + diagonal).
    pub fn resident_bytes(&self) -> usize {
        self.first.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + (self.l.len() + self.d.len()) * std::mem::size_of::<T>()
    }

    /// Solves `A X = B` for `k` row-major right-hand sides into a
    /// caller-owned output buffer, every product and partial sum at
    /// precision `T`. Performs no heap allocation once `out` has capacity
    /// `n·k`, at every width: the widths `k ∈ {1, 2, 4, 8, 16, 32}` run
    /// monomorphised kernels with register-resident rows, the others a
    /// kernel that needs no temporaries. Identical arithmetic per column
    /// at every width.
    pub fn solve_rowmajor_into(&self, b: &[T], k: usize, out: &mut Vec<T>) {
        assert_eq!(b.len(), self.n * k);
        out.clear();
        out.extend_from_slice(b);
        let z = out;
        if self.n == 0 || k == 0 {
            return;
        }
        match k {
            1 => self.tri_solve::<1>(z),
            2 => self.tri_solve::<2>(z),
            4 => self.tri_solve::<4>(z),
            8 => self.tri_solve::<8>(z),
            16 => self.tri_solve::<16>(z),
            32 => self.tri_solve::<32>(z),
            _ => self.tri_solve_generic(z, k),
        }
    }

    /// The K-wide triangular solves, monomorphised so the inner update is
    /// a register-resident K-wide fused multiply-add: forward `L Z = B` (gather along
    /// the packed row), diagonal scale, backward `Lᵀ X = Z` in scatter
    /// form (row `i`, once final, updates rows `first[i]..i` along the
    /// same packed row — both passes stream the envelope contiguously).
    fn tri_solve<const K: usize>(&self, zr: &mut [T]) {
        let n = self.n;
        for i in 0..n {
            let fi = self.first[i] as usize;
            if fi == i {
                continue;
            }
            let (head, tail) = zr.split_at_mut(i * K);
            let zi: &mut [T] = &mut tail[..K];
            let lrow = &self.l[self.offsets[i]..self.offsets[i + 1]];
            let zrows = &head[fi * K..];
            if T::CHAINS == 1 {
                // Serial, subtracting from z_i entry by entry.
                let mut acc = [T::ZERO; K];
                acc.copy_from_slice(zi);
                for (row, &lij) in zrows.chunks_exact(K).zip(lrow) {
                    for jj in 0..K {
                        acc[jj] -= lij * row[jj];
                    }
                }
                zi.copy_from_slice(&acc);
            } else {
                // Products summed into chains by band position, starting
                // from zero, then subtracted from z_i once.
                let mut acc = [[T::ZERO; K]; 4];
                let mut zq = zrows.chunks_exact(T::CHAINS * K);
                let mut lq = lrow.chunks_exact(T::CHAINS);
                for (zquad, lquad) in (&mut zq).zip(&mut lq) {
                    for c in 0..T::CHAINS {
                        let zc = &zquad[c * K..(c + 1) * K];
                        for jj in 0..K {
                            acc[c][jj] += lquad[c] * zc[jj];
                        }
                    }
                }
                let rest = zq.remainder().chunks_exact(K).zip(lq.remainder());
                for (ch, (zc, &lij)) in acc.iter_mut().zip(rest) {
                    for jj in 0..K {
                        ch[jj] += lij * zc[jj];
                    }
                }
                for jj in 0..K {
                    zi[jj] -= T::sum_chains([acc[0][jj], acc[1][jj], acc[2][jj], acc[3][jj]]);
                }
            }
        }
        self.scale_by_pivots(zr, K);
        for i in (0..n).rev() {
            let fi = self.first[i] as usize;
            if fi == i {
                continue;
            }
            let (head, tail) = zr.split_at_mut(i * K);
            let mut xi = [T::ZERO; K];
            xi.copy_from_slice(&tail[..K]);
            let lrow = &self.l[self.offsets[i]..self.offsets[i + 1]];
            for (row, &lij) in head[fi * K..].chunks_exact_mut(K).zip(lrow) {
                for jj in 0..K {
                    row[jj] -= lij * xi[jj];
                }
            }
        }
    }

    /// Fallback for block widths outside the monomorphised set; the same
    /// operation order per column. It reads row `i` where it lies instead
    /// of staging it in a k-wide temporary, and the chained forward pass
    /// runs one column at a time.
    fn tri_solve_generic(&self, zr: &mut [T], k: usize) {
        let n = self.n;
        for i in 0..n {
            let fi = self.first[i] as usize;
            let (head, tail) = zr.split_at_mut(i * k);
            let zi = &mut tail[..k];
            let lrow = &self.l[self.offsets[i]..self.offsets[i + 1]];
            let zrows = &head[fi * k..];
            if T::CHAINS == 1 {
                for (row, &lij) in zrows.chunks_exact(k).zip(lrow) {
                    for (a, &zj) in zi.iter_mut().zip(row) {
                        *a -= lij * zj;
                    }
                }
            } else {
                for (jj, a) in zi.iter_mut().enumerate() {
                    let mut s = [T::ZERO; 4];
                    for (t, &lij) in lrow.iter().enumerate() {
                        s[t % T::CHAINS] += lij * zrows[t * k + jj];
                    }
                    *a -= T::sum_chains(s);
                }
            }
        }
        self.scale_by_pivots(zr, k);
        for i in (0..n).rev() {
            let fi = self.first[i] as usize;
            let (head, tail) = zr.split_at_mut(i * k);
            let xi = &tail[..k];
            let lrow = &self.l[self.offsets[i]..self.offsets[i + 1]];
            for (row, &lij) in head[fi * k..].chunks_exact_mut(k).zip(lrow) {
                for (x, &v) in row.iter_mut().zip(xi) {
                    *x -= lij * v;
                }
            }
        }
    }

    /// The diagonal pass `Z ← D⁻¹ Z` ([`Scalar::pivot`]).
    #[inline(always)]
    fn scale_by_pivots(&self, zr: &mut [T], k: usize) {
        for (row, &di) in zr.chunks_exact_mut(k).zip(&self.d) {
            for v in row {
                *v = v.pivot(di);
            }
        }
    }
}

impl LinearOperator for EnvelopeLdl {
    fn dim(&self) -> usize {
        self.n
    }

    /// Applies the (pseudo)inverse via the stored factors (operator view
    /// for plugging the bottom into generic iterative drivers).
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(&self.solve(x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::DenseLdl;
    use crate::laplacian::laplacian_of;
    use crate::vector::{norm2, project_out_constant, sub};
    use parsdd_graph::generators;
    use parsdd_graph::reorder::{rcm_order, relabel};

    fn balanced_rhs(n: usize, s: usize) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n).map(|i| ((i * (13 + s)) % 17) as f64 - 8.0).collect();
        project_out_constant(&mut b);
        b
    }

    #[test]
    fn matches_dense_ldl_on_grid() {
        let g = generators::grid2d(9, 7, |x, y| 1.0 + ((x + y) % 3) as f64);
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let dense = DenseLdl::from_csr(&laplacian_of(&g), 1e-10);
        assert_eq!(env.null_dim(), dense.null_dim());
        let b = balanced_rhs(g.n(), 0);
        let xe = env.solve(&b);
        let xd = dense.solve(&b);
        for (a, c) in xe.iter().zip(&xd) {
            assert!((a - c).abs() < 1e-9, "{a} vs {c}");
        }
    }

    #[test]
    fn residual_small_on_rcm_ordered_graph() {
        let g = generators::weighted_random_graph(300, 900, 0.5, 8.0, 5);
        let g = relabel(&g, &rcm_order(&g));
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        assert!(env.envelope_nnz() <= g.n() * (g.n() - 1) / 2);
        let l = laplacian_of(&g);
        let b = balanced_rhs(g.n(), 1);
        let x = env.solve(&b);
        let r = sub(&b, &l.apply_vec(&x));
        assert!(
            norm2(&r) < 1e-7 * norm2(&b).max(1.0),
            "residual {}",
            norm2(&r)
        );
    }

    #[test]
    fn disconnected_components_two_null_dirs() {
        use parsdd_graph::{Edge, Graph};
        let g = Graph::from_edges(
            5,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(2, 3, 2.0),
                Edge::new(3, 4, 1.5),
            ],
        );
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        assert_eq!(env.null_dim(), 2);
        let b = vec![1.0, -1.0, 1.0, 0.5, -1.5];
        let x = env.solve(&b);
        let l = laplacian_of(&g);
        let r = sub(&b, &l.apply_vec(&x));
        assert!(norm2(&r) < 1e-9);
    }

    #[test]
    fn rowmajor_block_matches_single_bitwise() {
        let g = generators::grid2d(8, 8, |_, _| 1.0);
        let g = relabel(&g, &rcm_order(&g));
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let n = g.n();
        for k in [2usize, 3, 4, 16] {
            let cols: Vec<Vec<f64>> = (0..k).map(|s| balanced_rhs(n, s)).collect();
            let mut br = vec![0.0; n * k];
            for (j, c) in cols.iter().enumerate() {
                for i in 0..n {
                    br[i * k + j] = c[i];
                }
            }
            let xr = env.solve_rowmajor(&br, k);
            for (j, c) in cols.iter().enumerate() {
                let single = env.solve(c);
                for i in 0..n {
                    assert_eq!(
                        xr[i * k + j].to_bits(),
                        single[i].to_bits(),
                        "k={k} col {j} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn envelope_much_smaller_than_dense_on_band_graph() {
        // An RCM-ordered grid: profile ~side, dense triangle ~n²/2.
        let g = generators::grid2d(20, 20, |_, _| 1.0);
        let g = relabel(&g, &rcm_order(&g));
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let dense_triangle = g.n() * (g.n() - 1) / 2;
        assert!(
            env.envelope_nnz() * 4 < dense_triangle,
            "envelope {} vs dense {}",
            env.envelope_nnz(),
            dense_triangle
        );
    }

    /// The symbolic profile is exactly the size the factor allocates,
    /// under RCM and under the generator's own numbering.
    #[test]
    fn envelope_profile_matches_factor_size() {
        let grid = generators::grid2d(20, 20, |_, _| 1.0);
        let random = generators::weighted_random_graph(300, 900, 0.5, 8.0, 5);
        for g in [&grid, &random] {
            for h in [g.clone(), relabel(g, &rcm_order(g))] {
                assert_eq!(
                    envelope_profile(&h),
                    EnvelopeLdl::from_graph(&h, 1e-10).envelope_nnz()
                );
            }
        }
    }

    #[test]
    fn empty_and_edgeless() {
        use parsdd_graph::Graph;
        let g = Graph::from_edges(3, vec![]);
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        assert_eq!(env.null_dim(), 3);
        assert_eq!(env.solve(&[1.0, 2.0, 3.0]), vec![0.0, 0.0, 0.0]);
        let g0 = Graph::from_edges(0, vec![]);
        let env0 = EnvelopeLdl::from_graph(&g0, 1e-10);
        assert!(env0.solve(&[]).is_empty());
    }

    fn rhs32(n: usize, s: usize) -> Vec<f32> {
        balanced_rhs(n, s).iter().map(|&v| v as f32).collect()
    }

    /// The f32 tier preserves structure (envelope size, null directions)
    /// and its all-f32 solve leaves a residual bounded by f32 rounding of
    /// the factor.
    #[test]
    fn f32_demotion_solves_close_to_f64() {
        let g = generators::weighted_random_graph(300, 900, 0.5, 8.0, 5);
        let g = relabel(&g, &rcm_order(&g));
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let env32 = EnvelopeLdl::<f32>::from_f64(&env);
        assert_eq!(env32.dim(), env.dim());
        assert_eq!(env32.envelope_nnz(), env.envelope_nnz());
        assert_eq!(env32.null_dim(), env.null_dim());
        let b32 = rhs32(g.n(), 1);
        let mut x32 = Vec::new();
        env32.solve_rowmajor_into(&b32, 1, &mut x32);
        let b: Vec<f64> = b32.iter().map(|&v| v as f64).collect();
        let x: Vec<f64> = x32.iter().map(|&v| v as f64).collect();
        let r = sub(&b, &laplacian_of(&g).apply_vec(&x));
        assert!(
            norm2(&r) < 1e-5 * norm2(&b),
            "relative residual {}",
            norm2(&r) / norm2(&b)
        );
    }

    /// The all-f32 solve stays within f32 rounding of the f64 factor's
    /// solve, column by column, at a monomorphised and a generic width.
    #[test]
    fn f32_vector_path_close_to_f64_vector_path() {
        let g = generators::weighted_random_graph(300, 900, 0.5, 8.0, 5);
        let g = relabel(&g, &rcm_order(&g));
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let env32 = EnvelopeLdl::<f32>::from_f64(&env);
        let n = g.n();
        for k in [1usize, 3, 4] {
            let cols: Vec<Vec<f32>> = (0..k).map(|s| rhs32(n, s + 2)).collect();
            let br: Vec<f32> = (0..n * k).map(|i| cols[i % k][i / k]).collect();
            let mut xr = Vec::new();
            env32.solve_rowmajor_into(&br, k, &mut xr);
            for (j, c) in cols.iter().enumerate() {
                let x64 = env.solve(&c.iter().map(|&v| v as f64).collect::<Vec<_>>());
                let scale = x64.iter().fold(1.0f64, |a, &v| a.max(v.abs()));
                for (i, &c) in x64.iter().enumerate() {
                    let a = xr[i * k + j] as f64;
                    assert!(
                        (a - c).abs() <= 1e-4 * scale,
                        "k={k} col {j}: {a} vs {c} (scale {scale})"
                    );
                }
            }
        }
    }

    /// Batched all-f32 solves are bitwise identical to looped single
    /// solves at every width, monomorphised or generic.
    #[test]
    fn f32_vector_block_matches_single_bitwise() {
        let g = generators::grid2d(8, 8, |_, _| 1.0);
        let g = relabel(&g, &rcm_order(&g));
        let env32 = EnvelopeLdl::<f32>::from_f64(&EnvelopeLdl::from_graph(&g, 1e-10));
        let n = g.n();
        for k in [2usize, 3, 4, 16, 32] {
            let cols: Vec<Vec<f32>> = (0..k).map(|s| rhs32(n, s)).collect();
            let mut br = vec![0.0f32; n * k];
            for (j, c) in cols.iter().enumerate() {
                for i in 0..n {
                    br[i * k + j] = c[i];
                }
            }
            let mut xr = Vec::new();
            env32.solve_rowmajor_into(&br, k, &mut xr);
            let mut single = Vec::new();
            for (j, c) in cols.iter().enumerate() {
                env32.solve_rowmajor_into(c, 1, &mut single);
                for i in 0..n {
                    assert_eq!(
                        xr[i * k + j].to_bits(),
                        single[i].to_bits(),
                        "k={k} col {j} row {i}"
                    );
                }
            }
        }
    }

    /// Null directions survive demotion: zero pivots stay exactly zero,
    /// the corresponding solution coordinates stay exactly 0, and the
    /// residual is at f32 rounding.
    #[test]
    fn f32_null_directions_preserved() {
        use parsdd_graph::{Edge, Graph};
        let g = Graph::from_edges(
            5,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(2, 3, 2.0),
                Edge::new(3, 4, 1.5),
            ],
        );
        let env32 = EnvelopeLdl::<f32>::from_f64(&EnvelopeLdl::from_graph(&g, 1e-10));
        assert_eq!(env32.null_dim(), 2);
        let b = [1.0f32, -1.0, 1.0, 0.5, -1.5];
        let mut x = Vec::new();
        env32.solve_rowmajor_into(&b, 1, &mut x);
        for (i, &d) in env32.d.iter().enumerate() {
            if d == 0.0 {
                assert_eq!(x[i], 0.0, "null direction {i}");
            }
        }
        let x64: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let b64: Vec<f64> = b.iter().map(|&v| v as f64).collect();
        let r = sub(&b64, &laplacian_of(&g).apply_vec(&x64));
        assert!(norm2(&r) < 1e-5);
    }
}
