//! Sparse LDLᵀ factorisation for the bottom of the chain.
//!
//! Fact 6.4 of the paper ends the chain in a direct solve of a small
//! bottom system, and a W-cycle solves that system once per recursion
//! leaf — hundreds of times per preconditioner application — so the bytes
//! one solve streams decide how early the chain may stop. This factor
//! stores only the structural nonzeros of `L`: under a fill-reducing
//! numbering ([`parsdd_graph::reorder::min_degree_order`]) a grid-like
//! bottom keeps 4–9× fewer entries than the envelope of a
//! bandwidth-reducing one, and each solve streams exactly those entries
//! twice.
//!
//! The factorisation is the classic up-looking one over the elimination
//! tree (Liu; Davis' LDL): a symbolic pass walks the tree to count each
//! column of `L`, then row `k` of `L` is a sparse triangular solve whose
//! pattern is the union of tree paths from the entries of column `k` of
//! `A` above the diagonal. The stored entry count is therefore exactly
//! the fill the minimum-degree ordering counts, which is how the chain
//! prices a direct bottom before factoring it.
//!
//! Same semantics as [`crate::cholesky::DenseLdl`]: symmetric positive
//! *semi*-definite input, pivots at or below a tolerance relative to the
//! largest diagonal entry are treated as zero (null directions get
//! solution coordinate 0, and their column of `L` is zero), and callers
//! project the right-hand side onto the range.
//!
//! The factorisation runs in f64; [`SparseLdl::from_f64`] stores a finished
//! factor at the chain's storage precision, and the solve is written once
//! over [`Scalar`].

use crate::scalar::Scalar;
use parsdd_graph::Graph;

/// Marks "no parent" in the elimination tree and "unvisited" in the walks.
const NONE: u32 = u32::MAX;

/// Elimination tree (`parent[i] > i`, or [`NONE`] at a root) and the
/// strictly-lower entry count of each column of `L`, for the Laplacian of
/// `g` under its current numbering. `O(|L|)` time: each column walk stops
/// at the first vertex already visited for that row.
fn symbolic(g: &Graph) -> (Vec<u32>, Vec<usize>) {
    let n = g.n();
    let (offsets, targets) = (g.csr_offsets(), g.csr_targets());
    let mut parent = vec![NONE; n];
    let mut visited = vec![NONE; n];
    let mut counts = vec![0usize; n];
    for k in 0..n {
        visited[k] = k as u32;
        for &t in &targets[offsets[k]..offsets[k + 1]] {
            let mut i = t as usize;
            if i >= k {
                continue;
            }
            while visited[i] != k as u32 {
                if parent[i] == NONE {
                    parent[i] = k as u32;
                }
                counts[i] += 1;
                visited[i] = k as u32;
                i = parent[i] as usize;
            }
        }
    }
    (parent, counts)
}

/// A sparse LDLᵀ factorisation of a graph Laplacian in the numbering it
/// was given, stored at precision `T`.
///
/// `L` is kept by columns, each column's rows ascending. The forward pass
/// scatters each finished column into the rows below it, the backward pass
/// gathers each column against the rows below it; both stream the stored
/// entries once. Every column of a block sees the operation order of the
/// single-vector solve, so batched solves are bitwise identical to looped
/// ones. The diagonal is kept in [`Scalar::fold_divisor`] form (the pivot
/// at f64, its reciprocal at f32); a zero marks a null direction.
#[derive(Debug, Clone)]
pub struct SparseLdl<T = f64> {
    n: usize,
    /// Column `j`'s entries are at `col_starts[j]..col_starts[j + 1]`.
    col_starts: Vec<usize>,
    /// Row of each stored entry (ascending within a column, all `> j`).
    rows: Vec<u32>,
    /// Strictly-lower entries of the unit lower-triangular factor.
    l: Vec<T>,
    /// Diagonal factor in [`Scalar::fold_divisor`] form; zeros mark
    /// numerically null directions.
    d: Vec<T>,
}

impl SparseLdl<f64> {
    /// Factors the Laplacian of `g` under its **current** numbering: the
    /// caller chooses the fill-reducing order and relabels first (the
    /// stored entries — and so the cost — are whatever the numbering
    /// gives). Parallel edges are summed; self-loops are ignored.
    /// `rel_tol` is the zero-pivot threshold relative to the largest
    /// diagonal entry.
    pub fn from_graph(g: &Graph, rel_tol: f64) -> Self {
        let n = g.n();
        let (parent, counts) = symbolic(g);
        let mut col_starts = Vec::with_capacity(n + 1);
        col_starts.push(0usize);
        for &c in &counts {
            col_starts.push(col_starts[col_starts.len() - 1] + c);
        }
        drop(counts);
        let nnz = col_starts[n];
        let mut rows = vec![0u32; nnz];
        let mut l = vec![0.0f64; nnz];
        // Next free slot of each column: row k is appended at step k.
        let mut ends = col_starts[..n].to_vec();

        let (offsets, targets, weights) = (g.csr_offsets(), g.csr_targets(), g.csr_weights());
        let diag: Vec<f64> = (0..n)
            .map(|v| {
                let arcs = offsets[v]..offsets[v + 1];
                (targets[arcs.clone()].iter().zip(&weights[arcs]))
                    .filter(|&(&u, _)| u as usize != v)
                    .map(|(_, &w)| w)
                    .sum()
            })
            .collect();
        let max_diag = diag.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
        let tol = rel_tol * max_diag;

        let mut d = vec![0.0f64; n];
        // Dense accumulator of row k's entries, zero between steps.
        let mut y = vec![0.0f64; n];
        let mut visited = vec![NONE; n];
        // Tree paths are collected at the front, then moved to the back in
        // reverse, so `pattern[top..]` ends up in topological order.
        let mut pattern = vec![0u32; n];
        for k in 0..n {
            visited[k] = k as u32;
            let mut top = n;
            let arcs = offsets[k]..offsets[k + 1];
            for (&t, &w) in targets[arcs.clone()].iter().zip(&weights[arcs]) {
                let mut i = t as usize;
                if i >= k {
                    continue;
                }
                y[i] -= w;
                let mut len = 0;
                while visited[i] != k as u32 {
                    pattern[len] = i as u32;
                    len += 1;
                    visited[i] = k as u32;
                    i = parent[i] as usize;
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    pattern[top] = pattern[len];
                }
            }
            // Row k of L by a sparse triangular solve, column by column
            // of L in topological order.
            let mut dk = diag[k];
            for &i in &pattern[top..] {
                let i = i as usize;
                let yi = y[i];
                y[i] = 0.0;
                let (start, end) = (col_starts[i], ends[i]);
                for (&r, &lri) in rows[start..end].iter().zip(&l[start..end]) {
                    y[r as usize] -= lri * yi;
                }
                let lki = if d[i] == 0.0 { 0.0 } else { yi / d[i] };
                dk -= lki * yi;
                rows[end] = k as u32;
                l[end] = lki;
                ends[i] = end + 1;
            }
            d[k] = if dk.abs() <= tol { 0.0 } else { dk };
        }
        debug_assert!(ends.iter().zip(&col_starts[1..]).all(|(a, b)| a == b));
        SparseLdl {
            n,
            col_starts,
            rows,
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

    /// Solves `A X = B` for `k` row-major right-hand sides (`b[i·k + j]`),
    /// streaming the factor once per triangular pass. Batched solves are
    /// bitwise identical to looped single solves.
    pub fn solve_rowmajor(&self, b: &[f64], k: usize) -> Vec<f64> {
        let mut z = Vec::new();
        self.solve_rowmajor_into(b, k, &mut z);
        z
    }
}

impl<T: Scalar> SparseLdl<T> {
    /// Stores a completed f64 factorisation at precision `T`: clones the
    /// structure, rounds each stored entry once, and folds each nonzero
    /// pivot ([`Scalar::fold_divisor`]; null-direction pivots stay exactly
    /// zero). A copy at f64.
    pub fn from_f64(src: &SparseLdl<f64>) -> Self {
        SparseLdl {
            n: src.n,
            col_starts: src.col_starts.clone(),
            rows: src.rows.clone(),
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

    /// Stored strictly-lower entries of `L`: the fill
    /// [`min_degree_order`](parsdd_graph::reorder::min_degree_order)
    /// counts when the factor is built in its order. Each solve streams
    /// them twice.
    pub fn nnz(&self) -> usize {
        self.l.len()
    }

    /// Bytes one solve streams: the stored entries and their row indices
    /// twice (forward and backward), the column starts twice, and the
    /// diagonal once.
    pub fn stream_bytes(&self) -> usize {
        2 * self.l.len() * (std::mem::size_of::<T>() + std::mem::size_of::<u32>())
            + 2 * self.col_starts.len() * std::mem::size_of::<usize>()
            + self.d.len() * std::mem::size_of::<T>()
    }

    /// Heap bytes the factor keeps resident.
    pub fn resident_bytes(&self) -> usize {
        self.col_starts.len() * std::mem::size_of::<usize>()
            + self.rows.len() * std::mem::size_of::<u32>()
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

    /// Column `j`'s rows and entries.
    #[inline(always)]
    fn column(&self, j: usize) -> (&[u32], &[T]) {
        let span = self.col_starts[j]..self.col_starts[j + 1];
        (&self.rows[span.clone()], &self.l[span])
    }

    /// The K-wide triangular solves, monomorphised so each update is a
    /// register-resident K-wide multiply-add: forward `L Z = B` scatters
    /// each finished row `z_j` down its column, the diagonal pass scales,
    /// and backward `Lᵀ X = Z` gathers each column into `x_j`.
    fn tri_solve<const K: usize>(&self, z: &mut [T]) {
        let n = self.n;
        for j in 0..n {
            let (rows, l) = self.column(j);
            if rows.is_empty() {
                continue;
            }
            let mut zj = [T::ZERO; K];
            zj.copy_from_slice(&z[j * K..(j + 1) * K]);
            for (&i, &lij) in rows.iter().zip(l) {
                let i = i as usize * K;
                let zi: &mut [T; K] = (&mut z[i..i + K]).try_into().expect("K-wide row");
                for c in 0..K {
                    zi[c] -= lij * zj[c];
                }
            }
        }
        self.scale_by_pivots(z, K);
        for j in (0..n).rev() {
            let (rows, l) = self.column(j);
            if rows.is_empty() {
                continue;
            }
            let mut xj = [T::ZERO; K];
            xj.copy_from_slice(&z[j * K..(j + 1) * K]);
            for (&i, &lij) in rows.iter().zip(l) {
                let i = i as usize * K;
                let xi: &[T; K] = (&z[i..i + K]).try_into().expect("K-wide row");
                for c in 0..K {
                    xj[c] -= lij * xi[c];
                }
            }
            z[j * K..(j + 1) * K].copy_from_slice(&xj);
        }
    }

    /// Fallback for block widths outside the monomorphised set; the same
    /// operation order per column, reading and writing rows where they
    /// lie instead of staging them.
    fn tri_solve_generic(&self, z: &mut [T], k: usize) {
        let n = self.n;
        for j in 0..n {
            let (rows, l) = self.column(j);
            let (head, tail) = z.split_at_mut((j + 1) * k);
            let zj = &head[j * k..];
            for (&i, &lij) in rows.iter().zip(l) {
                let at = (i as usize - j - 1) * k;
                for (zi, &v) in tail[at..at + k].iter_mut().zip(zj) {
                    *zi -= lij * v;
                }
            }
        }
        self.scale_by_pivots(z, k);
        for j in (0..n).rev() {
            let (rows, l) = self.column(j);
            let (head, tail) = z.split_at_mut((j + 1) * k);
            let xj = &mut head[j * k..];
            for (&i, &lij) in rows.iter().zip(l) {
                let at = (i as usize - j - 1) * k;
                for (x, &v) in xj.iter_mut().zip(&tail[at..at + k]) {
                    *x -= lij * v;
                }
            }
        }
    }

    /// The diagonal pass `Z ← D⁻¹ Z` ([`Scalar::pivot`]).
    #[inline(always)]
    fn scale_by_pivots(&self, z: &mut [T], k: usize) {
        for (row, &dj) in z.chunks_exact_mut(k).zip(&self.d) {
            for v in row {
                *v = v.pivot(dj);
            }
        }
    }
}
