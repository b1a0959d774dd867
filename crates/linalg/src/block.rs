//! Column-blocked dense vectors (`MultiVector`) and blocked kernels.
//!
//! Every application of the solver is a many-right-hand-side workload —
//! Spielman–Srivastava effective resistances alone do `O(log n)` solves
//! against the same Laplacian — yet a single-vector solve path re-streams
//! every chain level's sparse matrix through memory once *per* right-hand
//! side. A [`MultiVector`] packs `k` right-hand sides as the columns of a
//! column-major block so that the expensive operators (sparse
//! matrix–block products, elimination traces, dense triangular solves)
//! stream their matrix **once per block** instead of once per vector.
//!
//! **Layout.** Column-major, `ncols = k`: column `j` is the contiguous
//! slice `data[j·n .. (j+1)·n]`. Contiguous columns mean every
//! single-vector kernel of [`crate::vector`] applies unchanged to a
//! column, which is what keeps the blocked path *bitwise identical per
//! column* to the `k = 1` path: per-column reductions (dot, norm) run the
//! same length-`n` reduction tree whether the column travels alone or in
//! a block, and elementwise updates are partition-independent. The solver
//! relies on this — `solve_many` of `k` systems returns exactly the bits
//! a loop of single `solve` calls returns (see `DESIGN.md` §2.2).
//!
//! **Parallel row access.** Blocked sparse kernels want to parallelise
//! over *rows* while writing all `k` columns — with a column-major block
//! that is `k` interleaved sub-slices per row range, which
//! [`MultiVector::row_chunks_mut`] materialises safely (a vector of
//! per-chunk column-slice groups; no `unsafe`). The chunk size is a fixed
//! row count, so the decomposition — like every split tree in the rayon
//! shim — is independent of the pool width.

use rayon::prelude::*;

/// A column-major block of `ncols` dense vectors of length `nrows`
/// (`k` right-hand sides or iterates travelling together).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVector {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl MultiVector {
    /// The all-zero block of `ncols` columns of length `nrows`.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        MultiVector {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Packs `columns` (all of equal length) into a block.
    ///
    /// Panics if the columns have unequal lengths.
    pub fn from_columns<C: AsRef<[f64]>>(columns: &[C]) -> Self {
        let ncols = columns.len();
        let nrows = columns.first().map_or(0, |c| c.as_ref().len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for c in columns {
            let c = c.as_ref();
            assert_eq!(c.len(), nrows, "ragged columns");
            data.extend_from_slice(c);
        }
        MultiVector { nrows, ncols, data }
    }

    /// The `k = 1` block holding a copy of one vector.
    pub fn from_column(column: &[f64]) -> Self {
        MultiVector {
            nrows: column.len(),
            ncols: 1,
            data: column.to_vec(),
        }
    }

    /// Number of rows (the dimension `n`).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (the block width `k`).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a contiguous mutable slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Iterator over the columns.
    pub fn columns(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.nrows.max(1)).take(self.ncols)
    }

    /// Unpacks into owned per-column vectors.
    pub fn into_columns(self) -> Vec<Vec<f64>> {
        let nrows = self.nrows;
        let mut data = self.data;
        let mut out = Vec::with_capacity(self.ncols);
        for _ in 0..self.ncols {
            let rest = data.split_off(nrows.min(data.len()));
            out.push(data);
            data = rest;
        }
        out
    }

    /// The flat column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat column-major storage, mutably (elementwise updates with
    /// column-independent scalars may run on the flat view — per-element
    /// arithmetic is identical at every block width and partition).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// The sub-block holding the listed columns, in order (used to deflate
    /// converged columns out of an iteration).
    pub fn select_columns(&self, keep: &[usize]) -> Self {
        let mut data = Vec::with_capacity(self.nrows * keep.len());
        for &j in keep {
            data.extend_from_slice(self.col(j));
        }
        MultiVector {
            nrows: self.nrows,
            ncols: keep.len(),
            data,
        }
    }

    /// The row-major (interleaved) copy of the block: entry `(i, j)` at
    /// `i·k + j`. This is the layout the solver chain's W-cycle uses
    /// internally (contiguous k-wide rows); the transpose is tiled so the
    /// scattered side of the copy stays cache-resident.
    pub fn to_rowmajor(&self) -> Vec<f64> {
        let (n, k) = (self.nrows, self.ncols);
        let mut out = vec![0.0f64; n * k];
        const TILE: usize = 64;
        let mut i0 = 0;
        while i0 < n {
            let iend = (i0 + TILE).min(n);
            for (j, col) in self.columns().enumerate() {
                for i in i0..iend {
                    out[i * k + j] = col[i];
                }
            }
            i0 = iend;
        }
        out
    }

    /// Rebuilds a column-major block from a row-major buffer of width
    /// `ncols` (the inverse of [`to_rowmajor`](Self::to_rowmajor)).
    pub fn from_rowmajor(data: &[f64], ncols: usize) -> Self {
        assert!(ncols > 0, "need at least one column");
        assert_eq!(data.len() % ncols, 0, "buffer is not a whole block");
        let nrows = data.len() / ncols;
        let mut mv = MultiVector::zeros(nrows, ncols);
        const TILE: usize = 64;
        let mut cols: Vec<&mut [f64]> = mv.data.chunks_exact_mut(nrows.max(1)).collect();
        let mut i0 = 0;
        while i0 < nrows {
            let iend = (i0 + TILE).min(nrows);
            for (j, col) in cols.iter_mut().enumerate() {
                for i in i0..iend {
                    col[i] = data[i * ncols + j];
                }
            }
            i0 = iend;
        }
        drop(cols);
        mv
    }

    /// Splits the block into row chunks of (at most) `chunk_rows` rows:
    /// entry `c` of the result holds, for every column, the mutable slice
    /// of that column's rows `[c·chunk_rows, (c+1)·chunk_rows)`. This is
    /// the safe row-parallel access pattern for blocked sparse kernels:
    /// hand the groups to `into_par_iter` and each task owns one row range
    /// across all `k` columns.
    pub fn row_chunks_mut(&mut self, chunk_rows: usize) -> Vec<Vec<&mut [f64]>> {
        let chunk = chunk_rows.max(1);
        if self.nrows == 0 {
            return Vec::new();
        }
        let nchunks = self.nrows.div_ceil(chunk);
        let mut groups: Vec<Vec<&mut [f64]>> = (0..nchunks)
            .map(|_| Vec::with_capacity(self.ncols))
            .collect();
        for col in self.data.chunks_mut(self.nrows) {
            for (group, piece) in groups.iter_mut().zip(col.chunks_mut(chunk)) {
                group.push(piece);
            }
        }
        groups
    }
}

/// Row-chunk size of the blocked sparse kernels: big enough to amortise
/// task dispatch over rows with ~2 nonzeros, small enough to keep a
/// 16-wide pool fed on bench-size levels. Fixed (never width-dependent)
/// so blocked results are bitwise reproducible at every pool width.
pub const BLOCK_ROW_CHUNK: usize = 1 << 9;

/// Applies a per-row kernel `row(v, acc)` — which must fill `acc[j]` with
/// row `v`'s value for column `j` — across all rows of `y`, in parallel
/// over fixed-size row chunks. This is the driver shared by the blocked
/// Laplacian and CSR products: the caller's kernel streams the matrix row
/// once and reuses it for all `k` columns.
pub fn fill_rows_blocked<F>(y: &mut MultiVector, parallel: bool, row: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let k = y.ncols();
    if k == 0 || y.nrows() == 0 {
        return;
    }
    let groups = y.row_chunks_mut(BLOCK_ROW_CHUNK);
    let run = |(chunk_index, mut cols): (usize, Vec<&mut [f64]>)| {
        let base = chunk_index * BLOCK_ROW_CHUNK;
        let rows = cols[0].len();
        let mut acc = vec![0.0f64; k];
        for r in 0..rows {
            row(base + r, &mut acc);
            for (c, &a) in cols.iter_mut().zip(acc.iter()) {
                c[r] = a;
            }
        }
    };
    if parallel && groups.len() > 1 {
        groups.into_par_iter().enumerate().for_each(run);
    } else {
        groups.into_iter().enumerate().for_each(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_column_access() {
        let mv = MultiVector::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(mv.nrows(), 2);
        assert_eq!(mv.ncols(), 2);
        assert_eq!(mv.col(0), &[1.0, 2.0]);
        assert_eq!(mv.col(1), &[3.0, 4.0]);
        let cols = mv.clone().into_columns();
        assert_eq!(cols, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let one = MultiVector::from_column(&[5.0, 6.0]);
        assert_eq!(one.ncols(), 1);
        assert_eq!(one.col(0), &[5.0, 6.0]);
    }

    #[test]
    fn select_columns_deflates() {
        let mv = MultiVector::from_columns(&[vec![1.0], vec![2.0], vec![3.0]]);
        let kept = mv.select_columns(&[2, 0]);
        assert_eq!(kept.ncols(), 2);
        assert_eq!(kept.col(0), &[3.0]);
        assert_eq!(kept.col(1), &[1.0]);
    }

    #[test]
    fn row_chunks_cover_all_rows_per_column() {
        let n = 1500;
        let mut mv = MultiVector::zeros(n, 3);
        for group in mv.row_chunks_mut(512) {
            assert_eq!(group.len(), 3);
        }
        // Writing through the chunks touches every entry exactly once.
        let mut seen = MultiVector::zeros(n, 3);
        for (ci, group) in seen.row_chunks_mut(512).into_iter().enumerate() {
            for (j, col) in group.into_iter().enumerate() {
                for (r, slot) in col.iter_mut().enumerate() {
                    *slot = (ci * 512 + r) as f64 + 1000.0 * j as f64;
                }
            }
        }
        for j in 0..3 {
            for (r, &v) in seen.col(j).iter().enumerate() {
                assert_eq!(v, r as f64 + 1000.0 * j as f64);
            }
        }
    }

    #[test]
    fn fill_rows_blocked_matches_sequential() {
        let n = 2000;
        let x = MultiVector::from_columns(&[
            (0..n).map(|i| i as f64).collect::<Vec<_>>(),
            (0..n).map(|i| (i as f64) * 0.5).collect::<Vec<_>>(),
        ]);
        let mut y = MultiVector::zeros(n, 2);
        fill_rows_blocked(&mut y, true, |v, acc| {
            for (j, a) in acc.iter_mut().enumerate() {
                *a = 2.0 * x.col(j)[v] + 1.0;
            }
        });
        for j in 0..2 {
            for v in 0..n {
                assert_eq!(y.col(j)[v], 2.0 * x.col(j)[v] + 1.0);
            }
        }
    }
}
