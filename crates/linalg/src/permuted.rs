//! Cache-resident chain-level storage: merged diag+offdiag Laplacian rows
//! in (bandwidth-reducing) permuted index space, plus the fused sweep
//! kernels the solver chain's inner loops run on.
//!
//! The W-cycle is memory-bandwidth-bound, so what matters per inner
//! iteration is bytes streamed, not flops. A [`PermutedLevel`] bakes the
//! level's vertex permutation into a single merged CSR stream:
//!
//! * the diagonal is stored **inline** as the first entry of each row
//!   (coefficient `+deg(v)`, off-diagonals `−w`), so one matrix stream
//!   serves both the operator apply and the Jacobi-style diagonal — no
//!   second `diag[]` array to stream;
//! * entries are a `u32` column plus a coefficient of the storage
//!   precision — 12 bytes at f64 against the graph-walk kernel's 16
//!   (`target` + `weight` + the `arc_edge` id the solver never uses), 8 at
//!   f32 — and offsets are `u32`;
//! * under a reverse Cuthill–McKee numbering (see
//!   `parsdd_graph::reorder`) the column indices of a row span a narrow
//!   band, so the `x[col]` gathers hit lines that are already hot.
//!
//! The fused kernels collapse the chain's per-iteration vector passes:
//! [`cheb_fused_sweep`](PermutedLevel::cheb_fused_sweep) runs the
//! Chebyshev recurrence's SpMV and both axpy updates in one pass over the
//! rows **without materialising `A·p`**, and
//! [`fused_apply_dot`](PermutedLevel::fused_apply_dot) returns `A·p`
//! together with the per-column `pᵀA p` the outer PCG needs, saving the
//! separate reduction pass.
//!
//! **Precision.** The chain's W-cycle runs at f64 or, on demoted levels,
//! at f32 ([`PermutedLevel::from_level`] narrows each coefficient once);
//! the sweep and [`apply`](PermutedLevel::apply) are written once over
//! [`Scalar`]. The f64-only kernels serve the outer PCG, which always
//! runs at f64: [`apply_rowmajor`](PermutedLevel::apply_rowmajor) and
//! [`fused_apply_dot`](PermutedLevel::fused_apply_dot).
//!
//! **Determinism contract.** Per row, accumulation follows
//! [`Scalar::CHAINS`]: at f64, diagonal first, then off-diagonals in
//! ascending column order — exactly the order the graph-walk kernel used,
//! so results are bitwise identical to it; at f32, four chains by entry
//! position combined `(s0 + s1) + (s2 + s3)`. Rows are independent,
//! row-parallel splits are length-based, and the fused reductions combine
//! fixed 512-row block partials in block order: every result is bitwise
//! identical at every pool width, and per column identical at every block
//! width `k` (batched ≡ looped).

use rayon::prelude::*;

use parsdd_graph::reorder::relabel;
use parsdd_graph::{Edge, Graph};

use crate::scalar::Scalar;

/// Rows per parallel task (and per partial-sum block of the fused
/// reductions — fixed so the reduction tree is independent of both the
/// pool width and the block width `k`).
const CHUNK_ROWS: usize = 1 << 9;

/// Sequential cutoff: below this many rows the kernels run plain loops
/// (matches the other linalg kernels' dispatch policy).
const SEQ_ROWS: usize = 1 << 13;

/// A chain level's Laplacian in merged-row CSR form, in the level's
/// (already permuted) index space, with coefficients stored as `T`. See
/// the module docs for the layout and determinism contract.
#[derive(Debug, Clone)]
pub struct PermutedLevel<T = f64> {
    n: usize,
    /// Row offsets into `cols`/`coefs`, length `n + 1`.
    offsets: Vec<u32>,
    /// Column of each entry; `cols[offsets[v]] == v` (the inline diagonal).
    cols: Vec<u32>,
    /// Coefficient of each entry: `+weighted_degree(v)` for the diagonal,
    /// `−w` for off-diagonals.
    coefs: Vec<T>,
}

/// Row `cols`/`coefs` dotted with the `K` columns of the row-major block
/// `xr` (row `c` at `xr[c·K..(c+1)·K]`), one pass over the row's entries
/// updating all `K` accumulators per entry. Products go to
/// [`Scalar::CHAINS`] partial-sum chains of the storage type `T` by entry
/// position (the diagonal is position 0) and accumulate in `V`; one chain
/// is the pinned serial order. Each column sees the same order at every
/// `K`, and `K` is a compile-time constant so the `K`-lane update
/// vectorises with fixed-size stack accumulators.
///
/// # Safety-by-invariant
/// `cols` only holds indices `< n` (checked at construction), and callers
/// pass `xr` of length `n·K`, so every gather is in bounds.
#[inline(always)]
fn row_dot<T: Scalar + Into<V>, V: Scalar, const K: usize>(
    cols: &[u32],
    coefs: &[T],
    xr: &[V],
) -> [V; K] {
    let mut acc = [[V::ZERO; K]; 4];
    let mut cq = cols.chunks_exact(T::CHAINS);
    let mut wq = coefs.chunks_exact(T::CHAINS);
    for (cs, ws) in (&mut cq).zip(&mut wq) {
        for c in 0..T::CHAINS {
            let o = cs[c] as usize * K;
            debug_assert!(o + K <= xr.len());
            // SAFETY: stored columns are < n and `xr` has length n·K (see
            // the function docs), so `o + K <= xr.len()`.
            let xrow = unsafe { xr.get_unchecked(o..o + K) };
            let w: V = ws[c].into();
            for j in 0..K {
                acc[c][j] += w * xrow[j];
            }
        }
    }
    for (ch, (&ci, &w)) in acc
        .iter_mut()
        .zip(cq.remainder().iter().zip(wq.remainder()))
    {
        let o = ci as usize * K;
        debug_assert!(o + K <= xr.len());
        // SAFETY: as above.
        let xrow = unsafe { xr.get_unchecked(o..o + K) };
        let w: V = w.into();
        for j in 0..K {
            ch[j] += w * xrow[j];
        }
    }
    let mut out = [V::ZERO; K];
    for j in 0..K {
        out[j] = T::sum_chains([acc[0][j], acc[1][j], acc[2][j], acc[3][j]]);
    }
    out
}

impl PermutedLevel<f64> {
    /// Builds the merged-row Laplacian of `g` (weighted degrees are
    /// computed here; rows follow `g`'s CSR arc order, which after a
    /// [`parsdd_graph::reorder::relabel`] is ascending by column).
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let entries = 2 * g.m() + n;
        assert!(entries <= u32::MAX as usize, "level too large for u32 CSR");
        let mut cols = Vec::with_capacity(entries);
        let mut coefs = Vec::with_capacity(entries);
        for v in 0..n as u32 {
            cols.push(v);
            let d = coefs.len();
            coefs.push(0.0);
            let mut deg = 0.0f64;
            for (u, w, _e) in g.arcs(v) {
                deg += w;
                cols.push(u);
                coefs.push(-w);
            }
            coefs[d] = deg;
            offsets.push(cols.len() as u32);
        }
        // Kernel invariant: every stored column index addresses a vertex
        // of this level. The hot loops rely on this to gather from `x`/`p`
        // without per-entry bounds checks.
        debug_assert!(cols.iter().all(|&c| (c as usize) < n));
        PermutedLevel {
            n,
            offsets,
            cols,
            coefs,
        }
    }

    /// The canonical graph ([`relabel`]'s form: rows sorted by target,
    /// edges numbered at their smaller endpoint) this matrix was built
    /// from, with vertex `v` renamed `ids[v]` if `ids` is given: the exact
    /// inverse of [`from_graph`](Self::from_graph). An off-diagonal
    /// coefficient is exactly `−w`, so the edges come back in the same
    /// order with the same weight bits; a self-loop's two entries become
    /// one edge again, and isolated vertices stay.
    pub fn to_graph(&self, ids: Option<&[u32]>) -> Graph {
        let mut edges = Vec::with_capacity(self.m());
        for v in 0..self.n {
            let (cols, coefs) = self.row(v);
            let mut loops = 0;
            for (&t, &c) in cols.iter().zip(coefs).skip(1) {
                loops += (t as usize == v) as usize;
                if t as usize > v || (t as usize == v && loops % 2 == 1) {
                    edges.push(Edge::new(v as u32, t, -c));
                }
            }
        }
        // Edge-id order is row order: `from_edges_unchecked` puts back
        // every arc where `from_graph` found it.
        let g = Graph::from_edges_unchecked(self.n, edges);
        match ids {
            Some(ids) => relabel(&g, ids),
            None => g,
        }
    }

    /// Monomorphised apply chunk: `Y ← L X` over rows `[base, ..)` at
    /// compile-time width `K`.
    #[inline(always)]
    fn apply_chunk_wide<const K: usize>(&self, xr: &[f64], base: usize, ys: &mut [f64]) {
        let mut e = self.offsets[base] as usize;
        for (rr, yrow) in ys.chunks_exact_mut(K).enumerate() {
            let v = base + rr;
            let hi = self.offsets[v + 1] as usize;
            let acc = row_dot::<f64, f64, K>(&self.cols[e..hi], &self.coefs[e..hi], xr);
            yrow.copy_from_slice(&acc);
            e = hi;
        }
    }

    /// Monomorphised fused apply+dot chunk at compile-time width `K`:
    /// writes `AP` rows and accumulates the per-column `pᵀ(L p)` partials
    /// into `acc` in ascending row order.
    #[inline(always)]
    fn fused_apply_dot_chunk_wide<const K: usize>(
        &self,
        p: &[f64],
        base: usize,
        rows: &mut [f64],
        acc: &mut [f64],
    ) {
        let mut e = self.offsets[base] as usize;
        for (rr, aprow) in rows.chunks_exact_mut(K).enumerate() {
            let v = base + rr;
            let hi = self.offsets[v + 1] as usize;
            let a = row_dot::<f64, f64, K>(&self.cols[e..hi], &self.coefs[e..hi], p);
            let prow = &p[v * K..(v + 1) * K];
            aprow.copy_from_slice(&a);
            for j in 0..K {
                acc[j] += prow[j] * a[j];
            }
            e = hi;
        }
    }

    /// `Y ← L X` on row-major blocks of width `k` (row `v` of `X` at
    /// `xr[v·k .. (v+1)·k]`). `k = 1` takes the scalar-accumulator path
    /// of [`apply`](Self::apply); per column the arithmetic is identical
    /// at every `k`.
    pub fn apply_rowmajor(&self, xr: &[f64], yr: &mut [f64], k: usize) {
        assert_eq!(xr.len(), self.n * k);
        assert_eq!(yr.len(), self.n * k);
        if k == 0 || self.n == 0 {
            return;
        }
        if k == 1 {
            self.apply(xr, yr);
            return;
        }
        macro_rules! wide {
            ($K:literal) => {{
                if self.n < SEQ_ROWS {
                    self.apply_chunk_wide::<$K>(xr, 0, yr);
                } else {
                    yr.par_chunks_mut(CHUNK_ROWS * k)
                        .enumerate()
                        .for_each(|(ci, ys)| self.apply_chunk_wide::<$K>(xr, ci * CHUNK_ROWS, ys));
                }
                return;
            }};
        }
        match k {
            2 => wide!(2),
            4 => wide!(4),
            8 => wide!(8),
            16 => wide!(16),
            _ => {}
        }
        let kernel = |base: usize, rows: &mut [f64]| {
            let mut acc = [0.0f64; 32];
            let acc = &mut acc[..k.min(32)];
            for (r, yrow) in rows.chunks_exact_mut(k).enumerate() {
                let v = base + r;
                let (cols, coefs) = self.row(v);
                if k <= 32 {
                    acc.iter_mut().for_each(|a| *a = 0.0);
                    for (&c, &w) in cols.iter().zip(coefs) {
                        let xrow = &xr[c as usize * k..(c as usize + 1) * k];
                        for (a, &xv) in acc.iter_mut().zip(xrow) {
                            *a += w * xv;
                        }
                    }
                    yrow.copy_from_slice(acc);
                } else {
                    yrow.iter_mut().for_each(|y| *y = 0.0);
                    for (&c, &w) in cols.iter().zip(coefs) {
                        let xrow = &xr[c as usize * k..(c as usize + 1) * k];
                        for (y, &xv) in yrow.iter_mut().zip(xrow) {
                            *y += w * xv;
                        }
                    }
                }
            }
        };
        if self.n < SEQ_ROWS {
            kernel(0, yr);
        } else {
            yr.par_chunks_mut(CHUNK_ROWS * k)
                .enumerate()
                .for_each(|(ci, rows)| kernel(ci * CHUNK_ROWS, rows));
        }
    }

    /// `AP ← L P` and, in the same matrix pass, the per-column inner
    /// products `pᵀ(L p)` the PCG step size needs (saving the separate
    /// reduction pass over two n-vectors). Row-major, width `k`.
    ///
    /// The reductions accumulate per fixed 512-row block in row order and
    /// combine blocks in block order — a tree that depends only on `n`,
    /// so each column's value is identical at every `k` and pool width.
    pub fn fused_apply_dot(&self, p: &[f64], ap: &mut [f64], k: usize) -> Vec<f64> {
        let mut dots = Vec::new();
        let mut partial = Vec::new();
        self.fused_apply_dot_into(p, ap, k, &mut dots, &mut partial);
        dots
    }

    /// [`fused_apply_dot`](Self::fused_apply_dot) into caller-owned
    /// buffers: `dots` receives the `k` inner products, `partial` is
    /// block-partial scratch. On the sequential dispatch path (`n` below
    /// the cutoff) this performs no allocation once both buffers have
    /// capacity `k`; the parallel path still collects per-block partials.
    /// Same fixed block tree — bitwise identical results.
    pub fn fused_apply_dot_into(
        &self,
        p: &[f64],
        ap: &mut [f64],
        k: usize,
        dots: &mut Vec<f64>,
        partial: &mut Vec<f64>,
    ) {
        assert_eq!(p.len(), self.n * k);
        assert_eq!(ap.len(), self.n * k);
        dots.clear();
        dots.resize(k, 0.0);
        if k == 0 || self.n == 0 {
            return;
        }
        if k == 1 {
            // Streaming two-row unroll, mirroring the k = 1 fused sweep;
            // block partials still accumulate rows in ascending order.
            let sweep = |base: usize, rows: &mut [f64]| -> f64 {
                let mut acc = 0.0;
                let mut e = self.offsets[base] as usize;
                let mut v = base;
                let mut pairs = rows.chunks_exact_mut(2);
                for pair in pairs.by_ref() {
                    let mid = self.offsets[v + 1] as usize;
                    let hi = self.offsets[v + 2] as usize;
                    let [a0] = row_dot::<f64, f64, 1>(&self.cols[e..mid], &self.coefs[e..mid], p);
                    let [a1] = row_dot::<f64, f64, 1>(&self.cols[mid..hi], &self.coefs[mid..hi], p);
                    pair[0] = a0;
                    pair[1] = a1;
                    acc += p[v] * a0;
                    acc += p[v + 1] * a1;
                    e = hi;
                    v += 2;
                }
                if let [apv] = pairs.into_remainder() {
                    let hi = self.offsets[v + 1] as usize;
                    let [a] = row_dot::<f64, f64, 1>(&self.cols[e..hi], &self.coefs[e..hi], p);
                    *apv = a;
                    acc += p[v] * a;
                }
                acc
            };
            if self.n < SEQ_ROWS {
                for (ci, rows) in ap.chunks_mut(CHUNK_ROWS).enumerate() {
                    dots[0] += sweep(ci * CHUNK_ROWS, rows);
                }
            } else {
                let partials: Vec<f64> = ap
                    .par_chunks_mut(CHUNK_ROWS)
                    .enumerate()
                    .map(|(ci, rows)| sweep(ci * CHUNK_ROWS, rows))
                    .collect();
                for v in partials {
                    dots[0] += v;
                }
            }
            return;
        }
        macro_rules! wide {
            ($K:literal) => {{
                if self.n < SEQ_ROWS {
                    for (ci, rows) in ap.chunks_mut(CHUNK_ROWS * k).enumerate() {
                        partial.clear();
                        partial.resize(k, 0.0);
                        self.fused_apply_dot_chunk_wide::<$K>(p, ci * CHUNK_ROWS, rows, partial);
                        for (o, &v) in dots.iter_mut().zip(partial.iter()) {
                            *o += v;
                        }
                    }
                } else {
                    let partials: Vec<Vec<f64>> = ap
                        .par_chunks_mut(CHUNK_ROWS * k)
                        .enumerate()
                        .map(|(ci, rows)| {
                            let mut acc = vec![0.0f64; k];
                            self.fused_apply_dot_chunk_wide::<$K>(
                                p,
                                ci * CHUNK_ROWS,
                                rows,
                                &mut acc,
                            );
                            acc
                        })
                        .collect();
                    for part in &partials {
                        for (o, &v) in dots.iter_mut().zip(part) {
                            *o += v;
                        }
                    }
                }
                return;
            }};
        }
        match k {
            2 => wide!(2),
            4 => wide!(4),
            8 => wide!(8),
            16 => wide!(16),
            _ => {}
        }
        // Generic fallback: entry-outer (one pass over the row's entries
        // updating all k column accumulators), same per-column entry
        // order as the column-outer loop it replaces.
        let kernel = |base_row: usize, rows: &mut [f64], acc: &mut [f64]| {
            let mut rowacc = [0.0f64; 64];
            for (rr, aprow) in rows.chunks_exact_mut(k).enumerate() {
                let v = base_row + rr;
                let (cols, coefs) = self.row(v);
                let prow = &p[v * k..(v + 1) * k];
                if k <= 64 {
                    let rowacc = &mut rowacc[..k];
                    rowacc.iter_mut().for_each(|a| *a = 0.0);
                    for (&c, &w) in cols.iter().zip(coefs) {
                        let pr = &p[c as usize * k..(c as usize + 1) * k];
                        for (a, &pv) in rowacc.iter_mut().zip(pr) {
                            *a += w * pv;
                        }
                    }
                    aprow.copy_from_slice(rowacc);
                    for j in 0..k {
                        acc[j] += prow[j] * rowacc[j];
                    }
                } else {
                    for j in 0..k {
                        let mut a = 0.0;
                        for (&c, &w) in cols.iter().zip(coefs) {
                            a += w * p[c as usize * k + j];
                        }
                        aprow[j] = a;
                        acc[j] += prow[j] * a;
                    }
                }
            }
        };
        if self.n < SEQ_ROWS {
            // Accumulate per fixed block into reused scratch, fold into
            // `dots` in block order — the same tree as the parallel path.
            for (ci, rows) in ap.chunks_mut(CHUNK_ROWS * k).enumerate() {
                partial.clear();
                partial.resize(k, 0.0);
                kernel(ci * CHUNK_ROWS, rows, partial);
                for (o, &v) in dots.iter_mut().zip(partial.iter()) {
                    *o += v;
                }
            }
        } else {
            let partials: Vec<Vec<f64>> = ap
                .par_chunks_mut(CHUNK_ROWS * k)
                .enumerate()
                .map(|(ci, rows)| {
                    let mut acc = vec![0.0f64; k];
                    kernel(ci * CHUNK_ROWS, rows, &mut acc);
                    acc
                })
                .collect();
            // Combine block partials in block order (fixed tree).
            for part in &partials {
                for (o, &v) in dots.iter_mut().zip(part) {
                    *o += v;
                }
            }
        }
    }
}

impl<T: Scalar> PermutedLevel<T> {
    /// Stores an f64 level at precision `T`: clones the integer structure
    /// and rounds each coefficient once (a copy at f64). The chain always
    /// builds, scales and eliminates in f64, then narrows the storage of
    /// its demoted levels.
    pub fn from_level(src: &PermutedLevel<f64>) -> Self {
        PermutedLevel {
            n: src.n,
            offsets: src.offsets.clone(),
            cols: src.cols.clone(),
            coefs: src.coefs.iter().map(|&w| T::from_f64(w)).collect(),
        }
    }

    /// Monomorphised fused-sweep chunk: `x ← x + α·p`, `r ← r − α·(L p)`
    /// over rows `[base, base + rows)` at compile-time width `K`.
    #[inline(always)]
    fn cheb_chunk_wide<const K: usize>(
        &self,
        alpha: T,
        p: &[T],
        base: usize,
        xs: &mut [T],
        rs: &mut [T],
    ) {
        let mut e = self.offsets[base] as usize;
        for (rr, (xrow, rrow)) in xs
            .chunks_exact_mut(K)
            .zip(rs.chunks_exact_mut(K))
            .enumerate()
        {
            let v = base + rr;
            let hi = self.offsets[v + 1] as usize;
            let acc = row_dot::<T, T, K>(&self.cols[e..hi], &self.coefs[e..hi], p);
            let pvrow = &p[v * K..(v + 1) * K];
            for j in 0..K {
                xrow[j] += alpha * pvrow[j];
                rrow[j] -= alpha * acc[j];
            }
            e = hi;
        }
    }

    /// Dimension (vertex count) of the level.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries (diagonal included).
    pub fn entries(&self) -> usize {
        self.cols.len()
    }

    /// Edge count of the graph the level was built from: two entries per
    /// edge (a self-loop's two at its vertex) besides the diagonal.
    pub fn m(&self) -> usize {
        (self.cols.len() - self.n) / 2
    }

    /// Bytes one full matrix stream reads (entries + offsets), the
    /// quantity the fused sweeps amortise; exposed for the byte
    /// accounting in DESIGN.md §2.3 and the bench metrics.
    pub fn stream_bytes(&self) -> usize {
        self.cols.len() * (4 + std::mem::size_of::<T>()) + self.offsets.len() * 4
    }

    /// The diagonal coefficient of row `v` (the weighted degree), widened
    /// to f64.
    pub fn diag(&self, v: usize) -> f64 {
        self.coefs[self.offsets[v] as usize].into()
    }

    #[inline]
    fn row(&self, v: usize) -> (&[u32], &[T]) {
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        (&self.cols[lo..hi], &self.coefs[lo..hi])
    }

    /// `y ← L x` on a single f64 vector, accumulated in f64 over the
    /// storage's [`Scalar::CHAINS`] chains: at f64 bitwise the graph-walk
    /// kernel (`diag·x[v]` then `−w·x[u]` in arc order); at f32 the
    /// chain's build-time calibration operator, exact sums of widened
    /// products.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        // Walk the merged entry stream once per chunk: `e` advances
        // monotonically, so each row bound is loaded exactly once. Two
        // rows per step keeps two independent accumulator chains in
        // flight; each row's own sum stays in the pinned order.
        let sweep = |base: usize, ys: &mut [f64]| {
            let mut e = self.offsets[base] as usize;
            let mut v = base;
            let mut pairs = ys.chunks_exact_mut(2);
            for pair in pairs.by_ref() {
                let mid = self.offsets[v + 1] as usize;
                let hi = self.offsets[v + 2] as usize;
                [pair[0]] = row_dot::<T, f64, 1>(&self.cols[e..mid], &self.coefs[e..mid], x);
                [pair[1]] = row_dot::<T, f64, 1>(&self.cols[mid..hi], &self.coefs[mid..hi], x);
                e = hi;
                v += 2;
            }
            if let [yv] = pairs.into_remainder() {
                let hi = self.offsets[v + 1] as usize;
                [*yv] = row_dot::<T, f64, 1>(&self.cols[e..hi], &self.coefs[e..hi], x);
            }
        };
        if self.n < SEQ_ROWS {
            sweep(0, y);
        } else {
            y.par_chunks_mut(CHUNK_ROWS)
                .enumerate()
                .for_each(|(ci, ys)| sweep(ci * CHUNK_ROWS, ys));
        }
    }

    /// One fused Chebyshev sweep on row-major blocks of width `k` at the
    /// storage precision: `x ← x + α·p` and `r ← r − α·(L p)` in a
    /// **single pass** over the matrix rows — `L p` is consumed row by
    /// row, never materialised. With the separate p-update this makes the
    /// whole inner iteration two n-length passes (down from five) and one
    /// matrix stream. The step `α` is rounded to `T` once per sweep.
    ///
    /// Per element the arithmetic matches the unfused sequence
    /// (`axpy(α, p, x)`; `apply(p, ap)`; `axpy(−α, ap, r)`, all in `T`)
    /// bitwise, at every block width and pool width.
    pub fn cheb_fused_sweep(&self, alpha: f64, p: &[T], x: &mut [T], r: &mut [T], k: usize) {
        assert_eq!(p.len(), self.n * k);
        assert_eq!(x.len(), self.n * k);
        assert_eq!(r.len(), self.n * k);
        if k == 0 || self.n == 0 {
            return;
        }
        let alpha = T::from_f64(alpha);
        if k == 1 {
            // Streaming walk with a two-row unroll: the two rows'
            // accumulator chains are independent (the core overlaps
            // them), while each row's own sum keeps its order — bitwise
            // identical to the one-row-at-a-time loop.
            let sweep = |base: usize, xs: &mut [T], rs: &mut [T]| {
                let mut e = self.offsets[base] as usize;
                let mut v = base;
                let mut xp = xs.chunks_exact_mut(2);
                let mut rp = rs.chunks_exact_mut(2);
                for (xpair, rpair) in xp.by_ref().zip(rp.by_ref()) {
                    let mid = self.offsets[v + 1] as usize;
                    let hi = self.offsets[v + 2] as usize;
                    let [a0] = row_dot::<T, T, 1>(&self.cols[e..mid], &self.coefs[e..mid], p);
                    let [a1] = row_dot::<T, T, 1>(&self.cols[mid..hi], &self.coefs[mid..hi], p);
                    xpair[0] += alpha * p[v];
                    rpair[0] -= alpha * a0;
                    xpair[1] += alpha * p[v + 1];
                    rpair[1] -= alpha * a1;
                    e = hi;
                    v += 2;
                }
                if let ([xv], [rv]) = (xp.into_remainder(), rp.into_remainder()) {
                    let hi = self.offsets[v + 1] as usize;
                    let [a] = row_dot::<T, T, 1>(&self.cols[e..hi], &self.coefs[e..hi], p);
                    *xv += alpha * p[v];
                    *rv -= alpha * a;
                }
            };
            if self.n < SEQ_ROWS {
                sweep(0, x, r);
            } else {
                // Zipped chunk producers: each task owns one row range of
                // both vectors (no unsafe splitting, no intermediate Vec).
                x.par_chunks_mut(CHUNK_ROWS)
                    .zip(r.par_chunks_mut(CHUNK_ROWS))
                    .enumerate()
                    .for_each(|(ci, (xs, rs))| sweep(ci * CHUNK_ROWS, xs, rs));
            }
            return;
        }
        // Common block widths get a monomorphised kernel: fixed-size
        // stack accumulators let the K-lane entry update vectorise.
        macro_rules! wide {
            ($K:literal) => {{
                if self.n < SEQ_ROWS {
                    self.cheb_chunk_wide::<$K>(alpha, p, 0, x, r);
                } else {
                    x.par_chunks_mut(CHUNK_ROWS * k)
                        .zip(r.par_chunks_mut(CHUNK_ROWS * k))
                        .enumerate()
                        .for_each(|(ci, (xs, rs))| {
                            self.cheb_chunk_wide::<$K>(alpha, p, ci * CHUNK_ROWS, xs, rs)
                        });
                }
                return;
            }};
        }
        match k {
            2 => wide!(2),
            4 => wide!(4),
            8 => wide!(8),
            16 => wide!(16),
            _ => {}
        }
        // Other widths: entry `t` of a row feeds chain `t mod CHAINS`, the
        // assignment `row_dot` makes.
        let kernel = |base_row: usize, xs: &mut [T], rs: &mut [T]| {
            let mut acc = [[T::ZERO; 32]; 4];
            for (rr, (xrow, rrow)) in xs
                .chunks_exact_mut(k)
                .zip(rs.chunks_exact_mut(k))
                .enumerate()
            {
                let v = base_row + rr;
                let (cols, coefs) = self.row(v);
                let pvrow = &p[v * k..(v + 1) * k];
                if k <= 32 {
                    acc.iter_mut().for_each(|ch| ch[..k].fill(T::ZERO));
                    for (t, (&c, &w)) in cols.iter().zip(coefs).enumerate() {
                        let prow = &p[c as usize * k..(c as usize + 1) * k];
                        for (a, &pv) in acc[t % T::CHAINS][..k].iter_mut().zip(prow) {
                            *a += w * pv;
                        }
                    }
                    for j in 0..k {
                        xrow[j] += alpha * pvrow[j];
                        rrow[j] -=
                            alpha * T::sum_chains([acc[0][j], acc[1][j], acc[2][j], acc[3][j]]);
                    }
                } else {
                    for j in 0..k {
                        let mut s = [T::ZERO; 4];
                        for (t, (&c, &w)) in cols.iter().zip(coefs).enumerate() {
                            s[t % T::CHAINS] += w * p[c as usize * k + j];
                        }
                        xrow[j] += alpha * pvrow[j];
                        rrow[j] -= alpha * T::sum_chains(s);
                    }
                }
            }
        };
        if self.n < SEQ_ROWS {
            kernel(0, x, r);
        } else {
            x.par_chunks_mut(CHUNK_ROWS * k)
                .zip(r.par_chunks_mut(CHUNK_ROWS * k))
                .enumerate()
                .for_each(|(ci, (xs, rs))| {
                    kernel(ci * CHUNK_ROWS, xs, rs);
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::LaplacianOp;
    use crate::operator::LinearOperator;
    use crate::vector::axpy;
    use parsdd_graph::generators;
    use parsdd_graph::reorder::{rcm_order, relabel};

    fn test_graph(big: bool) -> Graph {
        let side = if big { 100 } else { 17 };
        let g = generators::grid2d(side, side, |x, y| 1.0 + ((x * 3 + y) % 5) as f64);
        relabel(&g, &rcm_order(&g))
    }

    fn rhs(n: usize, s: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * (7 + s)) % 23) as f64 - 11.0).collect()
    }

    #[test]
    fn apply_matches_graph_walk_bitwise() {
        for big in [false, true] {
            let g = test_graph(big);
            let m = PermutedLevel::from_graph(&g);
            let x = rhs(g.n(), 0);
            let mut y_ref = vec![0.0; g.n()];
            LaplacianOp::new(&g).apply(&x, &mut y_ref);
            let mut y = vec![0.0; g.n()];
            m.apply(&x, &mut y);
            for (a, b) in y.iter().zip(&y_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "big={big}");
            }
        }
    }

    #[test]
    fn apply_rowmajor_matches_per_column_bitwise() {
        let g = test_graph(true);
        let m = PermutedLevel::from_graph(&g);
        let n = g.n();
        let k = 3;
        let cols: Vec<Vec<f64>> = (0..k).map(|s| rhs(n, s)).collect();
        let mut xr = vec![0.0; n * k];
        for (j, c) in cols.iter().enumerate() {
            for i in 0..n {
                xr[i * k + j] = c[i];
            }
        }
        let mut yr = vec![0.0; n * k];
        m.apply_rowmajor(&xr, &mut yr, k);
        for (j, c) in cols.iter().enumerate() {
            let mut y1 = vec![0.0; n];
            m.apply(c, &mut y1);
            for i in 0..n {
                assert_eq!(yr[i * k + j].to_bits(), y1[i].to_bits(), "col {j} row {i}");
            }
        }
    }

    #[test]
    fn fused_sweep_matches_unfused_bitwise() {
        // Both the sequential (small) and parallel (large) dispatch paths.
        for big in [false, true] {
            let g = test_graph(big);
            let m = PermutedLevel::from_graph(&g);
            let n = g.n();
            let alpha = 0.37;
            let p = rhs(n, 1);
            let mut x = rhs(n, 2);
            let mut r = rhs(n, 3);
            // Reference: separate apply + two axpys.
            let mut x_ref = x.clone();
            let mut r_ref = r.clone();
            let mut ap = vec![0.0; n];
            m.apply(&p, &mut ap);
            axpy(alpha, &p, &mut x_ref);
            axpy(-alpha, &ap, &mut r_ref);
            m.cheb_fused_sweep(alpha, &p, &mut x, &mut r, 1);
            for i in 0..n {
                assert_eq!(x[i].to_bits(), x_ref[i].to_bits(), "x[{i}] big={big}");
                assert_eq!(r[i].to_bits(), r_ref[i].to_bits(), "r[{i}] big={big}");
            }
        }
    }

    #[test]
    fn fused_sweep_block_matches_single_bitwise() {
        let g = test_graph(true);
        let m = PermutedLevel::from_graph(&g);
        let n = g.n();
        let k = 4;
        let alpha = -0.21;
        let mut xr = vec![0.0; n * k];
        let mut rr = vec![0.0; n * k];
        let mut pr = vec![0.0; n * k];
        let mut singles: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = Vec::new();
        for j in 0..k {
            let p = rhs(n, j);
            let x = rhs(n, j + 10);
            let r = rhs(n, j + 20);
            for i in 0..n {
                pr[i * k + j] = p[i];
                xr[i * k + j] = x[i];
                rr[i * k + j] = r[i];
            }
            singles.push((p, x, r));
        }
        m.cheb_fused_sweep(alpha, &pr, &mut xr, &mut rr, k);
        for (j, (p, x, r)) in singles.iter_mut().enumerate() {
            m.cheb_fused_sweep(alpha, p, x, r, 1);
            for i in 0..n {
                assert_eq!(xr[i * k + j].to_bits(), x[i].to_bits(), "x col {j}");
                assert_eq!(rr[i * k + j].to_bits(), r[i].to_bits(), "r col {j}");
            }
        }
    }

    #[test]
    fn fused_apply_dot_matches_apply_plus_dot() {
        for big in [false, true] {
            let g = test_graph(big);
            let m = PermutedLevel::from_graph(&g);
            let n = g.n();
            for k in [1usize, 3] {
                let mut pr = vec![0.0; n * k];
                for j in 0..k {
                    let p = rhs(n, j + 2);
                    for i in 0..n {
                        pr[i * k + j] = p[i];
                    }
                }
                let mut ap = vec![0.0; n * k];
                let dots = m.fused_apply_dot(&pr, &mut ap, k);
                let mut ap_ref = vec![0.0; n * k];
                m.apply_rowmajor(&pr, &mut ap_ref, k);
                for i in 0..n * k {
                    assert_eq!(ap[i].to_bits(), ap_ref[i].to_bits(), "big={big} k={k}");
                }
                // The dot must be k-invariant: recompute at k=1 per column.
                for j in 0..k {
                    let p1: Vec<f64> = (0..n).map(|i| pr[i * k + j]).collect();
                    let mut ap1 = vec![0.0; n];
                    let d1 = m.fused_apply_dot(&p1, &mut ap1, 1);
                    assert_eq!(dots[j].to_bits(), d1[0].to_bits(), "col {j} big={big}");
                }
            }
        }
    }

    #[test]
    fn diag_and_stream_accounting() {
        let g = test_graph(false);
        let m = PermutedLevel::from_graph(&g);
        for v in 0..g.n() {
            assert!((m.diag(v) - g.weighted_degree(v as u32)).abs() < 1e-12);
        }
        assert_eq!(m.entries(), 2 * g.m() + g.n());
        assert!(m.stream_bytes() > 0);
    }

    #[test]
    fn f32_demotion_structure_and_bytes() {
        let g = test_graph(false);
        let m = PermutedLevel::from_graph(&g);
        let m32 = PermutedLevel::<f32>::from_level(&m);
        assert_eq!(m32.n(), m.n());
        assert_eq!(m32.entries(), m.entries());
        // 8 bytes/entry against 12 — the coefficient stream halves.
        assert!(m32.stream_bytes() < m.stream_bytes());
        assert_eq!(
            m32.stream_bytes(),
            m.entries() * 8 + (m.n() + 1) * 4,
            "f32 stream accounting"
        );
        for v in 0..g.n() {
            assert_eq!(m32.diag(v), m.diag(v) as f32 as f64);
        }
    }

    /// The f32 apply agrees with the f64 apply up to the coefficient
    /// rounding, and is itself deterministic on both dispatch paths.
    #[test]
    fn f32_apply_close_to_f64() {
        for big in [false, true] {
            let g = test_graph(big);
            let m = PermutedLevel::from_graph(&g);
            let m32 = PermutedLevel::<f32>::from_level(&m);
            let x = rhs(g.n(), 0);
            let mut y64 = vec![0.0; g.n()];
            let mut y32 = vec![0.0; g.n()];
            m.apply(&x, &mut y64);
            m32.apply(&x, &mut y32);
            let scale = y64.iter().fold(1.0f64, |a, &v| a.max(v.abs()));
            for (a, b) in y32.iter().zip(&y64) {
                assert!((a - b).abs() <= 1e-5 * scale, "big={big}: {a} vs {b}");
            }
        }
    }

    /// All-f32 reference for the fused sweep: the row dot over the four
    /// position-mod-4 f32 chains written out entry by entry, then the two
    /// f32 axpys with the step narrowed once.
    fn f32_sweep_reference(
        m32: &PermutedLevel<f32>,
        alpha: f64,
        p: &[f32],
        x: &mut [f32],
        r: &mut [f32],
    ) {
        let af = alpha as f32;
        let ap: Vec<f32> = (0..m32.n())
            .map(|v| {
                let (cols, coefs) = m32.row(v);
                let mut acc = [0.0f32; 4];
                for (t, (&c, &w)) in cols.iter().zip(coefs).enumerate() {
                    acc[t & 3] += w * p[c as usize];
                }
                (acc[0] + acc[1]) + (acc[2] + acc[3])
            })
            .collect();
        for ((xv, rv), (&pv, &av)) in x.iter_mut().zip(r.iter_mut()).zip(p.iter().zip(&ap)) {
            *xv += af * pv;
            *rv -= af * av;
        }
    }

    fn rhs32(n: usize, s: usize) -> Vec<f32> {
        rhs(n, s).iter().map(|&v| v as f32).collect()
    }

    /// The f32 fused sweep matches the unfused all-f32 sequence (apply +
    /// two axpys) bitwise, on both dispatch paths, and every block width
    /// matches k = 1 per column.
    #[test]
    fn f32_fused_sweep_matches_unfused_and_k_invariant() {
        for big in [false, true] {
            let g = test_graph(big);
            let m32 = PermutedLevel::<f32>::from_level(&PermutedLevel::from_graph(&g));
            let n = g.n();
            let alpha = 0.37;
            let p = rhs32(n, 1);
            let mut x = rhs32(n, 2);
            let mut r = rhs32(n, 3);
            let mut x_ref = x.clone();
            let mut r_ref = r.clone();
            f32_sweep_reference(&m32, alpha, &p, &mut x_ref, &mut r_ref);
            m32.cheb_fused_sweep(alpha, &p, &mut x, &mut r, 1);
            for i in 0..n {
                assert_eq!(x[i].to_bits(), x_ref[i].to_bits(), "x[{i}] big={big}");
                assert_eq!(r[i].to_bits(), r_ref[i].to_bits(), "r[{i}] big={big}");
            }
        }
        // Block widths (monomorphised and generic) match k = 1 per column.
        let g = test_graph(true);
        let m32 = PermutedLevel::<f32>::from_level(&PermutedLevel::from_graph(&g));
        let n = g.n();
        let alpha = -0.21;
        for k in [2usize, 4, 8, 16, 3] {
            let mut xr = vec![0.0f32; n * k];
            let mut rr = vec![0.0f32; n * k];
            let mut pr = vec![0.0f32; n * k];
            let mut singles: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = Vec::new();
            for j in 0..k {
                let p = rhs32(n, j);
                let x = rhs32(n, j + 10);
                let r = rhs32(n, j + 20);
                for i in 0..n {
                    pr[i * k + j] = p[i];
                    xr[i * k + j] = x[i];
                    rr[i * k + j] = r[i];
                }
                singles.push((p, x, r));
            }
            m32.cheb_fused_sweep(alpha, &pr, &mut xr, &mut rr, k);
            for (j, (p, x, r)) in singles.iter_mut().enumerate() {
                m32.cheb_fused_sweep(alpha, p, x, r, 1);
                for i in 0..n {
                    assert_eq!(xr[i * k + j].to_bits(), x[i].to_bits(), "x k={k} col {j}");
                    assert_eq!(rr[i * k + j].to_bits(), r[i].to_bits(), "r k={k} col {j}");
                }
            }
        }
    }

    /// A multigraph with self-loops, parallel edges in both orientations,
    /// two components and eight isolated vertices at the end.
    fn messy_graph(n: usize, seed: u64) -> Graph {
        let mut x = seed;
        let mut next = |k: usize| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize % k
        };
        let (half, live) = (n / 2, n - 8);
        let mut edges = Vec::new();
        for _ in 0..3 * n {
            let (lo, hi) = if next(2) == 0 {
                (0, half)
            } else {
                (half, live)
            };
            let u = lo + next(hi - lo);
            let v = if next(10) == 0 { u } else { lo + next(hi - lo) };
            let w = 0.5 + next(1000) as f64 / 7.0;
            edges.push(Edge::new(u as u32, v as u32, w));
            if next(5) == 0 {
                edges.push(Edge::new(v as u32, u as u32, w * 1.3));
            }
        }
        Graph::from_edges_unchecked(n, edges)
    }

    fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.csr_offsets(), b.csr_offsets());
        assert_eq!(a.csr_targets(), b.csr_targets());
        assert_eq!(a.csr_arc_edges(), b.csr_arc_edges());
        let weights = |g: &Graph| {
            g.csr_weights()
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(weights(a), weights(b));
        let edges = |g: &Graph| {
            let e = g.edges().iter();
            e.map(|e| (e.u, e.v, e.w.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(edges(a), edges(b));
    }

    #[test]
    fn to_graph_inverts_from_graph_bitwise_at_every_width() {
        use parsdd_graph::reorder::simplify_relabel;
        for width in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            pool.install(|| {
                // 20 480 vertices: the graph builds cut several blocks.
                for (n, seed) in [(40, 1), (20_480, 2)] {
                    let g = messy_graph(n, seed);
                    let simple = g.simplify();
                    assert!(simple.m() < g.m(), "parallel edges merged");
                    let perm = rcm_order(&g);
                    // A merged graph, and a relabelled one that keeps its
                    // parallel edges.
                    for canonical in [simple.clone(), relabel(&g, &perm)] {
                        let back = PermutedLevel::from_graph(&canonical).to_graph(None);
                        assert_same_graph(&back, &canonical);
                    }
                    // Through the inverse order: the input's simplification.
                    let mut ids = vec![0u32; n];
                    for (v, &p) in perm.iter().enumerate() {
                        ids[p as usize] = v as u32;
                    }
                    let level = PermutedLevel::from_graph(&simplify_relabel(&g, &perm));
                    assert_eq!((level.n(), level.m()), (n, simple.m()));
                    assert_same_graph(&level.to_graph(Some(&ids)), &simple);
                }
            });
        }
    }
}
