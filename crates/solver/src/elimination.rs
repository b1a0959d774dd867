//! `GreedyElimination` — partial Cholesky elimination of low-degree and
//! weighted-degree-dominated vertices (Section 6.1, Lemma 6.5, extended
//! toward the fuller partial Cholesky of \[KMP10\]).
//!
//! For a Laplacian, eliminating a degree-1 vertex simply deletes it (its
//! row determines its solution value from its neighbour's), and eliminating
//! a degree-2 vertex replaces its two incident edges by a single edge whose
//! weight is the series conductance `w_a·w_b/(w_a+w_b)`. Both are special
//! cases of the general Schur-complement *star* elimination: removing a
//! vertex `v` of weighted degree `W = Σ w_i` adds, for every pair of
//! neighbours `(a, b)`, a clique edge of conductance `w_a·w_b/W`. This
//! module eliminates three vertex classes per round:
//!
//! * **degree ≤ 1** — always (the paper's Rake);
//! * **degree 2** — as before (Compress), via a random independent set;
//! * **degree 3..=`max_star_degree`** with *bounded fill* (the clique
//!   edges minus the removed star edges must not grow the graph by more
//!   than [`EliminationParams::max_net_fill`] edges), plus
//!   **weighted-degree-dominated** vertices up to
//!   `max_dominated_degree` — vertices where one incident conductance
//!   carries almost the whole weighted degree, so the Schur clique is a
//!   near-contraction into the dominant neighbour. Tree-scaled
//!   sparsifiers (see [`crate::sparsify`]) produce exactly this shape:
//!   a vertex held by one scaled forest edge plus a few weak sampled
//!   edges.
//!
//! The paper's parallel version finds, in each round, all degree-1
//! vertices plus a random independent set of the remaining candidates — a
//! randomised analogue of the Rake and Compress steps of parallel tree
//! contraction — and shows that O(log n) rounds reduce an `(n, n−1+m)`-
//! graph to at most `2m−2` vertices; the stronger vertex classes only
//! eliminate more.
//!
//! The elimination is recorded step by step so that the solver can
//! *forward-substitute* a right-hand side down to the reduced system and
//! *back-substitute* the reduced solution up to the full one.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use parsdd_graph::{Edge, Graph, VertexId};

/// Tuning knobs of the partial Cholesky pass.
#[derive(Debug, Clone, Copy)]
pub struct EliminationParams {
    /// Largest degree eliminated by the bounded-fill star rule (degrees 1
    /// and 2 are always eligible).
    pub max_star_degree: usize,
    /// Largest *net* edge-count growth a star elimination may cause: the
    /// number of neighbour pairs not already adjacent, minus the star's
    /// own edges. `0` (the default) means the reduced graph never gains
    /// edges from a star step.
    pub max_net_fill: isize,
    /// Degree limit of the weighted-degree-dominated class (these bypass
    /// the fill bound — their clique edges are spectrally negligible, and
    /// the degree cap bounds the fill by `d(d−1)/2`).
    pub max_dominated_degree: usize,
    /// Dominance threshold: a vertex is dominated when its largest
    /// incident conductance is at least `dominance_ratio` times the sum of
    /// all its other incident conductances.
    pub dominance_ratio: f64,
}

impl Default for EliminationParams {
    fn default() -> Self {
        EliminationParams {
            max_star_degree: 4,
            max_net_fill: 0,
            max_dominated_degree: 6,
            dominance_ratio: 8.0,
        }
    }
}

/// One recorded elimination step.
#[derive(Debug, Clone, Copy)]
pub enum EliminationStep {
    /// A degree-1 vertex `v` attached to `u` with conductance `w`.
    Degree1 {
        /// Eliminated vertex.
        v: VertexId,
        /// Its unique neighbour.
        u: VertexId,
        /// Conductance of the edge `{v, u}` at elimination time.
        w: f64,
    },
    /// A degree-2 vertex `v` attached to `a` and `b`.
    Degree2 {
        /// Eliminated vertex.
        v: VertexId,
        /// First neighbour.
        a: VertexId,
        /// Second neighbour.
        b: VertexId,
        /// Conductance of `{v, a}` at elimination time.
        wa: f64,
        /// Conductance of `{v, b}` at elimination time.
        wb: f64,
    },
    /// A star (partial Cholesky) elimination of a vertex of degree ≥ 3.
    /// The neighbour list lives in [`EliminationResult::star_data`] at
    /// `[offset, offset + len)`.
    Star {
        /// Eliminated vertex.
        v: VertexId,
        /// Start of the neighbour slice in `star_data`.
        offset: u32,
        /// Number of neighbours.
        len: u32,
    },
    /// An isolated vertex (degree 0) removed from the system; its solution
    /// coordinate is set to zero.
    Isolated {
        /// Eliminated vertex.
        v: VertexId,
    },
}

/// The result of greedy elimination: the reduced graph, the mapping between
/// original and reduced vertex ids, and the recorded elimination trace.
#[derive(Debug, Clone)]
pub struct EliminationResult {
    /// The reduced (eliminated) graph, on `kept.len()` vertices with
    /// parallel edges merged.
    pub reduced_graph: Graph,
    /// Original ids of the reduced graph's vertices (reduced id → original id).
    pub kept: Vec<VertexId>,
    /// Original id → reduced id (`u32::MAX` for eliminated vertices).
    pub orig_to_reduced: Vec<u32>,
    /// The elimination steps, in the order they were applied.
    pub steps: Vec<EliminationStep>,
    /// Neighbour lists of the [`EliminationStep::Star`] steps
    /// (`(neighbour, conductance)` at elimination time).
    pub star_data: Vec<(VertexId, f64)>,
    /// Number of parallel rounds used (Lemma 6.5: O(log n) whp).
    pub rounds: usize,
}

impl EliminationResult {
    /// Number of eliminated vertices.
    pub fn eliminated_count(&self) -> usize {
        self.steps.len()
    }

    /// Neighbour slice of a [`EliminationStep::Star`] step.
    fn star(&self, offset: u32, len: u32) -> &[(VertexId, f64)] {
        &self.star_data[offset as usize..(offset + len) as usize]
    }

    /// Renumbers the **reduced** vertex space by `old_to_new` (a
    /// permutation of `0..kept.len()`): the solver chain bakes a
    /// bandwidth-reducing order into each level, and the elimination that
    /// produced the level must hand its reduced right-hand sides over in
    /// that order. The trace itself (`steps`, `star_data`) lives in the
    /// *eliminated* level's vertex space and is untouched; only
    /// `reduced_graph`, `kept` and `orig_to_reduced` are remapped.
    pub fn relabel_reduced(&mut self, old_to_new: &[u32]) {
        assert_eq!(old_to_new.len(), self.kept.len());
        self.reduced_graph = parsdd_graph::reorder::relabel(&self.reduced_graph, old_to_new);
        let mut kept = vec![0 as VertexId; self.kept.len()];
        for (old, &orig) in self.kept.iter().enumerate() {
            kept[old_to_new[old] as usize] = orig;
        }
        self.kept = kept;
        for r in self.orig_to_reduced.iter_mut() {
            if *r != u32::MAX {
                *r = old_to_new[*r as usize];
            }
        }
    }

    /// Forward-substitutes a right-hand side of the original system into a
    /// right-hand side of the reduced system. Returns `(reduced_rhs,
    /// working_rhs)`; the working vector (original dimension, partially
    /// updated) is needed later by [`back_substitute`](Self::back_substitute).
    pub fn forward_rhs(&self, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (mut reduced, mut work) = (Vec::new(), Vec::new());
        self.forward_rhs_rowmajor_into(b, 1, &mut reduced, &mut work, &mut Vec::new());
        (reduced, work)
    }

    /// Back-substitutes a solution of the reduced system into a solution of
    /// the original system, given the working right-hand side returned by
    /// [`forward_rhs`](Self::forward_rhs).
    pub fn back_substitute(&self, working_rhs: &[f64], x_reduced: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.back_substitute_rowmajor_into(working_rhs, x_reduced, 1, &mut x, &mut Vec::new());
        x
    }

    /// Row-major blocked [`forward_rhs`](Self::forward_rhs) into
    /// caller-owned buffers (`reduced`, `work`, and a `k`-wide `row`
    /// temp) — allocation-free once all three have capacity. `br` holds
    /// `k` right-hand sides interleaved (`br[v·k + j]`), the layout the
    /// solver chain's W-cycle uses internally — every step touches two
    /// or three contiguous k-wide rows instead of k strided cache lines
    /// per vertex. `reduced` and `work` come back in the same layout, and
    /// the trace is streamed once per block. Per column the update order
    /// and association match the `k = 1` pass exactly, so each column is
    /// bitwise what [`forward_rhs`](Self::forward_rhs) of that column
    /// returns.
    pub fn forward_rhs_rowmajor_into(
        &self,
        br: &[f64],
        k: usize,
        reduced: &mut Vec<f64>,
        work: &mut Vec<f64>,
        row: &mut Vec<f64>,
    ) {
        let n = self.orig_to_reduced.len();
        assert_eq!(br.len(), n * k);
        work.clear();
        work.extend_from_slice(br);
        if k == 1 {
            // Width 1: row-major and column-major coincide; the scalar
            // pass avoids the width-1 row plumbing.
            for step in &self.steps {
                match *step {
                    EliminationStep::Degree1 { v, u, .. } => {
                        // Schur complement of a degree-1 elimination adds
                        // the full b_v to the neighbour.
                        work[u as usize] += work[v as usize];
                    }
                    EliminationStep::Degree2 {
                        v,
                        a,
                        b: nb,
                        wa,
                        wb,
                    } => {
                        let d = wa + wb;
                        let bv = work[v as usize];
                        work[a as usize] += (wa / d) * bv;
                        work[nb as usize] += (wb / d) * bv;
                    }
                    EliminationStep::Star { v, offset, len } => {
                        let star = self.star(offset, len);
                        let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                        let bv = work[v as usize];
                        for &(u, w) in star {
                            work[u as usize] += (w / wtot) * bv;
                        }
                    }
                    EliminationStep::Isolated { .. } => {}
                }
            }
            reduced.clear();
            reduced.extend(self.kept.iter().map(|&v| work[v as usize]));
            return;
        }
        row.clear();
        row.resize(k, 0.0);
        // Take the temp out of the caller's slot for the duration of the
        // pass (returned below — no allocation either way).
        let mut buf = std::mem::take(row);
        for step in &self.steps {
            match *step {
                EliminationStep::Degree1 { v, u, .. } => {
                    buf.copy_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
                    let dst = &mut work[u as usize * k..(u as usize + 1) * k];
                    for (d, &s) in dst.iter_mut().zip(&buf) {
                        *d += s;
                    }
                }
                EliminationStep::Degree2 {
                    v,
                    a,
                    b: nb,
                    wa,
                    wb,
                } => {
                    let d = wa + wb;
                    buf.copy_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
                    let ca = wa / d;
                    let dst = &mut work[a as usize * k..(a as usize + 1) * k];
                    for (t, &s) in dst.iter_mut().zip(&buf) {
                        *t += ca * s;
                    }
                    let cb = wb / d;
                    let dst = &mut work[nb as usize * k..(nb as usize + 1) * k];
                    for (t, &s) in dst.iter_mut().zip(&buf) {
                        *t += cb * s;
                    }
                }
                EliminationStep::Star { v, offset, len } => {
                    let star = self.star(offset, len);
                    let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                    buf.copy_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
                    for &(u, w) in star {
                        let c = w / wtot;
                        let dst = &mut work[u as usize * k..(u as usize + 1) * k];
                        for (t, &s) in dst.iter_mut().zip(&buf) {
                            *t += c * s;
                        }
                    }
                }
                EliminationStep::Isolated { .. } => {}
            }
        }
        *row = buf;
        reduced.clear();
        for &v in &self.kept {
            reduced.extend_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
        }
    }

    /// Row-major blocked [`back_substitute`](Self::back_substitute) into
    /// caller-owned buffers — allocation-free once `x` and the `k`-wide
    /// `row` temp have capacity. The counterpart of
    /// [`forward_rhs_rowmajor_into`](Self::forward_rhs_rowmajor_into),
    /// with the same layout and bitwise-per-column contract.
    ///
    /// `x` is sized but **not** zeroed: every entry is written before it
    /// is read — kept rows by the scatter, each eliminated vertex by its
    /// own (single) elimination step, and a step only reads neighbours
    /// that were still alive at its elimination time, i.e. values already
    /// computed earlier in this reverse pass — so stale contents from a
    /// previous application are never observed.
    pub fn back_substitute_rowmajor_into(
        &self,
        working_rhs: &[f64],
        xr_reduced: &[f64],
        k: usize,
        x: &mut Vec<f64>,
        row: &mut Vec<f64>,
    ) {
        let n = self.orig_to_reduced.len();
        assert_eq!(working_rhs.len(), n * k);
        assert_eq!(xr_reduced.len(), self.kept.len() * k);
        x.resize(n * k, 0.0);
        if k == 1 {
            // Scalar pass; the k-wide pass below matches its update order
            // and association per column.
            for (r, &orig) in self.kept.iter().enumerate() {
                x[orig as usize] = xr_reduced[r];
            }
            for step in self.steps.iter().rev() {
                match *step {
                    EliminationStep::Degree1 { v, u, w } => {
                        x[v as usize] = working_rhs[v as usize] / w + x[u as usize];
                    }
                    EliminationStep::Degree2 {
                        v,
                        a,
                        b: nb,
                        wa,
                        wb,
                    } => {
                        let d = wa + wb;
                        x[v as usize] =
                            (working_rhs[v as usize] + wa * x[a as usize] + wb * x[nb as usize])
                                / d;
                    }
                    EliminationStep::Star { v, offset, len } => {
                        let star = self.star(offset, len);
                        let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                        let acc: f64 = star.iter().map(|&(u, w)| w * x[u as usize]).sum::<f64>();
                        x[v as usize] = (working_rhs[v as usize] + acc) / wtot;
                    }
                    EliminationStep::Isolated { v } => {
                        x[v as usize] = 0.0;
                    }
                }
            }
            return;
        }
        for (src, &orig) in xr_reduced.chunks_exact(k).zip(&self.kept) {
            x[orig as usize * k..(orig as usize + 1) * k].copy_from_slice(src);
        }
        row.clear();
        row.resize(k, 0.0);
        let mut buf = std::mem::take(row);
        for step in self.steps.iter().rev() {
            match *step {
                EliminationStep::Degree1 { v, u, w } => {
                    buf.copy_from_slice(&x[u as usize * k..(u as usize + 1) * k]);
                    let wrow = &working_rhs[v as usize * k..(v as usize + 1) * k];
                    let dst = &mut x[v as usize * k..(v as usize + 1) * k];
                    for ((t, &wv), &xu) in dst.iter_mut().zip(wrow).zip(&buf) {
                        *t = wv / w + xu;
                    }
                }
                EliminationStep::Degree2 {
                    v,
                    a,
                    b: nb,
                    wa,
                    wb,
                } => {
                    let d = wa + wb;
                    // buf ← (w_rhs[v] + wa·x_a) + wb·x_b, associated
                    // exactly like the single-vector pass.
                    {
                        let wrow = &working_rhs[v as usize * k..(v as usize + 1) * k];
                        let xa = &x[a as usize * k..(a as usize + 1) * k];
                        for ((t, &wv), &v) in buf.iter_mut().zip(wrow).zip(xa) {
                            *t = wv + wa * v;
                        }
                    }
                    {
                        let xb = &x[nb as usize * k..(nb as usize + 1) * k];
                        for (t, &v) in buf.iter_mut().zip(xb) {
                            *t += wb * v;
                        }
                    }
                    let dst = &mut x[v as usize * k..(v as usize + 1) * k];
                    for (t, &acc) in dst.iter_mut().zip(&buf) {
                        *t = acc / d;
                    }
                }
                EliminationStep::Star { v, offset, len } => {
                    let star = self.star(offset, len);
                    let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                    buf.iter_mut().for_each(|t| *t = 0.0);
                    for &(u, w) in star {
                        let xu = &x[u as usize * k..(u as usize + 1) * k];
                        for (t, &v) in buf.iter_mut().zip(xu) {
                            *t += w * v;
                        }
                    }
                    let wrow = &working_rhs[v as usize * k..(v as usize + 1) * k];
                    let dst = &mut x[v as usize * k..(v as usize + 1) * k];
                    for ((t, &wv), &acc) in dst.iter_mut().zip(wrow).zip(&buf) {
                        *t = (wv + acc) / wtot;
                    }
                }
                EliminationStep::Isolated { v } => {
                    x[v as usize * k..(v as usize + 1) * k]
                        .iter_mut()
                        .for_each(|t| *t = 0.0);
                }
            }
        }
        *row = buf;
    }
}

/// One step of a [`CompiledTraceF32`]. Index/coefficient records only —
/// everything a pass divides by in the f64 trace is stored here as a
/// prefolded reciprocal (or normalised ratio), so applying a step is
/// multiply-adds and nothing else.
#[derive(Debug, Clone, Copy)]
enum CompiledStepF32 {
    /// Degree-1 elimination of `v` attached to `u`; `winv = 1/w`.
    Degree1 { v: u32, u: u32, winv: f32 },
    /// Degree-2 elimination of `v` attached to `a`/`b`: `ca = wa/(wa+wb)`,
    /// `cb = wb/(wa+wb)` drive the forward pass, `wa`/`wb` plus
    /// `dinv = 1/(wa+wb)` the backward one.
    Degree2 {
        v: u32,
        a: u32,
        b: u32,
        ca: f32,
        cb: f32,
        wa: f32,
        wb: f32,
        dinv: f32,
    },
    /// Star elimination of `v`; neighbours live in
    /// [`CompiledTraceF32::star_data`] at `[offset, offset + len)` and
    /// `winv = 1/Σw`.
    Star {
        v: u32,
        offset: u32,
        len: u32,
        winv: f32,
    },
    /// Isolated vertex removed from the system.
    Isolated { v: u32 },
}

/// Multiply-only compiled form of an [`EliminationResult`] for the f32
/// storage tier. The f64 trace recomputes every step's divisions
/// (`wa/(wa+wb)`, `1/w`, `1/Σw`) on each application — unpipelined
/// double divides on the hottest recursion path; this form folds them
/// into f32 coefficients once at build time. Its passes run on f32
/// vectors only — the all-f32 inner W-cycle below the chain's single
/// narrowing shim — with every product and sum in f32. The trace is
/// preconditioner-internal, so rounding at the f32 scale (~6e-8
/// relative) merely perturbs the preconditioner — the same argument that
/// lets the level matrices demote. Per column the update order matches
/// the f64 trace's passes exactly, and blocked applications are bitwise
/// identical per column at every width `k`.
#[derive(Debug, Clone)]
pub struct CompiledTraceF32 {
    /// Dimension of the eliminated (original) vertex space.
    n: usize,
    steps: Vec<CompiledStepF32>,
    /// `(neighbour, w/Σw, w)` records of the star steps.
    star_data: Vec<(u32, f32, f32)>,
    /// Reduced id → original id (the gather producing the reduced rhs).
    kept: Vec<VertexId>,
}

impl CompiledTraceF32 {
    /// Compiles an elimination trace: one pass over the f64 steps, all
    /// divisions folded.
    pub fn from_elimination(elim: &EliminationResult) -> Self {
        let steps = elim
            .steps
            .iter()
            .map(|step| match *step {
                EliminationStep::Degree1 { v, u, w } => CompiledStepF32::Degree1 {
                    v,
                    u,
                    winv: (1.0 / w) as f32,
                },
                EliminationStep::Degree2 { v, a, b, wa, wb } => {
                    let d = wa + wb;
                    CompiledStepF32::Degree2 {
                        v,
                        a,
                        b,
                        ca: (wa / d) as f32,
                        cb: (wb / d) as f32,
                        wa: wa as f32,
                        wb: wb as f32,
                        dinv: (1.0 / d) as f32,
                    }
                }
                EliminationStep::Star { v, offset, len } => {
                    let star = elim.star(offset, len);
                    let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                    CompiledStepF32::Star {
                        v,
                        offset,
                        len,
                        winv: (1.0 / wtot) as f32,
                    }
                }
                EliminationStep::Isolated { v } => CompiledStepF32::Isolated { v },
            })
            .collect();
        let star_data = {
            // Rebuild the normalised records star-by-star so each entry
            // carries its own `w/Σw` (Σ over that star only).
            let mut data = Vec::with_capacity(elim.star_data.len());
            for step in &elim.steps {
                if let EliminationStep::Star { offset, len, .. } = *step {
                    let star = elim.star(offset, len);
                    let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                    debug_assert_eq!(data.len(), offset as usize);
                    data.extend(star.iter().map(|&(u, w)| (u, (w / wtot) as f32, w as f32)));
                }
            }
            data
        };
        CompiledTraceF32 {
            n: elim.orig_to_reduced.len(),
            steps,
            star_data,
            kept: elim.kept.clone(),
        }
    }

    /// Heap bytes the compiled trace keeps resident.
    pub fn resident_bytes(&self) -> usize {
        self.steps.len() * std::mem::size_of::<CompiledStepF32>()
            + self.star_data.len() * std::mem::size_of::<(u32, f32, f32)>()
            + self.kept.len() * 4
    }

    fn star(&self, offset: u32, len: u32) -> &[(u32, f32, f32)] {
        &self.star_data[offset as usize..(offset + len) as usize]
    }

    /// Multiply-only, all-f32 counterpart of
    /// [`EliminationResult::forward_rhs_rowmajor_into`] for the inner
    /// W-cycle, where rhs and working vectors live in f32: same buffers,
    /// same per-column update order, every product and sum in f32.
    pub fn forward_rhs_rowmajor32_into(
        &self,
        br: &[f32],
        k: usize,
        reduced: &mut Vec<f32>,
        work: &mut Vec<f32>,
        row: &mut Vec<f32>,
    ) {
        assert_eq!(br.len(), self.n * k);
        work.clear();
        work.extend_from_slice(br);
        if k == 1 {
            for step in &self.steps {
                match *step {
                    CompiledStepF32::Degree1 { v, u, .. } => {
                        work[u as usize] += work[v as usize];
                    }
                    CompiledStepF32::Degree2 {
                        v, a, b, ca, cb, ..
                    } => {
                        let bv = work[v as usize];
                        work[a as usize] += ca * bv;
                        work[b as usize] += cb * bv;
                    }
                    CompiledStepF32::Star { v, offset, len, .. } => {
                        let bv = work[v as usize];
                        for &(u, c, _) in self.star(offset, len) {
                            work[u as usize] += c * bv;
                        }
                    }
                    CompiledStepF32::Isolated { .. } => {}
                }
            }
            reduced.clear();
            reduced.extend(self.kept.iter().map(|&v| work[v as usize]));
            return;
        }
        row.clear();
        row.resize(k, 0.0);
        let mut buf = std::mem::take(row);
        for step in &self.steps {
            match *step {
                CompiledStepF32::Degree1 { v, u, .. } => {
                    buf.copy_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
                    let dst = &mut work[u as usize * k..(u as usize + 1) * k];
                    for (d, &s) in dst.iter_mut().zip(&buf) {
                        *d += s;
                    }
                }
                CompiledStepF32::Degree2 {
                    v, a, b, ca, cb, ..
                } => {
                    buf.copy_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
                    let dst = &mut work[a as usize * k..(a as usize + 1) * k];
                    for (t, &s) in dst.iter_mut().zip(&buf) {
                        *t += ca * s;
                    }
                    let dst = &mut work[b as usize * k..(b as usize + 1) * k];
                    for (t, &s) in dst.iter_mut().zip(&buf) {
                        *t += cb * s;
                    }
                }
                CompiledStepF32::Star { v, offset, len, .. } => {
                    buf.copy_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
                    for &(u, c, _) in self.star(offset, len) {
                        let dst = &mut work[u as usize * k..(u as usize + 1) * k];
                        for (t, &s) in dst.iter_mut().zip(&buf) {
                            *t += c * s;
                        }
                    }
                }
                CompiledStepF32::Isolated { .. } => {}
            }
        }
        *row = buf;
        reduced.clear();
        for &v in &self.kept {
            reduced.extend_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
        }
    }

    /// Multiply-only, all-f32 counterpart of
    /// [`EliminationResult::back_substitute_rowmajor_into`]; same
    /// write-before-read discipline (`x` is sized, not zeroed).
    pub fn back_substitute_rowmajor32_into(
        &self,
        working_rhs: &[f32],
        xr_reduced: &[f32],
        k: usize,
        x: &mut Vec<f32>,
        row: &mut Vec<f32>,
    ) {
        assert_eq!(working_rhs.len(), self.n * k);
        assert_eq!(xr_reduced.len(), self.kept.len() * k);
        x.resize(self.n * k, 0.0);
        if k == 1 {
            for (r, &orig) in self.kept.iter().enumerate() {
                x[orig as usize] = xr_reduced[r];
            }
            for step in self.steps.iter().rev() {
                match *step {
                    CompiledStepF32::Degree1 { v, u, winv } => {
                        x[v as usize] = working_rhs[v as usize] * winv + x[u as usize];
                    }
                    CompiledStepF32::Degree2 {
                        v,
                        a,
                        b,
                        wa,
                        wb,
                        dinv,
                        ..
                    } => {
                        x[v as usize] =
                            (working_rhs[v as usize] + wa * x[a as usize] + wb * x[b as usize])
                                * dinv;
                    }
                    CompiledStepF32::Star {
                        v,
                        offset,
                        len,
                        winv,
                    } => {
                        let acc: f32 = self
                            .star(offset, len)
                            .iter()
                            .map(|&(u, _, w)| w * x[u as usize])
                            .sum();
                        x[v as usize] = (working_rhs[v as usize] + acc) * winv;
                    }
                    CompiledStepF32::Isolated { v } => {
                        x[v as usize] = 0.0;
                    }
                }
            }
            return;
        }
        for (src, &orig) in xr_reduced.chunks_exact(k).zip(&self.kept) {
            x[orig as usize * k..(orig as usize + 1) * k].copy_from_slice(src);
        }
        row.clear();
        row.resize(k, 0.0);
        let mut buf = std::mem::take(row);
        for step in self.steps.iter().rev() {
            match *step {
                CompiledStepF32::Degree1 { v, u, winv } => {
                    buf.copy_from_slice(&x[u as usize * k..(u as usize + 1) * k]);
                    let wrow = &working_rhs[v as usize * k..(v as usize + 1) * k];
                    let dst = &mut x[v as usize * k..(v as usize + 1) * k];
                    for ((t, &wv), &xu) in dst.iter_mut().zip(wrow).zip(&buf) {
                        *t = wv * winv + xu;
                    }
                }
                CompiledStepF32::Degree2 {
                    v,
                    a,
                    b,
                    wa,
                    wb,
                    dinv,
                    ..
                } => {
                    {
                        let wrow = &working_rhs[v as usize * k..(v as usize + 1) * k];
                        let xa = &x[a as usize * k..(a as usize + 1) * k];
                        for ((t, &wv), &v) in buf.iter_mut().zip(wrow).zip(xa) {
                            *t = wv + wa * v;
                        }
                    }
                    {
                        let xb = &x[b as usize * k..(b as usize + 1) * k];
                        for (t, &v) in buf.iter_mut().zip(xb) {
                            *t += wb * v;
                        }
                    }
                    let dst = &mut x[v as usize * k..(v as usize + 1) * k];
                    for (t, &acc) in dst.iter_mut().zip(&buf) {
                        *t = acc * dinv;
                    }
                }
                CompiledStepF32::Star {
                    v,
                    offset,
                    len,
                    winv,
                } => {
                    buf.iter_mut().for_each(|t| *t = 0.0);
                    for &(u, _, w) in self.star(offset, len) {
                        let xu = &x[u as usize * k..(u as usize + 1) * k];
                        for (t, &v) in buf.iter_mut().zip(xu) {
                            *t += w * v;
                        }
                    }
                    let wrow = &working_rhs[v as usize * k..(v as usize + 1) * k];
                    let dst = &mut x[v as usize * k..(v as usize + 1) * k];
                    for ((t, &wv), &acc) in dst.iter_mut().zip(wrow).zip(&buf) {
                        *t = (wv + acc) * winv;
                    }
                }
                CompiledStepF32::Isolated { v } => {
                    x[v as usize * k..(v as usize + 1) * k]
                        .iter_mut()
                        .for_each(|t| *t = 0.0);
                }
            }
        }
        *row = buf;
    }
}

type Adjacency = Vec<std::collections::BTreeMap<VertexId, f64>>;

/// Classification of a live vertex under the current adjacency.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Eligibility {
    No,
    /// Degree ≤ 1 — eliminated unconditionally every round.
    Rake,
    /// Degree ≥ 2 — needs the random independent set.
    Independent,
}

/// Is `v` eliminable right now? Checks the degree classes and, for the
/// star class, the fill bound against the current adjacency.
fn classify(adj: &Adjacency, v: VertexId, params: &EliminationParams) -> Eligibility {
    let nbrs = &adj[v as usize];
    let deg = nbrs.len();
    if deg <= 1 {
        return Eligibility::Rake;
    }
    if deg == 2 {
        return Eligibility::Independent;
    }
    let low_degree = deg <= params.max_star_degree;
    let dominated = deg <= params.max_dominated_degree && {
        let mut wmax = 0.0f64;
        let mut wsum = 0.0f64;
        for &w in nbrs.values() {
            wsum += w;
            wmax = wmax.max(w);
        }
        wmax >= params.dominance_ratio * (wsum - wmax)
    };
    if dominated {
        return Eligibility::Independent;
    }
    if !low_degree {
        return Eligibility::No;
    }
    // Bounded fill: count neighbour pairs not already adjacent; the star's
    // own `deg` edges disappear.
    let mut new_pairs = 0isize;
    let neighbours: Vec<VertexId> = nbrs.keys().copied().collect();
    for (i, &a) in neighbours.iter().enumerate() {
        for &b in &neighbours[i + 1..] {
            if !adj[a as usize].contains_key(&b) {
                new_pairs += 1;
            }
        }
    }
    if new_pairs - deg as isize <= params.max_net_fill {
        Eligibility::Independent
    } else {
        Eligibility::No
    }
}

/// Runs the partial Cholesky elimination on the Laplacian of `g` until no
/// eligible vertex remains. Parallel edges are merged before elimination.
/// [`greedy_elimination`] is this with [`EliminationParams::default`].
pub fn greedy_elimination_with_params(
    g: &Graph,
    seed: u64,
    params: &EliminationParams,
) -> EliminationResult {
    let n = g.n();
    // Working adjacency with merged parallel edges: map neighbour → weight.
    // BTreeMap, not HashMap: neighbour enumeration order decides which
    // neighbour a degree-1 step attaches to and the order of Schur
    // updates, so a randomly seeded hash order would make the elimination
    // (and every f64 downstream of it) differ from build to build.
    // Degrees here are ≤ a few dozen, where the B-tree is as fast.
    let mut adj: Adjacency = vec![Default::default(); n];
    for e in g.edges() {
        *adj[e.u as usize].entry(e.v).or_insert(0.0) += e.w;
        *adj[e.v as usize].entry(e.u).or_insert(0.0) += e.w;
    }
    let mut alive = vec![true; n];
    let mut steps: Vec<EliminationStep> = Vec::new();
    let mut star_data: Vec<(VertexId, f64)> = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        // Degree-≤1 vertices are all eliminated; the other eligible classes
        // (degree-2, bounded-fill stars, dominated vertices) are eliminated
        // if selected into a random independent set (heads with probability
        // 1/3, kept only if no coin-flipping neighbour also came up heads).
        let mut candidates: Vec<VertexId> = Vec::new();
        let mut coin = vec![false; n];
        let mut flipped = vec![false; n];
        for v in 0..n as VertexId {
            if !alive[v as usize] {
                continue;
            }
            match classify(&adj, v, params) {
                Eligibility::Rake => candidates.push(v),
                Eligibility::Independent => {
                    flipped[v as usize] = true;
                    coin[v as usize] = rng.gen_bool(1.0 / 3.0);
                }
                Eligibility::No => {}
            }
        }
        for v in 0..n as VertexId {
            if !flipped[v as usize] || !coin[v as usize] {
                continue;
            }
            let independent = adj[v as usize]
                .keys()
                .all(|&u| !(flipped[u as usize] && coin[u as usize]));
            if independent {
                candidates.push(v);
            }
        }
        if candidates.is_empty() {
            // No rake eliminations and no lucky independent-set vertices
            // this round. If eligible vertices still exist we must keep
            // going (fresh coins next round); otherwise we are done.
            let any_eligible = (0..n as VertexId)
                .any(|v| alive[v as usize] && classify(&adj, v, params) != Eligibility::No);
            if !any_eligible {
                break;
            }
            // Guard against pathological non-progress (e.g. a single cycle
            // where coins keep colliding): after many extra rounds, fall
            // back to eliminating one eligible vertex deterministically.
            if rounds > 10 * (64 - (n.max(2) as u64).leading_zeros() as usize).max(4) {
                if let Some(v) = (0..n as VertexId)
                    .find(|&v| alive[v as usize] && classify(&adj, v, params) != Eligibility::No)
                {
                    candidates.push(v);
                } else {
                    break;
                }
            } else {
                continue;
            }
        }

        // Apply the round's eliminations sequentially, re-checking
        // eligibility (an earlier elimination in the same round can change
        // degrees and fill).
        for v in candidates {
            if !alive[v as usize] {
                continue;
            }
            let deg = adj[v as usize].len();
            match deg {
                0 => {
                    alive[v as usize] = false;
                    steps.push(EliminationStep::Isolated { v });
                }
                1 => {
                    let (&u, &w) = adj[v as usize].iter().next().expect("degree 1");
                    alive[v as usize] = false;
                    adj[v as usize].clear();
                    adj[u as usize].remove(&v);
                    steps.push(EliminationStep::Degree1 { v, u, w });
                }
                2 => {
                    let mut it = adj[v as usize].iter();
                    let (&a, &wa) = it.next().expect("degree 2");
                    let (&b, &wb) = it.next().expect("degree 2");
                    alive[v as usize] = false;
                    adj[v as usize].clear();
                    adj[a as usize].remove(&v);
                    adj[b as usize].remove(&v);
                    // Series conductance between the two neighbours.
                    let w_new = wa * wb / (wa + wb);
                    *adj[a as usize].entry(b).or_insert(0.0) += w_new;
                    *adj[b as usize].entry(a).or_insert(0.0) += w_new;
                    steps.push(EliminationStep::Degree2 { v, a, b, wa, wb });
                }
                _ => {
                    // Star class: the fill/dominance conditions were checked
                    // at selection time but the graph has changed since, so
                    // re-verify before committing.
                    if classify(&adj, v, params) == Eligibility::No {
                        continue;
                    }
                    let neighbours: Vec<(VertexId, f64)> =
                        adj[v as usize].iter().map(|(&u, &w)| (u, w)).collect();
                    let wtot: f64 = neighbours.iter().map(|&(_, w)| w).sum();
                    alive[v as usize] = false;
                    adj[v as usize].clear();
                    for &(u, _) in &neighbours {
                        adj[u as usize].remove(&v);
                    }
                    // Schur clique: every neighbour pair gains w_a·w_b/W.
                    for (i, &(a, wa)) in neighbours.iter().enumerate() {
                        for &(b, wb) in &neighbours[i + 1..] {
                            let w_new = wa * wb / wtot;
                            *adj[a as usize].entry(b).or_insert(0.0) += w_new;
                            *adj[b as usize].entry(a).or_insert(0.0) += w_new;
                        }
                    }
                    let offset = star_data.len() as u32;
                    let len = neighbours.len() as u32;
                    star_data.extend_from_slice(&neighbours);
                    steps.push(EliminationStep::Star { v, offset, len });
                }
            }
        }
    }

    // Build the reduced graph over the surviving vertices.
    let kept: Vec<VertexId> = (0..n as VertexId).filter(|&v| alive[v as usize]).collect();
    let mut orig_to_reduced = vec![u32::MAX; n];
    for (r, &v) in kept.iter().enumerate() {
        orig_to_reduced[v as usize] = r as u32;
    }
    let mut edges: Vec<Edge> = Vec::new();
    for &v in &kept {
        for (&u, &w) in &adj[v as usize] {
            if v < u {
                edges.push(Edge::new(
                    orig_to_reduced[v as usize],
                    orig_to_reduced[u as usize],
                    w,
                ));
            }
        }
    }
    let reduced_graph = Graph::from_edges_unchecked(kept.len(), edges);

    EliminationResult {
        reduced_graph,
        kept,
        orig_to_reduced,
        steps,
        star_data,
        rounds,
    }
}

/// Runs greedy elimination on the Laplacian of `g` with the default
/// [`EliminationParams`] (degree ≤ 2, bounded-fill stars up to degree 4,
/// dominated vertices up to degree 6).
pub fn greedy_elimination(g: &Graph, seed: u64) -> EliminationResult {
    greedy_elimination_with_params(g, seed, &EliminationParams::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsdd_graph::generators;
    use parsdd_linalg::cg::{cg_solve, CgOptions};
    use parsdd_linalg::laplacian::LaplacianOp;
    use parsdd_linalg::operator::LinearOperator;
    use parsdd_linalg::vector::{norm2, project_out_constant, sub};

    /// Solves L_G x = b exactly via elimination + CG on the reduced system
    /// and checks the residual on the original system.
    fn check_elimination_solve(g: &Graph, seed: u64) {
        let elim = greedy_elimination(g, seed);
        let op = LaplacianOp::new(g);
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
        project_out_constant(&mut b);
        let (reduced_b, work) = elim.forward_rhs(&b);
        let x_reduced = if elim.reduced_graph.n() == 0 {
            Vec::new()
        } else if elim.reduced_graph.m() == 0 {
            vec![0.0; elim.reduced_graph.n()]
        } else {
            let red_op = LaplacianOp::new(&elim.reduced_graph);
            let out = cg_solve(
                &red_op,
                &reduced_b,
                &CgOptions {
                    max_iters: 20_000,
                    tol: 1e-12,
                },
            );
            out.x
        };
        let x = elim.back_substitute(&work, &x_reduced);
        let r = op.residual(&x, &b);
        assert!(
            norm2(&r) <= 1e-6 * norm2(&b).max(1.0),
            "residual {} for graph with n={} m={}",
            norm2(&r),
            g.n(),
            g.m()
        );
    }

    /// Interleaves `k` columns into a row-major block.
    fn to_rowmajor<T: Copy + Default>(cols: &[Vec<T>]) -> Vec<T> {
        let (k, n) = (cols.len(), cols[0].len());
        let mut out = vec![T::default(); n * k];
        for (j, c) in cols.iter().enumerate() {
            for (i, &v) in c.iter().enumerate() {
                out[i * k + j] = v;
            }
        }
        out
    }

    /// Column `j` of a row-major block of width `k`.
    fn column<T: Copy>(block: &[T], k: usize, j: usize) -> Vec<T> {
        block.iter().skip(j).step_by(k).copied().collect()
    }

    /// The k-wide row-major passes carry, per column, exactly the bits of
    /// the k = 1 pass (which `forward_rhs`/`back_substitute` wrap).
    #[test]
    fn blocked_substitution_matches_single_bitwise() {
        let g = generators::weighted_random_graph(300, 900, 1.0, 6.0, 11);
        let elim = greedy_elimination(&g, 7);
        for k in [2usize, 3, 4] {
            let cols: Vec<Vec<f64>> = (0..k)
                .map(|j| {
                    let mut b: Vec<f64> = (0..g.n())
                        .map(|i| ((i * (3 * j + 5)) % 19) as f64 - 9.0)
                        .collect();
                    project_out_constant(&mut b);
                    b
                })
                .collect();
            let (mut reduced, mut work, mut row) = (Vec::new(), Vec::new(), Vec::new());
            elim.forward_rhs_rowmajor_into(
                &to_rowmajor(&cols),
                k,
                &mut reduced,
                &mut work,
                &mut row,
            );
            // Back-substitute an arbitrary reduced block.
            let xr_cols: Vec<Vec<f64>> = (0..k)
                .map(|j| {
                    (0..elim.kept.len())
                        .map(|i| ((i + j) as f64 * 0.37).sin())
                        .collect()
                })
                .collect();
            let mut x = Vec::new();
            elim.back_substitute_rowmajor_into(&work, &to_rowmajor(&xr_cols), k, &mut x, &mut row);
            for (j, col) in cols.iter().enumerate() {
                let (reduced_1, work_1) = elim.forward_rhs(col);
                for (a, b) in column(&reduced, k, j).iter().zip(&reduced_1) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} reduced column {j}");
                }
                for (a, b) in column(&work, k, j).iter().zip(&work_1) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} work column {j}");
                }
                let single = elim.back_substitute(&work_1, &xr_cols[j]);
                for (a, b) in column(&x, k, j).iter().zip(&single) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} solution column {j}");
                }
            }
        }
    }

    #[test]
    fn compiled_trace_matches_f64_trace_closely() {
        // The compiled multiply-only trace replaces every division by a
        // prefolded f32 reciprocal and runs on f32 vectors; per entry its
        // passes must agree with the f64 trace to f32 relative accuracy.
        let g = generators::weighted_random_graph(400, 1100, 0.3, 9.0, 17);
        let elim = greedy_elimination(&g, 9);
        assert!(
            elim.steps
                .iter()
                .any(|s| matches!(s, EliminationStep::Star { .. })),
            "want star steps in the exercise"
        );
        let compiled = CompiledTraceF32::from_elimination(&elim);
        let b: Vec<f64> = (0..g.n()).map(|i| ((i * 23) % 17) as f64 - 8.0).collect();
        let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let (reduced, work) = elim.forward_rhs(&b);
        let (mut creduced, mut cwork, mut row) = (Vec::new(), Vec::new(), Vec::new());
        compiled.forward_rhs_rowmajor32_into(&b32, 1, &mut creduced, &mut cwork, &mut row);
        let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, &c) in reduced.iter().zip(&creduced) {
            assert!((a - c as f64).abs() <= 1e-5 * scale, "forward {a} vs {c}");
        }
        let xr: Vec<f64> = (0..elim.kept.len())
            .map(|i| (i as f64 * 0.31).sin())
            .collect();
        let xr32: Vec<f32> = xr.iter().map(|&v| v as f32).collect();
        let x = elim.back_substitute(&work, &xr);
        let mut cx = Vec::new();
        compiled.back_substitute_rowmajor32_into(&cwork, &xr32, 1, &mut cx, &mut row);
        let xscale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, &c) in x.iter().zip(&cx) {
            assert!((a - c as f64).abs() <= 1e-4 * xscale, "backward {a} vs {c}");
        }
    }

    #[test]
    fn compiled_trace_blocked_matches_single_bitwise() {
        let g = generators::weighted_random_graph(300, 900, 1.0, 6.0, 11);
        let elim = greedy_elimination(&g, 7);
        let compiled = CompiledTraceF32::from_elimination(&elim);
        let n = g.n();
        for k in [2usize, 3, 4] {
            let br: Vec<f32> = (0..n * k).map(|i| ((i * 7) % 23) as f32 - 11.0).collect();
            let (mut reduced, mut work, mut row) = (Vec::new(), Vec::new(), Vec::new());
            compiled.forward_rhs_rowmajor32_into(&br, k, &mut reduced, &mut work, &mut row);
            let xr: Vec<f32> = (0..elim.kept.len() * k)
                .map(|i| (i as f32 * 0.17).cos())
                .collect();
            let mut x = Vec::new();
            compiled.back_substitute_rowmajor32_into(&work, &xr, k, &mut x, &mut row);
            for j in 0..k {
                let (mut red1, mut work1, mut row1) = (Vec::new(), Vec::new(), Vec::new());
                compiled.forward_rhs_rowmajor32_into(
                    &column(&br, k, j),
                    1,
                    &mut red1,
                    &mut work1,
                    &mut row1,
                );
                for (r, (a, b)) in red1.iter().zip(column(&reduced, k, j)).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} reduced col {j} row {r}");
                }
                let mut x1 = Vec::new();
                compiled.back_substitute_rowmajor32_into(
                    &work1,
                    &column(&xr, k, j),
                    1,
                    &mut x1,
                    &mut row1,
                );
                for (r, (a, b)) in x1.iter().zip(column(&x, k, j)).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} solution col {j} row {r}");
                }
            }
        }
    }

    #[test]
    fn tree_eliminates_fully_and_solves() {
        let g = generators::random_tree(200, 1.0, 3);
        let elim = greedy_elimination(&g, 1);
        // A tree reduces to at most a couple of vertices (2m−2 with m=0
        // extra edges means essentially everything goes).
        assert!(
            elim.reduced_graph.n() <= 2,
            "reduced to {}",
            elim.reduced_graph.n()
        );
        check_elimination_solve(&g, 1);
    }

    #[test]
    fn path_elimination_exact_solution() {
        let g = generators::path(50, 2.0);
        check_elimination_solve(&g, 2);
    }

    #[test]
    fn ultra_sparse_graph_vertex_bound() {
        // Lemma 6.5: a graph with n vertices and n−1+m edges reduces to at
        // most 2m−2 vertices (here "m" is the number of extra edges). The
        // star classes only eliminate more.
        let extra = 40;
        let g = generators::ultra_sparse(1200, extra, 1.0, 3.0, 7);
        let elim = greedy_elimination(&g, 3);
        assert!(
            elim.reduced_graph.n() <= 2 * extra,
            "reduced to {} vertices, bound {}",
            elim.reduced_graph.n(),
            2 * extra
        );
        assert!(elim.rounds <= 200, "rounds {}", elim.rounds);
        check_elimination_solve(&g, 3);
    }

    #[test]
    fn grid_elimination_preserves_solution() {
        let g = generators::grid2d(12, 12, |_, _| 1.0);
        let elim = greedy_elimination(&g, 4);
        assert!(elim.reduced_graph.n() <= g.n());
        check_elimination_solve(&g, 4);
    }

    #[test]
    fn weighted_random_graph_solve() {
        let g = generators::ultra_sparse(500, 60, 0.5, 10.0, 11);
        check_elimination_solve(&g, 5);
    }

    #[test]
    fn cycle_graph_is_fully_eliminable() {
        let g = generators::cycle(64, 1.5);
        let elim = greedy_elimination(&g, 6);
        assert!(elim.reduced_graph.n() <= 3);
        check_elimination_solve(&g, 6);
    }

    #[test]
    fn complete4_is_fully_eliminable_by_stars() {
        // K4: every vertex has degree 3 with all neighbour pairs adjacent —
        // zero fill. Degree-1/2 elimination alone cannot touch it; the star
        // rule dissolves it entirely.
        let g = generators::complete(4, 1.0);
        let elim = greedy_elimination(&g, 11);
        assert!(
            elim.reduced_graph.n() <= 1,
            "K4 should fully eliminate, kept {}",
            elim.reduced_graph.n()
        );
        assert!(elim
            .steps
            .iter()
            .any(|s| matches!(s, EliminationStep::Star { .. })));
        check_elimination_solve(&g, 11);
    }

    #[test]
    fn degree2_only_params_leave_complete4_alone() {
        // With the star classes disabled the old behaviour is recovered.
        let g = generators::complete(4, 1.0);
        let params = EliminationParams {
            max_star_degree: 2,
            max_dominated_degree: 2,
            ..Default::default()
        };
        let elim = greedy_elimination_with_params(&g, 11, &params);
        assert_eq!(elim.reduced_graph.n(), 4);
        assert!(elim.steps.is_empty());
    }

    #[test]
    fn branch_vertices_of_spider_eliminate() {
        // A "spider": center vertex 0 joined to three triangles. Every
        // triangle vertex has degree ≤ 3; the bounded-fill star rule must
        // dissolve the whole graph even though degree-1/2 elimination
        // stalls after the first few compressions.
        let mut edges = Vec::new();
        for t in 0..3u32 {
            let a = 1 + 2 * t;
            let b = 2 + 2 * t;
            edges.push(Edge::new(0, a, 1.0));
            edges.push(Edge::new(0, b, 2.0));
            edges.push(Edge::new(a, b, 0.5));
        }
        let g = Graph::from_edges(7, edges);
        let elim = greedy_elimination(&g, 21);
        assert!(
            elim.reduced_graph.n() <= 1,
            "spider should fully eliminate, kept {}",
            elim.reduced_graph.n()
        );
        check_elimination_solve(&g, 21);
    }

    #[test]
    fn dangling_trees_on_dense_core_eliminate() {
        // A K6 core (degree 5 inside the core — not star-eligible at the
        // default max degree) with a path of 30 vertices dangling from each
        // core vertex: the trees must rake away completely, the core must
        // survive, and the solve must stay exact.
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6u32 {
                edges.push(Edge::new(i, j, 1.0));
            }
        }
        let mut next = 6u32;
        for i in 0..6u32 {
            let mut prev = i;
            for _ in 0..30 {
                edges.push(Edge::new(prev, next, 2.0));
                prev = next;
                next += 1;
            }
        }
        let g = Graph::from_edges(next as usize, edges);
        let elim = greedy_elimination(&g, 31);
        assert!(
            elim.reduced_graph.n() <= 6,
            "dangling trees should rake away, kept {}",
            elim.reduced_graph.n()
        );
        check_elimination_solve(&g, 31);
    }

    #[test]
    fn dominated_vertex_is_eliminated_despite_degree() {
        // Vertex 0 has degree 5: one huge conductance (the "scaled tree
        // edge") plus four weak ones. Degree 5 exceeds max_star_degree and
        // creates positive fill, but the dominance rule eliminates it. Its
        // neighbours live in a K7 core, whose vertices have degree ≥ 6 and
        // uniform weights — no other class is eligible anywhere, so the
        // only possible elimination is the dominated vertex 0.
        let mut edges = Vec::new();
        for i in 1..8u32 {
            for j in (i + 1)..8u32 {
                edges.push(Edge::new(i, j, 1.0));
            }
        }
        edges.push(Edge::new(0, 1, 1000.0));
        for u in 2..6u32 {
            edges.push(Edge::new(0, u, 1.0));
        }
        let g = Graph::from_edges(8, edges);
        let elim = greedy_elimination(&g, 41);
        assert!(
            !elim.kept.contains(&0),
            "dominated vertex 0 must be eliminated (kept: {:?})",
            elim.kept
        );
        assert_eq!(
            elim.reduced_graph.n(),
            7,
            "the K7 core must survive untouched"
        );
        check_elimination_solve(&g, 41);
    }

    #[test]
    fn star_forward_backward_is_exact_on_wheel() {
        // A wheel: hub 0 with 5 spokes + rim. Hub degree 5 (dominated only
        // if weights say so); make spokes heavy so the hub is dominated by
        // no single edge — instead check exactness of whatever trace the
        // default parameters produce.
        let mut edges = Vec::new();
        for u in 1..6u32 {
            edges.push(Edge::new(0, u, 1.0 + u as f64));
            let v = if u == 5 { 1 } else { u + 1 };
            edges.push(Edge::new(u, v, 0.7));
        }
        let g = Graph::from_edges(6, edges);
        check_elimination_solve(&g, 51);
    }

    #[test]
    fn disconnected_graph_elimination() {
        use parsdd_graph::{Edge, Graph};
        let mut edges = Vec::new();
        for i in 0..20u32 {
            edges.push(Edge::new(i, i + 1, 1.0));
        }
        for i in 30..45u32 {
            edges.push(Edge::new(i, i + 1, 2.0));
        }
        let g = Graph::from_edges(50, edges);
        let elim = greedy_elimination(&g, 7);
        // Isolated vertices (21..30, 46..49) are eliminated as Isolated steps.
        assert!(elim
            .steps
            .iter()
            .any(|s| matches!(s, EliminationStep::Isolated { .. })));
        // Forward/backward on a component-wise balanced rhs.
        let op = LaplacianOp::new(&g);
        let mut b = vec![0.0f64; 50];
        b[0] = 1.0;
        b[20] = -1.0;
        b[30] = 2.0;
        b[45] = -2.0;
        let (reduced_b, work) = elim.forward_rhs(&b);
        let x_reduced = if elim.reduced_graph.m() == 0 {
            vec![0.0; elim.reduced_graph.n()]
        } else {
            let red_op = LaplacianOp::new(&elim.reduced_graph);
            cg_solve(&red_op, &reduced_b, &CgOptions::default()).x
        };
        let x = elim.back_substitute(&work, &x_reduced);
        let r = sub(&b, &op.apply_vec(&x));
        assert!(norm2(&r) < 1e-6);
    }

    #[test]
    fn elimination_counts_are_consistent() {
        let g = generators::ultra_sparse(800, 100, 1.0, 2.0, 13);
        let elim = greedy_elimination(&g, 8);
        assert_eq!(elim.eliminated_count() + elim.reduced_graph.n(), g.n());
        // orig_to_reduced and kept are inverse mappings.
        for (r, &v) in elim.kept.iter().enumerate() {
            assert_eq!(elim.orig_to_reduced[v as usize] as usize, r);
        }
    }

    #[test]
    fn star_elimination_never_grows_edge_count_without_dominance() {
        // With the dominated class disabled, every remaining rule (rake,
        // compress, net-fill ≤ 0 stars) removes at least as many edges as
        // it adds, so the reduced graph can never have more edges than the
        // input. (Dominated-vertex eliminations deliberately bypass the
        // fill bound, so the full default pass does not promise this.)
        let params = EliminationParams {
            max_dominated_degree: 2,
            ..Default::default()
        };
        for seed in 0..4u64 {
            let g = generators::weighted_random_graph(200, 500, 0.5, 4.0, seed + 60);
            let elim = greedy_elimination_with_params(&g, seed, &params);
            assert!(
                elim.reduced_graph.m() <= g.m(),
                "edges grew: {} -> {}",
                g.m(),
                elim.reduced_graph.m()
            );
        }
    }
}
