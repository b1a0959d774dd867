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
//! Each round does work only on the vertices it touches, as the paper's
//! rounds do. The working adjacency keeps every vertex's neighbours in
//! one row sorted by id, and every order the output depends on is that
//! row order: which neighbour a degree-1 step attaches to, the order of a
//! star's Schur updates and records, the order weights are summed in, and
//! the order of the reduced edges. So the elimination is a pure function
//! of `(graph, seed, params)`. Rows drop eliminated neighbours lazily, so
//! a hub losing its leaves costs O(1) amortised per leaf. Each vertex's
//! classification is cached and recomputed only when a step may have
//! changed it, and the eligible vertices are a sorted list that every
//! round merges its newly eligible ones into. The round's coins are
//! therefore drawn for the same vertices, in the same ascending order, as
//! a scan of all `n` vertices would draw them.
//!
//! The elimination is recorded step by step, and [`CompiledTrace`]
//! compiles the record, at the chain's storage precision, into the passes
//! that *forward-substitute* a right-hand side down to the reduced system
//! and *back-substitute* the reduced solution up to the full one.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use parsdd_graph::{Edge, Graph, VertexId};
use parsdd_linalg::Scalar;

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
/// original and reduced vertex ids, and the recorded elimination trace —
/// the build record [`CompiledTrace::from_elimination`] compiles into the
/// substitution passes. The solver chain drops `steps` and `star_data`
/// once its levels' traces are compiled.
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
        relabel_kept(&mut self.kept, old_to_new);
        for r in self.orig_to_reduced.iter_mut() {
            if *r != u32::MAX {
                *r = old_to_new[*r as usize];
            }
        }
    }

    /// Splits off the reduced graph from the trace, which is all the
    /// solver chain keeps of an elimination once the next level is built.
    pub(crate) fn into_parts(self) -> (Graph, EliminationTrace) {
        let trace = EliminationTrace {
            kept: self.kept,
            steps: self.steps,
            star_data: self.star_data,
        };
        (self.reduced_graph, trace)
    }
}

/// Moves `kept[old]` to `kept[old_to_new[old]]`.
fn relabel_kept(kept: &mut Vec<VertexId>, old_to_new: &[u32]) {
    assert_eq!(old_to_new.len(), kept.len());
    let mut out = vec![0 as VertexId; kept.len()];
    for (old, &orig) in kept.iter().enumerate() {
        out[old_to_new[old] as usize] = orig;
    }
    *kept = out;
}

/// An elimination's record without its reduced graph: what
/// [`CompiledTrace::from_trace`] compiles.
#[derive(Debug, Clone)]
pub(crate) struct EliminationTrace {
    kept: Vec<VertexId>,
    steps: Vec<EliminationStep>,
    star_data: Vec<(VertexId, f64)>,
}

impl EliminationTrace {
    /// [`EliminationResult::relabel_reduced`] on the trace's `kept`.
    pub(crate) fn relabel_kept(&mut self, old_to_new: &[u32]) {
        relabel_kept(&mut self.kept, old_to_new);
    }
}

/// One step of a [`CompiledTrace`]: index/coefficient records only, with
/// every quotient the passes need (`wa/(wa+wb)`, `w/Σw`) and every divisor
/// (`w`, `wa+wb`, `Σw`) folded at compile time, the divisors in
/// [`Scalar::fold_divisor`] form.
#[derive(Debug, Clone, Copy)]
enum CompiledStep<T> {
    /// Degree-1 elimination of `v` attached to `u` by conductance `w`.
    Degree1 { v: u32, u: u32, w: T },
    /// Degree-2 elimination of `v` attached to `a`/`b`: `ca = wa/d` and
    /// `cb = wb/d` drive the forward pass, `wa`/`wb` and `d = wa + wb` the
    /// backward one.
    Degree2 {
        v: u32,
        a: u32,
        b: u32,
        ca: T,
        cb: T,
        wa: T,
        wb: T,
        d: T,
    },
    /// Star elimination of `v`; neighbours live in
    /// [`CompiledTrace::star_data`] at `[offset, offset + len)`, and
    /// `wtot = Σw`.
    Star {
        v: u32,
        offset: u32,
        len: u32,
        wtot: T,
    },
    /// Isolated vertex removed from the system.
    Isolated { v: u32 },
}

/// An [`EliminationResult`]'s trace compiled into the solver's forward
/// elimination and back-substitution passes, stored at precision `T` — the
/// form every level of the chain's W-cycle applies. Compiling folds the
/// quotients the passes need once instead of on every application. At
/// f64 the passes reproduce the division-based trace arithmetic bit for
/// bit (a cached quotient is the quotient). At f32 the divisors are
/// stored as reciprocals ([`Scalar::fold_divisor`]), so a pass is
/// multiply-adds only and every product and sum is f32: the trace is
/// preconditioner-internal, and rounding at the f32 scale (~6e-8
/// relative) merely perturbs the preconditioner, the same argument that
/// lets the level matrices demote.
///
/// Blocked passes take `k` right-hand sides interleaved row-major
/// (`br[v·k + j]`), the layout the chain's W-cycle uses internally: every
/// step touches two or three contiguous k-wide rows, and the trace is
/// streamed once per block. Per column the update order and association
/// match the `k = 1` pass exactly, so blocked passes are bitwise
/// identical per column at every width.
#[derive(Debug, Clone)]
pub struct CompiledTrace<T> {
    /// Dimension of the eliminated (original) vertex space.
    n: usize,
    steps: Vec<CompiledStep<T>>,
    /// `(neighbour, w/Σw, w)` records of the star steps.
    star_data: Vec<(u32, T, T)>,
    /// Reduced id → original id (the gather producing the reduced rhs).
    kept: Vec<VertexId>,
}

impl<T: Scalar> CompiledTrace<T> {
    /// Compiles an elimination trace: one pass over the recorded steps,
    /// every quotient and divisor folded.
    pub fn from_elimination(elim: &EliminationResult) -> Self {
        Self::compile(elim.kept.clone(), &elim.steps, &elim.star_data)
    }

    /// [`from_elimination`](Self::from_elimination) on a split-off trace,
    /// whose `kept` the compiled trace takes over.
    pub(crate) fn from_trace(trace: EliminationTrace) -> Self {
        Self::compile(trace.kept, &trace.steps, &trace.star_data)
    }

    fn compile(
        kept: Vec<VertexId>,
        steps: &[EliminationStep],
        star_data: &[(VertexId, f64)],
    ) -> Self {
        let mut compiled_star = Vec::with_capacity(star_data.len());
        let steps: Vec<CompiledStep<T>> = steps
            .iter()
            .map(|step| match *step {
                EliminationStep::Degree1 { v, u, w } => CompiledStep::Degree1 {
                    v,
                    u,
                    w: T::fold_divisor(w),
                },
                EliminationStep::Degree2 { v, a, b, wa, wb } => {
                    let d = wa + wb;
                    CompiledStep::Degree2 {
                        v,
                        a,
                        b,
                        ca: T::from_f64(wa / d),
                        cb: T::from_f64(wb / d),
                        wa: T::from_f64(wa),
                        wb: T::from_f64(wb),
                        d: T::fold_divisor(d),
                    }
                }
                EliminationStep::Star { v, offset, len } => {
                    let star = &star_data[offset as usize..(offset + len) as usize];
                    let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                    debug_assert_eq!(compiled_star.len(), offset as usize);
                    compiled_star.extend(
                        star.iter()
                            .map(|&(u, w)| (u, T::from_f64(w / wtot), T::from_f64(w))),
                    );
                    CompiledStep::Star {
                        v,
                        offset,
                        len,
                        wtot: T::fold_divisor(wtot),
                    }
                }
                EliminationStep::Isolated { v } => CompiledStep::Isolated { v },
            })
            .collect();
        CompiledTrace {
            // Every vertex is either kept or eliminated by exactly one step.
            n: kept.len() + steps.len(),
            steps,
            star_data: compiled_star,
            kept,
        }
    }

    /// Heap bytes the compiled trace keeps resident.
    pub fn resident_bytes(&self) -> usize {
        self.steps.len() * std::mem::size_of::<CompiledStep<T>>()
            + self.star_data.len() * std::mem::size_of::<(u32, T, T)>()
            + self.kept.len() * std::mem::size_of::<VertexId>()
    }

    fn star(&self, offset: u32, len: u32) -> &[(u32, T, T)] {
        &self.star_data[offset as usize..(offset + len) as usize]
    }

    /// Forward-eliminates a right-hand side of the original system into
    /// one of the reduced system. Returns `(reduced_rhs, working_rhs)`;
    /// the working vector (original dimension, partially updated) is
    /// needed later by [`back_substitute`](Self::back_substitute). The
    /// `k = 1` case of
    /// [`forward_rhs_rowmajor_into`](Self::forward_rhs_rowmajor_into).
    pub fn forward_rhs(&self, b: &[T]) -> (Vec<T>, Vec<T>) {
        let (mut reduced, mut work) = (Vec::new(), Vec::new());
        self.forward_rhs_rowmajor_into(b, 1, &mut reduced, &mut work, &mut Vec::new());
        (reduced, work)
    }

    /// Back-substitutes a solution of the reduced system into a solution of
    /// the original system, given the working right-hand side returned by
    /// [`forward_rhs`](Self::forward_rhs).
    pub fn back_substitute(&self, working_rhs: &[T], x_reduced: &[T]) -> Vec<T> {
        let mut x = Vec::new();
        self.back_substitute_rowmajor_into(working_rhs, x_reduced, 1, &mut x, &mut Vec::new());
        x
    }

    /// Blocked [`forward_rhs`](Self::forward_rhs) into caller-owned
    /// buffers (`reduced`, `work`, and a `k`-wide `row` temp) —
    /// allocation-free once all three have capacity. `reduced` and `work`
    /// come back in the row-major layout of `br` (see the type docs).
    pub fn forward_rhs_rowmajor_into(
        &self,
        br: &[T],
        k: usize,
        reduced: &mut Vec<T>,
        work: &mut Vec<T>,
        row: &mut Vec<T>,
    ) {
        assert_eq!(br.len(), self.n * k);
        work.clear();
        work.extend_from_slice(br);
        if k == 1 {
            // Width 1: row-major and column-major coincide; the scalar
            // pass avoids the width-1 row plumbing.
            for step in &self.steps {
                match *step {
                    CompiledStep::Degree1 { v, u, .. } => {
                        // Schur complement of a degree-1 elimination adds
                        // the full b_v to the neighbour.
                        let bv = work[v as usize];
                        work[u as usize] += bv;
                    }
                    CompiledStep::Degree2 {
                        v, a, b, ca, cb, ..
                    } => {
                        let bv = work[v as usize];
                        work[a as usize] += ca * bv;
                        work[b as usize] += cb * bv;
                    }
                    CompiledStep::Star { v, offset, len, .. } => {
                        let bv = work[v as usize];
                        for &(u, c, _) in self.star(offset, len) {
                            work[u as usize] += c * bv;
                        }
                    }
                    CompiledStep::Isolated { .. } => {}
                }
            }
            reduced.clear();
            reduced.extend(self.kept.iter().map(|&v| work[v as usize]));
            return;
        }
        row.clear();
        row.resize(k, T::ZERO);
        // Take the temp out of the caller's slot for the duration of the
        // pass (returned below — no allocation either way).
        let mut buf = std::mem::take(row);
        for step in &self.steps {
            match *step {
                CompiledStep::Degree1 { v, u, .. } => {
                    buf.copy_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
                    let dst = &mut work[u as usize * k..(u as usize + 1) * k];
                    for (d, &s) in dst.iter_mut().zip(&buf) {
                        *d += s;
                    }
                }
                CompiledStep::Degree2 {
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
                CompiledStep::Star { v, offset, len, .. } => {
                    buf.copy_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
                    for &(u, c, _) in self.star(offset, len) {
                        let dst = &mut work[u as usize * k..(u as usize + 1) * k];
                        for (t, &s) in dst.iter_mut().zip(&buf) {
                            *t += c * s;
                        }
                    }
                }
                CompiledStep::Isolated { .. } => {}
            }
        }
        *row = buf;
        reduced.clear();
        for &v in &self.kept {
            reduced.extend_from_slice(&work[v as usize * k..(v as usize + 1) * k]);
        }
    }

    /// Blocked [`back_substitute`](Self::back_substitute) into
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
        working_rhs: &[T],
        xr_reduced: &[T],
        k: usize,
        x: &mut Vec<T>,
        row: &mut Vec<T>,
    ) {
        assert_eq!(working_rhs.len(), self.n * k);
        assert_eq!(xr_reduced.len(), self.kept.len() * k);
        x.resize(self.n * k, T::ZERO);
        if k == 1 {
            // Scalar pass; the k-wide pass below matches its update order
            // and association per column.
            for (r, &orig) in self.kept.iter().enumerate() {
                x[orig as usize] = xr_reduced[r];
            }
            for step in self.steps.iter().rev() {
                match *step {
                    CompiledStep::Degree1 { v, u, w } => {
                        x[v as usize] = working_rhs[v as usize].div_folded(w) + x[u as usize];
                    }
                    CompiledStep::Degree2 {
                        v, a, b, wa, wb, d, ..
                    } => {
                        x[v as usize] =
                            (working_rhs[v as usize] + wa * x[a as usize] + wb * x[b as usize])
                                .div_folded(d);
                    }
                    CompiledStep::Star {
                        v,
                        offset,
                        len,
                        wtot,
                    } => {
                        let acc: T = self
                            .star(offset, len)
                            .iter()
                            .map(|&(u, _, w)| w * x[u as usize])
                            .sum();
                        x[v as usize] = (working_rhs[v as usize] + acc).div_folded(wtot);
                    }
                    CompiledStep::Isolated { v } => {
                        x[v as usize] = T::ZERO;
                    }
                }
            }
            return;
        }
        for (src, &orig) in xr_reduced.chunks_exact(k).zip(&self.kept) {
            x[orig as usize * k..(orig as usize + 1) * k].copy_from_slice(src);
        }
        row.clear();
        row.resize(k, T::ZERO);
        let mut buf = std::mem::take(row);
        for step in self.steps.iter().rev() {
            match *step {
                CompiledStep::Degree1 { v, u, w } => {
                    buf.copy_from_slice(&x[u as usize * k..(u as usize + 1) * k]);
                    let wrow = &working_rhs[v as usize * k..(v as usize + 1) * k];
                    let dst = &mut x[v as usize * k..(v as usize + 1) * k];
                    for ((t, &wv), &xu) in dst.iter_mut().zip(wrow).zip(&buf) {
                        *t = wv.div_folded(w) + xu;
                    }
                }
                CompiledStep::Degree2 {
                    v, a, b, wa, wb, d, ..
                } => {
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
                        let xb = &x[b as usize * k..(b as usize + 1) * k];
                        for (t, &v) in buf.iter_mut().zip(xb) {
                            *t += wb * v;
                        }
                    }
                    let dst = &mut x[v as usize * k..(v as usize + 1) * k];
                    for (t, &acc) in dst.iter_mut().zip(&buf) {
                        *t = acc.div_folded(d);
                    }
                }
                CompiledStep::Star {
                    v,
                    offset,
                    len,
                    wtot,
                } => {
                    buf.iter_mut().for_each(|t| *t = T::ZERO);
                    for &(u, _, w) in self.star(offset, len) {
                        let xu = &x[u as usize * k..(u as usize + 1) * k];
                        for (t, &v) in buf.iter_mut().zip(xu) {
                            *t += w * v;
                        }
                    }
                    let wrow = &working_rhs[v as usize * k..(v as usize + 1) * k];
                    let dst = &mut x[v as usize * k..(v as usize + 1) * k];
                    for ((t, &wv), &acc) in dst.iter_mut().zip(wrow).zip(&buf) {
                        *t = (wv + acc).div_folded(wtot);
                    }
                }
                CompiledStep::Isolated { v } => {
                    x[v as usize * k..(v as usize + 1) * k]
                        .iter_mut()
                        .for_each(|t| *t = T::ZERO);
                }
            }
        }
        *row = buf;
    }
}

/// The elimination's working adjacency: the Laplacian's off-diagonal
/// pattern with parallel edges merged, one row of `(neighbour,
/// conductance)` entries per vertex, all rows in one shared buffer.
///
/// **Sorted-row invariant:** every row lists its entries in strictly
/// increasing neighbour id. Reading a row in stored order is what fixes
/// the elimination's output: which neighbour a degree-1 step attaches to,
/// the order of a star's Schur updates and records, the order weights are
/// summed in, and the order of the reduced edges. The result is a pure
/// function of `(graph, seed, params)`.
///
/// A row drops entries lazily. An entry whose neighbour has been
/// eliminated is a *tombstone*: every read skips it, and it keeps its id
/// in place, so the row stays sorted and binary-searchable. A row is
/// compacted once its tombstones outnumber its live entries (plus a
/// little slack), so a hub that loses thousands of leaves pays O(1)
/// amortised per loss, not O(degree), and a read costs O(live degree). A
/// new neighbour takes the place of the nearest tombstone within
/// [`Adjacency::REUSE_WINDOW`] entries; failing that it shifts the row's
/// tail, and a full row moves, compacted, to the end of the buffer with
/// room to double.
struct Adjacency {
    slots: Vec<(VertexId, f64)>,
    rows: Vec<Row>,
    alive: Vec<bool>,
}

/// Where a vertex's row lives in [`Adjacency::slots`].
#[derive(Clone, Copy)]
struct Row {
    start: usize,
    /// Entries in use, tombstones included.
    len: u32,
    /// Room reserved at `start`.
    cap: u32,
    /// Live entries: the vertex's degree.
    live: u32,
}

impl Adjacency {
    /// How far an insertion looks, each way, for a tombstone to reuse.
    const REUSE_WINDOW: usize = 8;
    /// Tombstones a row holds beyond its live count before compaction.
    const COMPACT_SLACK: u32 = 4;

    /// The adjacency of `g` with parallel edges merged. Each vertex's arcs
    /// sit in edge-id order, and a stable sort by neighbour keeps parallel
    /// edges in it, so a merged weight is summed in edge order from `0.0`.
    fn new(g: &Graph) -> Self {
        let n = g.n();
        let mut slots: Vec<(VertexId, f64)> = Vec::with_capacity(2 * g.m());
        let mut rows = Vec::with_capacity(n);
        for v in 0..n as VertexId {
            let start = slots.len();
            slots.extend(g.arcs(v).map(|(u, w, _)| (u, w)));
            let row = &mut slots[start..];
            row.sort_by_key(|&(u, _)| u);
            let mut len = 0;
            for i in 0..row.len() {
                let (u, w) = row[i];
                if len > 0 && row[len - 1].0 == u {
                    row[len - 1].1 += w;
                } else {
                    // `0.0 + w`, not `w`: the first term of the sum.
                    row[len] = (u, 0.0 + w);
                    len += 1;
                }
            }
            slots.truncate(start + len);
            let len = len as u32;
            rows.push(Row {
                start,
                len,
                cap: len,
                live: len,
            });
        }
        Adjacency {
            slots,
            rows,
            alive: vec![true; n],
        }
    }

    fn is_alive(&self, v: VertexId) -> bool {
        self.alive[v as usize]
    }

    fn degree(&self, v: VertexId) -> usize {
        self.rows[v as usize].live as usize
    }

    /// `v`'s stored entries, tombstones included, sorted by neighbour.
    fn row(&self, v: VertexId) -> &[(VertexId, f64)] {
        let r = self.rows[v as usize];
        &self.slots[r.start..r.start + r.len as usize]
    }

    /// `v`'s live neighbours with their conductances, by increasing id.
    fn neighbours(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.row(v)
            .iter()
            .copied()
            .filter(|&(u, _)| self.is_alive(u))
    }

    /// Whether live vertices `a` and `b` are adjacent: a binary search of
    /// the shorter row (an entry for a live id is never a tombstone).
    fn adjacent(&self, a: VertexId, b: VertexId) -> bool {
        let (x, y) = if self.rows[a as usize].len <= self.rows[b as usize].len {
            (a, b)
        } else {
            (b, a)
        };
        self.row(x).binary_search_by_key(&y, |&(u, _)| u).is_ok()
    }

    /// Eliminates `v`: its row empties and every entry naming it becomes
    /// a tombstone. Costs O(deg v), plus amortised compaction.
    fn eliminate(&mut self, v: VertexId) {
        self.alive[v as usize] = false;
        let r = self.rows[v as usize];
        self.rows[v as usize].len = 0;
        self.rows[v as usize].live = 0;
        for i in r.start..r.start + r.len as usize {
            let u = self.slots[i].0;
            if !self.is_alive(u) {
                continue;
            }
            let row = &mut self.rows[u as usize];
            row.live -= 1;
            if row.len > 2 * row.live + Self::COMPACT_SLACK {
                self.compact(u);
            }
        }
    }

    /// Drops `v`'s tombstones, in place.
    fn compact(&mut self, v: VertexId) {
        let r = self.rows[v as usize];
        let mut len = 0;
        for i in r.start..r.start + r.len as usize {
            let entry = self.slots[i];
            if self.is_alive(entry.0) {
                self.slots[r.start + len] = entry;
                len += 1;
            }
        }
        self.rows[v as usize].len = len as u32;
    }

    /// `w(a, b) += w` on `a`'s side, the entry created at `0.0 + w` when
    /// `b` is not yet a neighbour. Returns whether it was created.
    fn add(&mut self, a: VertexId, b: VertexId, w: f64) -> bool {
        let r = self.rows[a as usize];
        let row = &mut self.slots[r.start..r.start + r.len as usize];
        match row.binary_search_by_key(&b, |&(u, _)| u) {
            Ok(i) => {
                row[i].1 += w;
                false
            }
            Err(p) => {
                self.insert(a, p, (b, 0.0 + w));
                true
            }
        }
    }

    /// Inserts `entry` into `a`'s row at sorted position `p`.
    fn insert(&mut self, a: VertexId, p: usize, entry: (VertexId, f64)) {
        let r = self.rows[a as usize];
        let (start, len) = (r.start, r.len as usize);
        let dead = |i: usize| !self.alive[self.slots[start + i].0 as usize];
        let left = (p.saturating_sub(Self::REUSE_WINDOW)..p)
            .rev()
            .find(|&i| dead(i));
        let right = (p..len.min(p + Self::REUSE_WINDOW)).find(|&i| dead(i));
        let reuse = match (left, right) {
            (Some(l), Some(t)) => Some(if p - 1 - l <= t - p { l } else { t }),
            (l, t) => l.or(t),
        };
        let row = &mut self.slots[start..start + len];
        match reuse {
            // Shift the entries between the tombstone and `p` over it.
            Some(t) if t < p => {
                row.copy_within(t + 1..p, t);
                row[p - 1] = entry;
            }
            Some(t) => {
                row.copy_within(p..t, p + 1);
                row[p] = entry;
            }
            None if len < r.cap as usize => {
                self.slots
                    .copy_within(start + p..start + len, start + p + 1);
                self.slots[start + p] = entry;
                self.rows[a as usize].len += 1;
            }
            None => self.relocate(a, entry),
        }
        self.rows[a as usize].live += 1;
    }

    /// Moves `a`'s full row to the end of the buffer, compacted, with
    /// `entry` inserted in order and room for as many entries again.
    fn relocate(&mut self, a: VertexId, entry: (VertexId, f64)) {
        let r = self.rows[a as usize];
        let start = self.slots.len();
        let cap = 2 * (r.live as usize + 1);
        self.slots.reserve(cap);
        let mut placed = false;
        for i in r.start..r.start + r.len as usize {
            let e = self.slots[i];
            if !self.is_alive(e.0) {
                continue;
            }
            if !placed && e.0 > entry.0 {
                self.slots.push(entry);
                placed = true;
            }
            self.slots.push(e);
        }
        if !placed {
            self.slots.push(entry);
        }
        let len = self.slots.len() - start;
        self.slots.resize(start + cap, (0, 0.0));
        self.rows[a as usize] = Row {
            start,
            len: len as u32,
            cap: cap as u32,
            live: r.live,
        };
    }

    /// The Schur update `w` between neighbours `a` and `b`, on both sides.
    /// When it creates the edge, every common neighbour whose fill count
    /// it lowers is passed to `touched`: those with a degree the
    /// bounded-fill rule examines (`3..=max_star_degree`).
    fn connect(
        &mut self,
        a: VertexId,
        b: VertexId,
        w: f64,
        max_star_degree: usize,
        mut touched: impl FnMut(VertexId),
    ) {
        let created = self.add(a, b, w);
        self.add(b, a, w);
        if !created || max_star_degree < 3 {
            return;
        }
        let (x, y) = if self.rows[a as usize].live <= self.rows[b as usize].live {
            (a, b)
        } else {
            (b, a)
        };
        for (c, _) in self.neighbours(x) {
            if (3..=max_star_degree).contains(&self.degree(c)) && c != y && self.adjacent(c, y) {
                touched(c);
            }
        }
    }
}

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
/// star class, the fill bound against the current adjacency. It reads
/// only `v`'s degree, the weights of its edges and, when its degree is
/// in `3..=max_star_degree`, which of its neighbour pairs are adjacent.
fn classify(adj: &Adjacency, v: VertexId, params: &EliminationParams) -> Eligibility {
    let deg = adj.degree(v);
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
        for (_, w) in adj.neighbours(v) {
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
    let row = adj.row(v);
    let mut new_pairs = 0isize;
    for (i, &(a, _)) in row.iter().enumerate() {
        if !adj.is_alive(a) {
            continue;
        }
        for &(b, _) in &row[i + 1..] {
            if adj.is_alive(b) && !adj.adjacent(a, b) {
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

/// Vertices whose classification may have changed this round, each once.
struct Dirty {
    marked: Vec<bool>,
    list: Vec<VertexId>,
}

impl Dirty {
    fn mark(&mut self, v: VertexId) {
        if !self.marked[v as usize] {
            self.marked[v as usize] = true;
            self.list.push(v);
        }
    }
}

/// Runs the partial Cholesky elimination on the Laplacian of `g` until no
/// eligible vertex remains. Parallel edges are merged before elimination.
/// [`greedy_elimination`] is this with [`EliminationParams::default`].
///
/// A round pays for the vertices it touches, not for `n`. Each vertex's
/// classification is cached and recomputed only when it may have
/// changed: for the endpoints of a step (the eliminated vertex and its
/// neighbours) and for the common neighbours of a pair that gains an
/// edge, whose fill counts drop. No other vertex's degree, edge weights
/// or neighbour adjacencies move. The eligible vertices are kept as a
/// sorted list into which each round merges its newly eligible ones, so
/// the round's coins are drawn for the same vertices in the same
/// ascending order as a scan of all vertices would draw them.
pub fn greedy_elimination_with_params(
    g: &Graph,
    seed: u64,
    params: &EliminationParams,
) -> EliminationResult {
    let n = g.n();
    let mut adj = Adjacency::new(g);
    let mut class: Vec<Eligibility> = (0..n as VertexId)
        .map(|v| classify(&adj, v, params))
        .collect();
    let mut eligible: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| class[v as usize] != Eligibility::No)
        .collect();
    let mut steps: Vec<EliminationStep> = Vec::new();
    let mut star_data: Vec<(VertexId, f64)> = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rounds = 0usize;
    // Per-round buffers, reused: nothing below allocates once they have
    // grown to the largest round.
    let mut heads = vec![false; n];
    let mut dirty = Dirty {
        marked: vec![false; n],
        list: Vec::new(),
    };
    let (mut candidates, mut tossed) = (Vec::new(), Vec::new());
    let (mut newly, mut merged) = (Vec::new(), Vec::new());
    let mut star: Vec<(VertexId, f64)> = Vec::new();

    loop {
        rounds += 1;
        // Degree-≤1 vertices are all eliminated; the other eligible classes
        // (degree-2, bounded-fill stars, dominated vertices) are eliminated
        // if selected into a random independent set (heads with probability
        // 1/3, kept only if no coin-flipping neighbour also came up heads).
        candidates.clear();
        tossed.clear();
        for &v in &eligible {
            match class[v as usize] {
                Eligibility::Rake => candidates.push(v),
                Eligibility::Independent => {
                    if rng.gen_bool(1.0 / 3.0) {
                        heads[v as usize] = true;
                        tossed.push(v);
                    }
                }
                Eligibility::No => unreachable!("eligible list holds eligible vertices"),
            }
        }
        for &v in &tossed {
            if adj.neighbours(v).all(|(u, _)| !heads[u as usize]) {
                candidates.push(v);
            }
        }
        for &v in &tossed {
            heads[v as usize] = false;
        }
        if candidates.is_empty() {
            // No rake eliminations and no lucky independent-set vertices
            // this round. If eligible vertices still exist we must keep
            // going (fresh coins next round); otherwise we are done.
            let Some(&first) = eligible.first() else {
                break;
            };
            // Guard against pathological non-progress (e.g. a single cycle
            // where coins keep colliding): after many extra rounds, fall
            // back to eliminating one eligible vertex deterministically.
            if rounds > 10 * (64 - (n.max(2) as u64).leading_zeros() as usize).max(4) {
                candidates.push(first);
            } else {
                continue;
            }
        }

        // Apply the round's eliminations sequentially, re-checking
        // eligibility (an earlier elimination in the same round can change
        // degrees and fill).
        for &v in &candidates {
            if !adj.is_alive(v) {
                continue;
            }
            let mut touched = |u: VertexId| dirty.mark(u);
            match adj.degree(v) {
                0 => {
                    adj.eliminate(v);
                    steps.push(EliminationStep::Isolated { v });
                }
                1 => {
                    let (u, w) = adj.neighbours(v).next().expect("degree 1");
                    adj.eliminate(v);
                    touched(u);
                    steps.push(EliminationStep::Degree1 { v, u, w });
                }
                2 => {
                    let ((a, wa), (b, wb)) = {
                        let mut it = adj.neighbours(v);
                        let first = it.next().expect("degree 2");
                        (first, it.next().expect("degree 2"))
                    };
                    adj.eliminate(v);
                    touched(a);
                    touched(b);
                    // Series conductance between the two neighbours.
                    let w_new = wa * wb / (wa + wb);
                    adj.connect(a, b, w_new, params.max_star_degree, &mut touched);
                    steps.push(EliminationStep::Degree2 { v, a, b, wa, wb });
                }
                _ => {
                    // Star class: the fill/dominance conditions were checked
                    // at selection time but the graph has changed since, so
                    // re-verify before committing.
                    if classify(&adj, v, params) == Eligibility::No {
                        continue;
                    }
                    star.clear();
                    star.extend(adj.neighbours(v));
                    let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                    adj.eliminate(v);
                    // Schur clique: every neighbour pair gains w_a·w_b/W.
                    for (i, &(a, wa)) in star.iter().enumerate() {
                        touched(a);
                        for &(b, wb) in &star[i + 1..] {
                            let w_new = wa * wb / wtot;
                            adj.connect(a, b, w_new, params.max_star_degree, &mut touched);
                        }
                    }
                    let offset = star_data.len() as u32;
                    let len = star.len() as u32;
                    star_data.extend_from_slice(&star);
                    steps.push(EliminationStep::Star { v, offset, len });
                }
            }
            touched(v);
        }

        // Reclassify what the round touched and merge the newly eligible
        // vertices into the sorted list, dropping the no longer eligible.
        newly.clear();
        for &v in &dirty.list {
            dirty.marked[v as usize] = false;
            let now = if adj.is_alive(v) {
                classify(&adj, v, params)
            } else {
                Eligibility::No
            };
            if class[v as usize] == Eligibility::No && now != Eligibility::No {
                newly.push(v);
            }
            class[v as usize] = now;
        }
        dirty.list.clear();
        newly.sort_unstable();
        merged.clear();
        let mut fresh = newly.iter().copied().peekable();
        for &v in &eligible {
            if class[v as usize] == Eligibility::No {
                continue;
            }
            while let Some(u) = fresh.next_if(|&u| u < v) {
                merged.push(u);
            }
            merged.push(v);
        }
        merged.extend(fresh);
        std::mem::swap(&mut eligible, &mut merged);
    }

    // Build the reduced graph over the surviving vertices.
    let kept: Vec<VertexId> = (0..n as VertexId).filter(|&v| adj.is_alive(v)).collect();
    let mut orig_to_reduced = vec![u32::MAX; n];
    for (r, &v) in kept.iter().enumerate() {
        orig_to_reduced[v as usize] = r as u32;
    }
    let mut edges: Vec<Edge> = Vec::new();
    for &v in &kept {
        for (u, w) in adj.neighbours(v) {
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
        let trace = CompiledTrace::<f64>::from_elimination(&elim);
        let (reduced_b, work) = trace.forward_rhs(&b);
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
        let x = trace.back_substitute(&work, &x_reduced);
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

    /// The division-based f64 trace passes (forward `(w/Σw)·b_v`,
    /// backward `(…)/w`), written out entry by entry as the reference the
    /// compiled f64 trace must reproduce bit for bit.
    fn reference_passes(elim: &EliminationResult, b: &[f64], xr: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut work = b.to_vec();
        for step in &elim.steps {
            match *step {
                EliminationStep::Degree1 { v, u, .. } => work[u as usize] += work[v as usize],
                EliminationStep::Degree2 { v, a, b, wa, wb } => {
                    let d = wa + wb;
                    let bv = work[v as usize];
                    work[a as usize] += (wa / d) * bv;
                    work[b as usize] += (wb / d) * bv;
                }
                EliminationStep::Star { v, offset, len } => {
                    let star = &elim.star_data[offset as usize..(offset + len) as usize];
                    let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                    let bv = work[v as usize];
                    for &(u, w) in star {
                        work[u as usize] += (w / wtot) * bv;
                    }
                }
                EliminationStep::Isolated { .. } => {}
            }
        }
        let mut x = vec![0.0; b.len()];
        for (r, &orig) in elim.kept.iter().enumerate() {
            x[orig as usize] = xr[r];
        }
        for step in elim.steps.iter().rev() {
            x[step_vertex(step)] = match *step {
                EliminationStep::Degree1 { v, u, w } => work[v as usize] / w + x[u as usize],
                EliminationStep::Degree2 { v, a, b, wa, wb } => {
                    (work[v as usize] + wa * x[a as usize] + wb * x[b as usize]) / (wa + wb)
                }
                EliminationStep::Star { v, offset, len } => {
                    let star = &elim.star_data[offset as usize..(offset + len) as usize];
                    let wtot: f64 = star.iter().map(|&(_, w)| w).sum();
                    let acc: f64 = star.iter().map(|&(u, w)| w * x[u as usize]).sum();
                    (work[v as usize] + acc) / wtot
                }
                EliminationStep::Isolated { .. } => 0.0,
            };
        }
        let reduced = elim.kept.iter().map(|&v| work[v as usize]).collect();
        (reduced, x)
    }

    fn step_vertex(step: &EliminationStep) -> usize {
        match *step {
            EliminationStep::Degree1 { v, .. }
            | EliminationStep::Degree2 { v, .. }
            | EliminationStep::Star { v, .. }
            | EliminationStep::Isolated { v } => v as usize,
        }
    }

    /// The compiled f64 trace reproduces the division-based passes bit for
    /// bit: a quotient cached at compile time is the quotient.
    #[test]
    fn compiled_f64_trace_matches_division_reference_bitwise() {
        let g = generators::weighted_random_graph(400, 1100, 0.3, 9.0, 17);
        let elim = greedy_elimination(&g, 9);
        let trace = CompiledTrace::<f64>::from_elimination(&elim);
        let b: Vec<f64> = (0..g.n()).map(|i| ((i * 23) % 17) as f64 - 8.0).collect();
        let xr: Vec<f64> = (0..elim.kept.len())
            .map(|i| (i as f64 * 0.31).sin())
            .collect();
        let (reduced_ref, x_ref) = reference_passes(&elim, &b, &xr);
        let (reduced, work) = trace.forward_rhs(&b);
        let x = trace.back_substitute(&work, &xr);
        for (a, r) in reduced.iter().zip(&reduced_ref) {
            assert_eq!(a.to_bits(), r.to_bits(), "forward");
        }
        for (a, r) in x.iter().zip(&x_ref) {
            assert_eq!(a.to_bits(), r.to_bits(), "backward");
        }
    }

    /// The k-wide row-major passes carry, per column, exactly the bits of
    /// the k = 1 pass (which `forward_rhs`/`back_substitute` wrap).
    #[test]
    fn blocked_substitution_matches_single_bitwise() {
        let g = generators::weighted_random_graph(300, 900, 1.0, 6.0, 11);
        let elim = greedy_elimination(&g, 7);
        let trace = CompiledTrace::<f64>::from_elimination(&elim);
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
            trace.forward_rhs_rowmajor_into(
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
            trace.back_substitute_rowmajor_into(&work, &to_rowmajor(&xr_cols), k, &mut x, &mut row);
            for (j, col) in cols.iter().enumerate() {
                let (reduced_1, work_1) = trace.forward_rhs(col);
                for (a, b) in column(&reduced, k, j).iter().zip(&reduced_1) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} reduced column {j}");
                }
                for (a, b) in column(&work, k, j).iter().zip(&work_1) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} work column {j}");
                }
                let single = trace.back_substitute(&work_1, &xr_cols[j]);
                for (a, b) in column(&x, k, j).iter().zip(&single) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} solution column {j}");
                }
            }
        }
    }

    #[test]
    fn compiled_trace_matches_f64_trace_closely() {
        // The f32 trace replaces every division by a prefolded f32
        // reciprocal and runs on f32 vectors; per entry its passes must
        // agree with the f64 trace to f32 relative accuracy.
        let g = generators::weighted_random_graph(400, 1100, 0.3, 9.0, 17);
        let elim = greedy_elimination(&g, 9);
        assert!(
            elim.steps
                .iter()
                .any(|s| matches!(s, EliminationStep::Star { .. })),
            "want star steps in the exercise"
        );
        let compiled = CompiledTrace::<f32>::from_elimination(&elim);
        let trace = CompiledTrace::<f64>::from_elimination(&elim);
        let b: Vec<f64> = (0..g.n()).map(|i| ((i * 23) % 17) as f64 - 8.0).collect();
        let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let (reduced, work) = trace.forward_rhs(&b);
        let (mut creduced, mut cwork, mut row) = (Vec::new(), Vec::new(), Vec::new());
        compiled.forward_rhs_rowmajor_into(&b32, 1, &mut creduced, &mut cwork, &mut row);
        let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, &c) in reduced.iter().zip(&creduced) {
            assert!((a - c as f64).abs() <= 1e-5 * scale, "forward {a} vs {c}");
        }
        let xr: Vec<f64> = (0..elim.kept.len())
            .map(|i| (i as f64 * 0.31).sin())
            .collect();
        let xr32: Vec<f32> = xr.iter().map(|&v| v as f32).collect();
        let x = trace.back_substitute(&work, &xr);
        let mut cx = Vec::new();
        compiled.back_substitute_rowmajor_into(&cwork, &xr32, 1, &mut cx, &mut row);
        let xscale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, &c) in x.iter().zip(&cx) {
            assert!((a - c as f64).abs() <= 1e-4 * xscale, "backward {a} vs {c}");
        }
    }

    #[test]
    fn compiled_trace_blocked_matches_single_bitwise() {
        let g = generators::weighted_random_graph(300, 900, 1.0, 6.0, 11);
        let elim = greedy_elimination(&g, 7);
        let compiled = CompiledTrace::<f32>::from_elimination(&elim);
        let n = g.n();
        for k in [2usize, 3, 4] {
            let br: Vec<f32> = (0..n * k).map(|i| ((i * 7) % 23) as f32 - 11.0).collect();
            let (mut reduced, mut work, mut row) = (Vec::new(), Vec::new(), Vec::new());
            compiled.forward_rhs_rowmajor_into(&br, k, &mut reduced, &mut work, &mut row);
            let xr: Vec<f32> = (0..elim.kept.len() * k)
                .map(|i| (i as f32 * 0.17).cos())
                .collect();
            let mut x = Vec::new();
            compiled.back_substitute_rowmajor_into(&work, &xr, k, &mut x, &mut row);
            for j in 0..k {
                let (mut red1, mut work1, mut row1) = (Vec::new(), Vec::new(), Vec::new());
                compiled.forward_rhs_rowmajor_into(
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
                compiled.back_substitute_rowmajor_into(
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
        let trace = CompiledTrace::<f64>::from_elimination(&elim);
        let (reduced_b, work) = trace.forward_rhs(&b);
        let x_reduced = if elim.reduced_graph.m() == 0 {
            vec![0.0; elim.reduced_graph.n()]
        } else {
            let red_op = LaplacianOp::new(&elim.reduced_graph);
            cg_solve(&red_op, &reduced_b, &CgOptions::default()).x
        };
        let x = trace.back_substitute(&work, &x_reduced);
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

    /// Hub degree guard. A hub holding 3000 leaves, every third pair of
    /// them joined: its row loses nearly every entry (the leaves rake,
    /// each pair compresses onto an existing hub edge first). And two
    /// hubs joined by 1500 2-paths whose middle ids sit far from their
    /// ends, so every compress adds a hub entry far from the tombstone it
    /// leaves. Both dissolve completely, in a logarithmic number of rounds,
    /// and solve exactly.
    #[test]
    fn hub_stars_dissolve_and_solve() {
        let leaves = 3000u32;
        let mut edges: Vec<Edge> = (1..=leaves)
            .map(|v| Edge::new(0, v, 1.0 + (v % 7) as f64))
            .collect();
        edges.extend(
            (1..leaves)
                .step_by(2)
                .filter(|v| v % 3 == 0)
                .map(|v| Edge::new(v, v + 1, 0.5 + (v % 5) as f64)),
        );
        let star = Graph::from_edges(leaves as usize + 1, edges);
        let k = 1500u32;
        let mut edges = Vec::new();
        for i in 1..=k {
            edges.push(Edge::new(0, i, 1.0 + (i % 3) as f64));
            edges.push(Edge::new(i, k + i, 2.0));
            edges.push(Edge::new(k + i, 2 * k + 1, 1.0 + (i % 5) as f64));
        }
        let twin_hubs = Graph::from_edges(2 * k as usize + 2, edges);
        for (name, g) in [("hub star", &star), ("twin hubs", &twin_hubs)] {
            let elim = greedy_elimination(g, 13);
            assert!(elim.kept.is_empty(), "{name}: kept {:?}", elim.kept);
            assert!(elim.rounds <= 40, "{name}: {} rounds", elim.rounds);
            check_elimination_solve(g, 13);
        }
    }
}
