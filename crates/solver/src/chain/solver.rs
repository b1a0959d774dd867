//! The built chain: its levels, the top-level solve (flexible PCG over
//! the W-cycle) and the [`Preconditioner`] view external solvers drive.

use parsdd_graph::Graph;
use parsdd_linalg::block::MultiVector;
use parsdd_linalg::breakdown::{BreakdownReason, DIVERGENCE_FACTOR};
use parsdd_linalg::operator::Preconditioner;
use parsdd_linalg::permuted::PermutedLevel;
use parsdd_linalg::vector::{
    colwise_dots_rm, colwise_dots_rm_into, project_out_componentwise_constant,
    project_out_componentwise_rows,
};

use super::cycle::{BottomSolver, ChainCycle};
use super::{ChainOptions, Level0Decision, Precision};
use crate::elimination::EliminationTrace;
use crate::error::RecoveryStep;

/// One level of the preconditioner chain.
#[derive(Debug, Clone)]
pub struct ChainLevel {
    /// The level's system `A_i` (a Laplacian graph with parallel edges
    /// merged), in the level's baked-in vertex order. Only consulted at
    /// build/calibration time — the per-application sweeps run on
    /// `matrix` — so `build_chain` drops it after calibration on *both*
    /// precision tiers and a long-lived chain stops holding ~2× the
    /// matrix memory it streams.
    pub(super) graph: Option<Graph>,
    /// Vertex count of `A_i` (kept after `graph` is dropped).
    pub(super) n: usize,
    /// Edge count of `A_i` (kept after `graph` is dropped).
    pub(super) m: usize,
    /// Bytes the level's streamed matrix (merged diag+offdiag rows of
    /// `graph` at its storage precision) reads per sweep.
    pub(super) stream_bytes: usize,
    /// Storage precision of the level's streamed matrix.
    pub(super) storage_precision: Precision,
    /// The recorded elimination taking the sparsifier `B_i` to `A_{i+1}`,
    /// held only until the chain's cycle compiles it (`None` after).
    pub(super) trace: Option<EliminationTrace>,
    /// Sampling condition target `κ_i` carried by the sampled edges (the
    /// level's full target is `tree_scale · κ_i`).
    pub kappa: f64,
    /// Forest scale factor `t_i` of this level's sparsifier.
    pub tree_scale: f64,
    /// True when this level's κ derivation saturated a clamp inside
    /// [`crate::sparsify::incremental_sparsify_with_target`] (overflow
    /// ceiling, κ = 1 floor, or a degenerate no-stretch/zero-budget case).
    /// Near-disconnected inputs whose bridge edges carry enormous
    /// resistance stretch hit the 1e12 ceiling: sample probabilities
    /// collapse and the level degrades toward subgraph-only. Surfaced per
    /// level through [`ChainQuality`](super::ChainQuality) so workloads can see the degradation
    /// instead of silently paying for it in iterations.
    pub kappa_clamped: bool,
    /// Sampled lower/upper bounds of `xᵀA_ix / xᵀB_ix` (empirical check of
    /// Definition 6.3's `A_i ⪯ B_i ⪯ κ_i·A_i`, up to scaling).
    pub measured_ratio: (f64, f64),
    /// Number of edges of the sparsifier `B_i`.
    pub sparsifier_edges: usize,
    /// Number of edges inherited from the low-stretch subgraph.
    pub subgraph_edges: usize,
    /// Fixed Chebyshev iteration count used when this level is solved
    /// recursively (the W-cycle width `k_i` at this level).
    pub inner_iterations: usize,
    /// Spectrum bounds `[λ_min, λ_max]` of the *effective* preconditioned
    /// operator `M_i⁻¹A_i` (where `M_i` is the whole recursive
    /// preconditioner below this level, inexact inner solves included).
    /// For levels ≥ 1 these are calibrated bottom-up by power iteration
    /// after the chain is built: the inner Chebyshev iteration is only
    /// stable when its interval really brackets this operator's spectrum,
    /// and the sampled `measured_ratio` of the sparsifier alone misses the
    /// extremes. Level 0 keeps the provisional (ratio-derived) value — the
    /// top level is driven by adaptive flexible PCG, which needs no bounds.
    pub cheb_bounds: (f64, f64),
}

impl ChainLevel {
    /// Measured effective condition number of the level's preconditioned
    /// operator (`λ_max/λ_min` of the calibrated interval).
    pub fn kappa_eff(&self) -> f64 {
        if self.cheb_bounds.0 > 0.0 {
            self.cheb_bounds.1 / self.cheb_bounds.0
        } else {
            f64::INFINITY
        }
    }

    /// Vertex count of the level's system `A_i`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Edge count of the level's system `A_i`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The level's graph, if still resident. `None` on finished chains of
    /// either precision — `build_chain` drops the duplicate CSR after
    /// Chebyshev calibration. `Some` only on hand-assembled levels that
    /// never went through the drop.
    pub fn graph(&self) -> Option<&Graph> {
        self.graph.as_ref()
    }

    /// Storage precision of this level's streamed matrix.
    pub fn storage_precision(&self) -> Precision {
        self.storage_precision
    }

    /// Bytes this level's matrix streams per sparse sweep (coefficients +
    /// column indices + row offsets).
    pub fn stream_bytes(&self) -> usize {
        self.stream_bytes
    }

    /// Heap bytes this level keeps resident: the streamed matrix plus the
    /// retained `Graph` CSR (zero once dropped). The compiled elimination
    /// trace is excluded from the accounting.
    pub fn resident_bytes(&self) -> usize {
        self.stream_bytes + self.graph.as_ref().map_or(0, |g| g.resident_bytes())
    }
}

/// A fully constructed preconditioner chain for a Laplacian system.
#[derive(Debug, Clone)]
pub struct SolverChain {
    pub(super) levels: Vec<ChainLevel>,
    /// Merged-row Laplacian of level 0 — the f64 operator the outer PCG
    /// multiplies by. `None` on depth-0 chains, whose top is the bottom.
    pub(super) top_matrix: Option<PermutedLevel>,
    pub(super) bottom_graph: Graph,
    /// Merged-row Laplacian of the bottom graph (the operator of the
    /// iterative bottom, and of chains with no levels).
    pub(super) bottom_matrix: PermutedLevel,
    pub(super) bottom: BottomSolver,
    pub(super) bottom_labels: Vec<u32>,
    pub(super) bottom_components: usize,
    /// Connected-component labels of the top-level graph, cached at build
    /// time (every solve needs them to project the rhs onto the range).
    pub(super) top_labels: Vec<u32>,
    pub(super) top_components: usize,
    /// Boundary permutation (`original id → internal id`) baked into the
    /// top level: right-hand sides are permuted once on solve entry,
    /// solutions once on exit; everything between runs in internal order.
    pub(super) top_perm: Vec<u32>,
    pub(super) options: ChainOptions,
    pub(super) cycle: ChainCycle,
    /// The level-0 cut's decision (see
    /// [`ChainQuality::level0`](super::ChainQuality::level0)).
    pub(super) level0: Option<Level0Decision>,
}

/// Outcome of a chain solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The approximate solution (mean-zero on every connected component).
    pub x: Vec<f64>,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖₂ / ‖b‖₂`.
    pub relative_residual: f64,
    /// Whether the requested tolerance was reached.
    pub converged: bool,
    /// Why the outer iteration froze this column early, if it broke down
    /// (`None` when converged or merely budget-exhausted while still
    /// making progress).
    pub breakdown: Option<BreakdownReason>,
    /// Recovery-ladder rungs the facade escalated through for this column
    /// (always empty for a direct chain solve; populated only by the
    /// fallible [`crate::sdd_solve::SddSolver`] front door).
    pub recovery: Vec<RecoveryStep>,
}

/// Gathers `src` (length `n`) into internal order: `out[perm[i]] = src[i]`.
fn permute_into(src: &[f64], perm: &[u32]) -> Vec<f64> {
    let mut out = vec![0.0f64; src.len()];
    for (&v, &p) in src.iter().zip(perm) {
        out[p as usize] = v;
    }
    out
}

/// Scatters `src` (internal order) back: `out[i] = src[perm[i]]`.
fn permute_back(src: &[f64], perm: &[u32]) -> Vec<f64> {
    perm.iter().map(|&p| src[p as usize]).collect()
}

/// Gathers a column-major block into internal-order **row-major** storage:
/// `out[perm[i]·k + j] = b[i, j]` — the k-wide counterpart of
/// [`permute_into`], shared by every boundary that enters the chain.
fn gather_block_rm(b: &MultiVector, perm: &[u32]) -> Vec<f64> {
    let k = b.ncols();
    let mut out = vec![0.0f64; b.nrows() * k];
    for (j, col) in b.columns().enumerate() {
        for (&v, &p) in col.iter().zip(perm) {
            out[p as usize * k + j] = v;
        }
    }
    out
}

/// Scatters internal-order row-major storage back into a column-major
/// block: `z[i, j] = src[perm[i]·k + j]` — the inverse of
/// [`gather_block_rm`].
fn scatter_block_rm(src: &[f64], perm: &[u32], z: &mut MultiVector) {
    let k = z.ncols();
    for j in 0..k {
        let col = z.col_mut(j);
        for (slot, &p) in col.iter_mut().zip(perm) {
            *slot = src[p as usize * k + j];
        }
    }
}

impl SolverChain {
    /// Number of levels above the bottom.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The levels of the chain.
    pub fn levels(&self) -> &[ChainLevel] {
        &self.levels
    }

    /// The bottom-level graph `A_d`.
    pub fn bottom_graph(&self) -> &Graph {
        &self.bottom_graph
    }

    /// Options the chain was built with.
    pub fn options(&self) -> &ChainOptions {
        &self.options
    }

    /// The f64 operator of the top level, which the outer PCG multiplies
    /// by: level 0's matrix, or the bottom's on a depth-0 chain.
    fn top_matrix(&self) -> &PermutedLevel {
        self.top_matrix.as_ref().unwrap_or(&self.bottom_matrix)
    }

    /// Solves the top-level system `A x = b` to relative residual `tol` —
    /// the `k = 1` case of [`solve_block`](Self::solve_block); the W-cycle
    /// and the outer iteration exist only in blocked form.
    pub fn solve(&self, b: &[f64], tol: f64, max_iterations: usize) -> SolveOutcome {
        self.solve_block(&MultiVector::from_column(b), tol, max_iterations)
            .pop()
            .expect("k = 1 block")
    }

    /// Applies the top-level operator to `x` (given in the caller's
    /// original vertex order) and returns `A x` in the same order, using
    /// the chain's internal permuted storage. The facade's recovery
    /// ladder uses this to measure residuals of candidate iterates
    /// without materialising a second Laplacian operator.
    pub fn apply_top(&self, x: &[f64]) -> Vec<f64> {
        let top_matrix = self.top_matrix();
        let n = top_matrix.n();
        assert_eq!(x.len(), n, "vector has wrong dimension");
        let xi = permute_into(x, &self.top_perm);
        let mut out = vec![0.0f64; n];
        top_matrix.apply_rowmajor(&xi, &mut out, 1);
        permute_back(&out, &self.top_perm)
    }

    /// Connected-component label of every top-level vertex, in the
    /// caller's original vertex order (the kernel of a Laplacian is
    /// spanned by the indicators of these components).
    pub fn component_labels(&self) -> Vec<u32> {
        self.top_perm
            .iter()
            .map(|&p| self.top_labels[p as usize])
            .collect()
    }

    /// Number of connected components of the top-level graph.
    pub fn components(&self) -> usize {
        self.top_components
    }

    /// Solves the top-level system for a block of right-hand sides, `A X =
    /// B`, each column to relative residual `tol`, using flexible
    /// preconditioned CG (Polak–Ribière beta) driven by the recursive
    /// blocked W-cycle preconditioner. Columns are projected onto the
    /// range of `A` first.
    ///
    /// **Layout.** The boundary is the only place anything is permuted or
    /// transposed: right-hand sides are gathered into the chain's
    /// internal (bandwidth-reduced) row-major order on entry, solutions
    /// scattered back on exit. Every iteration in between is row-major in
    /// internal index space — the preconditioner is called on the working
    /// residual directly (no per-iteration `to_rowmajor`/`from_rowmajor`),
    /// the matrix pass returns `pᵀAp` fused
    /// ([`PermutedLevel::fused_apply_dot`]), and the Polak–Ribière
    /// numerator uses `r_new − r_old = −α·(A p)` (an identity of the
    /// residual update in exact arithmetic, equal up to rounding in
    /// floating point), so no `r_old` copy or difference pass exists.
    ///
    /// **Per-column convergence and deflation.** Each column carries its
    /// own CG scalars and convergence state; converged (or broken-down)
    /// columns are frozen and physically compacted out of the working
    /// block, so late iterations — and every recursive preconditioner
    /// application below them — run on a narrower block. The recurrences
    /// never couple columns and every kernel's per-column arithmetic is
    /// independent of the block width, so each outcome is bitwise
    /// identical to a single [`solve`](Self::solve) of that column, at
    /// every block composition and pool width.
    ///
    /// The outer iteration keeps its own locals (allocated once per solve
    /// and reused across iterations), so together with the
    /// workspace-threaded W-cycle no per-*iteration* heap allocation
    /// remains on the sequential dispatch paths; deflation events (bounded
    /// by the column count, not the iteration count) compact in place.
    pub fn solve_block(
        &self,
        b: &MultiVector,
        tol: f64,
        max_iterations: usize,
    ) -> Vec<SolveOutcome> {
        let top_matrix = self.top_matrix();
        let n = top_matrix.n();
        assert_eq!(b.nrows(), n, "right-hand side has wrong dimension");
        let k = b.ncols();

        // Boundary: gather into internal order, row-major, and project
        // onto the range componentwise.
        let perm = &self.top_perm;
        let mut rr = gather_block_rm(b, perm);
        project_out_componentwise_rows(&mut rr, k, &self.top_labels, self.top_components);
        let bnorms: Vec<f64> = colwise_dots_rm(&rr, &rr, k)
            .into_iter()
            .map(f64::sqrt)
            .collect();
        let mut outcomes: Vec<Option<SolveOutcome>> = (0..k).map(|_| None).collect();
        let mut active: Vec<usize> = Vec::with_capacity(k);
        for j in 0..k {
            if bnorms[j] == 0.0 {
                outcomes[j] = Some(SolveOutcome {
                    x: vec![0.0; n],
                    iterations: 0,
                    relative_residual: 0.0,
                    converged: true,
                    breakdown: None,
                    recovery: Vec::new(),
                });
            } else {
                active.push(j);
            }
        }

        if self.levels.is_empty() && !active.is_empty() {
            // No chain above the bottom: this result IS the final answer,
            // so an iterative bottom must target the caller's tolerance,
            // not the looser preconditioner-application tolerance.
            let ka = active.len();
            let ba = compact_columns_rm(&rr, k, &active);
            let (xa, its) = self.final_bottom_solve(&ba, ka, Self::final_bottom_tol(tol));
            let mut diff = vec![0.0f64; n * ka];
            self.bottom_matrix.apply_rowmajor(&xa, &mut diff, ka);
            for (d, &bv) in diff.iter_mut().zip(&ba) {
                *d = bv - *d;
            }
            let rn = colwise_dots_rm(&diff, &diff, ka);
            for (c, &j) in active.iter().enumerate() {
                let rel = rn[c].sqrt() / bnorms[j];
                let x = (0..n).map(|i| xa[perm[i] as usize * ka + c]).collect();
                outcomes[j] = Some(SolveOutcome {
                    x,
                    iterations: its[c],
                    relative_residual: rel,
                    converged: rel <= tol,
                    breakdown: if rel.is_finite() {
                        None
                    } else {
                        Some(BreakdownReason::NonFiniteResidual { iteration: 0 })
                    },
                    recovery: Vec::new(),
                });
            }
        }
        if self.levels.is_empty() || active.is_empty() {
            // Every column is resolved: by the bottom solve, or as zero.
            return resolved(outcomes);
        }

        // Flexible PCG with the recursive chain preconditioner at level 0.
        // Working blocks (r, z, p, ap) hold only the active columns; the
        // iterate X keeps full width so deflated columns stay frozen.
        let mut xr = vec![0.0f64; n * k];
        let mut finished: Vec<usize> = Vec::new();
        let mut iterations = vec![0usize; k];
        let mut rels = vec![1.0f64; k];
        // Stall detection: on ill-conditioned systems (e.g. clusters
        // joined by feeble bridges, κ(A) ≳ 1e9) the attainable relative
        // residual in f64 is bounded below by ≈ ε·κ(A) — beyond that
        // point the residual recurrence is pure rounding noise and every
        // further iteration is wasted. A column whose best residual has
        // not improved by at least `STALL_IMPROVEMENT` (relative) within
        // `STALL_WINDOW` iterations is frozen with `converged: false` and
        // its best-seen residual reported. Any genuinely converging PCG
        // column contracts orders of magnitude faster than this cutoff
        // (even κ_eff ≈ 10⁴ contracts ~2% per iteration), so converging
        // solves never trip it. Tracking is per column, so the bitwise
        // block-composition contract is unaffected.
        const STALL_WINDOW: usize = 40;
        const STALL_IMPROVEMENT: f64 = 1e-3;
        let mut best_rel = vec![f64::INFINITY; k];
        let mut best_it = vec![0usize; k];
        // Per-column breakdown classification: a NaN/Inf residual or a
        // residual far past its best *and* worse than the initial guess is
        // frozen immediately with a typed reason instead of spinning out
        // the stall window (or the whole budget) on arithmetic that can
        // never recover. Tracking is per column with the same rule as the
        // linalg drivers, so the bitwise block-composition contract and
        // single/block parity are unaffected.
        let mut breakdowns: Vec<Option<BreakdownReason>> = vec![None; k];
        let mut r = compact_columns_rm(&rr, k, &active);
        let mut z = Vec::new();
        self.precondition_rm_into(0, &r, active.len(), &mut z);
        let mut p = z.clone();
        let mut rz: Vec<f64> = colwise_dots_rm(&r, &z, active.len());
        let mut ap = vec![0.0f64; n * active.len()];
        // Reused across iterations (zero per-iteration allocation).
        let mut rn = Vec::new();
        let mut pap = Vec::new();
        let mut rz_new = Vec::new();
        let mut apz = Vec::new();
        let mut alphas: Vec<f64> = Vec::new();
        let mut betas: Vec<f64> = Vec::new();
        let mut keep: Vec<usize> = Vec::new();
        let mut dot_scratch = Vec::new();
        for it in 0..max_iterations {
            if active.is_empty() {
                break;
            }
            let ka = active.len();
            // Per-column convergence check; converged columns deflate.
            colwise_dots_rm_into(&r, &r, ka, &mut rn, &mut dot_scratch);
            keep.clear();
            for (c, &j) in active.iter().enumerate() {
                iterations[j] = it;
                rels[j] = rn[c].sqrt() / bnorms[j];
                if rels[j] <= tol {
                    finished.push(j);
                } else if !rels[j].is_finite() {
                    // A poisoned residual never recovers; freeze now.
                    breakdowns[j] = Some(BreakdownReason::NonFiniteResidual { iteration: it });
                    finished.push(j);
                } else if rels[j] >= DIVERGENCE_FACTOR * best_rel[j] && rels[j] > 1.0 {
                    breakdowns[j] = Some(BreakdownReason::Diverged {
                        iteration: it,
                        growth: rels[j] / best_rel[j],
                    });
                    finished.push(j);
                } else if rels[j] < best_rel[j] * (1.0 - STALL_IMPROVEMENT) {
                    best_rel[j] = rels[j];
                    best_it[j] = it;
                    keep.push(c);
                } else if it - best_it[j] >= STALL_WINDOW {
                    // Residual flat for a full window: the attainable
                    // accuracy floor. Freeze the column unconverged.
                    breakdowns[j] = Some(BreakdownReason::Stalled {
                        iteration: it,
                        best_relative_residual: best_rel[j],
                    });
                    finished.push(j);
                } else {
                    keep.push(c);
                }
            }
            if keep.len() != ka {
                active = keep.iter().map(|&c| active[c]).collect();
                compact_columns_rm_inplace(&mut r, ka, &keep);
                compact_columns_rm_inplace(&mut p, ka, &keep);
                compact_scalars_inplace(&mut rz, &keep);
                // `ap` is rewritten in full by the fused pass below; only
                // its length must match the narrower block.
                ap.truncate(n * active.len());
            }
            if active.is_empty() {
                break;
            }
            let ka = active.len();

            // One matrix pass: AP ← A·p with pᵀAp fused. Per-column step;
            // breakdown (no direction energy) freezes the column the way
            // the single-vector iteration would stop.
            top_matrix.fused_apply_dot_into(&p, &mut ap, ka, &mut pap, &mut dot_scratch);
            keep.clear();
            alphas.clear();
            alphas.resize(ka, 0.0);
            for (c, &j) in active.iter().enumerate() {
                if pap[c] <= 0.0 || !pap[c].is_finite() {
                    breakdowns[j] = Some(BreakdownReason::IndefiniteDirection {
                        iteration: it,
                        curvature: pap[c],
                    });
                    finished.push(j);
                } else {
                    alphas[c] = rz[c] / pap[c];
                    keep.push(c);
                }
            }
            if keep.len() != ka {
                active = keep.iter().map(|&c| active[c]).collect();
                compact_columns_rm_inplace(&mut r, ka, &keep);
                compact_columns_rm_inplace(&mut p, ka, &keep);
                compact_columns_rm_inplace(&mut ap, ka, &keep);
                compact_scalars_inplace(&mut rz, &keep);
                compact_scalars_inplace(&mut alphas, &keep);
            }
            if active.is_empty() {
                break;
            }
            let ka = active.len();

            // One fused elementwise pass: x ← x + α·p (into the
            // full-width iterate) and r ← r − α·(A p).
            for ((xrow, prow), (rrow, aprow)) in xr
                .chunks_exact_mut(k)
                .zip(p.chunks_exact(ka))
                .zip(r.chunks_exact_mut(ka).zip(ap.chunks_exact(ka)))
            {
                for (c, &j) in active.iter().enumerate() {
                    xrow[j] += alphas[c] * prow[c];
                    rrow[c] -= alphas[c] * aprow[c];
                }
            }
            self.precondition_rm_into(0, &r, ka, &mut z);
            // Flexible (Polak–Ribière) beta tolerates the slightly varying
            // preconditioner produced by the recursion. The numerator
            // `(r_new − r_old)ᵀ z` uses r_new − r_old = −α·(A p) — an
            // identity of the residual update above in exact arithmetic
            // (the elementwise update rounds, so the low bits differ from
            // an explicit difference) — so no r_old copy or difference
            // vector is ever materialised.
            colwise_dots_rm_into(&r, &z, ka, &mut rz_new, &mut dot_scratch);
            colwise_dots_rm_into(&ap, &z, ka, &mut apz, &mut dot_scratch);
            betas.clear();
            betas.extend((0..ka).map(|c| (-alphas[c] * apz[c] / rz[c]).max(0.0)));
            std::mem::swap(&mut rz, &mut rz_new);
            for (prow, zrow) in p.chunks_exact_mut(ka).zip(z.chunks_exact(ka)) {
                for (c, (pv, &zv)) in prow.iter_mut().zip(zrow).enumerate() {
                    *pv = zv + betas[c] * *pv;
                }
            }
        }
        finished.extend_from_slice(&active);

        // Final residual check, one blocked product for all finished
        // columns at once.
        if !finished.is_empty() {
            let kf = finished.len();
            let xa = compact_columns_rm(&xr, k, &finished);
            let mut diff = vec![0.0f64; n * kf];
            top_matrix.apply_rowmajor(&xa, &mut diff, kf);
            for (row, rrow) in diff.chunks_exact_mut(kf).zip(rr.chunks_exact(k)) {
                for (c, &j) in finished.iter().enumerate() {
                    row[c] = rrow[j] - row[c];
                }
            }
            let rn = colwise_dots_rm(&diff, &diff, kf);
            for (c, &j) in finished.iter().enumerate() {
                let final_rel = rn[c].sqrt() / bnorms[j];
                // Boundary: project, then scatter back to original order.
                let mut xi: Vec<f64> = (0..n).map(|i| xa[i * kf + c]).collect();
                project_out_componentwise_constant(&mut xi, &self.top_labels, self.top_components);
                let x = permute_back(&xi, perm);
                let converged = final_rel <= tol;
                outcomes[j] = Some(SolveOutcome {
                    converged,
                    relative_residual: final_rel.min(rels[j]),
                    iterations: iterations[j] + 1,
                    x,
                    breakdown: if converged { None } else { breakdowns[j] },
                    recovery: Vec::new(),
                });
            }
        }
        resolved(outcomes)
    }
}

/// The outcome of every column, once each is resolved.
fn resolved(outcomes: Vec<Option<SolveOutcome>>) -> Vec<SolveOutcome> {
    outcomes
        .into_iter()
        .map(|o| o.expect("every column resolved"))
        .collect()
}

/// Gathers the listed columns of a row-major block of width `k` into a
/// dense row-major block of width `keep.len()` (the deflation compaction
/// step; a pure per-element copy, so it preserves every bitwise
/// contract).
fn compact_columns_rm(src: &[f64], k: usize, keep: &[usize]) -> Vec<f64> {
    assert!(k > 0);
    debug_assert_eq!(src.len() % k, 0);
    let n = src.len() / k;
    let ka = keep.len();
    if ka == 0 {
        return Vec::new();
    }
    let mut out = vec![0.0f64; n * ka];
    for (orow, row) in out.chunks_exact_mut(ka).zip(src.chunks_exact(k)) {
        for (o, &j) in orow.iter_mut().zip(keep) {
            *o = row[j];
        }
    }
    out
}

/// In-place [`compact_columns_rm`]: same per-element copies, no
/// allocation. The forward pass is safe because `keep` is strictly
/// ascending, so every write `buf[i·ka + w]` lands at or before the cell
/// it reads (`buf[i·k + c]` with `c ≥ w`, `k ≥ ka`) and before any cell a
/// later row still has to read.
pub(super) fn compact_columns_rm_inplace(buf: &mut Vec<f64>, k: usize, keep: &[usize]) {
    assert!(k > 0);
    debug_assert_eq!(buf.len() % k, 0);
    let ka = keep.len();
    if ka == k {
        return;
    }
    let n = buf.len() / k;
    for i in 0..n {
        for (w, &c) in keep.iter().enumerate() {
            buf[i * ka + w] = buf[i * k + c];
        }
    }
    buf.truncate(n * ka);
}

/// In-place compaction of a per-column scalar list (`v[w] ← v[keep[w]]`,
/// then truncate) — the deflation counterpart of
/// [`compact_columns_rm_inplace`] for the CG recurrence scalars.
pub(super) fn compact_scalars_inplace<T: Copy>(v: &mut Vec<T>, keep: &[usize]) {
    for (w, &c) in keep.iter().enumerate() {
        v[w] = v[c];
    }
    v.truncate(keep.len());
}

/// A [`Preconditioner`] view of a whole chain: one recursive preconditioner
/// application per call. Lets external iterative methods (e.g. the CG in
/// `parsdd-linalg`) use the chain directly.
pub struct ChainPreconditioner<'a> {
    chain: &'a SolverChain,
}

impl<'a> ChainPreconditioner<'a> {
    /// Wraps a chain as a preconditioner for its own top-level system.
    pub fn new(chain: &'a SolverChain) -> Self {
        ChainPreconditioner { chain }
    }
}

impl Preconditioner for ChainPreconditioner<'_> {
    fn dim(&self) -> usize {
        self.chain.top_matrix().n()
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        // External surface: callers work in the original vertex order, the
        // chain in its baked-in internal order — permute at the boundary.
        let rp = permute_into(r, &self.chain.top_perm);
        let mut out = Vec::new();
        self.chain.precondition_block_rm(&rp, 1, &mut out);
        z.copy_from_slice(&permute_back(&out, &self.chain.top_perm));
    }

    /// One recursive preconditioner application for a whole block — lets
    /// external blocked iterative methods (e.g.
    /// [`parsdd_linalg::cg::block_pcg_solve`]) drive the chain with the
    /// same once-per-block matrix streaming the chain's own solver uses
    /// (permuting and transposing only at this boundary).
    fn precondition_block(&self, r: &MultiVector, z: &mut MultiVector) {
        let perm = &self.chain.top_perm;
        let rp = gather_block_rm(r, perm);
        let mut out = Vec::new();
        self.chain.precondition_block_rm(&rp, r.ncols(), &mut out);
        scatter_block_rm(&out, perm, z);
    }
}
