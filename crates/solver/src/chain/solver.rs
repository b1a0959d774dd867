//! The built chain: its levels, the top-level solve (flexible PCG over
//! the W-cycle) and the [`Preconditioner`] view external solvers drive.

use std::sync::OnceLock;

use parsdd_graph::Graph;
use parsdd_linalg::block::MultiVector;
use parsdd_linalg::breakdown::BreakdownReason;
use parsdd_linalg::operator::Preconditioner;
use parsdd_linalg::permuted::PermutedLevel;
use parsdd_linalg::vector::{
    colwise_dots_rm, project_out_componentwise_constant, project_out_componentwise_rows,
};

use super::cycle::{BottomSolver, ChainCycle};
use super::pcg::{compact_columns_rm_inplace, Answer, PcgScratch, Precond};
use super::{ChainOptions, Level0Decision, Precision};
use crate::elimination::EliminationTrace;
use crate::error::RecoveryStep;

/// One level of the preconditioner chain.
#[derive(Debug, Clone)]
pub struct ChainLevel {
    /// Vertex count of the level's system `A_i`.
    pub(super) n: usize,
    /// Edge count of `A_i`.
    pub(super) m: usize,
    /// Bytes the level's streamed matrix (merged diag+offdiag rows of
    /// `A_i` at its storage precision) reads per sweep.
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

    /// Storage precision of this level's streamed matrix.
    pub fn storage_precision(&self) -> Precision {
        self.storage_precision
    }

    /// Bytes this level's matrix streams per sparse sweep (coefficients +
    /// column indices + row offsets).
    pub fn stream_bytes(&self) -> usize {
        self.stream_bytes
    }

    /// Heap bytes this level keeps resident: its streamed matrix (a level
    /// holds no graph). The compiled elimination trace is excluded from
    /// the accounting.
    pub fn resident_bytes(&self) -> usize {
        self.stream_bytes
    }
}

/// A fully constructed preconditioner chain for a Laplacian system.
#[derive(Debug, Clone)]
pub struct SolverChain {
    pub(super) levels: Vec<ChainLevel>,
    /// Merged-row Laplacian of level 0 — the f64 operator the outer PCG
    /// multiplies by. `None` on depth-0 chains, whose top is the bottom.
    pub(super) top_matrix: Option<PermutedLevel>,
    /// [`bottom_graph`](Self::bottom_graph), rebuilt from
    /// `bottom_matrix` on first call.
    pub(super) bottom_graph: OnceLock<Graph>,
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

    /// The bottom-level graph `A_d`, in the bottom's internal order. The
    /// chain keeps only the bottom's matrix: the graph is rebuilt from it
    /// on first call ([`PermutedLevel::to_graph`]) and cached.
    pub fn bottom_graph(&self) -> &Graph {
        self.bottom_graph
            .get_or_init(|| self.bottom_matrix.to_graph(None))
    }

    /// The top-level graph in the caller's vertex ids, rebuilt from the
    /// top matrix: the input graph with parallel edges merged, bit for bit
    /// its `simplify()`, so [`build_chain`](super::build_chain) on it
    /// builds the chain it builds on the input.
    pub fn top_graph(&self) -> Graph {
        let mut ids = vec![0u32; self.top_perm.len()];
        for (v, &p) in self.top_perm.iter().enumerate() {
            ids[p as usize] = v as u32;
        }
        self.top_matrix().to_graph(Some(&ids))
    }

    /// Options the chain was built with.
    pub fn options(&self) -> &ChainOptions {
        &self.options
    }

    /// The f64 operator of the top level, which the outer PCG multiplies
    /// by: level 0's matrix, or the bottom's on a depth-0 chain.
    pub(crate) fn top_matrix(&self) -> &PermutedLevel {
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
    /// B`, each column to relative residual `tol`, with the chain's one
    /// block PCG (DESIGN.md §2.9). Columns are projected onto the range of
    /// `A` first. A chain of depth ≥ 1 preconditions with the recursive
    /// W-cycle (flexible Polak–Ribière β). A depth-0 chain preconditions
    /// with its bottom's fixed map — `D⁻¹` of an iterative bottom, or the
    /// direct factor — and runs to a tenth of `tol`, within `[1e-14,
    /// 1e-8]`. Either way the budget, the breakdown classification and the
    /// projection of the solution are the same.
    ///
    /// **Layout.** The boundary is the only place anything is permuted or
    /// transposed: right-hand sides are gathered into the chain's
    /// internal (bandwidth-reduced) row-major order on entry, solutions
    /// scattered back on exit. Every iteration in between is row-major in
    /// internal index space, and the matrix pass returns `pᵀAp` fused
    /// ([`PermutedLevel::fused_apply_dot_into`]).
    ///
    /// **Per-column convergence and deflation.** Each column carries its
    /// own PCG scalars and convergence state; stopped columns are frozen
    /// and compacted out of the working block. Each outcome is bitwise
    /// identical to a single [`solve`](Self::solve) of that column, at
    /// every block composition and pool width.
    ///
    /// The PCG state is allocated once per solve and reused across
    /// iterations, so together with the workspace-threaded W-cycle no
    /// per-*iteration* heap allocation remains on the sequential dispatch
    /// paths.
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
        let (precond, pcg_tol) = match &self.bottom {
            _ if !self.levels.is_empty() => (Precond::WCycle(self), tol),
            BottomSolver::Iterative(jacobi) => (
                Precond::Jacobi(&jacobi.inv_diag),
                Self::final_bottom_tol(tol),
            ),
            _ => (Precond::Bottom(self), Self::final_bottom_tol(tol)),
        };
        let mut s = PcgScratch::default();
        s.run(
            top_matrix,
            &rr,
            k,
            pcg_tol,
            max_iterations,
            precond,
            Answer::Final,
        );

        // Final residual check, one blocked product for every column that
        // ran; a zero column is solved by zero.
        let ran: Vec<usize> = (0..k).filter(|&j| s.bnorms[j] != 0.0).collect();
        let kf = ran.len();
        let mut outcomes: Vec<SolveOutcome> = (0..k)
            .map(|_| SolveOutcome {
                x: vec![0.0; n],
                iterations: 0,
                relative_residual: 0.0,
                converged: true,
                breakdown: None,
                recovery: Vec::new(),
            })
            .collect();
        if kf == 0 {
            return outcomes;
        }
        compact_columns_rm_inplace(&mut s.x, k, &ran);
        let xa = &s.x;
        let mut diff = vec![0.0f64; n * kf];
        top_matrix.apply_rowmajor(xa, &mut diff, kf);
        for (row, rrow) in diff.chunks_exact_mut(kf).zip(rr.chunks_exact(k)) {
            for (c, &j) in ran.iter().enumerate() {
                row[c] = rrow[j] - row[c];
            }
        }
        let rn = colwise_dots_rm(&diff, &diff, kf);
        for (c, &j) in ran.iter().enumerate() {
            let final_rel = rn[c].sqrt() / s.bnorms[j];
            // Boundary: project, then scatter back to original order.
            let mut xi: Vec<f64> = (0..n).map(|i| xa[i * kf + c]).collect();
            project_out_componentwise_constant(&mut xi, &self.top_labels, self.top_components);
            let converged = final_rel <= tol;
            outcomes[j] = SolveOutcome {
                converged,
                relative_residual: final_rel.min(s.rels[j]),
                iterations: s.iterations[j] + 1,
                x: permute_back(&xi, perm),
                breakdown: if converged { None } else { s.breakdowns[j] },
                recovery: Vec::new(),
            };
        }
        outcomes
    }
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
