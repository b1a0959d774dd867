//! The W-cycle: what one preconditioner application streams, its scratch
//! arena, the bottom solvers and the recursion itself.

use std::sync::Mutex;

use parsdd_linalg::permuted::PermutedLevel;
use parsdd_linalg::vector::{
    project_out_componentwise_constant, project_out_componentwise_rows_with,
};
use parsdd_linalg::{Scalar, SparseLdl};

use super::pcg::{Answer, PcgScratch, Precond};
use super::{ChainLevel, SolverChain};
use crate::elimination::CompiledTrace;

/// The bottom-of-chain solver (Fact 6.4, with an iterative fallback for
/// oversized bottoms).
#[derive(Debug, Clone)]
pub(super) enum BottomSolver {
    /// Sparse LDLᵀ factorisation in minimum-degree order — the paper's
    /// direct bottom factor, storing and streaming only its fill (the
    /// recursion solves the bottom `∏k_i` times per preconditioner
    /// application, so this stream is a large share of the application's
    /// byte budget). The factor lives in the chain's [`Cycle`], at its
    /// storage precision.
    Direct,
    /// Jacobi-preconditioned CG on the bottom's merged-row matrix
    /// (fallback when the bottom's factor would store more than
    /// [`ChainOptions::direct_bottom_entry_limit`](super::ChainOptions::direct_bottom_entry_limit)
    /// entries). Inside a preconditioner application it stops at the
    /// loose [`SolverChain::PRECOND_BOTTOM_TOL`]; see DESIGN.md §2.9.
    Iterative(JacobiBottom),
    /// The bottom graph has no edges; the solution is zero.
    Trivial,
}

/// Build-time state of the iterative bottom.
#[derive(Debug, Clone)]
pub(super) struct JacobiBottom {
    /// `1 / deg(v)` of the bottom matrix (1 for isolated vertices, as in
    /// [`parsdd_linalg::jacobi::JacobiPreconditioner`]).
    pub(super) inv_diag: Vec<f64>,
    /// Iterations one seeded probe solve took at
    /// [`SolverChain::PRECOND_BOTTOM_TOL`] at build time — the per-solve
    /// iteration count the work model charges.
    pub(super) probe_iterations: usize,
}

impl JacobiBottom {
    /// Seed offset of the probe's right-hand side.
    pub(super) const PROBE_SEED: u64 = 0xb077_0000;

    /// Iteration budget of one solve on an `n`-vertex matrix.
    fn budget(n: usize) -> usize {
        (2 * n).clamp(100, 4000)
    }

    /// Caches `D⁻¹` of the bottom matrix and runs the work model's probe:
    /// one solve of a seeded right-hand side, projected onto the range
    /// componentwise, at [`SolverChain::PRECOND_BOTTOM_TOL`], for at most
    /// `cap` iterations (the solve budget when larger). Returns the bottom,
    /// whose `probe_iterations` is the probe's count, and whether the
    /// probe converged within the cap.
    pub(super) fn probe(
        matrix: &PermutedLevel,
        labels: &[u32],
        components: usize,
        seed: u64,
        cap: usize,
    ) -> (Self, bool) {
        let inv_diag: Vec<f64> = (0..matrix.n())
            .map(|v| {
                let d = matrix.diag(v);
                if d.abs() > 0.0 {
                    1.0 / d
                } else {
                    1.0
                }
            })
            .collect();
        let mut b: Vec<f64> = (0..matrix.n() as u64)
            .map(|i| 2.0 * parsdd_graph::generators::counter_unit(seed, i) - 1.0)
            .collect();
        project_out_componentwise_constant(&mut b, labels, components);
        let mut s = PcgScratch::default();
        let tol = SolverChain::PRECOND_BOTTOM_TOL;
        let cap = cap.min(Self::budget(matrix.n()));
        s.run(
            matrix,
            &b,
            1,
            tol,
            cap,
            Precond::Jacobi(&inv_diag),
            Answer::Inner,
        );
        let (probe_iterations, converged) = s.single_outcome(tol, cap);
        let bottom = JacobiBottom {
            inv_diag,
            probe_iterations,
        };
        (bottom, converged)
    }
}

/// Per-level elimination-frame buffers of one in-flight W-cycle
/// application: the `precondition` call at level `i` owns entry `i` for
/// the duration of its forward-eliminate / recurse / back-substitute
/// sandwich.
#[derive(Debug, Default)]
struct ElimScratch<T> {
    /// Reduced right-hand side (`n_{i+1}·k`).
    reduced: Vec<T>,
    /// Forward-pass working rhs (`n_i·k`), kept for back-substitution.
    work: Vec<T>,
    /// Solution of the reduced system (`n_{i+1}·k`).
    y: Vec<T>,
    /// `k`-wide row temp for streaming the elimination trace.
    row: Vec<T>,
}

/// Per-level inner-iteration buffers: the Chebyshev sweep at level `i`
/// owns entry `i` while it iterates (its recursive preconditioner calls
/// use the elimination frame of the *same* level and the iteration frames
/// of the levels *below*, so both frames of one level are live at once —
/// hence two arrays, not one).
#[derive(Debug, Default)]
struct IterScratch<T> {
    r: Vec<T>,
    p: Vec<T>,
    z: Vec<T>,
}

/// Bottom-solve buffers: the rhs copy and componentwise-projection
/// accumulators of the direct bottom at the cycle's precision, and the
/// f64 staging of the iterative bottom — its rhs widened from the cycle's
/// precision and projection sums — plus its PCG state, which holds the
/// solution.
#[derive(Debug, Default)]
struct BottomScratch<T> {
    rhs: Vec<T>,
    proj_sums: Vec<T>,
    proj_sizes: Vec<usize>,
    wide_rhs: Vec<f64>,
    wide_sums: Vec<f64>,
    pcg: PcgScratch,
}

/// One checked-out set of scratch buffers for a chain application at the
/// cycle's precision `T`. All buffers start empty and grow to their
/// steady-state size on the first application ("warming" the arena);
/// after that a W-cycle performs no heap allocation on the sequential
/// kernel dispatch paths. Buffers are sized per use but **not** cleared —
/// every kernel either overwrites its output completely or
/// (back-substitution) provably writes each entry before reading it, so
/// stale contents from a previous application are unobservable; see
/// DESIGN.md §2.6.
#[derive(Debug, Default)]
struct ChainWorkspace<T> {
    /// Indexed by the level running its elimination sandwich.
    elim: Vec<ElimScratch<T>>,
    /// Indexed by the level running its inner iteration (entry 0 is
    /// unused — the adaptive outer PCG drives level 0 with its own
    /// locals).
    iter: Vec<IterScratch<T>>,
    bottom: BottomScratch<T>,
    /// The f64-facing shim's staging when `T` is narrower: the residual
    /// narrowed in, the correction before it is widened out.
    shim_in: Vec<T>,
    shim_out: Vec<T>,
}

/// Checkout pool of [`ChainWorkspace`]s: one per concurrent application,
/// recycled through a mutex-guarded free list (two uncontended lock ops
/// per application). Cloning a chain clones none of the scratch — the
/// clone starts with an empty pool and warms its own.
struct WorkspacePool<T>(Mutex<Vec<ChainWorkspace<T>>>);

impl<T> Clone for WorkspacePool<T> {
    fn clone(&self) -> Self {
        WorkspacePool(Mutex::new(Vec::new()))
    }
}

impl<T> std::fmt::Debug for WorkspacePool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.0.lock().map(|v| v.len()).unwrap_or(0);
        write!(f, "WorkspacePool({held} idle)")
    }
}

/// What one preconditioner application streams below the outer PCG, all
/// at the chain's storage precision `T`, with the scratch arena it runs
/// on. One W-cycle, generic over `T`, runs on it.
#[derive(Debug, Clone)]
pub(super) struct Cycle<T> {
    /// Merged-row matrix of level `i ≥ 1` at index `i − 1` (level 0's
    /// stays f64 in [`SolverChain::top_matrix`]: the outer PCG measures
    /// true residuals through it).
    pub(super) matrices: Vec<PermutedLevel<T>>,
    /// Compiled elimination trace of every level.
    traces: Vec<CompiledTrace<T>>,
    /// The sparse factor of a [`BottomSolver::Direct`] bottom.
    pub(super) factor: Option<SparseLdl<T>>,
    /// Preallocated per-level scratch: applications check a workspace
    /// out, run on it, and return it, so the steady state allocates
    /// nothing per application.
    workspaces: WorkspacePool<T>,
}

impl<T: Scalar> Cycle<T> {
    /// Compiles every level's elimination trace at precision `T`, taking
    /// the level's recorded trace (the compiled form replaces it) one
    /// level at a time so the two forms never coexist for the whole chain.
    pub(super) fn new(
        matrices: Vec<PermutedLevel<T>>,
        levels: &mut [ChainLevel],
        factor: Option<SparseLdl<T>>,
    ) -> Self {
        let traces = levels
            .iter_mut()
            .map(|lvl| CompiledTrace::from_trace(lvl.trace.take().expect("compiled once")))
            .collect();
        for (lvl, m) in levels.iter_mut().skip(1).zip(&matrices) {
            lvl.stream_bytes = m.stream_bytes();
        }
        Cycle {
            matrices,
            traces,
            factor,
            workspaces: WorkspacePool(Mutex::new(Vec::new())),
        }
    }

    /// Checks a workspace out of the pool (allocating an *empty* one only
    /// when the pool is dry — its buffers grow to steady-state size during
    /// the first application), runs `f` on it, and returns it. Concurrent
    /// applications each get their own workspace; a panic inside `f`
    /// simply drops the checked-out workspace.
    fn with_workspace<R>(&self, f: impl FnOnce(&mut ChainWorkspace<T>) -> R) -> R {
        let mut ws = self
            .workspaces
            .0
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_else(|| {
                let d = self.traces.len();
                ChainWorkspace {
                    elim: (0..d).map(|_| ElimScratch::default()).collect(),
                    iter: (0..d).map(|_| IterScratch::default()).collect(),
                    ..ChainWorkspace::default()
                }
            });
        let out = f(&mut ws);
        self.workspaces
            .0
            .lock()
            .expect("workspace pool poisoned")
            .push(ws);
        out
    }
}

/// A chain's [`Cycle`] at its storage precision (see
/// [`Precision`](super::Precision)). A depth-0 chain has no cycle to
/// demote and is always `F64`.
#[derive(Debug, Clone)]
pub(super) enum ChainCycle {
    F64(Cycle<f64>),
    F32(Cycle<f32>),
}

impl SolverChain {
    /// Relative residual at which an iterative bottom solve that feeds a
    /// preconditioner application stops. The recursion needs only a
    /// constant-factor solve there (rPCh, Lemma 6.7): the outer flexible
    /// PCG absorbs the inexactness, and the Chebyshev calibration
    /// measures the recursion with it. 1e-1 is too loose for f32 chains
    /// (DESIGN.md §2.9).
    pub(super) const PRECOND_BOTTOM_TOL: f64 = 3e-2;

    /// Loosest tolerance of a depth-0 chain's solve (see
    /// [`final_bottom_tol`](Self::final_bottom_tol)).
    const MAX_FINAL_BOTTOM_TOL: f64 = 1e-8;

    /// Tolerance a depth-0 chain's solve runs its PCG to at caller
    /// tolerance `tol`: a tenth of it, within `[1e-14,
    /// MAX_FINAL_BOTTOM_TOL]`.
    pub(super) fn final_bottom_tol(tol: f64) -> f64 {
        (tol * 0.1).clamp(1e-14, Self::MAX_FINAL_BOTTOM_TOL)
    }

    /// Applies the full preconditioner `B₀⁻¹` to `k` row-major right-hand
    /// sides in **internal** (chain) index order, writing into `out`.
    /// Once the chain's scratch arena is warm (one prior application of
    /// the same or larger width), this performs zero heap allocation on
    /// the sequential kernel dispatch paths — the contract pinned by
    /// `tests/alloc.rs`. On a depth-0 chain the application is the bottom
    /// solve, to a loose 3e-2 when iterative.
    pub fn precondition_block_rm(&self, rr: &[f64], k: usize, out: &mut Vec<f64>) {
        if !self.levels.is_empty() {
            return self.precondition_rm_into(0, rr, k, out);
        }
        let ChainCycle::F64(cycle) = &self.cycle else {
            unreachable!("a depth-0 chain keeps its f64 bottom")
        };
        cycle.with_workspace(|ws| self.bottom_solve(cycle, rr, k, out, &mut ws.bottom));
    }

    /// The bottom solve at the cycle's precision. The direct bottom
    /// projects and solves at `T`; the trivial bottom zeroes. The
    /// iterative bottom runs at f64: it widens the right-hand side into
    /// the scratch's f64 staging, projects and runs Jacobi-PCG there to
    /// [`PRECOND_BOTTOM_TOL`](Self::PRECOND_BOTTOM_TOL), and narrows the
    /// solution back.
    fn bottom_solve<T: Scalar>(
        &self,
        cycle: &Cycle<T>,
        br: &[T],
        k: usize,
        out: &mut Vec<T>,
        s: &mut BottomScratch<T>,
    ) {
        let (labels, count) = (&self.bottom_labels, self.bottom_components);
        match &self.bottom {
            BottomSolver::Trivial => {
                out.clear();
                out.resize(br.len(), T::ZERO);
            }
            BottomSolver::Direct => {
                s.rhs.clear();
                s.rhs.extend_from_slice(br);
                project_out_componentwise_rows_with(
                    &mut s.rhs,
                    k,
                    labels,
                    count,
                    &mut s.proj_sums,
                    &mut s.proj_sizes,
                );
                let factor = cycle.factor.as_ref().expect("a direct bottom has a factor");
                factor.solve_rowmajor_into(&s.rhs, k, out);
            }
            BottomSolver::Iterative(jacobi) => {
                s.wide_rhs.clear();
                s.wide_rhs.extend(br.iter().map(|&v| v.into()));
                project_out_componentwise_rows_with(
                    &mut s.wide_rhs,
                    k,
                    labels,
                    count,
                    &mut s.wide_sums,
                    &mut s.proj_sizes,
                );
                let (m, tol) = (&self.bottom_matrix, Self::PRECOND_BOTTOM_TOL);
                let budget = JacobiBottom::budget(m.n());
                let jacobi = Precond::Jacobi(&jacobi.inv_diag);
                s.pcg
                    .run(m, &s.wide_rhs, k, tol, budget, jacobi, Answer::Inner);
                out.clear();
                out.extend(s.pcg.x.iter().map(|&v| T::from_f64(v)));
            }
        }
    }

    /// Applies the level-`i` preconditioner `B_i⁻¹ R` to `k` row-major
    /// right-hand sides into `out`: forward-eliminate, recursively solve
    /// `A_{i+1}` with the W-cycle, back-substitute — the elimination trace
    /// and every matrix below are streamed once per block, and every step
    /// touches contiguous k-wide rows. It runs on a workspace checked out
    /// of the cycle's pool. This is the only place
    /// the W-cycle changes precision: an f32 chain narrows the residual
    /// once here, runs the whole cycle below on f32 vectors, and widens
    /// the correction once on the way out. The outer iteration keeps
    /// measuring true f64 residuals through the f64 top operator, so the
    /// narrowing only perturbs the preconditioner — which the flexible
    /// PCG absorbs.
    pub(super) fn precondition_rm_into(
        &self,
        level: usize,
        rr: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) {
        match &self.cycle {
            ChainCycle::F64(cycle) => cycle.with_workspace(|ws| {
                let (elim, iter) = (&mut ws.elim[level..], &mut ws.iter[level + 1..]);
                self.precondition(cycle, level, rr, k, out, elim, iter, &mut ws.bottom);
            }),
            ChainCycle::F32(cycle) => cycle.with_workspace(|ws| {
                ws.shim_in.clear();
                ws.shim_in.extend(rr.iter().map(|&v| v as f32));
                let (elim, iter) = (&mut ws.elim[level..], &mut ws.iter[level + 1..]);
                let (rr32, out32) = (&ws.shim_in, &mut ws.shim_out);
                self.precondition(cycle, level, rr32, k, out32, elim, iter, &mut ws.bottom);
                out.clear();
                out.extend(ws.shim_out.iter().map(|&v| f64::from(v)));
            }),
        }
    }

    /// The W-cycle's preconditioner application at level `level` and
    /// precision `T`. `elim_ws` holds the elimination frames of this level
    /// and below (`levels.len() − level` entries), `iter_ws` the
    /// inner-iteration frames strictly below (`levels.len() − level − 1`
    /// entries); each recursion step peels its own frame off the front,
    /// so frames of distinct in-flight levels never alias.
    ///
    /// Below the level's elimination, level `i + 1` is solved by its fixed
    /// Chebyshev sweep or, below the last level, by the bottom solver.
    /// Uniform at every level — the top level's adaptive outer PCG is the
    /// only special case. Every column's arithmetic is exactly the
    /// `k = 1` cycle's, so `solve_many` answers match looped `solve` calls
    /// bitwise.
    #[allow(clippy::too_many_arguments)]
    fn precondition<T: Scalar>(
        &self,
        cycle: &Cycle<T>,
        level: usize,
        rr: &[T],
        k: usize,
        out: &mut Vec<T>,
        elim_ws: &mut [ElimScratch<T>],
        iter_ws: &mut [IterScratch<T>],
        bottom: &mut BottomScratch<T>,
    ) {
        let (mine, elim_rest) = elim_ws
            .split_first_mut()
            .expect("elimination frame per level");
        let trace = &cycle.traces[level];
        trace.forward_rhs_rowmajor_into(rr, k, &mut mine.reduced, &mut mine.work, &mut mine.row);
        if level + 1 == self.levels.len() {
            self.bottom_solve(cycle, &mine.reduced, k, &mut mine.y, bottom);
        } else {
            let (reduced, y) = (&mine.reduced, &mut mine.y);
            self.chebyshev_fixed(cycle, level + 1, reduced, k, y, iter_ws, elim_rest, bottom);
        }
        trace.back_substitute_rowmajor_into(&mine.work, &mine.y, k, out, &mut mine.row);
    }

    /// Fixed-iteration preconditioned Chebyshev on a row-major block at a
    /// given level (the rPCh inner iteration of Lemma 6.7), `k_i` steps at
    /// the cycle's precision. The recurrence scalars depend only on the
    /// level's calibrated interval, so the whole block shares them; they
    /// stay f64 — O(iterations) scalar operations whose accuracy steers
    /// the polynomial — and each is rounded to `T` once per iteration for
    /// the vector updates. Each iteration is **two** passes plus the
    /// recursion: the `p ← z + β·p` elementwise update, and one fused
    /// matrix sweep ([`PermutedLevel::cheb_fused_sweep`]) that applies
    /// `x ← x + α·p`, `r ← r − α·(A p)` while streaming the level's merged
    /// rows once — `A·p` is never materialised. (The unfused form was
    /// five passes: p-update, x-axpy, SpMV write, r-axpy read, plus the
    /// separate diag stream.) Per-element arithmetic is identical at every
    /// block width and pool width.
    #[allow(clippy::too_many_arguments)]
    fn chebyshev_fixed<T: Scalar>(
        &self,
        cycle: &Cycle<T>,
        level: usize,
        br: &[T],
        k: usize,
        out: &mut Vec<T>,
        iter_ws: &mut [IterScratch<T>],
        elim_ws: &mut [ElimScratch<T>],
        bottom: &mut BottomScratch<T>,
    ) {
        let lvl = &self.levels[level];
        // Spectrum bounds of the effective preconditioned operator,
        // calibrated at build time (see `calibrate_chebyshev_bounds`).
        let (lambda_min, lambda_max) = lvl.cheb_bounds;
        let theta = 0.5 * (lambda_max + lambda_min);
        let delta = 0.5 * (lambda_max - lambda_min);
        let (mine, iter_rest) = iter_ws
            .split_first_mut()
            .expect("iteration frame per level");
        // The accumulator starts at zero (semantic, not hygiene); r is a
        // copy of the rhs; p is fully overwritten before first read.
        out.clear();
        out.resize(br.len(), T::ZERO);
        mine.r.clear();
        mine.r.extend_from_slice(br);
        let matrix = &cycle.matrices[level - 1];
        mine.p.resize(br.len(), T::ZERO);
        let mut alpha = 0.0f64;
        for it in 0..lvl.inner_iterations {
            self.precondition(
                cycle,
                level,
                &mine.r,
                k,
                &mut mine.z,
                elim_ws,
                iter_rest,
                bottom,
            );
            if it == 0 {
                mine.p.copy_from_slice(&mine.z);
                alpha = 1.0 / theta;
            } else {
                let beta = if it == 1 {
                    0.5 * (delta * alpha) * (delta * alpha)
                } else {
                    (delta * alpha / 2.0) * (delta * alpha / 2.0)
                };
                alpha = 1.0 / (theta - beta / alpha);
                let beta = T::from_f64(beta);
                for (pi, &zi) in mine.p.iter_mut().zip(&mine.z) {
                    *pi = zi + beta * *pi;
                }
            }
            matrix.cheb_fused_sweep(alpha, &mine.p, out, &mut mine.r, k);
        }
    }
}
