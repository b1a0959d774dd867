//! `SDDSolve` — the top-level solver of Theorem 1.1.
//!
//! [`SddSolver`] accepts either a graph Laplacian (given as a
//! [`parsdd_graph::Graph`]) or a general SDD matrix (given as a
//! [`parsdd_linalg::CsrMatrix`], reduced to a Laplacian by Gremban's
//! reduction), builds the preconditioner chain once, and then answers any
//! number of right-hand sides to the requested accuracy
//! `‖x̃ − A⁺b‖_A ≤ ε·‖A⁺b‖_A`.
//!
//! Two front doors share the one chain and one blocked solve loop:
//!
//! * the infallible API ([`SddSolver::new_laplacian`],
//!   [`SddSolver::solve`], …) panics on malformed input and reports
//!   non-convergence through [`SolveOutcome::converged`];
//! * the fallible API ([`SddSolver::try_new_laplacian`],
//!   [`SddSolver::try_solve`], …) classifies every failure as a typed
//!   [`BuildError`] / [`SolveError`] and, when an iteration breaks down or
//!   runs out of budget, escalates through a deterministic **recovery
//!   ladder** (DESIGN.md §2.5) before giving up: iterate refresh with the
//!   existing chain, then a one-rung-stronger chain (built once, cached),
//!   then a direct sparse factorisation of the whole system (small
//!   systems only). Every attempted rung is recorded in
//!   [`SolveOutcome::recovery`].

use std::convert::Infallible;
use std::sync::OnceLock;

use parsdd_graph::Graph;
use parsdd_linalg::block::MultiVector;
use parsdd_linalg::csr::CsrMatrix;
use parsdd_linalg::sdd::GrembanReduction;
use parsdd_linalg::vector::norm2;

use crate::chain::{
    build_chain, build_solver_chain, ChainOptions, ChainQuality, ChainStats, SolveOutcome,
    SolverChain,
};
use crate::error::{BuildError, RecoveryRung, RecoveryStep, SolveError};

/// Widest block `solve_many` hands to the chain at once: bounds the
/// working-set memory (every chain level holds a handful of `n × k`
/// temporaries) while still amortising one matrix stream over up to 32
/// right-hand sides. Larger requests are processed in chunks of this width.
pub const MAX_BLOCK_WIDTH: usize = 32;

/// A right-hand side whose entries sum (per connected component) to more
/// than this fraction of `‖b‖₂` is outside the range of the singular
/// system — `A x = b` has no solution there, so the fallible front door
/// rejects it as [`SolveError::SingularSystem`] instead of silently
/// solving the projected system.
const SINGULAR_IMBALANCE_TOL: f64 = 1e-8;

/// Largest system the recovery ladder will factor directly (sparse LDLᵀ
/// of the whole matrix, with no cap on its fill) as its last resort.
/// Beyond this the direct rung is skipped — the fill of a big system's
/// factor would dwarf any iterative cost it rescues.
const DIRECT_RECOVERY_LIMIT: usize = 20_000;

/// Options of the top-level solver.
#[derive(Debug, Clone, Copy)]
pub struct SddSolverOptions {
    /// Chain construction options.
    pub chain: ChainOptions,
    /// Relative residual tolerance (a practical surrogate for the
    /// `A`-norm bound of Theorem 1.1; the two are within a factor of the
    /// square root of the condition number).
    pub tolerance: f64,
    /// Maximum number of outer (top-level) iterations.
    pub max_iterations: usize,
}

impl Default for SddSolverOptions {
    fn default() -> Self {
        let mut chain = ChainOptions::default();
        // Process-wide CI hook (see [`crate::chain::Precision::from_env`]):
        // with `PARSDD_PRECISION` unset — every normal run — this is
        // exactly `ChainOptions::default()`, so the determinism-pinned
        // default path is untouched. The thread-matrix CI job sets
        // `PARSDD_PRECISION=f32` to drive the apps suite through the
        // mixed-precision tier end to end.
        if let Some(p) = crate::chain::Precision::from_env() {
            chain.precision = p;
        }
        SddSolverOptions {
            chain,
            tolerance: 1e-8,
            max_iterations: 200,
        }
    }
}

impl SddSolverOptions {
    /// Sets the tolerance.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets the chain options.
    pub fn with_chain(mut self, chain: ChainOptions) -> Self {
        self.chain = chain;
        self
    }

    /// Returns a copy with every out-of-range field clamped: non-finite or
    /// negative tolerances fall back to the default (`0.0` stays legal —
    /// it means "run the full iteration budget"), a zero iteration budget
    /// becomes one, and the chain options are
    /// [`ChainOptions::sanitized`]. Solver construction applies this, so
    /// bad options are caught here instead of diverging deep in
    /// `build_chain`.
    pub fn sanitized(&self) -> Self {
        let mut o = *self;
        if !o.tolerance.is_finite() || o.tolerance < 0.0 {
            o.tolerance = SddSolverOptions::default().tolerance;
        }
        o.max_iterations = o.max_iterations.max(1);
        o.chain = o.chain.sanitized();
        o
    }
}

/// How the input system was given.
enum Problem {
    /// A Laplacian system on a graph.
    Laplacian,
    /// A general SDD system, reduced to a Laplacian via Gremban.
    Sdd(GrembanReduction),
}

/// The top-level SDD solver (Theorem 1.1): build once, solve many.
pub struct SddSolver {
    problem: Problem,
    chain: SolverChain,
    options: SddSolverOptions,
    original_dim: usize,
    /// The graph the chain was built from (the Gremban graph for SDD
    /// problems) — the recovery ladder rebuilds chains from it.
    source_graph: Graph,
    /// Rung-2 chain (one rung stronger), built on first use and reused
    /// across every subsequent recovery.
    stronger: OnceLock<SolverChain>,
    /// Rung-3 chain (direct sparse factor of the whole system), built on
    /// first use; only populated for systems up to
    /// [`DIRECT_RECOVERY_LIMIT`].
    direct: OnceLock<SolverChain>,
}

impl SddSolver {
    /// Builds a solver for the Laplacian of `g`. Options are
    /// [`SddSolverOptions::sanitized`] first.
    ///
    /// Level 0 is cut here, because only the solver knows its tolerance
    /// (DESIGN.md §2.10): a capped Jacobi-PCG probe on the input decides
    /// between Jacobi-PCG (a depth-0 chain with an iterative bottom) and
    /// the chain [`build_chain`] builds, bit for bit. The decision is
    /// recorded in [`ChainQuality::level0`].
    pub fn new_laplacian(g: &Graph, options: SddSolverOptions) -> Self {
        let options = options.sanitized();
        let chain = build_solver_chain(g, &options.chain, options.tolerance);
        SddSolver {
            problem: Problem::Laplacian,
            chain,
            options,
            original_dim: g.n(),
            source_graph: g.clone(),
            stronger: OnceLock::new(),
            direct: OnceLock::new(),
        }
    }

    /// Fallible counterpart of [`new_laplacian`](Self::new_laplacian):
    /// rejects an empty graph and re-validates the edge data (graphs built
    /// with the unchecked constructor can smuggle non-finite or
    /// non-positive weights this deep) instead of panicking or silently
    /// building a poisoned chain.
    pub fn try_new_laplacian(g: &Graph, options: SddSolverOptions) -> Result<Self, BuildError> {
        if g.n() == 0 {
            return Err(BuildError::EmptyGraph);
        }
        Graph::validated(g.n(), g.edges().to_vec())?;
        Ok(Self::new_laplacian(g, options))
    }

    /// Builds a solver for a general SDD matrix via Gremban's reduction.
    ///
    /// Panics if the matrix is not symmetric diagonally dominant.
    pub fn new_sdd(a: &CsrMatrix, options: SddSolverOptions) -> Self {
        let reduction = GrembanReduction::new(a, 1e-14);
        Self::from_reduction(reduction, a.rows(), options)
    }

    /// Fallible counterpart of [`new_sdd`](Self::new_sdd): classifies a
    /// non-square matrix, non-finite entries, and rows that are not
    /// diagonally dominant as [`BuildError::InvalidMatrix`] instead of
    /// panicking.
    pub fn try_new_sdd(a: &CsrMatrix, options: SddSolverOptions) -> Result<Self, BuildError> {
        if a.rows() == 0 {
            return Err(BuildError::EmptyGraph);
        }
        let reduction = GrembanReduction::try_new(a, 1e-14)?;
        Ok(Self::from_reduction(reduction, a.rows(), options))
    }

    fn from_reduction(reduction: GrembanReduction, dim: usize, options: SddSolverOptions) -> Self {
        let options = options.sanitized();
        let chain = build_solver_chain(reduction.graph(), &options.chain, options.tolerance);
        let source_graph = reduction.graph().clone();
        SddSolver {
            original_dim: dim,
            problem: Problem::Sdd(reduction),
            chain,
            options,
            source_graph,
            stronger: OnceLock::new(),
            direct: OnceLock::new(),
        }
    }

    /// Dimension of the original system.
    pub fn dim(&self) -> usize {
        self.original_dim
    }

    /// The underlying preconditioner chain: depth 0 with an iterative
    /// bottom when the level-0 cut chose Jacobi-PCG.
    pub fn chain(&self) -> &SolverChain {
        &self.chain
    }

    /// Chain statistics (level sizes, κ's, recursion width).
    pub fn stats(&self) -> ChainStats {
        self.chain.stats()
    }

    /// The chain's quality report, the level-0 decision included.
    pub fn quality(&self) -> ChainQuality {
        self.chain.quality()
    }

    /// Solves `A x = b` to the configured tolerance.
    pub fn solve(&self, b: &[f64]) -> SolveOutcome {
        self.solve_with_tolerance(b, self.options.tolerance)
    }

    /// Solves with an explicit tolerance override — the `k = 1` case of
    /// [`solve_many_with_tolerance`](Self::solve_many_with_tolerance).
    pub fn solve_with_tolerance(&self, b: &[f64], tol: f64) -> SolveOutcome {
        self.solve_many_with_tolerance(&[b], tol)
            .pop()
            .expect("one column")
    }

    /// Solves `A x_i = b_i` for many right-hand sides against the one
    /// prebuilt chain, to the configured tolerance.
    ///
    /// The right-hand sides travel through the solver as column blocks of
    /// up to [`MAX_BLOCK_WIDTH`], so every chain level's sparse matrix,
    /// elimination trace and dense bottom factor is streamed **once per
    /// block** instead of once per vector — the per-RHS memory traffic the
    /// single-vector loop pays drops by the block width. Each column keeps
    /// its own convergence state (converged columns deflate out of the
    /// block), and the batched answers are **bitwise identical** to
    /// calling [`solve`](Self::solve) in a loop, at every pool width —
    /// `solve` itself is just the `k = 1` case of this code path.
    pub fn solve_many(&self, bs: &[Vec<f64>]) -> Vec<SolveOutcome> {
        self.solve_many_with_tolerance(bs, self.options.tolerance)
    }

    /// [`solve_many`](Self::solve_many) with an explicit tolerance
    /// override (the blocked counterpart of
    /// [`solve_with_tolerance`](Self::solve_with_tolerance)).
    /// Each right-hand side is anything that views as `&[f64]`.
    pub fn solve_many_with_tolerance<C: AsRef<[f64]>>(
        &self,
        bs: &[C],
        tol: f64,
    ) -> Vec<SolveOutcome> {
        for b in bs {
            assert_eq!(
                b.as_ref().len(),
                self.original_dim,
                "rhs dimension mismatch"
            );
        }
        let Ok(out) = self.solve_blocked(bs, tol, |_, _, o| Ok::<_, Infallible>(o));
        out
    }

    /// The blocked solve loop both front doors run: right-hand sides go
    /// to the chain in chunks of up to [`MAX_BLOCK_WIDTH`] columns, reduced
    /// to chain space first (Gremban's reduction for SDD problems). Each
    /// column's chain-space rhs and outcome pass through `finish` in
    /// order, with the column's index; the first error it returns stops
    /// the loop. Accepted outcomes are mapped back to the original system.
    fn solve_blocked<C: AsRef<[f64]>, E>(
        &self,
        bs: &[C],
        tol: f64,
        mut finish: impl FnMut(usize, &[f64], SolveOutcome) -> Result<SolveOutcome, E>,
    ) -> Result<Vec<SolveOutcome>, E> {
        let mut out = Vec::with_capacity(bs.len());
        for chunk in bs.chunks(MAX_BLOCK_WIDTH) {
            let reduced: Vec<Vec<f64>>;
            let cols: Vec<&[f64]> = match &self.problem {
                Problem::Laplacian => chunk.iter().map(AsRef::as_ref).collect(),
                Problem::Sdd(reduction) => {
                    reduced = chunk
                        .iter()
                        .map(|b| reduction.reduce_rhs(b.as_ref()))
                        .collect();
                    reduced.iter().map(Vec::as_slice).collect()
                }
            };
            let block = MultiVector::from_columns(&cols);
            let solved = self
                .chain
                .solve_block(&block, tol, self.options.max_iterations);
            for (b, o) in cols.iter().zip(solved) {
                let o = finish(out.len(), b, o)?;
                out.push(self.original_outcome(o));
            }
        }
        Ok(out)
    }

    /// Maps a chain-space outcome back to the original system (recovers
    /// the SDD solution from the Gremban one; identity on Laplacians).
    fn original_outcome(&self, o: SolveOutcome) -> SolveOutcome {
        match &self.problem {
            Problem::Laplacian => o,
            Problem::Sdd(reduction) => SolveOutcome {
                x: reduction.recover_solution(&o.x),
                ..o
            },
        }
    }

    /// Fallible [`solve`](Self::solve): classifies bad input as a typed
    /// [`SolveError`] before any iteration runs, and escalates through the
    /// recovery ladder on breakdown or non-convergence. On success the
    /// outcome always has `converged == true`; any rungs that were needed
    /// are recorded in [`SolveOutcome::recovery`].
    pub fn try_solve(&self, b: &[f64]) -> Result<SolveOutcome, SolveError> {
        self.try_solve_with_tolerance(b, self.options.tolerance)
    }

    /// [`try_solve`](Self::try_solve) with an explicit tolerance override.
    pub fn try_solve_with_tolerance(
        &self,
        b: &[f64],
        tol: f64,
    ) -> Result<SolveOutcome, SolveError> {
        self.try_solve_many_with_tolerance(&[b], tol)
            .map(|mut outs| outs.pop().expect("one column"))
    }

    /// Fallible [`solve_many`](Self::solve_many): validates every
    /// right-hand side up front (dimensions, finiteness, component
    /// balance), then solves in blocks, running the recovery ladder on any
    /// column that does not converge. Fails fast with the first column
    /// that is unusable or unrecoverable.
    pub fn try_solve_many<C: AsRef<[f64]>>(
        &self,
        bs: &[C],
    ) -> Result<Vec<SolveOutcome>, SolveError> {
        self.try_solve_many_with_tolerance(bs, self.options.tolerance)
    }

    /// [`try_solve_many`](Self::try_solve_many) with an explicit tolerance
    /// override. Each right-hand side is anything that views as `&[f64]`.
    pub fn try_solve_many_with_tolerance<C: AsRef<[f64]>>(
        &self,
        bs: &[C],
        tol: f64,
    ) -> Result<Vec<SolveOutcome>, SolveError> {
        for (j, b) in bs.iter().enumerate() {
            let b = b.as_ref();
            if b.len() != self.original_dim {
                return Err(SolveError::DimensionMismatch {
                    expected: self.original_dim,
                    got: b.len(),
                    column: j,
                });
            }
            if let Some(i) = b.iter().position(|v| !v.is_finite()) {
                return Err(SolveError::NonFiniteRhs {
                    column: j,
                    index: i,
                });
            }
        }
        // Singular systems: a Laplacian's kernel is spanned by the
        // component indicators, so a right-hand side with a nonzero sum on
        // any component has no solution — reject it instead of silently
        // solving its projection. (An SDD system through Gremban's
        // reduction produces a balanced reduced right-hand side by
        // construction, so no check is needed there.)
        if matches!(self.problem, Problem::Laplacian) {
            let labels = self.chain.component_labels();
            let ncomp = self.chain.components();
            for (j, b) in bs.iter().enumerate() {
                let b = b.as_ref();
                let bnorm = norm2(b);
                if bnorm == 0.0 {
                    continue;
                }
                let mut sums = vec![0.0f64; ncomp];
                for (&v, &l) in b.iter().zip(&labels) {
                    sums[l as usize] += v;
                }
                for (comp, &s) in sums.iter().enumerate() {
                    if s.abs() > SINGULAR_IMBALANCE_TOL * bnorm {
                        return Err(SolveError::SingularSystem {
                            column: j,
                            component: comp,
                            imbalance: s / bnorm,
                        });
                    }
                }
            }
        }
        self.solve_blocked(bs, tol, |column, b, mut o| {
            if !o.converged {
                o = self.recover(b, o, tol);
            }
            if o.converged {
                return Ok(o);
            }
            Err(match o.breakdown {
                Some(reason) => SolveError::Breakdown {
                    column,
                    reason,
                    relative_residual: o.relative_residual,
                    recovery: o.recovery,
                },
                None => SolveError::BudgetExhausted {
                    column,
                    relative_residual: o.relative_residual,
                    recovery: o.recovery,
                },
            })
        })
    }

    /// The deterministic recovery ladder (DESIGN.md §2.5). `b` is in chain
    /// space (the Gremban rhs for SDD problems); `first` is the failed
    /// first attempt. Escalates rung by rung, keeps the best iterate by
    /// measured relative residual, stops at the first rung that meets the
    /// tolerance, and records every attempted rung in the returned
    /// outcome's `recovery` trace.
    fn recover(&self, b: &[f64], first: SolveOutcome, tol: f64) -> SolveOutcome {
        let bnorm = norm2(b);
        let budget = self.options.max_iterations;
        let mut trace: Vec<RecoveryStep> = Vec::new();
        let mut best = first;

        let rel_of = |x: &[f64]| -> f64 {
            let ax = self.chain.apply_top(x);
            let mut s = 0.0;
            for (bi, ai) in b.iter().zip(&ax) {
                let d = bi - ai;
                s += d * d;
            }
            s.sqrt() / bnorm
        };
        let better = |rel: f64, best: &SolveOutcome| -> bool {
            // A finite rel beats a NaN incumbent, so don't rewrite this
            // as `rel < best` (false when the incumbent is NaN).
            rel.is_finite() && !best.relative_residual.le(&rel)
        };

        // Rung 1: iterate refresh. Re-solve for the residual correction
        // with the existing chain — restarting the Krylov space on the
        // *current* residual discards the accumulated rounding drift that
        // stalls long PCG runs, at the cost of one more (short) solve.
        let ax = self.chain.apply_top(&best.x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let rnorm = norm2(&r);
        if rnorm.is_finite() && rnorm > 0.0 {
            // The correction only needs to shrink ‖r‖ down to tol·‖b‖.
            let ctol = (tol * bnorm / rnorm).clamp(1e-14, 0.5);
            let corr = self.chain.solve(&r, ctol, budget);
            let x: Vec<f64> = best.x.iter().zip(&corr.x).map(|(a, e)| a + e).collect();
            let rel = rel_of(&x);
            let converged = rel <= tol;
            trace.push(RecoveryStep {
                rung: RecoveryRung::IterateRefresh,
                iterations: corr.iterations,
                relative_residual: rel,
                converged,
                breakdown: corr.breakdown,
            });
            if better(rel, &best) {
                best = SolveOutcome {
                    x,
                    iterations: best.iterations + corr.iterations,
                    relative_residual: rel,
                    converged,
                    breakdown: if converged { None } else { best.breakdown },
                    recovery: Vec::new(),
                };
            }
            if best.converged {
                best.recovery = trace;
                return best;
            }
        }

        // Rung 2: rebuild the chain one rung stronger (denser sparsifier
        // sample, adaptive calibration, more inner iterations) and
        // re-solve from scratch with a doubled outer budget. Built once,
        // cached for every later recovery against this solver.
        let chain2 = self.stronger.get_or_init(|| {
            let mut c = self.options.chain;
            c.extra_fraction = (c.extra_fraction * 2.0).min(1.0);
            c.adaptive = true;
            c.max_inner_iterations += 2;
            c.inner_extra_iterations += 1;
            // A breakdown on a mixed-precision chain escalates to full
            // precision: the stronger rung always rebuilds in f64.
            c.precision = crate::chain::Precision::F64;
            build_chain(&self.source_graph, &c.sanitized())
        });
        let out2 = chain2.solve(b, tol, budget.saturating_mul(2));
        let rel2 = rel_of(&out2.x);
        trace.push(RecoveryStep {
            rung: RecoveryRung::StrongerChain,
            iterations: out2.iterations,
            relative_residual: rel2,
            converged: rel2 <= tol,
            breakdown: out2.breakdown,
        });
        if better(rel2, &best) {
            best = SolveOutcome {
                relative_residual: rel2,
                converged: rel2 <= tol,
                recovery: Vec::new(),
                ..out2
            };
        }
        if best.converged {
            best.recovery = trace;
            return best;
        }

        // Rung 3: last resort — factor the whole system directly with the
        // sparse LDLᵀ (a chain with zero levels) and solve exactly.
        // Also built once and cached; skipped for systems too large to
        // factor.
        if self.source_graph.n() <= DIRECT_RECOVERY_LIMIT {
            let chain3 = self.direct.get_or_init(|| {
                let c = direct_recovery_options(&self.options.chain, self.source_graph.n());
                build_chain(&self.source_graph, &c)
            });
            let out3 = chain3.solve(b, tol, budget);
            let rel3 = rel_of(&out3.x);
            trace.push(RecoveryStep {
                rung: RecoveryRung::DirectFactor,
                iterations: out3.iterations,
                relative_residual: rel3,
                converged: rel3 <= tol,
                breakdown: out3.breakdown,
            });
            if better(rel3, &best) {
                best = SolveOutcome {
                    relative_residual: rel3,
                    converged: rel3 <= tol,
                    recovery: Vec::new(),
                    ..out3
                };
            }
        }

        best.recovery = trace;
        best
    }
}

/// The rung-3 chain's options for an `n`-vertex system: no levels (the
/// size floor is the whole system), no cap on the factor's fill
/// ([`DIRECT_RECOVERY_LIMIT`] bounds `n` instead), and f64 regardless of
/// the precision knob.
fn direct_recovery_options(chain: &ChainOptions, n: usize) -> ChainOptions {
    ChainOptions {
        bottom_size: n.max(1),
        direct_bottom_entry_limit: usize::MAX,
        precision: crate::chain::Precision::F64,
        ..*chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RecoveryRung;
    use parsdd_graph::generators;
    use parsdd_linalg::laplacian::LaplacianOp;
    use parsdd_linalg::operator::LinearOperator;
    use parsdd_linalg::vector::{norm2, project_out_constant, sub};

    #[test]
    fn laplacian_solver_grid() {
        let g = generators::grid2d(30, 30, |_, _| 1.0);
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 17) % 31) as f64 - 15.0).collect();
        project_out_constant(&mut b);
        let out = solver.solve(&b);
        assert!(out.converged, "rel {}", out.relative_residual);
        let op = LaplacianOp::new(&g);
        let r = op.residual(&out.x, &b);
        assert!(norm2(&r) <= 1e-6 * norm2(&b));
    }

    #[test]
    fn multiple_right_hand_sides_reuse_chain() {
        let g = generators::weighted_random_graph(500, 2000, 1.0, 10.0, 3);
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
        for seed in 0..3u64 {
            let mut b: Vec<f64> = (0..g.n())
                .map(|i| (((i as u64).wrapping_mul(seed + 7) % 19) as f64) - 9.0)
                .collect();
            project_out_constant(&mut b);
            let out = solver.solve(&b);
            assert!(out.converged, "seed {seed}: rel {}", out.relative_residual);
        }
    }

    #[test]
    fn solve_many_matches_looped_solve_bitwise() {
        let g = generators::grid2d(24, 24, |_, _| 1.0);
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
        let bs: Vec<Vec<f64>> = (0..5)
            .map(|s| {
                let mut b: Vec<f64> = (0..g.n())
                    .map(|i| (((i * (2 * s + 3)) % 23) as f64) - 11.0)
                    .collect();
                project_out_constant(&mut b);
                b
            })
            .collect();
        let batched = solver.solve_many(&bs);
        for (j, b) in bs.iter().enumerate() {
            let single = solver.solve(b);
            assert_eq!(batched[j].iterations, single.iterations, "column {j}");
            assert_eq!(batched[j].converged, single.converged);
            assert_eq!(
                batched[j].relative_residual.to_bits(),
                single.relative_residual.to_bits()
            );
            for (a, s) in batched[j].x.iter().zip(&single.x) {
                assert_eq!(a.to_bits(), s.to_bits(), "column {j} solution");
            }
        }
    }

    #[test]
    fn solve_many_through_gremban_reduction() {
        let g = generators::grid2d(9, 9, |_, _| 1.0);
        let lap = parsdd_linalg::laplacian::laplacian_of(&g);
        let n = g.n();
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        for r in 0..n {
            for (c, v) in lap.row(r) {
                trips.push((r as u32, c, v));
            }
        }
        for i in 0..n as u32 {
            trips.push((i, i, 0.7));
        }
        let a = CsrMatrix::from_triplets(n, n, &trips);
        let solver = SddSolver::new_sdd(&a, SddSolverOptions::default());
        let bs: Vec<Vec<f64>> = (0..3)
            .map(|s| (0..n).map(|i| ((i + s) as f64 * 0.3).sin()).collect())
            .collect();
        let outs = solver.solve_many(&bs);
        for (b, out) in bs.iter().zip(&outs) {
            let r = sub(b, &a.apply_vec(&out.x));
            assert!(
                norm2(&r) <= 1e-5 * norm2(b).max(1.0),
                "residual {}",
                norm2(&r)
            );
        }
    }

    #[test]
    fn sdd_matrix_with_positive_offdiagonals() {
        // Build an SDD matrix: Laplacian of a graph plus diagonal slack and
        // a few positive off-diagonal entries.
        let g = generators::grid2d(10, 10, |_, _| 1.0);
        let lap = parsdd_linalg::laplacian::laplacian_of(&g);
        let n = g.n();
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        for r in 0..n {
            for (c, v) in lap.row(r) {
                trips.push((r as u32, c, v));
            }
        }
        // Diagonal slack makes it strictly dominant (and nonsingular).
        for i in 0..n as u32 {
            trips.push((i, i, 0.5));
        }
        // A couple of positive couplings.
        trips.push((0, 55, 0.2));
        trips.push((55, 0, 0.2));
        trips.push((0, 0, 0.2));
        trips.push((55, 55, 0.2));
        let a = CsrMatrix::from_triplets(n, n, &trips);
        let solver = SddSolver::new_sdd(&a, SddSolverOptions::default());
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let out = solver.solve(&b);
        let r = sub(&b, &a.apply_vec(&out.x));
        assert!(
            norm2(&r) <= 1e-5 * norm2(&b).max(1.0),
            "residual {} (converged={}, rel={})",
            norm2(&r),
            out.converged,
            out.relative_residual
        );
    }

    #[test]
    fn tolerance_override() {
        let g = generators::grid2d(25, 25, |_, _| 1.0);
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
        let mut b: Vec<f64> = (0..g.n()).map(|i| (i % 7) as f64).collect();
        project_out_constant(&mut b);
        let loose = solver.solve_with_tolerance(&b, 1e-3);
        let tight = solver.solve_with_tolerance(&b, 1e-10);
        assert!(loose.converged && tight.converged);
        assert!(tight.relative_residual <= 1e-10);
        assert!(loose.iterations <= tight.iterations);
    }

    #[test]
    fn bad_options_are_sanitized_at_construction() {
        // NaN tolerance, zero iteration budget, and a κ ≤ 1 chain target
        // must be clamped at construction instead of diverging later.
        let zero_budget = SddSolverOptions {
            max_iterations: 0,
            ..Default::default()
        };
        assert_eq!(zero_budget.sanitized().max_iterations, 1);
        let g = generators::grid2d(20, 20, |_, _| 1.0);
        let opts = SddSolverOptions {
            tolerance: f64::NAN,
            chain: ChainOptions {
                kappa: 0.0,
                extra_fraction: f64::NEG_INFINITY,
                ..Default::default()
            },
            ..Default::default()
        };
        let solver = SddSolver::new_laplacian(&g, opts);
        let mut b: Vec<f64> = (0..g.n()).map(|i| (i % 3) as f64 - 1.0).collect();
        project_out_constant(&mut b);
        let out = solver.solve(&b);
        assert!(out.converged, "rel {}", out.relative_residual);
    }

    #[test]
    fn stats_available() {
        let g = generators::weighted_random_graph(600, 2400, 1.0, 4.0, 8);
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
        let stats = solver.stats();
        assert_eq!(stats.level_vertices.len(), solver.chain().depth() + 1);
        assert!(stats.level_vertices[0] <= g.n());
    }

    #[test]
    fn try_solve_classifies_bad_input() {
        let g = generators::grid2d(8, 8, |_, _| 1.0);
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
        let n = g.n();

        let short = vec![1.0; n - 1];
        assert!(matches!(
            solver.try_solve(&short),
            Err(SolveError::DimensionMismatch { expected, got, .. })
                if expected == n && got == n - 1
        ));

        let mut nan_rhs = vec![0.0; n];
        nan_rhs[3] = f64::NAN;
        assert!(matches!(
            solver.try_solve(&nan_rhs),
            Err(SolveError::NonFiniteRhs {
                column: 0,
                index: 3
            })
        ));

        // Nonzero sum on the (single) component: outside the range.
        let unbalanced = vec![1.0; n];
        assert!(matches!(
            solver.try_solve(&unbalanced),
            Err(SolveError::SingularSystem { component: 0, .. })
        ));
    }

    #[test]
    fn try_solve_happy_path_matches_solve() {
        let g = generators::grid2d(16, 16, |_, _| 1.0);
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
        let mut b: Vec<f64> = (0..g.n()).map(|i| (i % 5) as f64 - 2.0).collect();
        project_out_constant(&mut b);
        let direct = solver.solve(&b);
        let tried = solver.try_solve(&b).expect("clean input converges");
        assert!(tried.converged);
        assert!(tried.recovery.is_empty(), "no ladder on the happy path");
        assert_eq!(tried.iterations, direct.iterations);
        for (a, s) in tried.x.iter().zip(&direct.x) {
            assert_eq!(a.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn stronger_rung_of_a_depth_0_solver_builds_the_full_chain() {
        // Zoo rmat/small: the level-0 cut sends it to Jacobi-PCG.
        let g = generators::rmat(9, 4_096, 0x2001);
        let options = SddSolverOptions::default();
        let solver = SddSolver::new_laplacian(&g, options);
        assert_eq!(solver.chain().depth(), 0);
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        project_out_constant(&mut b);
        // 1e-17 is below what f64 reaches: the ladder climbs every rung.
        let out = solver.try_solve_with_tolerance(&b, 1e-17);
        assert!(matches!(out, Err(SolveError::BudgetExhausted { .. })));
        let stronger = solver.stronger.get().expect("the stronger rung ran");
        assert!(stronger.depth() >= 1, "the stronger rung is a full chain");
        let (o, base) = (stronger.options(), options.chain);
        assert!(o.adaptive);
        assert_eq!(o.extra_fraction, (base.extra_fraction * 2.0).min(1.0));
        assert_eq!(o.max_inner_iterations, base.max_inner_iterations + 2);
        assert_eq!(o.seed, base.seed);
    }

    #[test]
    fn direct_rung_factors_past_the_default_entry_cap() {
        // A 128×128 grid's factor stores more entries than the default
        // cap admits, so under that cap the whole grid is never factored
        // directly; the rung-3 options still factor it whole.
        let g = generators::grid2d(128, 128, |_, _| 1.0);
        let default = ChainOptions::default();
        let chain = build_chain(&g, &direct_recovery_options(&default, g.n()));
        assert_eq!(chain.depth(), 0);
        let stats = chain.stats();
        assert!(stats.direct_bottom);
        assert!(
            stats.bottom_factor_nnz > default.direct_bottom_entry_limit,
            "fill {} is within the default cap",
            stats.bottom_factor_nnz
        );
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        project_out_constant(&mut b);
        let out = chain.solve(&b, 1e-10, 1);
        assert!(out.converged, "rel {}", out.relative_residual);
    }

    #[test]
    fn recovery_ladder_rescues_tiny_budget() {
        // A one-iteration outer budget cannot converge on the barbell
        // family (near-disconnected clusters; the zoo's hardest case);
        // the ladder must rescue it and record the escalation.
        let g = generators::near_disconnected_clusters(3, 150, 300, 1e-3, 0x2005);
        let opts = SddSolverOptions {
            max_iterations: 1,
            ..Default::default()
        };
        let solver = SddSolver::new_laplacian(&g, opts);
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        project_out_constant(&mut b);
        assert!(!solver.solve(&b).converged, "budget must be insufficient");
        let out = solver
            .try_solve(&b)
            .expect("ladder must rescue a tiny budget");
        assert!(out.converged);
        assert!(!out.recovery.is_empty(), "escalation must be recorded");
        assert!(
            out.recovery.iter().any(|s| s.converged),
            "some rung must have met the tolerance: {:?}",
            out.recovery
        );
        // Determinism: the same call takes the same ladder path.
        let again = solver.try_solve(&b).expect("deterministic rescue");
        let rungs: Vec<RecoveryRung> = out.recovery.iter().map(|s| s.rung).collect();
        let rungs2: Vec<RecoveryRung> = again.recovery.iter().map(|s| s.rung).collect();
        assert_eq!(rungs, rungs2);
    }
}
