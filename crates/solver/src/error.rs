//! Typed errors and the recovery-ladder vocabulary of the solver facade.
//!
//! The panic-free front door ([`crate::sdd_solve::SddSolver::try_new_laplacian`]
//! and friends) classifies every failure it can see instead of panicking or
//! silently returning garbage:
//!
//! * [`BuildError`] — the *system* is unusable: malformed graph data
//!   (non-finite / non-positive weights, ghost endpoints), an empty graph,
//!   or a matrix that is not symmetric diagonally dominant.
//! * [`SolveError`] — the *request* is unusable or the iteration failed:
//!   dimension mismatch, non-finite right-hand side, a right-hand side
//!   outside the range of a singular system, or a breakdown that survived
//!   the whole recovery ladder.
//! * [`RecoveryStep`] / [`RecoveryRung`] — the deterministic escalation
//!   trace the facade records when the first solve attempt does not reach
//!   tolerance (DESIGN.md §2.5): iterate refresh, then a one-rung-stronger
//!   chain, then a direct sparse factorisation of the whole system.

use parsdd_graph::GraphDataError;
use parsdd_linalg::breakdown::BreakdownReason;
use parsdd_linalg::sdd::SddInputError;

/// Why a solver could not be built from the given system.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The graph's edge data is malformed (non-finite or non-positive
    /// weight, self loop, endpoint out of range).
    InvalidGraph(GraphDataError),
    /// The graph has no vertices — there is no system to solve.
    EmptyGraph,
    /// The matrix was rejected by Gremban's reduction: not square, a
    /// non-finite entry, or a row that is not diagonally dominant.
    InvalidMatrix(SddInputError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidGraph(e) => write!(f, "invalid graph: {e}"),
            BuildError::EmptyGraph => write!(f, "empty graph: no vertices"),
            BuildError::InvalidMatrix(e) => write!(f, "invalid SDD matrix: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<GraphDataError> for BuildError {
    fn from(e: GraphDataError) -> Self {
        BuildError::InvalidGraph(e)
    }
}

impl From<SddInputError> for BuildError {
    fn from(e: SddInputError) -> Self {
        BuildError::InvalidMatrix(e)
    }
}

/// Why a solve request failed.
///
/// The first three variants are input classification (detected before any
/// iteration runs); the last two report an iteration that failed *after*
/// the facade exhausted its recovery ladder — both carry the recorded
/// escalation trace so the caller can see what was tried.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A right-hand side has the wrong length for the system.
    DimensionMismatch {
        /// Dimension of the system.
        expected: usize,
        /// Length of the offending right-hand side.
        got: usize,
        /// Which right-hand side (0 for single-vector solves).
        column: usize,
    },
    /// A right-hand side contains a NaN or ±∞ entry.
    NonFiniteRhs {
        /// Which right-hand side (0 for single-vector solves).
        column: usize,
        /// Index of the first non-finite entry.
        index: usize,
    },
    /// The system is singular and the right-hand side is not orthogonal to
    /// its kernel: on some connected component the entries do not sum to
    /// (numerical) zero, so `A x = b` has no solution on that component.
    SingularSystem {
        /// Which right-hand side (0 for single-vector solves).
        column: usize,
        /// Connected-component label with the nonzero sum.
        component: usize,
        /// The offending component sum, relative to `‖b‖₂`.
        imbalance: f64,
    },
    /// The iteration broke down (NaN/Inf residual, indefinite direction,
    /// divergence, or stall) and no rung of the recovery ladder reached
    /// the tolerance.
    Breakdown {
        /// Which right-hand side (0 for single-vector solves).
        column: usize,
        /// The breakdown observed on the best attempt.
        reason: BreakdownReason,
        /// Best relative residual any rung achieved.
        relative_residual: f64,
        /// The escalation trace (one entry per ladder rung attempted).
        recovery: Vec<RecoveryStep>,
    },
    /// Every rung of the ladder ran out of iterations while still making
    /// progress — no breakdown, just not enough budget for this system.
    BudgetExhausted {
        /// Which right-hand side (0 for single-vector solves).
        column: usize,
        /// Best relative residual any rung achieved.
        relative_residual: f64,
        /// The escalation trace (one entry per ladder rung attempted).
        recovery: Vec<RecoveryStep>,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::DimensionMismatch {
                expected,
                got,
                column,
            } => write!(
                f,
                "rhs {column} has dimension {got}, system has dimension {expected}"
            ),
            SolveError::NonFiniteRhs { column, index } => {
                write!(f, "rhs {column} has a non-finite entry at index {index}")
            }
            SolveError::SingularSystem {
                column,
                component,
                imbalance,
            } => write!(
                f,
                "rhs {column} is outside the range of the singular system: \
                 component {component} sums to {imbalance:.3e}·‖b‖"
            ),
            SolveError::Breakdown {
                column,
                reason,
                relative_residual,
                recovery,
            } => write!(
                f,
                "rhs {column} broke down ({reason}) after {} recovery rung(s); \
                 best relative residual {relative_residual:.3e}",
                recovery.len()
            ),
            SolveError::BudgetExhausted {
                column,
                relative_residual,
                recovery,
            } => write!(
                f,
                "rhs {column} exhausted the iteration budget after {} recovery \
                 rung(s); best relative residual {relative_residual:.3e}",
                recovery.len()
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// One rung of the facade's deterministic recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// Re-solve for the residual correction with the existing chain
    /// (iterate refresh): cheap, fixes accumulated rounding drift.
    IterateRefresh,
    /// Rebuild the chain one rung stronger (denser sparsifier sample,
    /// adaptive calibration, more inner iterations) and re-solve from
    /// scratch with a doubled outer budget.
    StrongerChain,
    /// Factor the whole system directly with the sparse LDLᵀ (no
    /// levels) and solve exactly — the last resort, only attempted for
    /// systems small enough to factor.
    DirectFactor,
}

impl std::fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryRung::IterateRefresh => write!(f, "iterate-refresh"),
            RecoveryRung::StrongerChain => write!(f, "stronger-chain"),
            RecoveryRung::DirectFactor => write!(f, "direct-factor"),
        }
    }
}

/// Record of one attempted rung of the recovery ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStep {
    /// Which rung was attempted.
    pub rung: RecoveryRung,
    /// Outer iterations that rung performed.
    pub iterations: usize,
    /// Relative residual the rung's iterate achieved.
    pub relative_residual: f64,
    /// Whether that iterate met the tolerance.
    pub converged: bool,
    /// Breakdown the rung itself hit, if any.
    pub breakdown: Option<BreakdownReason>,
}
