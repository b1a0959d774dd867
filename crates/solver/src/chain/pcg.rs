//! The chain's one block PCG. The outer solve, a depth-0 solve, the
//! iterative bottom inside the W-cycle and the level-0 probe all run
//! [`PcgScratch::run`]; which preconditioner runs picks the β, and which
//! answer the run gives picks the stop rule.

use parsdd_linalg::breakdown::{BreakdownReason, DIVERGENCE_FACTOR};
use parsdd_linalg::permuted::PermutedLevel;
use parsdd_linalg::vector::colwise_dots_rm_into;

use super::SolverChain;

/// Stall detection: on ill-conditioned systems (e.g. clusters joined by
/// feeble bridges, κ(A) ≳ 1e9) the attainable relative residual in f64 is
/// bounded below by ≈ ε·κ(A) — beyond that point the residual recurrence
/// is pure rounding noise and every further iteration is wasted. A
/// column whose best residual has not improved by at least
/// `STALL_IMPROVEMENT` (relative) within `STALL_WINDOW` iterations is
/// frozen with `converged: false` and its best-seen residual reported.
/// A converging column under the W-cycle or a factor contracts orders of
/// magnitude faster than this cutoff (even κ_eff ≈ 10⁴ contracts ~2% per
/// iteration), so converging solves never trip it.
const STALL_WINDOW: usize = 40;
const STALL_IMPROVEMENT: f64 = 1e-3;

/// The preconditioner of a run, which picks its β.
#[derive(Clone, Copy)]
pub(super) enum Precond<'a> {
    /// The W-cycle below level 0. Its Chebyshev sweeps and loose bottom
    /// make it vary slightly from one application to the next, which the
    /// flexible (Polak–Ribière) β tolerates.
    WCycle(&'a SolverChain),
    /// A depth-0 chain's direct or trivial bottom, as
    /// [`SolverChain::precondition_block_rm`] applies it: a fixed linear
    /// map, so β = rz_new/rz_old.
    Bottom(&'a SolverChain),
    /// `z ← D⁻¹ r` with the given inverse diagonal: β = rz_new/rz_old.
    Jacobi(&'a [f64]),
}

impl Precond<'_> {
    /// `z ← M⁻¹ r` on a row-major block of width `k`.
    fn apply(self, r: &[f64], k: usize, z: &mut Vec<f64>) {
        match self {
            Precond::WCycle(chain) => chain.precondition_rm_into(0, r, k, z),
            Precond::Bottom(chain) => chain.precondition_block_rm(r, k, z),
            Precond::Jacobi(inv_diag) => {
                z.clear();
                z.reserve(r.len());
                for (rrow, &d) in r.chunks_exact(k).zip(inv_diag) {
                    z.extend(rrow.iter().map(|&rv| rv * d));
                }
            }
        }
    }
}

/// Which answer a run gives, which picks its stop rule.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Answer {
    /// A solve's final answer: columns also freeze when they diverge,
    /// and when they stall under any preconditioner but `D⁻¹`.
    Final,
    /// A bottom solve inside a preconditioner application, or the level-0
    /// probe: columns stop at the tolerance, at a non-finite residual or
    /// at a direction without energy.
    Inner,
}

/// The state of one [`run`](PcgScratch::run): the full-width iterate, the
/// working blocks and recurrence scalars over the active columns, and
/// what each block column did. Warm, a run allocates nothing of its own.
#[derive(Debug, Default)]
pub(super) struct PcgScratch {
    /// The iterate, `n·k` row-major; columns keep their place when they
    /// freeze.
    pub(super) x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    rz: Vec<f64>,
    rz_new: Vec<f64>,
    rn: Vec<f64>,
    pap: Vec<f64>,
    apz: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    partial: Vec<f64>,
    /// Block columns still iterating, ascending.
    active: Vec<usize>,
    keep: Vec<usize>,
    /// Right-hand-side norm of each block column; a zero column never
    /// runs and is solved by zero.
    pub(super) bnorms: Vec<f64>,
    /// Index of the last residual check each block column took.
    pub(super) iterations: Vec<usize>,
    /// The recurrence's relative residual at that check.
    pub(super) rels: Vec<f64>,
    best_rel: Vec<f64>,
    best_it: Vec<usize>,
    /// Why each block column froze early, if it broke down.
    pub(super) breakdowns: Vec<Option<BreakdownReason>>,
}

impl PcgScratch {
    /// PCG on `k` row-major right-hand sides `b` (in the range of
    /// `matrix`), each column to relative residual `tol`, for at most
    /// `max_iterations` iterations of one residual check, one product
    /// with `matrix` and one preconditioner application each. The
    /// solutions land in `x`; each column's last check, residual and
    /// breakdown in `iterations`, `rels` and `breakdowns`; the columns
    /// that ran out of budget stay in `active`, their residual in `r`.
    ///
    /// Columns that stop are frozen and compacted out of the working
    /// block, so late iterations — and every preconditioner application
    /// below them — run on a narrower block. The recurrences never couple
    /// columns, and every per-column quantity comes from a kernel whose
    /// arithmetic does not depend on the block width
    /// ([`colwise_dots_rm_into`], [`PermutedLevel::fused_apply_dot_into`]),
    /// so each column's result and count are bitwise identical at every
    /// block composition and pool width.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run(
        &mut self,
        matrix: &PermutedLevel,
        b: &[f64],
        k: usize,
        tol: f64,
        max_iterations: usize,
        precond: Precond<'_>,
        answer: Answer,
    ) {
        let n = matrix.n();
        colwise_dots_rm_into(b, b, k, &mut self.bnorms, &mut self.partial);
        for bn in &mut self.bnorms {
            *bn = bn.sqrt();
        }
        self.x.clear();
        self.x.resize(n * k, 0.0);
        self.iterations.clear();
        self.iterations.resize(k, 0);
        self.rels.clear();
        let initial = |&bn: &f64| if bn == 0.0 { 0.0 } else { 1.0 };
        self.rels.extend(self.bnorms.iter().map(initial));
        self.best_rel.clear();
        self.best_rel.resize(k, f64::INFINITY);
        self.best_it.clear();
        self.best_it.resize(k, 0);
        self.breakdowns.clear();
        self.breakdowns.resize(k, None);
        self.active.clear();
        self.active
            .extend((0..k).filter(|&j| self.bnorms[j] != 0.0));
        let mut ka = self.active.len();
        if ka == 0 {
            return;
        }
        self.r.clear();
        self.r.reserve(n * ka);
        for row in b.chunks_exact(k) {
            self.r.extend(self.active.iter().map(|&j| row[j]));
        }
        precond.apply(&self.r, ka, &mut self.z);
        self.p.clear();
        self.p.extend_from_slice(&self.z);
        colwise_dots_rm_into(&self.r, &self.z, ka, &mut self.rz, &mut self.partial);
        self.ap.resize(n * ka, 0.0);
        // Jacobi-PCG's residual may sit flat for long stretches on its
        // way down (a 4500-vertex cycle plateaus past the stall window at
        // 5e-3), so only a final answer under a strong preconditioner
        // freezes on a stall.
        let diverges = answer == Answer::Final;
        let stalls = diverges && !matches!(precond, Precond::Jacobi(_));
        for it in 0..max_iterations {
            // Per-column residual check; stopped columns freeze.
            colwise_dots_rm_into(&self.r, &self.r, ka, &mut self.rn, &mut self.partial);
            self.keep.clear();
            for c in 0..ka {
                let j = self.active[c];
                let rel = self.rn[c].sqrt() / self.bnorms[j];
                self.iterations[j] = it;
                self.rels[j] = rel;
                let (best, breakdown) = (self.best_rel[j], &mut self.breakdowns[j]);
                if rel <= tol {
                    // Converged: the column freezes.
                } else if !rel.is_finite() {
                    // A poisoned residual never recovers.
                    *breakdown = Some(BreakdownReason::NonFiniteResidual { iteration: it });
                } else if diverges && rel >= DIVERGENCE_FACTOR * best && rel > 1.0 {
                    let growth = rel / best;
                    *breakdown = Some(BreakdownReason::Diverged {
                        iteration: it,
                        growth,
                    });
                } else if rel < best * (1.0 - STALL_IMPROVEMENT) {
                    self.best_rel[j] = rel;
                    self.best_it[j] = it;
                    self.keep.push(c);
                } else if stalls && it - self.best_it[j] >= STALL_WINDOW {
                    // Flat for a full window: the attainable accuracy
                    // floor. The column freezes unconverged.
                    *breakdown = Some(BreakdownReason::Stalled {
                        iteration: it,
                        best_relative_residual: best,
                    });
                } else {
                    self.keep.push(c);
                }
            }
            ka = self.compact(ka);
            if ka == 0 {
                break;
            }
            // The matrix pass rewrites `ap` in full.
            self.ap.truncate(n * ka);

            // One matrix pass: AP ← A·p with pᵀAp fused. A direction
            // without energy freezes its column where it stands.
            let (p, ap) = (&self.p, &mut self.ap);
            matrix.fused_apply_dot_into(p, ap, ka, &mut self.pap, &mut self.partial);
            self.keep.clear();
            self.alpha.clear();
            for c in 0..ka {
                let curvature = self.pap[c];
                if curvature > 0.0 && curvature.is_finite() {
                    self.alpha.push(self.rz[c] / curvature);
                    self.keep.push(c);
                } else {
                    let j = self.active[c];
                    self.breakdowns[j] = Some(BreakdownReason::IndefiniteDirection {
                        iteration: it,
                        curvature,
                    });
                }
            }
            compact_columns_rm_inplace(&mut self.ap, ka, &self.keep);
            ka = self.compact(ka);
            if ka == 0 {
                break;
            }

            // One fused elementwise pass: x ← x + α·p (into the full-width
            // iterate) and r ← r − α·(A p).
            for ((xrow, prow), (rrow, aprow)) in self
                .x
                .chunks_exact_mut(k)
                .zip(self.p.chunks_exact(ka))
                .zip(self.r.chunks_exact_mut(ka).zip(self.ap.chunks_exact(ka)))
            {
                for (c, &j) in self.active.iter().enumerate() {
                    xrow[j] += self.alpha[c] * prow[c];
                    rrow[c] -= self.alpha[c] * aprow[c];
                }
            }
            precond.apply(&self.r, ka, &mut self.z);
            colwise_dots_rm_into(&self.r, &self.z, ka, &mut self.rz_new, &mut self.partial);
            self.beta.clear();
            if let Precond::WCycle(_) = precond {
                // Flexible β: the numerator `(r_new − r_old)ᵀ z` uses
                // r_new − r_old = −α·(A p), an identity of the residual
                // update above in exact arithmetic (the elementwise update
                // rounds, so the low bits differ from an explicit
                // difference), so no r_old copy is ever materialised.
                colwise_dots_rm_into(&self.ap, &self.z, ka, &mut self.apz, &mut self.partial);
                let (alpha, apz, rz) = (&self.alpha, &self.apz, &self.rz);
                self.beta
                    .extend((0..ka).map(|c| (-alpha[c] * apz[c] / rz[c]).max(0.0)));
            } else {
                let (rz_new, rz) = (&self.rz_new, &self.rz);
                self.beta.extend((0..ka).map(|c| rz_new[c] / rz[c]));
            }
            std::mem::swap(&mut self.rz, &mut self.rz_new);
            for (prow, zrow) in self.p.chunks_exact_mut(ka).zip(self.z.chunks_exact(ka)) {
                for ((pv, &zv), &beta) in prow.iter_mut().zip(zrow).zip(&self.beta) {
                    *pv = zv + beta * *pv;
                }
            }
        }
    }

    /// The products with the matrix a one-column [`Answer::Inner`] run of
    /// at most `max_iterations` iterations took, and whether it reached
    /// `tol`: a column stopped at a residual check took that check's
    /// count, one whose direction had no energy one more, and one still
    /// running the whole budget, judged by one closing check.
    pub(super) fn single_outcome(&mut self, tol: f64, max_iterations: usize) -> (usize, bool) {
        if self.active.is_empty() {
            let after_product = matches!(
                self.breakdowns[0],
                Some(BreakdownReason::IndefiniteDirection { .. })
            );
            return (
                self.iterations[0] + usize::from(after_product),
                self.rels[0] <= tol,
            );
        }
        colwise_dots_rm_into(&self.r, &self.r, 1, &mut self.rn, &mut self.partial);
        (max_iterations, self.rn[0].sqrt() / self.bnorms[0] <= tol)
    }

    /// Drops the active columns not listed in `keep` from `r`, `p`, `rz`
    /// and `active` (`alpha` is built compact, and `ap` is either rewritten
    /// or compacted by the caller); returns the new active width.
    fn compact(&mut self, ka: usize) -> usize {
        let keep = &self.keep;
        if keep.len() == ka {
            return ka;
        }
        compact_columns_rm_inplace(&mut self.r, ka, keep);
        compact_columns_rm_inplace(&mut self.p, ka, keep);
        compact_scalars_inplace(&mut self.rz, keep);
        compact_scalars_inplace(&mut self.active, keep);
        keep.len()
    }
}

/// Gathers the `keep` columns of a row-major block of width `k` in place
/// (`v[i·ka + w] ← v[i·k + keep[w]]`, then truncate): a pure per-element
/// copy, so it keeps every bitwise contract. The forward pass is safe
/// because `keep` is strictly ascending, so every write lands at or
/// before the cell it reads and before any cell a later row still has to
/// read.
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
/// then truncate).
fn compact_scalars_inplace<T: Copy>(v: &mut Vec<T>, keep: &[usize]) {
    for (w, &c) in keep.iter().enumerate() {
        v[w] = v[c];
    }
    v.truncate(keep.len());
}
