//! End-to-end samples with tracing off, the correctness gate, and the
//! Jacobi-PCG reference solves the gate compares against.

use std::time::{Duration, Instant};

use parsdd_graph::components::connected_components;
use parsdd_graph::Graph;
use parsdd_linalg::cg::CgOutcome;
use parsdd_linalg::laplacian::LaplacianOp;
use parsdd_linalg::operator::LinearOperator;
use parsdd_linalg::vector::{norm2, project_out_componentwise_constant, sub};
use parsdd_linalg::MultiVector;
use parsdd_solver::baseline::solve_jacobi_pcg;
use parsdd_solver::chain::{ChainOptions, SolveOutcome};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};

use crate::workloads::Inputs;

/// Relative residual every solve must reach, for the chain and Jacobi-PCG.
pub const TOL: f64 = 1e-8;
/// Jacobi-PCG iteration budget; `grid200` needs about 800.
const JACOBI_MAX_ITERATIONS: usize = 20_000;
/// A solve fails when its recomputed residual exceeds this multiple of `TOL`.
const RESIDUAL_SLACK: f64 = 1.1;
/// A solve fails when it differs from the converged and refined Jacobi-PCG
/// solution by more than this, relative, after removing each component's
/// mean.
const REFERENCE_TOL: f64 = 1e-6;
/// Fewest timed set-ups and solves per run, whatever `--seconds` says.
const MIN_SAMPLES: usize = 3;
/// Share of the measured time spent on set-up samples; solves get the rest.
const SETUP_SHARE: f64 = 0.25;

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// A timing: the median of its samples and how many there were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub median: f64,
    pub samples: usize,
}

impl Timing {
    pub fn of(xs: &[f64]) -> Timing {
        Timing {
            median: median(xs),
            samples: xs.len(),
        }
    }
}

/// One reported metric; `samples` is set for timings.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

impl Metric {
    pub fn timing(name: &'static str, t: Timing) -> Metric {
        Metric {
            name,
            value: t.median,
            samples: Some(t.samples),
        }
    }

    pub fn plain(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            samples: None,
        }
    }
}

/// Solves checked and solves failed.
#[derive(Clone, Copy)]
pub struct Counts {
    pub attempted: usize,
    pub failed: usize,
}

/// Checks every solve against the input graph and the Jacobi-PCG reference
/// of the same right-hand side, counting attempts and failures.
pub struct Gate<'a> {
    workload: &'static str,
    graph: &'a Graph,
    rhs: &'a [Vec<f64>],
    labels: Vec<u32>,
    components: usize,
    /// Per right-hand side: the refined reference solution with component
    /// means removed, when both Jacobi-PCG solves converged.
    references: Vec<Option<Vec<f64>>>,
    counts: Counts,
}

impl<'a> Gate<'a> {
    /// Solves every right-hand side with Jacobi-PCG and refines each
    /// solution (see [`refine`]); returns the gate and the comparator's mean
    /// iteration count, that of the first solve.
    pub fn new(workload: &'static str, inputs: &'a Inputs) -> (Self, f64) {
        let comps = connected_components(&inputs.graph);
        let op = LaplacianOp::new(&inputs.graph);
        let mut iterations = 0;
        let references: Vec<_> = inputs
            .rhs
            .iter()
            .map(|b| {
                let out = jacobi_pcg(&inputs.graph, b);
                iterations += out.iterations;
                if !out.converged {
                    return None;
                }
                refine(&op, &inputs.graph, &comps.labels, comps.count, b, out.x)
            })
            .collect();
        let gate = Gate {
            workload,
            graph: &inputs.graph,
            rhs: &inputs.rhs,
            labels: comps.labels,
            components: comps.count,
            references,
            counts: Counts {
                attempted: 0,
                failed: 0,
            },
        };
        (gate, iterations as f64 / inputs.rhs.len() as f64)
    }

    /// Checks the outcomes of one solve call, one per right-hand side.
    pub fn check(&mut self, outcomes: &[SolveOutcome]) {
        assert_eq!(outcomes.len(), self.rhs.len(), "one outcome per rhs");
        let op = LaplacianOp::new(self.graph);
        for (j, out) in outcomes.iter().enumerate() {
            self.counts.attempted += 1;
            if let Some(reason) = self.failure(&op, j, out) {
                self.counts.failed += 1;
                println!("FAIL {} {j} {reason}", self.workload);
            }
        }
    }

    pub fn counts(&self) -> Counts {
        self.counts
    }

    fn failure(&self, op: &LaplacianOp, j: usize, out: &SolveOutcome) -> Option<String> {
        if !out.converged {
            return Some(format!(
                "not converged (relative residual {:e})",
                out.relative_residual
            ));
        }
        if let Some(reason) = &out.breakdown {
            return Some(format!("breakdown: {reason}"));
        }
        let b = &self.rhs[j];
        let residual = norm2(&op.residual(&out.x, b)) / norm2(b);
        if residual.is_nan() || residual > RESIDUAL_SLACK * TOL {
            return Some(format!("recomputed residual {residual:e}"));
        }
        if let Some(reference) = &self.references[j] {
            let mut x = out.x.clone();
            project_out_componentwise_constant(&mut x, &self.labels, self.components);
            let diff = norm2(&sub(&x, reference)) / norm2(reference);
            if diff.is_nan() || diff > REFERENCE_TOL {
                return Some(format!("differs from Jacobi-PCG by {diff:e}"));
            }
        }
        None
    }
}

pub fn jacobi_pcg(g: &Graph, b: &[f64]) -> CgOutcome {
    solve_jacobi_pcg(g, b, TOL, JACOBI_MAX_ITERATIONS)
}

/// One step of iterative refinement: `x` plus the Jacobi-PCG solution of
/// its residual, with component means removed, or `None` when that solve
/// does not converge. A solution to `TOL` alone is off by up to the
/// condition number times `TOL`: on `grid120-ss32` two such solutions of
/// the same right-hand side differed by 1.4e-6. The refined reference's
/// residual is near rounding (below 2e-14), so what the gate measures is
/// the chain's own error, which stayed below 2e-8 on every workload.
fn refine(
    op: &LaplacianOp,
    g: &Graph,
    labels: &[u32],
    components: usize,
    b: &[f64],
    mut x: Vec<f64>,
) -> Option<Vec<f64>> {
    let mut r = op.residual(&x, b);
    // Rounding leaves `r` a part along each component's constant vector,
    // which no solution can match: CG would let `x` grow along it.
    project_out_componentwise_constant(&mut r, labels, components);
    let correction = jacobi_pcg(g, &r);
    if !correction.converged {
        return None;
    }
    for (xi, ci) in x.iter_mut().zip(&correction.x) {
        *xi += ci;
    }
    project_out_componentwise_constant(&mut x, labels, components);
    Some(x)
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// The solver with default options. The chain options are set explicitly
/// because `SddSolverOptions::default` reads `PARSDD_PRECISION` from the
/// environment, and the benchmark gives the solver nothing but its inputs.
pub fn build(g: &Graph) -> SddSolver {
    let options = SddSolverOptions::default().with_chain(ChainOptions::default());
    SddSolver::new_laplacian(g, options.with_tolerance(TOL))
}

/// One solve call over all of the workload's right-hand sides: `solve` for
/// one, `solve_many` for a block.
pub fn solve_all(solver: &SddSolver, rhs: &[Vec<f64>]) -> Vec<SolveOutcome> {
    match rhs {
        [b] => vec![solver.solve(b)],
        _ => solver.solve_many(rhs),
    }
}

/// Two outer iterations over every right-hand side: enough to grow the
/// chain's scratch to the workload's block width and touch every level.
pub fn warm_up(solver: &SddSolver, rhs: &[Vec<f64>]) {
    let block = MultiVector::from_columns(rhs);
    std::hint::black_box(solver.chain().solve_block(&block, TOL, 2));
}

/// What the untraced samples measured.
pub struct EndToEnd {
    /// Seconds per `SddSolver::new_laplacian`.
    pub setup: Timing,
    /// Seconds per right-hand side of one solve call.
    pub solve: Timing,
    /// Mean outer iterations per right-hand side.
    pub outer_iterations: f64,
}

/// Times set-ups and solves with tracing off, about `SETUP_SHARE` of the
/// time on set-ups, until the next sample would end past `budget` and each
/// kind has `MIN_SAMPLES`. Solves reuse `solver`, which is already warm;
/// every solve is checked by `gate`.
pub fn end_to_end(
    inputs: &Inputs,
    solver: &SddSolver,
    gate: &mut Gate,
    budget: Duration,
) -> EndToEnd {
    // Seconds per set-up and per solve call.
    let (mut setups, mut solves): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut outer_iterations = 0.0;
    let start = Instant::now();
    loop {
        let (setup_total, solve_total) = (setups.iter().sum::<f64>(), solves.iter().sum::<f64>());
        let setup_next = setups.len() < MIN_SAMPLES
            || (solves.len() >= MIN_SAMPLES
                && setup_total <= SETUP_SHARE * (setup_total + solve_total));
        let enough = setups.len() >= MIN_SAMPLES && solves.len() >= MIN_SAMPLES;
        let last = if setup_next { &setups } else { &solves };
        let next = last
            .last()
            .map_or(Duration::ZERO, |&s| Duration::from_secs_f64(s));
        if enough && start.elapsed() + next > budget {
            break;
        }
        if setup_next {
            let (seconds, _) = timed(|| build(&inputs.graph));
            setups.push(seconds);
        } else {
            let (seconds, outcomes) = timed(|| solve_all(solver, &inputs.rhs));
            solves.push(seconds);
            outer_iterations =
                outcomes.iter().map(|o| o.iterations as f64).sum::<f64>() / outcomes.len() as f64;
            gate.check(&outcomes);
        }
    }
    let k = inputs.rhs.len() as f64;
    let per_rhs: Vec<f64> = solves.iter().map(|s| s / k).collect();
    EndToEnd {
        setup: Timing::of(&setups),
        solve: Timing::of(&per_rhs),
        outer_iterations,
    }
}

/// High-water resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_sample_count() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let t = Timing::of(&[0.2, 0.1, 0.4, 0.3, 9.0]);
        assert_eq!(
            t,
            Timing {
                median: 0.3,
                samples: 5
            }
        );
    }

    #[test]
    fn gate_passes_a_good_solve_and_fails_a_perturbed_one() {
        let inputs = Inputs {
            graph: parsdd_graph::generators::grid2d(12, 12, |_, _| 1.0),
            rhs: vec![{
                let mut b: Vec<f64> = (0..144).map(|i| f64::from(i % 7) - 3.0).collect();
                parsdd_linalg::vector::project_out_constant(&mut b);
                b
            }],
        };
        let (mut gate, jacobi_iterations) = Gate::new("grid12", &inputs);
        assert!(jacobi_iterations >= 1.0);
        let b = &inputs.rhs[0];
        let reference = gate.references[0].as_ref().expect("Jacobi-PCG converges");
        let residual = norm2(&LaplacianOp::new(&inputs.graph).residual(reference, b)) / norm2(b);
        assert!(
            residual < 1e-3 * TOL,
            "refined reference residual {residual:e}"
        );
        let solver = build(&inputs.graph);
        let good = solve_all(&solver, &inputs.rhs);
        gate.check(&good);
        assert_eq!((gate.counts.attempted, gate.counts.failed), (1, 0));
        let mut bad = good.clone();
        bad[0].x[0] += 1e-3;
        gate.check(&bad);
        assert_eq!((gate.counts.attempted, gate.counts.failed), (2, 1));
    }
}
