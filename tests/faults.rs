//! Fault-injection harness: every fault in the deterministic plan must
//! surface as a typed error or a tolerance-meeting recovery — never a
//! panic, never a silently wrong answer.
//!
//! The injection machinery lives in `parsdd_bench::faults`; this harness
//! drives each fault kind through the solver's fallible front door (or,
//! for preconditioner faults, through the linalg drivers the facade is
//! built on) and asserts the robustness contract of DESIGN.md §2.5.

use parsdd_bench::faults::{self, Fault, FaultPlan};
use parsdd_bench::zoo::{self, Tier};
use parsdd_graph::{generators, Graph, GraphDataError};
use parsdd_linalg::breakdown::BreakdownReason;
use parsdd_linalg::cg::{pcg_solve, CgOptions};
use parsdd_linalg::laplacian::LaplacianOp;
use parsdd_linalg::operator::LinearOperator;
use parsdd_linalg::vector::{norm2, project_out_constant, sub};
use parsdd_solver::chain::{build_chain, ChainOptions, ChainPreconditioner, SolverChain};
use parsdd_solver::error::{BuildError, RecoveryRung, SolveError};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};

/// The barbell (near-disconnected clusters) zoo family at its small tier:
/// the hardest committed workload, and the one whose feeble bridges make
/// every fault bite.
fn barbell() -> Graph {
    generators::near_disconnected_clusters(3, 150, 300, 1e-3, 0x2005)
}

fn balanced_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed.wrapping_add(11))) % 23) as f64 - 11.0)
        .collect();
    project_out_constant(&mut b);
    b
}

/// Every fault of the standard plan surfaces as a typed error or a
/// converged recovery — exhaustive over the plan, deterministic per seed.
#[test]
fn every_planned_fault_is_classified_or_recovered() {
    check_plan(&barbell(), |g| build_chain(g, &ChainOptions::default()));
}

/// The same plan against a solver the level-0 cut sent to Jacobi-PCG
/// (zoo rmat/small, a depth-0 chain with an iterative bottom): its
/// preconditioner faults run through that depth-0 chain.
#[test]
fn every_planned_fault_on_a_depth_0_solver_is_classified_or_recovered() {
    let g = zoo::build("rmat", Tier::Small);
    let depth0 = |g: &Graph| {
        let solver = SddSolver::new_laplacian(g, SddSolverOptions::default());
        assert_eq!(solver.chain().depth(), 0, "the probe must cut level 0");
        solver.chain().clone()
    };
    check_plan(&g, depth0);
}

/// Runs the standard fault plan against `g`'s default solver; `chain_of`
/// builds the chain the preconditioner faults run through.
fn check_plan(g: &Graph, chain_of: impl Fn(&Graph) -> SolverChain) {
    let plan = FaultPlan::standard(0xfau64, g.n(), g.m());
    let solver = SddSolver::new_laplacian(g, SddSolverOptions::default());
    let b = balanced_rhs(g.n(), 3);

    for fault in &plan.faults {
        match *fault {
            Fault::NanRhs { index } => {
                let bad = faults::poison_rhs(&b, index, f64::NAN);
                match solver.try_solve(&bad) {
                    Err(SolveError::NonFiniteRhs {
                        column: 0,
                        index: i,
                    }) => {
                        assert_eq!(i, index, "wrong poisoned index reported")
                    }
                    other => panic!("NaN rhs misclassified: {other:?}"),
                }
            }
            Fault::InfRhs { index } => {
                let bad = faults::poison_rhs(&b, index, f64::INFINITY);
                assert!(matches!(
                    solver.try_solve(&bad),
                    Err(SolveError::NonFiniteRhs { column: 0, .. })
                ));
            }
            Fault::CorruptWeight { edge, weight } => {
                let bad = faults::corrupt_weight(g, edge, weight);
                match SddSolver::try_new_laplacian(&bad, SddSolverOptions::default()) {
                    Err(BuildError::InvalidGraph(
                        GraphDataError::NonFiniteWeight { edge: e, .. }
                        | GraphDataError::NonPositiveWeight { edge: e, .. },
                    )) => assert_eq!(e, edge, "wrong corrupted edge reported"),
                    other => panic!(
                        "corrupt weight {weight} misclassified: {:?}",
                        other.err().map(|e| e.to_string())
                    ),
                }
            }
            Fault::DropWeakestEdges { count } => {
                // Dropping the feeble bridges disconnects the graph. The
                // build must still succeed (disconnected Laplacians are
                // legal), but the old globally-balanced rhs now has
                // nonzero sums on the new components → typed rejection.
                let cut = faults::drop_weakest_edges(g, count);
                let cut_solver = SddSolver::try_new_laplacian(&cut, SddSolverOptions::default())
                    .expect("disconnected graphs are legal systems");
                match cut_solver.try_solve(&b) {
                    Err(SolveError::SingularSystem { .. }) => {}
                    Ok(out) => {
                        // If the rhs happens to stay balanced per
                        // component, the answer must actually be right.
                        let op = LaplacianOp::new(&cut);
                        let r = sub(&b, &op.apply_vec(&out.x));
                        assert!(out.converged);
                        assert!(norm2(&r) <= 1e-6 * norm2(&b));
                    }
                    other => panic!("dropped bridges misclassified: {other:?}"),
                }
            }
            Fault::PerturbWeights { relative, seed } => {
                // Chain built from a perturbed twin of the graph, used to
                // precondition the *original* system: flexible PCG must
                // still converge (the perturbed chain is spectrally close)
                // and the answer must be right — never silently wrong.
                let perturbed = faults::perturb_weights(g, relative, seed);
                let chain = chain_of(&perturbed);
                let pre = ChainPreconditioner::new(&chain);
                let op = LaplacianOp::new(g);
                let out = pcg_solve(
                    &op,
                    &pre,
                    &b,
                    &CgOptions {
                        max_iters: 400,
                        tol: 1e-8,
                    },
                );
                assert!(
                    out.converged,
                    "perturbed preconditioner should still converge: rel {} breakdown {:?}",
                    out.relative_residual, out.breakdown
                );
                let r = sub(&b, &op.apply_vec(&out.x));
                assert!(norm2(&r) <= 1e-6 * norm2(&b), "silent wrong answer");
            }
            Fault::PoisonPreconditioner { application } => {
                // NaN injected mid-iteration: the driver must freeze with
                // a typed non-finite breakdown instead of spinning its
                // whole budget on NaN arithmetic.
                let chain = chain_of(g);
                let inner = ChainPreconditioner::new(&chain);
                let pre = faults::PoisonedPreconditioner::new(&inner, application);
                let op = LaplacianOp::new(g);
                let out = pcg_solve(
                    &op,
                    &pre,
                    &b,
                    &CgOptions {
                        max_iters: 400,
                        tol: 1e-8,
                    },
                );
                assert!(!out.converged);
                assert!(
                    matches!(
                        out.breakdown,
                        Some(
                            BreakdownReason::NonFiniteResidual { .. }
                                | BreakdownReason::IndefiniteDirection { .. }
                        )
                    ),
                    "poisoned preconditioner not classified: {:?}",
                    out.breakdown
                );
                assert!(
                    out.iterations <= application + 3,
                    "spun {} iterations past the poison at application {}",
                    out.iterations,
                    application
                );
            }
        }
    }
}

/// The recovery ladder end-to-end on the barbell family: a starved outer
/// budget fails the plain solve, the fallible front door escalates
/// deterministically, records the trace, and returns a converged answer.
#[test]
fn recovery_ladder_end_to_end_on_barbell() {
    let g = barbell();
    let opts = SddSolverOptions {
        max_iterations: 1,
        ..Default::default()
    };
    let solver = SddSolver::new_laplacian(&g, opts);
    let b = balanced_rhs(g.n(), 17);

    let plain = solver.solve(&b);
    assert!(!plain.converged, "budget must be insufficient for the test");

    let out = solver.try_solve(&b).expect("ladder must rescue");
    assert!(out.converged);
    let rungs: Vec<RecoveryRung> = out.recovery.iter().map(|s| s.rung).collect();
    assert!(!rungs.is_empty(), "escalation must be recorded");
    // Ladder determinism contract: rungs escalate in the fixed order
    // refresh → stronger chain → direct factor, without repeats.
    let expected = [
        RecoveryRung::IterateRefresh,
        RecoveryRung::StrongerChain,
        RecoveryRung::DirectFactor,
    ];
    assert_eq!(rungs.as_slice(), &expected[..rungs.len()]);
    assert!(
        out.recovery.last().expect("non-empty").converged,
        "last recorded rung is the one that met tolerance: {:?}",
        out.recovery
    );
    // Verify the answer, independently of the solver's own residual.
    let op = LaplacianOp::new(&g);
    let r = sub(&b, &op.apply_vec(&out.x));
    assert!(norm2(&r) <= 1e-6 * norm2(&b));

    // Replay: the same call escalates through the same rungs.
    let again = solver.try_solve(&b).expect("deterministic rescue");
    let rungs2: Vec<RecoveryRung> = again.recovery.iter().map(|s| s.rung).collect();
    assert_eq!(rungs, rungs2);
}

/// A depth-0 solve asked for more accuracy than its Jacobi-PCG reaches in
/// one go escalates through the ladder in order and ends in a typed error
/// or a recovery that meets the tolerance, never a panic. (The stronger
/// rung's chain is checked by a unit test of the ladder.)
#[test]
fn depth_0_solver_escalates_through_the_ladder() {
    let g = zoo::build("rmat", Tier::Small);
    let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
    assert_eq!(solver.chain().depth(), 0);
    let b = balanced_rhs(g.n(), 5);
    let tol = 1e-15;
    assert!(!solver.solve_with_tolerance(&b, tol).converged);
    let expected = [
        RecoveryRung::IterateRefresh,
        RecoveryRung::StrongerChain,
        RecoveryRung::DirectFactor,
    ];
    match solver.try_solve_with_tolerance(&b, tol) {
        Ok(out) => {
            assert!(out.converged);
            let rungs: Vec<RecoveryRung> = out.recovery.iter().map(|s| s.rung).collect();
            assert_eq!(rungs.as_slice(), &expected[..rungs.len()]);
            let r = sub(&b, &LaplacianOp::new(&g).apply_vec(&out.x));
            assert!(norm2(&r) <= 10.0 * tol * norm2(&b));
        }
        Err(
            SolveError::BudgetExhausted { recovery, .. } | SolveError::Breakdown { recovery, .. },
        ) => {
            let rungs: Vec<RecoveryRung> = recovery.iter().map(|s| s.rung).collect();
            assert_eq!(rungs, expected, "every rung must have been tried");
        }
        Err(other) => panic!("depth-0 escalation misclassified: {other}"),
    }
}

/// The recovery ladder escalates a mixed-precision chain to full
/// precision: a starved f32-chain solve is rescued, the stronger/direct
/// rungs rebuild in f64 regardless of the knob, and the answer checks
/// out against an independent operator.
#[test]
fn f32_chain_breakdown_escalates_to_f64_rungs() {
    use parsdd_solver::chain::Precision;
    let g = barbell();
    let mut opts = SddSolverOptions {
        max_iterations: 1,
        ..Default::default()
    };
    opts.chain = ChainOptions::default().with_precision(Precision::F32);
    let solver = SddSolver::new_laplacian(&g, opts);
    assert_eq!(solver.chain().options().precision, Precision::F32);
    let b = balanced_rhs(g.n(), 29);

    let plain = solver.solve(&b);
    assert!(!plain.converged, "budget must be insufficient for the test");

    let out = solver.try_solve(&b).expect("ladder must rescue f32 chains");
    assert!(out.converged);
    assert!(
        !out.recovery.is_empty(),
        "escalation from the f32 chain must be recorded"
    );
    // Whatever rung rescued it, the answer must be genuinely right.
    let op = LaplacianOp::new(&g);
    let r = sub(&b, &op.apply_vec(&out.x));
    assert!(norm2(&r) <= 1e-6 * norm2(&b));
}

/// A solver whose system was built from corrupted data must fail at
/// *build* time for every corruption the plan generates, regardless of
/// where in the edge list the corruption lands.
#[test]
fn corrupted_builds_fail_closed_across_seeds() {
    let g = generators::grid2d(12, 12, |_, _| 1.0);
    for seed in 0..8u64 {
        let plan = FaultPlan::standard(seed, g.n(), g.m());
        for fault in &plan.faults {
            if let Fault::CorruptWeight { edge, weight } = *fault {
                let bad = faults::corrupt_weight(&g, edge, weight);
                assert!(
                    SddSolver::try_new_laplacian(&bad, SddSolverOptions::default()).is_err(),
                    "seed {seed}: corruption at edge {edge} (w={weight}) not caught"
                );
            }
        }
    }
}

/// Gremban front door: a matrix with a non-finite entry or a
/// non-dominant row is rejected with a typed error, not a panic.
#[test]
fn sdd_matrix_faults_are_typed() {
    use parsdd_linalg::csr::CsrMatrix;
    let nan_mat = CsrMatrix::from_triplets(
        2,
        2,
        &[(0, 0, 2.0), (0, 1, f64::NAN), (1, 0, f64::NAN), (1, 1, 2.0)],
    );
    assert!(matches!(
        SddSolver::try_new_sdd(&nan_mat, SddSolverOptions::default()),
        Err(BuildError::InvalidMatrix(_))
    ));
    let not_sdd = CsrMatrix::from_triplets(
        2,
        2,
        &[(0, 0, 1.0), (0, 1, -5.0), (1, 0, -5.0), (1, 1, 1.0)],
    );
    assert!(matches!(
        SddSolver::try_new_sdd(&not_sdd, SddSolverOptions::default()),
        Err(BuildError::InvalidMatrix(_))
    ));
}

/// `a` and `b` are the same graph, bit for bit: CSR arrays, arc→edge ids,
/// edge list and weight bits.
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

/// Climbs `solver`'s whole ladder, then checks that the chains its
/// stronger and direct rungs built, on the graph rebuilt from the
/// solver's top matrix, are `build_chain` on `g` (the graph the solver
/// was built on), bit for bit: statistics and a solve.
fn check_recovery_rungs(solver: &SddSolver, g: &Graph, b: &[f64]) {
    assert_same_graph(&solver.chain().top_graph(), &g.simplify());
    // 1e-17 is below what f64 reaches: the ladder climbs every rung.
    assert!(solver.try_solve_with_tolerance(b, 1e-17).is_err());
    let probe: Vec<f64> = (0..g.n()).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    for rung in [RecoveryRung::StrongerChain, RecoveryRung::DirectFactor] {
        let built = solver.recovery_chain(rung).expect("the rung ran");
        let fresh = build_chain(g, built.options());
        assert_eq!(
            format!("{:?}", built.stats()),
            format!("{:?}", fresh.stats())
        );
        let (x, y) = (
            built.solve(&probe, 1e-10, 40),
            fresh.solve(&probe, 1e-10, 40),
        );
        assert_eq!(x.iterations, y.iterations, "{rung}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.x), bits(&y.x), "{rung}");
    }
}

/// The recovery rungs rebuild the caller's system from the chain's top
/// matrix (the solver keeps no copy of its input), and the chains they
/// build are the ones the input itself gives: on a Laplacian, and on the
/// Gremban graph of an SDD matrix with positive off-diagonals.
#[test]
fn recovery_rungs_rebuild_the_callers_chain_bitwise() {
    use parsdd_linalg::csr::CsrMatrix;
    use parsdd_linalg::sdd::GrembanReduction;
    let g = zoo::build("rmat", Tier::Small);
    let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
    check_recovery_rungs(&solver, &g, &balanced_rhs(g.n(), 3));

    let grid = generators::grid2d(12, 12, |x, y| 1.0 + ((x + 2 * y) % 3) as f64);
    let lap = parsdd_linalg::laplacian::laplacian_of(&grid);
    let n = grid.n();
    let mut trips: Vec<(u32, u32, f64)> = (0..n)
        .flat_map(|r| lap.row(r).map(move |(c, v)| (r as u32, c, v)))
        .collect();
    for i in 0..n as u32 {
        trips.push((i, i, 0.5));
    }
    for (u, v) in [(0u32, 77u32), (5, 140), (30, 31)] {
        trips.extend([(u, v, 0.2), (v, u, 0.2), (u, u, 0.2), (v, v, 0.2)]);
    }
    let a = CsrMatrix::from_triplets(n, n, &trips);
    let solver = SddSolver::new_sdd(&a, SddSolverOptions::default());
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
    check_recovery_rungs(&solver, GrembanReduction::new(&a, 1e-14).graph(), &b);
}
