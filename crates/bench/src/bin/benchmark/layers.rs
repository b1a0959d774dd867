//! The traced pass: times each layer from outside, by calling the public
//! functions `build_chain` calls at level 0 and the kernels every solve
//! runs, each call in its own span, then times set-ups and solves on a
//! pool of two workers.

use std::sync::Mutex;

use parsdd_decomp::partition::partition_single_class;
use parsdd_decomp::PartitionParams;
use parsdd_graph::components::parallel_connected_components;
use parsdd_graph::reorder::{rcm_order, relabel};
use parsdd_graph::unionfind::UnionFind;
use parsdd_graph::{Edge, EdgeId, Graph};
use parsdd_linalg::cg::{block_pcg_solve, pcg_solve, CgOptions};
use parsdd_linalg::envelope::EnvelopeLdl;
use parsdd_linalg::jacobi::JacobiPreconditioner;
use parsdd_linalg::laplacian::LaplacianOp;
use parsdd_linalg::operator::Preconditioner;
use parsdd_linalg::vector::project_out_componentwise_constant;
use parsdd_linalg::{MultiVector, PermutedLevel};
use parsdd_lsst::stretch::stretch_over_tree;
use parsdd_lsst::subgraph::{ls_subgraph, LsSubgraphParams};
use parsdd_solver::chain::{ChainOptions, ChainPreconditioner};
use parsdd_solver::elimination::greedy_elimination;
use parsdd_solver::sdd_solve::SddSolver;
use parsdd_solver::sparsify::incremental_sparsify_with_target;

use crate::measure::{build, jacobi_pcg, median, solve_all, EndToEnd, Gate, Metric, TOL};
use crate::trace::Recorder;
use crate::workloads::Inputs;

/// Rounds of the traced pass: every per-layer time is a median of this
/// many warm calls.
const ROUNDS: usize = 20;
/// Iteration budget of the traced outer PCG; the chain needs about 110.
const MAX_OUTER_ITERATIONS: usize = 1000;
/// Radius of the standalone decomposition: `subgraph_z / 4` at the default
/// `z = 32`.
const PARTITION_RADIUS: u32 = 8;
/// The chain's zero-pivot threshold for its envelope bottom factor.
const ENVELOPE_PIVOT_TOL: f64 = 1e-10;
/// The replica's level-0 sparsifier may differ from the chain's by this
/// share before a warning is printed.
const FIDELITY_TOL: f64 = 0.05;
/// Workers of the pool the `parallel.*` samples run on, if the host has
/// that many cores.
const PARALLEL_WIDTH: usize = 2;
/// Set-ups and solves each `parallel.*` time is the median of.
const PARALLEL_SAMPLES: usize = 3;

/// The chain as a preconditioner that records a span per application.
struct TracedChain<'a, 'r> {
    chain: ChainPreconditioner<'a>,
    rec: Mutex<&'r mut Recorder>,
}

impl Preconditioner for TracedChain<'_, '_> {
    fn dim(&self) -> usize {
        self.chain.dim()
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        let mut rec = self.rec.lock().expect("recorder lock");
        rec.span("solver.precondition", |_| self.chain.precondition(r, z));
    }

    fn precondition_block(&self, r: &MultiVector, z: &mut MultiVector) {
        let mut rec = self.rec.lock().expect("recorder lock");
        rec.span("solver.precondition", |_| {
            self.chain.precondition_block(r, z)
        });
    }
}

/// The bottom solver the chain uses: the envelope factor when the bottom is
/// direct, Jacobi-PCG to the chain's bottom tolerance when it is iterative.
enum Bottom<'g> {
    Direct(EnvelopeLdl),
    Iterative(LaplacianOp<'g>, JacobiPreconditioner),
}

/// What the level-0 counts are read from.
struct Level0 {
    lengths: Graph,
    subgraph_edges: usize,
    forest: Vec<EdgeId>,
    sparsifier_edges: usize,
    kept: usize,
}

/// The level-0 pipeline of `build_chain`, one span per public call.
fn level0(rec: &mut Recorder, g: &Graph, opts: &ChainOptions) -> Level0 {
    // `build_chain` advances its seed once before building level 0.
    let seed = opts
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(1);
    let simple = rec.span("graph.simplify", |_| g.simplify());
    let current = rec.span("graph.rcm", |_| relabel(&simple, &rcm_order(&simple)));
    let (lengths, sub, sub_edges) = rec.span("lsst.ls_subgraph", |_| {
        let lengths = Graph::from_edges_unchecked(
            current.n(),
            current
                .edges()
                .iter()
                .map(|e| Edge::new(e.u, e.v, 1.0 / e.w))
                .collect(),
        );
        let params =
            LsSubgraphParams::practical(opts.subgraph_z, opts.subgraph_lambda).with_seed(seed);
        let sub = ls_subgraph(&lengths, &params);
        let sub_edges = sub.all_edges();
        (lengths, sub, sub_edges)
    });
    let forest = rec.span("lsst.forest", |_| {
        let mut uf = UnionFind::new(current.n());
        let mut forest = Vec::with_capacity(current.n().saturating_sub(1));
        for &e in &sub.subgraph.tree_edges {
            let edge = lengths.edge(e);
            if uf.unite(edge.u, edge.v) {
                forest.push(e);
            }
        }
        let mut rest: Vec<EdgeId> = sub_edges
            .iter()
            .copied()
            .filter(|&e| !uf.same(lengths.edge(e).u, lengths.edge(e).v))
            .collect();
        rest.sort_by(|&a, &b| lengths.edge(a).w.total_cmp(&lengths.edge(b).w));
        for e in rest {
            let edge = lengths.edge(e);
            if uf.unite(edge.u, edge.v) {
                forest.push(e);
            }
        }
        forest
    });
    let (sparsifier, _) = rec.span("solver.sparsify", |_| {
        let off_subgraph = current.m().saturating_sub(sub_edges.len());
        let budget = ((opts.extra_fraction * off_subgraph as f64) as usize).max(8);
        incremental_sparsify_with_target(
            &current,
            &sub_edges,
            &forest,
            budget,
            opts.oversample,
            opts.tree_scale,
            seed,
        )
    });
    let elimination = rec.span("solver.elimination", |_| {
        let mut elimination = greedy_elimination(&sparsifier.graph, seed);
        let next = rcm_order(&elimination.reduced_graph);
        elimination.relabel_reduced(&next);
        elimination
    });
    Level0 {
        lengths,
        subgraph_edges: sub_edges.len(),
        forest,
        sparsifier_edges: sparsifier.edge_count(),
        kept: elimination.kept.len(),
    }
}

/// Runs one traced solve, one outer PCG with a span per W-cycle
/// application, `ROUNDS` traced rounds on the warm `solver`, and
/// `PARALLEL_SAMPLES` set-ups and solves on a wider pool, whose solves
/// `gate` checks. Derives the per-layer metrics from the spans and from
/// `e2e`, the untraced samples of the same run.
pub fn traced_pass(
    rec: &mut Recorder,
    inputs: &Inputs,
    solver: &SddSolver,
    e2e: &EndToEnd,
    gate: &mut Gate,
    jacobi_iterations: f64,
) -> Vec<Metric> {
    let g = &inputs.graph;
    let k = inputs.rhs.len();
    let chain = solver.chain();
    let opts = *chain.options();
    let stats = chain.stats();
    let quality = chain.quality();

    // The chain's level-0 matrix (`rcm_order` is the default ordering),
    // which the outer PCG multiplies by.
    let simple = g.simplify();
    let top = PermutedLevel::from_graph(&relabel(&simple, &rcm_order(&simple)));
    let block = MultiVector::from_columns(&inputs.rhs).to_rowmajor();
    let bottom_graph = chain.bottom_graph();
    let bottom_rhs = {
        let comps = parallel_connected_components(bottom_graph);
        let columns: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let mut c: Vec<f64> = (0..bottom_graph.n())
                    .map(|i| ((i * 7 + j * 13) % 17) as f64 - 8.0)
                    .collect();
                project_out_componentwise_constant(&mut c, &comps.labels, comps.count);
                c
            })
            .collect();
        MultiVector::from_columns(&columns).to_rowmajor()
    };

    rec.span("solver.solve", |_| solve_all(solver, &inputs.rhs));
    // The W-cycle timed where it runs: inside an outer PCG, on its
    // residuals. An iterative bottom's cost depends on its input, which a
    // call between other kernels would not reproduce.
    rec.span("solver.outer_pcg", |rec| {
        let op = LaplacianOp::new(g);
        let traced = TracedChain {
            chain: ChainPreconditioner::new(chain),
            rec: Mutex::new(rec),
        };
        let options = CgOptions {
            max_iters: MAX_OUTER_ITERATIONS,
            tol: TOL,
        };
        if let [b] = &inputs.rhs[..] {
            pcg_solve(&op, &traced, b, &options);
        } else {
            let block = MultiVector::from_columns(&inputs.rhs);
            block_pcg_solve(&op, &traced, &block, &options);
        }
    });
    let mut ap = vec![0.0; block.len()];
    let (mut dots, mut partial) = (Vec::new(), Vec::new());
    let mut last = None;
    rec.span("run", |rec| {
        for round in 0..ROUNDS {
            last = Some(rec.span("round", |rec| {
                let l0 = rec.span("build.level0", |rec| level0(rec, g, &opts));
                rec.span("graph.components", |_| parallel_connected_components(g));
                let partition = rec.span("decomp.partition", |_| {
                    partition_single_class(
                        &l0.lengths,
                        &PartitionParams::new(PARTITION_RADIUS).with_seed(opts.seed),
                    )
                });
                let bottom = rec.span("linalg.bottom_factor", |_| {
                    if stats.direct_bottom {
                        Bottom::Direct(EnvelopeLdl::from_graph(bottom_graph, ENVELOPE_PIVOT_TOL))
                    } else {
                        let op = LaplacianOp::new(bottom_graph);
                        let jacobi = JacobiPreconditioner::from_laplacian(&op);
                        Bottom::Iterative(op, jacobi)
                    }
                });
                rec.span("linalg.bottom_solve", |_| match &bottom {
                    Bottom::Direct(env) => {
                        let mut out = Vec::new();
                        env.solve_rowmajor_into(&bottom_rhs, k, &mut out);
                        out
                    }
                    // Mirrors the chain's iterative bottom: blocked
                    // Jacobi-PCG with its iteration cap, to the 1e-8 it
                    // asks of a bottom solve inside a preconditioner.
                    Bottom::Iterative(op, jacobi) => {
                        let options = CgOptions {
                            max_iters: (2 * bottom_graph.n()).clamp(100, 4000),
                            tol: 1e-8,
                        };
                        let b = MultiVector::from_rowmajor(&bottom_rhs, k);
                        let outs = block_pcg_solve(op, jacobi, &b, &options);
                        outs.into_iter().flat_map(|o| o.x).collect()
                    }
                });
                rec.span("linalg.matvec", |_| {
                    top.fused_apply_dot_into(&block, &mut ap, k, &mut dots, &mut partial);
                });
                let b = &inputs.rhs[round % k];
                rec.span("baseline.jacobi_pcg", |_| jacobi_pcg(g, b));
                (l0, partition)
            }));
        }
    });
    let (l0, partition) = last.expect("ROUNDS > 0");
    // The same set-up and solve with the pool's workers in parallel; every
    // other time of the run is on one worker.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wide = rayon::ThreadPoolBuilder::new()
        .num_threads(PARALLEL_WIDTH.min(cores))
        .build()
        .expect("build the parallel pool");
    wide.install(|| {
        rec.span("parallel", |rec| {
            for _ in 0..PARALLEL_SAMPLES {
                rec.span("parallel.setup", |_| build(g));
                let outcomes = rec.span("parallel.solve", |_| solve_all(solver, &inputs.rhs));
                gate.check(&outcomes);
            }
        })
    });

    let chain_sparsifier = stats.sparsifier_edges.first().copied().unwrap_or(0);
    let drift = (l0.sparsifier_edges as f64 - chain_sparsifier as f64).abs()
        / chain_sparsifier.max(1) as f64;
    if drift > FIDELITY_TOL {
        eprintln!(
            "warning: the level-0 replica's sparsifier has {} edges, the chain's {chain_sparsifier}; \
             the per-layer times may not describe the chain's build",
            l0.sparsifier_edges
        );
    }

    // A span's median self time, reported as the per-layer metric named
    // after the span with an `_s` suffix; `per` divides block timings down
    // to one right-hand side.
    let timing = |span: &str, per: f64| {
        let xs = rec.self_times(span);
        let (name, _) = crate::PER_LAYER
            .iter()
            .find(|(name, _)| name.strip_suffix("_s") == Some(span))
            .unwrap_or_else(|| panic!("span {span} has no metric"));
        Metric {
            name,
            value: median(&xs) / per,
            samples: Some(xs.len()),
        }
    };
    let level0_phases = [
        timing("graph.simplify", 1.0),
        timing("graph.rcm", 1.0),
        timing("lsst.ls_subgraph", 1.0),
        timing("lsst.forest", 1.0),
        timing("solver.sparsify", 1.0),
        timing("solver.elimination", 1.0),
    ];
    let build_rest = e2e.setup.median - level0_phases.iter().map(|m| m.value).sum::<f64>();
    let kf = k as f64;
    let precondition = timing("solver.precondition", kf);
    let matvec = timing("linalg.matvec", kf);
    let iterations = e2e.outer_iterations;
    let solve = e2e.solve.median;
    let parallel_setup = timing("parallel.setup", 1.0);
    let parallel_solve = timing("parallel.solve", kf);
    let mut out: Vec<Metric> = level0_phases.into_iter().collect();
    out.extend([
        timing("graph.components", 1.0),
        timing("decomp.partition", 1.0),
        Metric::plain("decomp.bfs_rounds", partition.split.bfs_rounds_total as f64),
        Metric::plain("decomp.cut_fraction", partition.max_cut_fraction()),
        Metric::plain("lsst.subgraph_edges", l0.subgraph_edges as f64),
        Metric::plain(
            "lsst.avg_stretch",
            stretch_over_tree(&l0.lengths, &l0.forest).average_stretch,
        ),
        Metric::plain("solver.sparsifier_edges", l0.sparsifier_edges as f64),
        Metric::plain("solver.elimination_kept", l0.kept as f64),
        Metric::plain("solver.build_rest_s", build_rest),
        timing("linalg.bottom_factor", 1.0),
        timing("linalg.bottom_solve", 1.0),
        Metric::plain(
            "solver.precondition_share",
            iterations * precondition.value / solve,
        ),
        Metric::plain(
            "solver.outer_other_s",
            solve - iterations * (precondition.value + matvec.value),
        ),
        Metric::plain(
            "solver.precondition_gbs",
            stats.streamed_bytes_per_application / (precondition.value * kf) / 1e9,
        ),
        precondition,
        matvec,
        Metric::plain("solver.outer_iterations", iterations),
        Metric::plain("chain.depth", chain.depth() as f64),
        Metric::plain("chain.recursion_leaves", stats.recursion_leaves),
        Metric::plain("chain.bottom_vertices", bottom_graph.n() as f64),
        Metric::plain(
            "chain.direct_bottom",
            f64::from(u8::from(stats.direct_bottom)),
        ),
        Metric::plain("chain.work_per_edge", quality.work_per_input_edge),
        Metric::plain(
            "chain.streamed_bytes_per_application",
            stats.streamed_bytes_per_application,
        ),
        Metric::plain("chain.resident_bytes", stats.resident_bytes as f64),
        timing("baseline.jacobi_pcg", 1.0),
        Metric::plain("baseline.jacobi_pcg_iterations", jacobi_iterations),
        Metric::plain(
            "trace.overhead",
            rec.self_times("solver.solve")[0] / kf / solve - 1.0,
        ),
        Metric::plain(
            "parallel.setup_speedup",
            e2e.setup.median / parallel_setup.value,
        ),
        Metric::plain("parallel.solve_speedup", solve / parallel_solve.value),
        parallel_setup,
        parallel_solve,
    ]);
    out
}
