//! What a built chain reports: its work model, quality and level-0 cut.

use parsdd_linalg::{Scalar, SparseLdl};

use super::cut::{direct_bottom_flops, w_cycle_solves};
use super::cycle::{BottomSolver, ChainCycle};
use super::SolverChain;

/// Statistics describing a built chain (consumed by experiments E8/E9 and
/// the bench baseline's work-balance tracking).
///
/// The per-level work model: one top-level preconditioner application
/// solves level 1 once; a solve of level `i` runs `k_i` inner iterations,
/// each applying `A_i` (≈ `m_i` flops) and recursing into one solve of
/// level `i+1` — so level `i` is solved `∏_{j<i} k_j` times and costs
/// `k_i · m_i` per solve. `level_work[0]` is the top application's own
/// forward/back-substitution pass (≈ `m_0`).
#[derive(Debug, Clone)]
pub struct ChainStats {
    /// Vertex count per level (including the bottom).
    pub level_vertices: Vec<usize>,
    /// Edge count per level (including the bottom).
    pub level_edges: Vec<usize>,
    /// Sparsifier edge count per level.
    pub sparsifier_edges: Vec<usize>,
    /// Configured sampling `κ_i` per level.
    pub kappas: Vec<f64>,
    /// Forest scale factor per level.
    pub tree_scales: Vec<f64>,
    /// Effective condition number per level: the ratio of the calibrated
    /// Chebyshev interval for levels ≥ 1; level 0 (driven by the adaptive
    /// outer PCG, never calibrated) reports the ratio of its provisional
    /// sampled-quadratic-form bounds — an estimate, not a measurement.
    pub kappa_eff: Vec<f64>,
    /// Calibrated inner iteration count (W-cycle width) per level.
    pub inner_iterations: Vec<usize>,
    /// Number of times each level is *solved* per top-level preconditioner
    /// application (`1` for level 1, `∏ k_j` below; index 0 is the top
    /// application itself, so `1.0`).
    pub level_applications: Vec<f64>,
    /// Estimated flops spent at each level per top-level preconditioner
    /// application (see the struct docs for the model; the last entry is
    /// the bottom solver's share).
    pub level_work: Vec<f64>,
    /// Total estimated flops per top-level preconditioner application
    /// (`Σ level_work`).
    pub work_per_application: f64,
    /// Number of bottom-level solves the recursion performs per top-level
    /// preconditioner application — the product of the calibrated inner
    /// iteration counts below the top (the quantity Lemma 6.6/6.8 bounds
    /// by `∏√κ_i`).
    pub recursion_leaves: f64,
    /// Whether the bottom is solved by a direct (sparse LDLᵀ) factor.
    pub direct_bottom: bool,
    /// Stored strictly-lower entries of the bottom's sparse factor (0
    /// for iterative/trivial bottoms). Each bottom solve streams this
    /// twice; the dense triangle it replaces is `n(n−1)/2` entries.
    pub bottom_factor_nnz: usize,
    /// Iterations one seeded probe solve of the iterative bottom took at
    /// build time, at the tolerance of a bottom solve inside a
    /// preconditioner application (0 for direct and trivial bottoms).
    /// The work model charges every bottom solve this many iterations.
    pub bottom_iterations: usize,
    /// Heap bytes each level keeps resident: its streamed matrix (see
    /// [`ChainLevel::resident_bytes`](super::ChainLevel::resident_bytes)).
    /// The last entry is the bottom's share: its f64 matrix and the direct
    /// factor or the iterative bottom's inverse diagonal. No entry counts
    /// a graph: a chain keeps none, and the graph
    /// [`SolverChain::bottom_graph`] rebuilds on request is not counted.
    pub level_resident_bytes: Vec<usize>,
    /// Total resident chain bytes (`Σ level_resident_bytes`).
    pub resident_bytes: usize,
    /// Matrix/factor bytes streamed per top-level preconditioner
    /// application under the same recursion model as
    /// [`ChainStats::level_work`]: level `i ≥ 1` streams its matrix
    /// `k_i` times per solve, the bottom streams its direct factor
    /// twice per solve (an iterative bottom its matrix once per
    /// [`ChainStats::bottom_iterations`]), and level 0's entry is the top
    /// application's own elimination pass (counted as its matrix stream
    /// once). Vector and
    /// elimination-trace traffic is excluded — identical across
    /// precisions — so this isolates exactly the bytes the precision
    /// knob halves.
    pub streamed_bytes_per_application: f64,
}

/// One level's row of a [`ChainQuality`] report.
#[derive(Debug, Clone)]
pub struct LevelQuality {
    /// Vertex count of the level's system `A_i`.
    pub vertices: usize,
    /// Edge count of the level's system `A_i`.
    pub edges: usize,
    /// Edge count of the sparsifier `B_i`.
    pub sparsifier_edges: usize,
    /// Sampling condition target `κ_i` carried by the sampled edges.
    pub kappa: f64,
    /// Measured effective condition number of the preconditioned operator
    /// at this level (see [`ChainStats::kappa_eff`] for the caveat on
    /// level 0).
    pub kappa_eff: f64,
    /// Forest scale factor `t_i`.
    pub tree_scale: f64,
    /// Calibrated inner iteration count (W-cycle width `k_i`).
    pub inner_iterations: usize,
    /// True when this level's κ derivation saturated a clamp (see
    /// [`ChainLevel::kappa_clamped`](super::ChainLevel::kappa_clamped)).
    pub kappa_clamped: bool,
    /// Heap bytes this level keeps resident (see
    /// [`ChainLevel::resident_bytes`](super::ChainLevel::resident_bytes)).
    pub resident_bytes: usize,
}

/// Chain-quality conformance report: the compact per-level and aggregate
/// view of a built chain that the workload-zoo harness (`tests/zoo.rs`)
/// asserts envelopes against and the `zoo` baseline experiment records.
/// Everything here is derived from [`ChainStats`] plus the per-level clamp
/// flags; building it costs one [`SolverChain::stats`] pass.
#[derive(Debug, Clone)]
pub struct ChainQuality {
    /// Number of chain levels above the bottom system.
    pub depth: usize,
    /// Per-level quality rows, top (input) level first.
    pub levels: Vec<LevelQuality>,
    /// Vertex count of the bottom system.
    pub bottom_vertices: usize,
    /// Edge count of the bottom system.
    pub bottom_edges: usize,
    /// Whether the bottom is solved by a direct (sparse LDLᵀ) factor.
    pub direct_bottom: bool,
    /// Stored strictly-lower entries of the bottom's sparse factor.
    pub bottom_factor_nnz: usize,
    /// Estimated flops per top-level preconditioner application.
    pub work_per_application: f64,
    /// `work_per_application` divided by the input's edge count — the
    /// size-free cost ratio the per-family envelopes bound (a chain whose
    /// preconditioner application costs `c·m` flops keeps the whole solve
    /// linear-ish in `m`).
    pub work_per_input_edge: f64,
    /// Bottom solves per top-level preconditioner application.
    pub recursion_leaves: f64,
    /// Number of levels whose κ derivation saturated a clamp. Non-zero
    /// means some level degraded toward subgraph-only sampling (expected
    /// on near-disconnected inputs; a red flag elsewhere).
    pub kappa_clamp_hits: usize,
    /// Total resident chain bytes (see
    /// [`ChainStats::level_resident_bytes`]).
    pub resident_bytes: usize,
    /// Matrix/factor bytes streamed per top-level preconditioner
    /// application (see [`ChainStats::streamed_bytes_per_application`]).
    pub streamed_bytes_per_application: f64,
    /// The level-0 cut's decision, on chains
    /// [`SddSolver`](crate::sdd_solve::SddSolver) built with a probe
    /// (`None` on [`build_chain`](super::build_chain)'s chains, and when
    /// no level could be built or the tolerance is 0).
    pub level0: Option<Level0Decision>,
}

/// Which solver runs level 0 (DESIGN.md §2.10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level0Path {
    /// The preconditioner chain, as [`build_chain`](super::build_chain)
    /// builds it.
    Chain,
    /// Jacobi-PCG on the input: a depth-0 chain with an iterative bottom.
    JacobiPcg,
}

/// The level-0 cut's record: what the capped Jacobi-PCG probe on level 0
/// saw, and the path it chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Level0Decision {
    /// The path taken.
    pub path: Level0Path,
    /// Jacobi-PCG sweeps the probe ran on level 0, at most `cap`.
    pub probe_sweeps: usize,
    /// Most sweeps to the probe's 3e-2 that still send level 0 to
    /// Jacobi-PCG at the solve tolerance.
    pub cap: usize,
    /// Jacobi-PCG iterations to the solve's final tolerance, extrapolated
    /// from the probe; `None` when the probe did not converge within the
    /// cap.
    pub predicted_iterations: Option<usize>,
}

impl std::fmt::Display for Level0Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.path {
            Level0Path::JacobiPcg => write!(
                f,
                "level 0: Jacobi-PCG, probe {} sweeps ≤ cap {}",
                self.probe_sweeps, self.cap
            ),
            Level0Path::Chain => write!(
                f,
                "level 0: chain, probe unconverged at {} sweeps (cap {})",
                self.probe_sweeps, self.cap
            ),
        }
    }
}

impl ChainQuality {
    /// Largest measured per-level κ_eff (∞ when any level's calibrated
    /// interval collapsed).
    pub fn max_kappa_eff(&self) -> f64 {
        self.levels.iter().map(|l| l.kappa_eff).fold(0.0, f64::max)
    }

    /// One-line human-readable digest for logs and bench output. A
    /// depth-0 chain has no levels to fold κ_eff or leaves over; its line
    /// names the level-0 decision instead.
    pub fn summary(&self) -> String {
        let level0 = self.level0.map(|d| format!(" · {d}")).unwrap_or_default();
        let bottom = format!(
            "bottom {}v/{}e ({}) · work/app {:.3e} ({:.1}×m)",
            self.bottom_vertices,
            self.bottom_edges,
            if self.direct_bottom {
                "direct"
            } else {
                "iterative"
            },
            self.work_per_application,
            self.work_per_input_edge,
        );
        if self.depth == 0 {
            return format!("depth 0{level0} · {bottom}");
        }
        format!(
            "depth {} · {bottom} · leaves {:.0} · max κ_eff {:.1}{}{level0}",
            self.depth,
            self.recursion_leaves,
            self.max_kappa_eff(),
            if self.kappa_clamp_hits > 0 {
                format!(" · κ-clamp×{}", self.kappa_clamp_hits)
            } else {
                String::new()
            }
        )
    }
}

impl SolverChain {
    /// Stored entries, resident bytes and bytes streamed per solve of the
    /// direct bottom's factor, at the cycle's precision.
    fn factor_shape(&self) -> Option<(usize, usize, usize)> {
        fn shape<T: Scalar>(f: &SparseLdl<T>) -> (usize, usize, usize) {
            (f.nnz(), f.resident_bytes(), f.stream_bytes())
        }
        match &self.cycle {
            ChainCycle::F64(c) => c.factor.as_ref().map(shape),
            ChainCycle::F32(c) => c.factor.as_ref().map(shape),
        }
    }

    /// One bottom solve's modelled flops and streamed bytes, and the
    /// bytes the bottom keeps resident. A direct bottom streams both
    /// triangular passes and the diagonal of its factor (at its storage
    /// width), an iterative one its matrix once per probe iteration. The
    /// resident bytes are the f64 merged-row matrix and the factor's
    /// arrays or the inverse diagonal (the bottom keeps no graph).
    fn bottom_costs(&self) -> (f64, f64, usize) {
        let (n, m) = (self.bottom_matrix.n(), self.bottom_matrix.m() as f64);
        let matrix_bytes = self.bottom_matrix.stream_bytes();
        let (flops, stream, own) = match &self.bottom {
            BottomSolver::Trivial => (0.0, 0.0, 0),
            BottomSolver::Direct => {
                let (nnz, resident, stream) = self.factor_shape().unwrap_or((0, 0, 0));
                (direct_bottom_flops(n, nnz), stream as f64, resident)
            }
            BottomSolver::Iterative(jacobi) => {
                let its = jacobi.probe_iterations as f64;
                (
                    m * its,
                    matrix_bytes as f64 * its,
                    jacobi.inv_diag.len() * 8,
                )
            }
        };
        let resident = matrix_bytes + own;
        (flops, stream, resident)
    }

    /// Summary statistics of the chain, including the per-level work
    /// accounting of the W-cycle (see [`ChainStats`] for the model).
    pub fn stats(&self) -> ChainStats {
        let mut level_vertices: Vec<usize> = self.levels.iter().map(|l| l.n()).collect();
        let mut level_edges: Vec<usize> = self.levels.iter().map(|l| l.m()).collect();
        level_vertices.push(self.bottom_matrix.n());
        level_edges.push(self.bottom_matrix.m());
        let (bottom_flops, bottom_stream, bottom_resident) = self.bottom_costs();
        let mut level_resident_bytes: Vec<usize> =
            self.levels.iter().map(|l| l.resident_bytes()).collect();
        level_resident_bytes.push(bottom_resident);
        let resident_bytes: usize = level_resident_bytes.iter().sum();

        // Applications and work, level by level: level 0 hosts the top
        // preconditioner application itself (one forward/back pass); level
        // i ≥ 1 is solved ∏_{1≤j<i} k_j times at k_i·m_i flops per solve;
        // the bottom is solved ∏ k_j times.
        let solves = w_cycle_solves(self.levels.iter().map(|l| l.inner_iterations));
        let mut level_work: Vec<f64> = Vec::with_capacity(self.levels.len() + 1);
        let mut streamed_bytes_per_application = 0.0f64;
        for (l, &sweeps) in self.levels.iter().zip(&solves[1..]) {
            level_work.push(sweeps * l.m() as f64);
            streamed_bytes_per_application += sweeps * l.stream_bytes() as f64;
        }
        let recursion_leaves = solves[self.levels.len()];
        level_work.push(recursion_leaves * bottom_flops);
        streamed_bytes_per_application += recursion_leaves * bottom_stream;
        let work_per_application: f64 = level_work.iter().sum();
        ChainStats {
            level_vertices,
            level_edges,
            sparsifier_edges: self.levels.iter().map(|l| l.sparsifier_edges).collect(),
            kappas: self.levels.iter().map(|l| l.kappa).collect(),
            tree_scales: self.levels.iter().map(|l| l.tree_scale).collect(),
            kappa_eff: self.levels.iter().map(|l| l.kappa_eff()).collect(),
            inner_iterations: self.levels.iter().map(|l| l.inner_iterations).collect(),
            level_applications: solves,
            level_work,
            work_per_application,
            recursion_leaves,
            direct_bottom: matches!(self.bottom, BottomSolver::Direct),
            bottom_factor_nnz: self.factor_shape().map_or(0, |(nnz, ..)| nnz),
            bottom_iterations: match &self.bottom {
                BottomSolver::Iterative(jacobi) => jacobi.probe_iterations,
                _ => 0,
            },
            level_resident_bytes,
            resident_bytes,
            streamed_bytes_per_application,
        }
    }

    /// Chain-quality conformance report (see [`ChainQuality`]): the
    /// per-level/aggregate digest the workload zoo pins envelopes on.
    pub fn quality(&self) -> ChainQuality {
        let stats = self.stats();
        let input_edges = stats.level_edges[0];
        let levels: Vec<LevelQuality> = self
            .levels
            .iter()
            .map(|l| LevelQuality {
                vertices: l.n(),
                edges: l.m(),
                sparsifier_edges: l.sparsifier_edges,
                kappa: l.kappa,
                kappa_eff: l.kappa_eff(),
                tree_scale: l.tree_scale,
                inner_iterations: l.inner_iterations,
                kappa_clamped: l.kappa_clamped,
                resident_bytes: l.resident_bytes(),
            })
            .collect();
        let kappa_clamp_hits = levels.iter().filter(|l| l.kappa_clamped).count();
        ChainQuality {
            depth: levels.len(),
            levels,
            bottom_vertices: self.bottom_matrix.n(),
            bottom_edges: self.bottom_matrix.m(),
            direct_bottom: stats.direct_bottom,
            bottom_factor_nnz: stats.bottom_factor_nnz,
            work_per_application: stats.work_per_application,
            work_per_input_edge: stats.work_per_application / input_edges.max(1) as f64,
            recursion_leaves: stats.recursion_leaves,
            kappa_clamp_hits,
            resident_bytes: stats.resident_bytes,
            streamed_bytes_per_application: stats.streamed_bytes_per_application,
            level0: self.level0,
        }
    }
}
