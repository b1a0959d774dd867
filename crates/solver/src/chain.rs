//! The preconditioner chain (Definition 6.3, Section 6.1–6.3) and the
//! recursive W-cycle solver built on it (rPCh, Lemmas 6.6–6.8).
//!
//! Construction (`build_chain`): starting from `A_1 = A`,
//!
//! 1. `Ĝ_i  = LSSubgraph(A_i)` — low-stretch ultra-sparse subgraph
//!    (Theorem 5.9, crate `parsdd-lsst`);
//! 2. `B_i  = IncrementalSparsify(A_i, Ĝ_i, κ_i, t_i)` — keep `Ĝ_i` with
//!    its forest scaled up by `t_i`, sample the remaining edges by scaled
//!    stretch (Lemma 6.1 + KMP10 tree scaling, [`crate::sparsify`]);
//! 3. `A_{i+1} = GreedyElimination(B_i)` — partial Cholesky of low-degree,
//!    bounded-fill-star, and weighted-degree-dominated vertices
//!    (Lemma 6.5, [`crate::elimination`]);
//!
//! until the level is small enough (Section 6.3 stops at ≈ `m^{1/3}`) *or*
//! the levels stop shrinking (a data-driven cutoff on both `n` and `m` —
//! deeper levels that do not shrink only add recursion overhead), at which
//! point the bottom system is factored directly (Fact 6.4, a sparse LDLᵀ
//! in minimum-degree order) or, if that factor would store too many
//! entries, solved iteratively.
//!
//! Solving (`SolverChain::solve`): the top level runs flexible
//! preconditioned CG; below it the chain is a uniform recursive **W-cycle**
//! — each preconditioner application forwards the residual through level
//! `i`'s elimination, solves level `i+1` with that level's *fixed* number
//! `k_{i+1}` of preconditioned Chebyshev iterations (a linear operator, as
//! rPCh requires; `k ≥ 2` makes the recursion tree a W shape), and
//! back-substitutes, down to the bottom solver. Per-level iteration counts
//! are derived from the *measured* effective condition number of the
//! scaled preconditioner: the Chebyshev interval of every level is
//! calibrated after construction by power iteration on the effective
//! preconditioned operator
//! ([`parsdd_linalg::power::spectrum_bounds_of_map`]): Chebyshev
//! polynomials explode outside their interval, so sampled-quadratic-form
//! bounds alone make deep chains diverge.
//!
//! The work balance that lets the chain go deep (DESIGN.md §2.1): with the
//! forest of level `i` scaled by `t_i`, the level's condition target is
//! `t_i·κ_i` *with certainty*, so `k_i ≈ √(t_i·κ_i)` stays small and the
//! off-forest sample budget `c·S_i·log n/(t_i·κ_i)` shrinks geometrically
//! as the levels (and their total stretch `S_i`) shrink; the stronger
//! elimination keeps the per-level vertex shrink at or above `k_i`, which
//! is the condition for `Σ_i (∏_{j≤i} k_j)·m_i` — the W-cycle's work — to
//! stay near-linear.

use std::sync::Mutex;

use parsdd_graph::components::{parallel_connected_components, Components};
use parsdd_graph::reorder::{identity_order, min_degree_order, rcm_order, relabel};
use parsdd_graph::{EdgeId, Graph};
use parsdd_linalg::block::MultiVector;
use parsdd_linalg::breakdown::{BreakdownReason, DIVERGENCE_FACTOR};
use parsdd_linalg::operator::Preconditioner;
use parsdd_linalg::permuted::PermutedLevel;
use parsdd_linalg::power::{quadratic_form_ratio_bounds, spectrum_bounds_of_map};
use parsdd_linalg::vector::{
    colwise_dots_rm, colwise_dots_rm_into, dot_strided, project_out_componentwise_constant,
    project_out_componentwise_rows, project_out_componentwise_rows_with,
};
use parsdd_linalg::{Scalar, SparseLdl};
use parsdd_lsst::subgraph::{ls_subgraph, LsSubgraphParams};

use crate::elimination::{greedy_elimination, CompiledTrace, EliminationResult};
use crate::error::RecoveryStep;
use crate::sparsify::{incremental_sparsify, SparsifyParams};

/// Vertex ordering baked into every chain level's storage at
/// [`build_chain`] time. Interior iterations run entirely in the chosen
/// index space; [`SolverChain::solve_block`] permutes boundary vectors
/// once on entry and exit. A direct bottom is relabelled once more, into
/// its minimum-degree order, whatever this says: its factor's fill, not
/// its bandwidth, is what that level streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelOrdering {
    /// Reverse Cuthill–McKee bandwidth reduction
    /// ([`parsdd_graph::reorder::rcm_order`]): SpMV gathers and the
    /// elimination trace touch a narrow index band. The default.
    BandwidthReducing,
    /// Keep the generator/elimination order (the pre-permutation
    /// behaviour; ablation and testing baseline).
    Identity,
}

/// Storage precision of the operators the preconditioner streams per
/// application (the per-level merged CSR matrices of levels ≥ 1 and the
/// bottom factor).
///
/// The solve is memory-bandwidth-bound (DESIGN.md §2.3): bytes streamed
/// per iteration is the cost model, so halving entry width halves the
/// inner loops' traffic. Under [`Precision::F32`] everything
/// *preconditioner-internal* narrows — matrix coefficients, the bottom
/// factor, the Chebyshev direction block and its row dots, and the
/// elimination traces' prefolded coefficients — while the outer flexible
/// PCG (its vectors, reductions, and the level-0 operator it measures
/// true residuals through) stays entirely f64, so the chain still
/// converges to full 1e-8 outer tolerances; the preconditioner is merely
/// a slightly different (cheaper) linear map, which flexible PCG absorbs
/// by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full f64 storage everywhere — the determinism-pinned default. The
    /// f64 path is byte-for-byte identical to chains built before the
    /// precision knob existed.
    #[default]
    F64,
    /// f32 storage for the per-level matrices of levels ≥ 1, the bottom
    /// factor and every level's compiled elimination trace
    /// ([`CompiledTrace`], divisions prefolded into f32 reciprocals),
    /// demoted once after an all-f64 build; Chebyshev intervals are
    /// calibrated against the demoted operator. The whole W-cycle below
    /// the outer PCG then runs on f32 vectors. A depth-0 chain has no
    /// cycle and keeps its f64 bottom, whose solve is the final answer.
    F32,
}

impl Precision {
    /// The environment variable [`from_env`](Self::from_env) reads.
    const ENV_VAR: &'static str = "PARSDD_PRECISION";

    /// Reads the `PARSDD_PRECISION` environment variable (`f32` or `f64`,
    /// case-insensitive). This is the process-wide override the CI
    /// thread-matrix job uses to run whole test suites under the f32
    /// storage tier without touching call sites. Unset returns `None` and
    /// callers keep their configured default.
    ///
    /// # Panics
    ///
    /// If the variable is set to anything else (a typo such as `fp32`
    /// would otherwise silently re-run the f64 suite).
    pub fn from_env() -> Option<Precision> {
        std::env::var_os(Self::ENV_VAR).map(|v| Self::parse_env_value(&v.to_string_lossy()))
    }

    /// Parses a set `PARSDD_PRECISION` value; panics, naming the variable
    /// and the accepted values, on anything but `f32`/`f64`.
    fn parse_env_value(v: &str) -> Precision {
        if v.eq_ignore_ascii_case("f32") {
            Precision::F32
        } else if v.eq_ignore_ascii_case("f64") {
            Precision::F64
        } else {
            panic!(
                "{}={v:?} is not a precision; accepted values are `f32` and `f64` \
                 (case-insensitive), or leave it unset",
                Self::ENV_VAR
            )
        }
    }
}

/// Options controlling chain construction and the recursive solver.
///
/// Call [`ChainOptions::sanitized`] (done automatically by
/// [`build_chain`]) to clamp out-of-range values, or
/// [`ChainOptions::validate`] to reject them loudly at construction time
/// instead of diverging deep inside the build.
#[derive(Debug, Clone, Copy)]
pub struct ChainOptions {
    /// When `true` (the default), the per-level condition number `κ_i` is
    /// derived from the level's total stretch so that the sparsifier
    /// samples an `extra_fraction` of the off-subgraph edges in expectation
    /// — Lemma 6.2's trade-off read backwards. When `false`, the fixed
    /// `kappa` below is used at every level (the paper's uniform-κ schedule
    /// of Lemma 6.9).
    pub auto_kappa: bool,
    /// Fraction of the level's *off-subgraph* edges the sparsifier samples
    /// in expectation (used when `auto_kappa` is set). Larger values give a
    /// spectrally stronger (but denser) preconditioner.
    pub extra_fraction: f64,
    /// Opt-in adaptive per-level parameter selection. When `true`, each
    /// level derives its forest scale and sampling budget from the
    /// *measured* mean off-subgraph stretch `s̄` of that level instead of
    /// the grid-tuned `tree_scale`/`extra_fraction` constants:
    /// `t_i = clamp(√(s̄·ln n), 1, 64)` (the forest absorbs a deterministic
    /// condition factor matched to the stretch scale) and the sample
    /// fraction `f_i = clamp(c·s̄·ln n / κ_target, 0.02, 1)` — which pins
    /// the level's full condition target `t_i·κ_i = c·s̄·ln n / f_i` at
    /// [`Self::adaptive_kappa_target`] whenever the clamps don't bind.
    /// High-stretch families (skewed weights, expanders) get heavier
    /// forests and denser sampling; easy families get lighter levels. The
    /// default is `false`: the fixed grid-tuned schedule is pinned for
    /// determinism, and every committed baseline/bitwise contract runs on
    /// it.
    pub adaptive: bool,
    /// Per-level full condition target `t_i·κ_i` aimed for by the adaptive
    /// schedule (used only when [`Self::adaptive`] is set).
    pub adaptive_kappa_target: f64,
    /// Target relative condition number `κ` carried by every level's
    /// sampled edges (used when `auto_kappa` is `false`; the level's full
    /// condition target is `tree_scale · κ`).
    pub kappa: f64,
    /// Per-level forest scale factor `t` (KMP10 tree scaling): each level's
    /// spanning forest is scaled up by this factor inside the sparsifier,
    /// absorbing a factor `t` of condition number deterministically so the
    /// off-forest sample budget shrinks. `1.0` disables scaling. Scaling
    /// compounds across levels because each level re-scales its own forest.
    pub tree_scale: f64,
    /// Bucket base `z` of the low-stretch subgraph construction.
    pub subgraph_z: f64,
    /// Promotion lag `λ` of the low-stretch subgraph construction.
    pub subgraph_lambda: u32,
    /// Oversampling constant of the incremental sparsifier.
    pub oversample: f64,
    /// Floor of the level loop: stop adding levels once a level has at
    /// most this many vertices (combined with `bottom_exponent`, Section
    /// 6.3). The chain may then end higher up: the cost cut keeps the
    /// direct bottom with the fewest modelled flops per application
    /// (DESIGN.md §2.10).
    pub bottom_size: usize,
    /// Terminate once a level has at most `m^bottom_exponent` vertices,
    /// where `m` is the edge count of the *input* (Section 6.3 uses 1/3).
    pub bottom_exponent: f64,
    /// Most strictly-lower entries a direct bottom factor may store (its
    /// fill in minimum-degree order, [`min_degree_order`]). A bottom
    /// system whose factor would store more is solved iteratively. The
    /// same cap bounds the cost cut's candidates (DESIGN.md §2.10) and a
    /// depth-0 system. The default, 2¹⁸ entries (2 MiB at f64), admits
    /// the bottoms of 2-D meshes and road networks of the benchmark sizes
    /// and keeps 3-D lattices and dense clusters iterative.
    pub direct_bottom_entry_limit: usize,
    /// Maximum number of chain levels (a backstop; the data-driven
    /// `min_shrink` cutoff is what normally terminates the chain).
    pub max_levels: usize,
    /// Data-driven depth cutoff: stop recursing when a level's vertex
    /// count shrinks by less than this factor (or its edge count stops
    /// shrinking at all) — such levels only add recursion overhead.
    pub min_shrink: f64,
    /// Vertex ordering baked into every level's storage (see
    /// [`LevelOrdering`]).
    pub ordering: LevelOrdering,
    /// Extra Chebyshev iterations added to `⌈√κ_eff⌉` at inner levels.
    pub inner_extra_iterations: usize,
    /// Hard cap on the per-level W-cycle width `k_i` (the calibrated
    /// `⌈√κ_eff⌉` budget is clamped to `[2, max_inner_iterations]`). The
    /// recursion's work multiplies by `k_i` per level while the levels
    /// shrink by the elimination's factor, so the cap is what keeps deep
    /// chains cheaper than the κ_eff tail would dictate — the adaptive
    /// outer PCG absorbs the slightly weaker inner solves.
    pub max_inner_iterations: usize,
    /// Storage precision of the streamed preconditioner operators (see
    /// [`Precision`]). [`Precision::F64`] is the determinism-pinned
    /// default; [`Precision::F32`] halves the bytes every inner
    /// iteration streams while the f64 outer loop keeps full-accuracy
    /// answers.
    pub precision: Precision,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChainOptions {
    fn default() -> Self {
        ChainOptions {
            auto_kappa: true,
            extra_fraction: 0.35,
            adaptive: false,
            adaptive_kappa_target: 256.0,
            kappa: 64.0,
            tree_scale: 8.0,
            subgraph_z: 32.0,
            subgraph_lambda: 2,
            oversample: 2.0,
            bottom_size: 300,
            bottom_exponent: 1.0 / 3.0,
            direct_bottom_entry_limit: 1 << 18,
            // Depth is data-driven (min_shrink); this is only a backstop
            // against pathological non-shrinking inputs.
            max_levels: 32,
            min_shrink: 1.3,
            ordering: LevelOrdering::BandwidthReducing,
            inner_extra_iterations: 1,
            max_inner_iterations: 4,
            precision: Precision::F64,
            seed: 0xcba_0001,
        }
    }
}

impl ChainOptions {
    /// Sets a fixed per-level condition number target (disables the
    /// stretch-adaptive schedule).
    pub fn with_kappa(mut self, kappa: f64) -> Self {
        self.kappa = kappa.max(1.0);
        self.auto_kappa = false;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-level forest scale factor.
    pub fn with_tree_scale(mut self, tree_scale: f64) -> Self {
        self.tree_scale = tree_scale;
        self
    }

    /// Enables the stretch-adaptive per-level parameter schedule (see
    /// [`Self::adaptive`]).
    pub fn with_adaptive(mut self) -> Self {
        self.adaptive = true;
        self.auto_kappa = true;
        self
    }

    /// Sets the per-level vertex ordering.
    pub fn with_ordering(mut self, ordering: LevelOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the storage precision of the streamed preconditioner
    /// operators (see [`Precision`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Checks every field for values that would make `build_chain` diverge
    /// or loop; returns a description of the first violation. Use this when
    /// options come from an untrusted source and should be *rejected*;
    /// [`Self::sanitized`] is the clamping alternative.
    pub fn validate(&self) -> Result<(), String> {
        fn pos_finite(name: &str, v: f64) -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be positive and finite, got {v}"))
            }
        }
        pos_finite("extra_fraction", self.extra_fraction)?;
        if self.extra_fraction > 1.0 {
            return Err(format!(
                "extra_fraction must be ≤ 1, got {}",
                self.extra_fraction
            ));
        }
        if !(self.kappa.is_finite() && self.kappa >= 1.0) {
            return Err(format!("kappa must be finite and ≥ 1, got {}", self.kappa));
        }
        if !(self.tree_scale.is_finite() && self.tree_scale >= 1.0) {
            return Err(format!(
                "tree_scale must be finite and ≥ 1, got {}",
                self.tree_scale
            ));
        }
        if !(self.adaptive_kappa_target.is_finite() && self.adaptive_kappa_target >= 4.0) {
            return Err(format!(
                "adaptive_kappa_target must be finite and ≥ 4, got {}",
                self.adaptive_kappa_target
            ));
        }
        pos_finite("oversample", self.oversample)?;
        if !(self.subgraph_z.is_finite() && self.subgraph_z > 1.0) {
            return Err(format!(
                "subgraph_z must be finite and > 1, got {}",
                self.subgraph_z
            ));
        }
        if self.bottom_size == 0 {
            return Err("bottom_size must be ≥ 1".to_string());
        }
        pos_finite("bottom_exponent", self.bottom_exponent)?;
        if self.bottom_exponent > 1.0 {
            return Err(format!(
                "bottom_exponent must be ≤ 1, got {}",
                self.bottom_exponent
            ));
        }
        if !(self.min_shrink.is_finite() && self.min_shrink > 1.0) {
            return Err(format!(
                "min_shrink must be finite and > 1, got {}",
                self.min_shrink
            ));
        }
        if self.max_inner_iterations < 2 {
            return Err(format!(
                "max_inner_iterations must be ≥ 2, got {}",
                self.max_inner_iterations
            ));
        }
        Ok(())
    }

    /// Returns a copy with every out-of-range field clamped to a safe
    /// value (the rejecting alternative is [`Self::validate`]).
    /// `build_chain` applies this automatically, so invalid options can no
    /// longer make the build diverge or hang.
    pub fn sanitized(&self) -> Self {
        let mut o = *self;
        let d = ChainOptions::default();
        if !(o.extra_fraction.is_finite() && o.extra_fraction > 0.0) {
            o.extra_fraction = d.extra_fraction;
        }
        o.extra_fraction = o.extra_fraction.min(1.0);
        if !o.kappa.is_finite() {
            o.kappa = d.kappa;
        }
        o.kappa = o.kappa.max(1.0);
        if !o.tree_scale.is_finite() {
            o.tree_scale = d.tree_scale;
        }
        o.tree_scale = o.tree_scale.max(1.0);
        if !o.adaptive_kappa_target.is_finite() {
            o.adaptive_kappa_target = d.adaptive_kappa_target;
        }
        o.adaptive_kappa_target = o.adaptive_kappa_target.max(4.0);
        if !(o.oversample.is_finite() && o.oversample > 0.0) {
            o.oversample = d.oversample;
        }
        if !(o.subgraph_z.is_finite() && o.subgraph_z > 1.0) {
            o.subgraph_z = d.subgraph_z;
        }
        o.bottom_size = o.bottom_size.max(1);
        if !(o.bottom_exponent.is_finite() && o.bottom_exponent > 0.0) {
            o.bottom_exponent = d.bottom_exponent;
        }
        o.bottom_exponent = o.bottom_exponent.min(1.0);
        if !(o.min_shrink.is_finite() && o.min_shrink > 1.0) {
            o.min_shrink = d.min_shrink;
        }
        o.max_inner_iterations = o.max_inner_iterations.max(2);
        o
    }
}

/// One level of the preconditioner chain.
#[derive(Debug, Clone)]
pub struct ChainLevel {
    /// The level's system `A_i` (a Laplacian graph with parallel edges
    /// merged), in the level's baked-in vertex order. Only consulted at
    /// build/calibration time — the per-application sweeps run on
    /// `matrix` — so `build_chain` drops it after calibration on *both*
    /// precision tiers and a long-lived chain stops holding ~2× the
    /// matrix memory it streams.
    graph: Option<Graph>,
    /// Vertex count of `A_i` (kept after `graph` is dropped).
    n: usize,
    /// Edge count of `A_i` (kept after `graph` is dropped).
    m: usize,
    /// Bytes the level's streamed matrix (merged diag+offdiag rows of
    /// `graph` at its storage precision) reads per sweep.
    stream_bytes: usize,
    /// Storage precision of the level's streamed matrix.
    storage_precision: Precision,
    /// The elimination taking the sparsifier `B_i` to `A_{i+1}`: the build
    /// record. Its step records are dropped once the chain's cycle holds
    /// the compiled trace.
    pub elimination: EliminationResult,
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
    /// level through [`ChainQuality`] so workloads can see the degradation
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

/// The bottom-of-chain solver (Fact 6.4, with an iterative fallback for
/// oversized bottoms).
#[derive(Debug, Clone)]
enum BottomSolver {
    /// Sparse LDLᵀ factorisation in minimum-degree order — the paper's
    /// direct bottom factor, storing and streaming only its fill (the
    /// recursion solves the bottom `∏k_i` times per preconditioner
    /// application, so this stream is a large share of the application's
    /// byte budget). The factor lives in the chain's [`Cycle`], at its
    /// storage precision.
    Direct,
    /// Jacobi-preconditioned CG on the bottom's merged-row matrix
    /// (fallback when the bottom's factor would store more than
    /// [`ChainOptions::direct_bottom_entry_limit`] entries). Inside a
    /// preconditioner application it stops at the loose
    /// [`SolverChain::PRECOND_BOTTOM_TOL`]; see DESIGN.md §2.9.
    Iterative(JacobiBottom),
    /// The bottom graph has no edges; the solution is zero.
    Trivial,
}

/// Build-time state of the iterative bottom.
#[derive(Debug, Clone)]
struct JacobiBottom {
    /// `1 / deg(v)` of the bottom matrix (1 for isolated vertices, as in
    /// [`parsdd_linalg::jacobi::JacobiPreconditioner`]).
    inv_diag: Vec<f64>,
    /// Iterations one seeded probe solve took at
    /// [`SolverChain::PRECOND_BOTTOM_TOL`] at build time — the per-solve
    /// iteration count the work model charges.
    probe_iterations: usize,
}

impl JacobiBottom {
    /// Seed offset of the probe's right-hand side.
    const PROBE_SEED: u64 = 0xb077_0000;

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
    fn probe(
        matrix: &PermutedLevel,
        labels: &[u32],
        components: usize,
        seed: u64,
        cap: usize,
    ) -> (Self, bool) {
        let inv_diag = (0..matrix.n())
            .map(|v| {
                let d = matrix.diag(v);
                if d.abs() > 0.0 {
                    1.0 / d
                } else {
                    1.0
                }
            })
            .collect();
        let mut bottom = JacobiBottom {
            inv_diag,
            probe_iterations: 0,
        };
        let mut b: Vec<f64> = (0..matrix.n() as u64)
            .map(|i| 2.0 * parsdd_graph::generators::counter_unit(seed, i) - 1.0)
            .collect();
        project_out_componentwise_constant(&mut b, labels, components);
        let mut s = CgScratch::default();
        let tol = SolverChain::PRECOND_BOTTOM_TOL;
        let cap = cap.min(Self::budget(matrix.n()));
        bottom.solve_rm_into(matrix, &b, 1, tol, cap, &mut Vec::new(), &mut s);
        bottom.probe_iterations = s.iterations[0];
        (bottom, s.converged[0])
    }

    /// Jacobi-PCG on `k` row-major right-hand sides `b` (already in the
    /// range of `matrix`), each column to relative residual `tol` or
    /// `max_iters` iterations; writes the solutions into `x`, and each
    /// column's iteration count and whether it reached `tol` into
    /// `s.iterations` and `s.converged`.
    ///
    /// Columns that converge, go non-finite or lose direction energy are
    /// frozen and compacted out of the working block, as in the outer
    /// PCG. Every per-column quantity comes from a kernel whose reduction
    /// tree depends only on `n` ([`dot_strided`],
    /// [`PermutedLevel::fused_apply_dot_into`]), so each column's result
    /// and count are bitwise identical at every block composition and
    /// pool width. All state lives in `s`: warm, the sequential dispatch
    /// paths do not allocate.
    #[allow(clippy::too_many_arguments)]
    fn solve_rm_into(
        &self,
        matrix: &PermutedLevel,
        b: &[f64],
        k: usize,
        tol: f64,
        max_iters: usize,
        x: &mut Vec<f64>,
        s: &mut CgScratch,
    ) {
        let n = matrix.n();
        x.clear();
        x.resize(n * k, 0.0);
        s.bnorms.clear();
        s.active.clear();
        s.iterations.clear();
        s.iterations.resize(k, 0);
        s.converged.clear();
        for j in 0..k {
            let bn = dot_strided(b, b, k, j).sqrt();
            s.bnorms.push(bn);
            // A zero column is solved by zero; a non-finite one is left
            // unconverged for the outer iteration to classify.
            s.converged.push(bn == 0.0);
            if bn > 0.0 && bn.is_finite() {
                s.active.push(j);
            }
        }
        let mut ka = s.active.len();
        s.r.clear();
        for row in b.chunks_exact(k) {
            s.r.extend(s.active.iter().map(|&j| row[j]));
        }
        self.scale_into(&s.r, ka, &mut s.z);
        s.p.clear();
        s.p.extend_from_slice(&s.z);
        s.rz.clear();
        for c in 0..ka {
            s.rz.push(dot_strided(&s.r, &s.z, ka, c));
        }
        s.ap.resize(n * ka, 0.0);
        let mut applies = 0;
        loop {
            // Per-column convergence check; finished columns freeze.
            s.keep.clear();
            for c in 0..ka {
                let rel = dot_strided(&s.r, &s.r, ka, c).sqrt() / s.bnorms[s.active[c]];
                if rel > tol && rel.is_finite() {
                    s.keep.push(c);
                } else {
                    s.iterations[s.active[c]] = applies;
                    s.converged[s.active[c]] = rel <= tol;
                }
            }
            ka = s.compact(ka);
            if ka == 0 || applies == max_iters {
                break;
            }
            matrix.fused_apply_dot_into(&s.p, &mut s.ap, ka, &mut s.pap, &mut s.partial);
            applies += 1;
            // No direction energy: the column freezes where it stands.
            s.keep.clear();
            for c in 0..ka {
                if s.pap[c] > 0.0 && s.pap[c].is_finite() {
                    s.keep.push(c);
                } else {
                    s.iterations[s.active[c]] = applies;
                }
            }
            compact_scalars_inplace(&mut s.pap, &s.keep);
            ka = s.compact(ka);
            if ka == 0 {
                break;
            }
            s.coef.clear();
            s.coef.extend((0..ka).map(|c| s.rz[c] / s.pap[c]));
            for ((xrow, prow), (rrow, aprow)) in x
                .chunks_exact_mut(k)
                .zip(s.p.chunks_exact(ka))
                .zip(s.r.chunks_exact_mut(ka).zip(s.ap.chunks_exact(ka)))
            {
                for (c, &j) in s.active.iter().enumerate() {
                    xrow[j] += s.coef[c] * prow[c];
                    rrow[c] -= s.coef[c] * aprow[c];
                }
            }
            self.scale_into(&s.r, ka, &mut s.z);
            for c in 0..ka {
                let rz_new = dot_strided(&s.r, &s.z, ka, c);
                s.coef[c] = rz_new / s.rz[c];
                s.rz[c] = rz_new;
            }
            for (prow, zrow) in s.p.chunks_exact_mut(ka).zip(s.z.chunks_exact(ka)) {
                for ((pv, &zv), &beta) in prow.iter_mut().zip(zrow).zip(&s.coef) {
                    *pv = zv + beta * *pv;
                }
            }
        }
        // Columns still active ran out of budget.
        for &j in &s.active {
            s.iterations[j] = applies;
        }
    }

    /// `z ← D⁻¹ r` on a row-major block of width `k`.
    fn scale_into(&self, r: &[f64], k: usize, z: &mut Vec<f64>) {
        z.clear();
        if k == 0 {
            return;
        }
        for (rrow, &d) in r.chunks_exact(k).zip(&self.inv_diag) {
            z.extend(rrow.iter().map(|&rv| rv * d));
        }
    }
}

/// The iterative bottom's CG state: row-major blocks over the active
/// columns, per-column scalars, and the active/keep index lists.
#[derive(Debug, Default)]
struct CgScratch {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    /// Right-hand-side norms, indexed by block column.
    bnorms: Vec<f64>,
    rz: Vec<f64>,
    pap: Vec<f64>,
    partial: Vec<f64>,
    /// Step sizes, then betas, per active column.
    coef: Vec<f64>,
    /// Block columns still iterating, ascending.
    active: Vec<usize>,
    keep: Vec<usize>,
    /// Iterations each block column ran before it froze.
    iterations: Vec<usize>,
    /// Whether each block column reached the tolerance.
    converged: Vec<bool>,
}

impl CgScratch {
    /// Drops the active columns not listed in `keep` from the working
    /// blocks, `rz` and `active`; returns the new active width.
    fn compact(&mut self, ka: usize) -> usize {
        if self.keep.len() == ka {
            return ka;
        }
        let keep = &self.keep;
        compact_columns_rm_inplace(&mut self.r, ka, keep);
        compact_columns_rm_inplace(&mut self.p, ka, keep);
        compact_columns_rm_inplace(&mut self.ap, ka, keep);
        compact_scalars_inplace(&mut self.rz, keep);
        compact_scalars_inplace(&mut self.active, keep);
        keep.len()
    }
}

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
    /// Heap bytes each level keeps resident (streamed matrix + retained
    /// `Graph` CSR, zero once dropped; see
    /// [`ChainLevel::resident_bytes`]). The last entry is the bottom's
    /// share: its f64 matrix, the retained bottom graph and the direct
    /// factor.
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
    /// [`ChainLevel::kappa_clamped`]).
    pub kappa_clamped: bool,
    /// Heap bytes this level keeps resident (see
    /// [`ChainLevel::resident_bytes`]).
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
    /// (`None` on [`build_chain`]'s chains, and when no level could be
    /// built or the tolerance is 0).
    pub level0: Option<Level0Decision>,
}

/// Which solver runs level 0 (DESIGN.md §2.10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level0Path {
    /// The preconditioner chain, as [`build_chain`] builds it.
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
/// precision, projection sums and solution — plus its CG state.
#[derive(Debug, Default)]
struct BottomScratch<T> {
    rhs: Vec<T>,
    proj_sums: Vec<T>,
    proj_sizes: Vec<usize>,
    wide_rhs: Vec<f64>,
    wide_sums: Vec<f64>,
    wide_out: Vec<f64>,
    cg: CgScratch,
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
struct Cycle<T> {
    /// Merged-row matrix of level `i ≥ 1` at index `i − 1` (level 0's
    /// stays f64 in [`SolverChain::top_matrix`]: the outer PCG measures
    /// true residuals through it).
    matrices: Vec<PermutedLevel<T>>,
    /// Compiled elimination trace of every level.
    traces: Vec<CompiledTrace<T>>,
    /// The sparse factor of a [`BottomSolver::Direct`] bottom.
    factor: Option<SparseLdl<T>>,
    /// Preallocated per-level scratch: applications check a workspace
    /// out, run on it, and return it, so the steady state allocates
    /// nothing per application.
    workspaces: WorkspacePool<T>,
}

impl<T: Scalar> Cycle<T> {
    /// Compiles every level's elimination trace at precision `T` and drops
    /// the level's step records (the compiled form replaces them), one
    /// level at a time so the two forms never coexist for the whole chain.
    fn new(
        matrices: Vec<PermutedLevel<T>>,
        levels: &mut [ChainLevel],
        factor: Option<SparseLdl<T>>,
    ) -> Self {
        let traces = levels
            .iter_mut()
            .map(|lvl| {
                let trace = CompiledTrace::from_elimination(&lvl.elimination);
                lvl.elimination.steps = Vec::new();
                lvl.elimination.star_data = Vec::new();
                trace
            })
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
                    bottom: BottomScratch::default(),
                    shim_in: Vec::new(),
                    shim_out: Vec::new(),
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

/// A chain's [`Cycle`] at its storage precision (see [`Precision`]). A
/// depth-0 chain has no cycle to demote and is always `F64`.
#[derive(Debug, Clone)]
enum ChainCycle {
    F64(Cycle<f64>),
    F32(Cycle<f32>),
}

/// A fully constructed preconditioner chain for a Laplacian system.
#[derive(Debug, Clone)]
pub struct SolverChain {
    levels: Vec<ChainLevel>,
    /// Merged-row Laplacian of level 0 — the f64 operator the outer PCG
    /// multiplies by. `None` on depth-0 chains, whose top is the bottom.
    top_matrix: Option<PermutedLevel>,
    bottom_graph: Graph,
    /// Merged-row Laplacian of the bottom graph (the operator of the
    /// iterative bottom, and of chains with no levels).
    bottom_matrix: PermutedLevel,
    bottom: BottomSolver,
    bottom_labels: Vec<u32>,
    bottom_components: usize,
    /// Connected-component labels of the top-level graph, cached at build
    /// time (every solve needs them to project the rhs onto the range).
    top_labels: Vec<u32>,
    top_components: usize,
    /// Boundary permutation (`original id → internal id`) baked into the
    /// top level: right-hand sides are permuted once on solve entry,
    /// solutions once on exit; everything between runs in internal order.
    top_perm: Vec<u32>,
    options: ChainOptions,
    cycle: ChainCycle,
    /// The level-0 cut's decision (see [`ChainQuality::level0`]).
    level0: Option<Level0Decision>,
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

/// The ordering pass of the configured [`LevelOrdering`], as `old → new`
/// labels.
fn level_order(g: &Graph, ordering: LevelOrdering) -> Vec<u32> {
    match ordering {
        LevelOrdering::BandwidthReducing => rcm_order(g),
        LevelOrdering::Identity => identity_order(g.n()),
    }
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

/// Builds the preconditioner chain for the Laplacian of `g`. The options
/// are [`ChainOptions::sanitized`] first, so out-of-range values are
/// clamped instead of diverging mid-build.
///
/// Every level is stored in the configured [`LevelOrdering`]'s index
/// space: the ordering is computed here once per level and baked into the
/// level's graph, merged-row matrix and elimination maps. A direct bottom
/// is stored in its minimum-degree order instead, baked the same way into
/// the elimination above it. So the solve path never permutes anything
/// except the top-level boundary vectors.
pub fn build_chain(g: &Graph, options: &ChainOptions) -> SolverChain {
    let options = options.sanitized();
    build_from_top(TopLevel::new(g, &options), options)
}

/// The chain [`SddSolver`](crate::sdd_solve::SddSolver) solves with at
/// tolerance `tol`: the level-0 cut (DESIGN.md §2.10). After
/// [`build_chain`]'s prologue ([`TopLevel`]), when the level loop would
/// build a level, a seeded Jacobi-PCG probe runs on level 0's merged-row
/// matrix for at most [`level0_probe_cap`]`(tol)` sweeps. If it converges
/// within the cap, the chain is the depth-0 chain with an iterative
/// bottom on that matrix, whose probe it reuses, whatever
/// `direct_bottom_entry_limit` says. Otherwise the matrix is dropped and the
/// chain is [`build_chain`]'s, bit for bit: the level loop rebuilds the
/// matrix after it ends, as it always has, since holding it through the
/// loop raises the build's peak memory (2.6 MiB, 5%, on a 200×200
/// grid). Either way the decision is recorded in
/// [`ChainQuality::level0`].
pub(crate) fn build_solver_chain(g: &Graph, options: &ChainOptions, tol: f64) -> SolverChain {
    let options = options.sanitized();
    let top = TopLevel::new(g, &options);
    let cap = level0_probe_cap(tol);
    if cap == 0 || !grows_level(&top.graph, 0, top.bottom_target, &options) {
        return build_from_top(top, options);
    }
    let matrix = PermutedLevel::from_graph(&top.graph);
    let (labels, count) = (&top.comps.labels, top.comps.count);
    let seed = options.seed ^ JacobiBottom::PROBE_SEED;
    let (jacobi, converged) = JacobiBottom::probe(&matrix, labels, count, seed, cap);
    let probe_sweeps = jacobi.probe_iterations;
    let decision = Level0Decision {
        path: if converged {
            Level0Path::JacobiPcg
        } else {
            Level0Path::Chain
        },
        probe_sweeps,
        cap,
        predicted_iterations: converged
            .then(|| (probe_sweeps as f64 * iterations_per_probe_sweep(tol)).ceil() as usize),
    };
    let mut chain = if converged {
        top.into_depth0(matrix, BottomSolver::Iterative(jacobi), None, options)
    } else {
        drop(matrix);
        build_from_top(top, options)
    };
    chain.level0 = Some(decision);
    chain
}

/// The chain's per-solve floor in level-0 sweeps, the price the level-0
/// cut holds Jacobi-PCG's predicted iterations against (DESIGN.md
/// §2.10): at 1e-8 no chain in the zoo or the benchmark converges in
/// fewer than ~25 outer iterations, and each costs at least ~3 level-0
/// sweeps (the outer product, level 0's elimination passes and the
/// W-cycle's ≥ 2 sweeps of level 1). The floor leaves out the chain's
/// build, so it errs toward the chain.
const CHAIN_FLOOR_SWEEPS: f64 = 75.0;

/// Jacobi-PCG iterations to a depth-0 chain's final tolerance at solve
/// tolerance `tol`, per probe sweep to
/// [`SolverChain::PRECOND_BOTTOM_TOL`]: `ln(1/tol_final) / ln(1/3e-2)`.
fn iterations_per_probe_sweep(tol: f64) -> f64 {
    SolverChain::final_bottom_tol(tol).ln() / SolverChain::PRECOND_BOTTOM_TOL.ln()
}

/// Most probe sweeps that still send level 0 to Jacobi-PCG at solve
/// tolerance `tol`: the largest whose extrapolated iteration count stays
/// within [`CHAIN_FLOOR_SWEEPS`] (12 at 1e-8). Zero, so no probe, at
/// `tol = 0`, which asks for the full iteration budget.
fn level0_probe_cap(tol: f64) -> usize {
    if tol > 0.0 {
        (CHAIN_FLOOR_SWEEPS / iterations_per_probe_sweep(tol)).floor() as usize
    } else {
        0
    }
}

/// Level 0 as every chain starts it, built once: the input simplified
/// and relabelled into the configured [`LevelOrdering`], and its
/// components. [`build_chain`] builds its levels on it; the level-0 cut
/// probes it first.
struct TopLevel {
    /// The simplified input in its baked-in order.
    graph: Graph,
    /// Boundary permutation (`original id → internal id`).
    perm: Vec<u32>,
    /// Connected components of `graph`.
    comps: Components,
    /// Size floor of the level loop: `max(bottom_size, m^bottom_exponent)`
    /// of the input.
    bottom_target: usize,
}

impl TopLevel {
    /// The prologue of a build under sanitized `options`.
    fn new(g: &Graph, options: &ChainOptions) -> Self {
        let input_m = g.m().max(1);
        let bottom_target = options
            .bottom_size
            .max((input_m as f64).powf(options.bottom_exponent).ceil() as usize);
        let simple = g.simplify();
        // Bake the boundary permutation into the top system before
        // anything downstream (subgraph, sampling, elimination) sees it.
        let perm = level_order(&simple, options.ordering);
        let graph = relabel(&simple, &perm);
        drop(simple);
        // Every solve projects its right-hand sides with the components:
        // recomputing an O(n + m) labelling per solve is exactly the
        // per-RHS overhead blocking is meant to remove.
        let comps = parallel_connected_components(&graph);
        TopLevel {
            graph,
            perm,
            comps,
            bottom_target,
        }
    }

    /// The depth-0 chain whose bottom is this system, with merged-row
    /// matrix `matrix`, solved by `bottom` (`factor` is a direct bottom's
    /// sparse factor). It has no cycle to demote or calibrate.
    fn into_depth0(
        self,
        matrix: PermutedLevel,
        bottom: BottomSolver,
        factor: Option<SparseLdl>,
        options: ChainOptions,
    ) -> SolverChain {
        SolverChain {
            levels: Vec::new(),
            top_matrix: None,
            bottom_graph: self.graph,
            bottom_matrix: matrix,
            bottom,
            bottom_labels: self.comps.labels.clone(),
            bottom_components: self.comps.count,
            top_labels: self.comps.labels,
            top_components: self.comps.count,
            top_perm: self.perm,
            options,
            cycle: ChainCycle::F64(Cycle::new(Vec::new(), &mut [], factor)),
            level0: None,
        }
    }
}

/// Whether the level loop builds another level on `g` with `depth`
/// levels above it: `g` is above the size floor, has more edges than a
/// forest, and the depth backstop allows it.
fn grows_level(g: &Graph, depth: usize, bottom_target: usize, options: &ChainOptions) -> bool {
    g.n() > bottom_target && g.m() > g.n() && depth < options.max_levels
}

/// The bottom solver of a bottom system: trivial without edges, direct
/// when it was `factored`, otherwise Jacobi-PCG with its build-time probe.
fn bottom_solver(
    g: &Graph,
    matrix: &PermutedLevel,
    comps: &Components,
    factored: bool,
    seed: u64,
) -> BottomSolver {
    if g.m() == 0 {
        BottomSolver::Trivial
    } else if factored {
        BottomSolver::Direct
    } else {
        let seed = seed ^ JacobiBottom::PROBE_SEED;
        let (labels, count) = (&comps.labels, comps.count);
        BottomSolver::Iterative(JacobiBottom::probe(matrix, labels, count, seed, usize::MAX).0)
    }
}

/// [`build_chain`] on its prologue.
fn build_from_top(top: TopLevel, options: ChainOptions) -> SolverChain {
    let TopLevel {
        graph: mut current,
        perm: top_perm,
        comps: top_comps,
        bottom_target,
    } = top;
    let mut levels: Vec<ChainLevel> = Vec::new();
    let mut seed = options.seed;

    while grows_level(&current, levels.len(), bottom_target, &options) {
        seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);

        // 1. Low-stretch ultra-sparse subgraph of the current level.
        //    The level's weights are Laplacian *conductances*; the
        //    low-stretch machinery of Section 5 works on *lengths*, so it
        //    runs on the reciprocal-weight view (edge ids are shared).
        let lengths = crate::sparsify::length_view(&current);
        let sub_params = LsSubgraphParams::practical(options.subgraph_z, options.subgraph_lambda)
            .with_seed(seed);
        let sub = ls_subgraph(&lengths, &sub_params);
        let sub_edges = sub.all_edges();

        // Spanning forest of the subgraph for resistance-stretch
        // computation and tree scaling. This must be the *low-stretch*
        // AKPW forest the subgraph was built around — a generic MST (e.g.
        // Kruskal on a unit-weight grid, where ties make the tree
        // arbitrary) can have orders-of-magnitude larger stretch, which
        // inflates every κ estimate and starves the sampler. Complete it
        // with remaining subgraph edges in case the well-spacing set-aside
        // disconnected the SparseAKPW input.
        let forest: Vec<EdgeId> = {
            let mut uf = parsdd_graph::unionfind::UnionFind::new(current.n());
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
            rest.sort_by(|&a, &b| {
                lengths
                    .edge(a)
                    .w
                    .partial_cmp(&lengths.edge(b).w)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for e in rest {
                let edge = lengths.edge(e);
                if uf.unite(edge.u, edge.v) {
                    forest.push(e);
                }
            }
            forest
        };

        // 2. Incremental sparsification with tree scaling. The per-level κ
        //    is either fixed (the paper's uniform schedule) or derived so
        //    that the expected number of sampled off-subgraph edges is a
        //    fraction of the off-subgraph edge count — which is what makes
        //    the next level shrink. The scaled forest absorbs a further
        //    `tree_scale` factor of condition number with certainty.
        let (sparsifier, kappa_used) = if options.auto_kappa {
            // Budget the sample count as a fraction of the *off-subgraph*
            // edges. (An earlier schedule budgeted `extra_fraction · n`
            // minus the subgraph's own extras, which routinely collapsed to
            // ~0 samples; the subgraph alone is a κ ≈ 10³ preconditioner at
            // bench sizes — the sampled tail of the stretch distribution is
            // what caps λ_max of `B⁻¹A`.)
            let off_subgraph = current.m().saturating_sub(sub_edges.len());
            let (budget, level_tree_scale) = if options.adaptive {
                // Stretch-adaptive schedule: measure the level's mean
                // off-subgraph resistance stretch s̄ and derive both knobs
                // from it. The full condition target t·κ = c·S·ln n/(f·q)
                // is independent of t under the target-based sampler, so t
                // only trades sampled-κ against forest weight — matching
                // it to √(s̄·ln n) splits that factor evenly. The sample
                // fraction f then pins t·κ at `adaptive_kappa_target`
                // whenever the clamps don't bind.
                let (total, q) =
                    crate::sparsify::offsubgraph_stretch_summary(&current, &sub_edges, &forest);
                let q = q.max(1);
                let log_n = (current.n().max(2) as f64).ln();
                let s_mean = (total / q as f64).max(1.0);
                let t = (s_mean * log_n).sqrt().clamp(1.0, 64.0);
                let f = (options.oversample * s_mean * log_n / options.adaptive_kappa_target)
                    .clamp(0.02, 1.0);
                (((f * q as f64) as usize).max(8), t)
            } else {
                (
                    ((options.extra_fraction * off_subgraph as f64) as usize).max(8),
                    options.tree_scale,
                )
            };
            crate::sparsify::incremental_sparsify_with_target(
                &current,
                &sub_edges,
                &forest,
                budget,
                options.oversample,
                level_tree_scale,
                seed,
            )
        } else {
            (
                incremental_sparsify(
                    &current,
                    &sub_edges,
                    &forest,
                    &SparsifyParams {
                        kappa: options.kappa,
                        oversample: options.oversample,
                        tree_scale: options.tree_scale,
                        seed,
                    },
                ),
                options.kappa,
            )
        };

        // The spectral check (Definition 6.3) and the elimination pipeline
        // are independent pure functions of `(current, sparsifier, seed)`
        // with disjoint outputs, so they run concurrently under the
        // runtime's scope API. Scheduling order cannot leak into the built
        // chain: each task's value is a deterministic function of its
        // inputs (counter-based RNG, length-only split trees), so the
        // chain stays bitwise identical at every pool width — the contract
        // `tests/parallel.rs` pins for builds as well as solves.
        let mut measured_ratio = (f64::INFINITY, 0.0);
        let mut elim_slot: Option<EliminationResult> = None;
        rayon::scope(|s| {
            s.spawn(|_| {
                measured_ratio = quadratic_form_ratio_bounds(&current, &sparsifier.graph, 12, seed);
            });
            // 3. Partial Cholesky elimination of the sparsifier, with the
            //    next level's bandwidth-reducing order baked into the
            //    reduced vertex space (the elimination then emits reduced
            //    right-hand sides directly in the next level's internal
            //    order).
            s.spawn(|_| {
                let mut elimination = greedy_elimination(&sparsifier.graph, seed);
                let next_perm = level_order(&elimination.reduced_graph, options.ordering);
                elimination.relabel_reduced(&next_perm);
                elim_slot = Some(elimination);
            });
        });
        let elimination = elim_slot.expect("scope completed elimination");
        let next = elimination.reduced_graph.simplify();

        // A level whose sparsifier kept (nearly) the whole graph and whose
        // elimination removed (nearly) nothing is a pure wrapper: it solves
        // the same system through extra inner iterations. Stop and hand the
        // current system to the bottom solver instead. The sampling κ — not
        // the tree-scaled target — is the wrapper signal: κ_used ≈ 1 means
        // the sampler kept every off-subgraph edge.
        let kappa_target = kappa_used * sparsifier.tree_scale;
        if kappa_used <= 1.5 && next.n() as f64 > 0.85 * current.n() as f64 {
            break;
        }

        // Provisional iteration budget from the configured κ target
        // (sampling κ × tree scale); replaced by the calibration pass below
        // with √κ_eff of the *measured* effective preconditioned spectrum
        // (under-iterating makes the recursion compound its own error,
        // over-iterating breaks the work balance).
        let shrink_n = current.n() as f64 / next.n().max(1) as f64;
        let shrink_m = current.m() as f64 / next.m().max(1) as f64;
        let inner_iterations = (kappa_target.sqrt().ceil() as usize
            + options.inner_extra_iterations)
            .clamp(2, options.max_inner_iterations);
        // Provisional bounds from the sampled ratio; replaced by the
        // power-iteration calibration below once the chain is complete.
        let cheb_bounds = provisional_bounds(measured_ratio, kappa_target);
        let (level_n, level_m) = (current.n(), current.m());
        levels.push(ChainLevel {
            graph: Some(current),
            n: level_n,
            m: level_m,
            stream_bytes: 0,
            storage_precision: Precision::F64,
            elimination,
            kappa: kappa_used,
            tree_scale: sparsifier.tree_scale,
            kappa_clamped: sparsifier.kappa_clamped,
            measured_ratio,
            sparsifier_edges: sparsifier.edge_count(),
            subgraph_edges: sparsifier.subgraph_edges,
            inner_iterations,
            cheb_bounds,
        });
        current = next;
        // Data-driven depth cutoff: recursing past a level that stopped
        // shrinking (in vertices *or* edges) only multiplies the W-cycle's
        // work without reducing the bottom; hand over to the bottom solver.
        if shrink_n < options.min_shrink || shrink_m < 1.05 {
            break;
        }
    }

    // The loop stops at a size floor, not at the cheapest bottom.
    let (mut current, direct_order) =
        cut_at_cheapest_bottom(&mut levels, current, options.direct_bottom_entry_limit);
    // A direct bottom is relabelled once, into its minimum-degree order,
    // and so is whatever hands vectors to it: the elimination above it, or
    // at depth 0 the boundary permutation and component labels. Solves
    // then never permute at the bottom. An iterative bottom keeps the
    // level order.
    let mut top_comps = top_comps;
    let mut top_perm = top_perm;
    if let Some(order) = &direct_order {
        current = relabel(&current, order);
        match levels.last_mut() {
            Some(above) => above.elimination.relabel_reduced(order),
            None => {
                for p in top_perm.iter_mut() {
                    *p = order[*p as usize];
                }
                let mut labels = vec![0; order.len()];
                for (&new, &label) in order.iter().zip(&top_comps.labels) {
                    labels[new as usize] = label;
                }
                top_comps.labels = labels;
            }
        }
    }
    let factor_bottom = |g: &Graph| {
        direct_order
            .is_some()
            .then(|| SparseLdl::from_graph(g, 1e-10))
    };

    if levels.is_empty() {
        // The loop built no level: the top system is the bottom.
        let top = TopLevel {
            graph: current,
            perm: top_perm,
            comps: top_comps,
            bottom_target,
        };
        let (matrix, factor) = rayon::join(
            || PermutedLevel::from_graph(&top.graph),
            || factor_bottom(&top.graph),
        );
        let bottom = bottom_solver(
            &top.graph,
            &matrix,
            &top.comps,
            factor.is_some(),
            options.seed,
        );
        return top.into_depth0(matrix, bottom, factor, options);
    }

    // Bottom solver. The bottom graph is already in the order the last
    // elimination emits: a direct bottom's minimum-degree order, which the
    // factor takes as given. The merged-row matrix, the sparse
    // factorization, and the component labelling are
    // independent pure functions of the finished graph, so they run
    // concurrently under the scope (same width-independence argument as
    // the per-level passes above).
    let mut bottom_matrix_slot: Option<PermutedLevel> = None;
    let mut factor_slot: Option<SparseLdl> = None;
    let mut comps_slot = None;
    rayon::scope(|s| {
        s.spawn(|_| bottom_matrix_slot = Some(PermutedLevel::from_graph(&current)));
        s.spawn(|_| factor_slot = factor_bottom(&current));
        comps_slot = Some(parallel_connected_components(&current));
    });
    let bottom_matrix = bottom_matrix_slot.expect("scope completed bottom matrix");
    let comps = comps_slot.expect("scope completed components");
    let bottom = bottom_solver(
        &current,
        &bottom_matrix,
        &comps,
        factor_slot.is_some(),
        options.seed,
    );

    let mut matrices: Vec<PermutedLevel> = levels
        .iter()
        .map(|l| {
            PermutedLevel::from_graph(
                l.graph
                    .as_ref()
                    .expect("level graphs are resident during build"),
            )
        })
        .collect();
    let top_matrix = matrices.remove(0);
    levels[0].stream_bytes = top_matrix.stream_bytes();
    // Demote once, after the all-f64 build: the matrices of levels ≥ 1,
    // the bottom factor and the elimination traces are what the
    // preconditioner streams per application. Level 0's matrix and the
    // bottom matrix stay f64 — the outer PCG measures true residuals
    // through them, and an f32 top operator would cap the reachable
    // residual near single-precision ε, above the 1e-8 outer tolerances
    // the solver pins. Level 0's trace demotes too: it is
    // preconditioner-internal even at the top. A depth-0 chain (above)
    // has no cycle: its bottom solve is the final answer, which must hit
    // the caller's tolerance, and a single f32-factor solve caps out near
    // 1e-7 relative.
    let cycle = if options.precision == Precision::F32 {
        for lvl in levels.iter_mut().skip(1) {
            lvl.storage_precision = Precision::F32;
        }
        let matrices = matrices.iter().map(PermutedLevel::from_level).collect();
        let factor = factor_slot.as_ref().map(SparseLdl::from_f64);
        ChainCycle::F32(Cycle::new(matrices, &mut levels, factor))
    } else {
        ChainCycle::F64(Cycle::new(matrices, &mut levels, factor_slot))
    };

    let mut chain = SolverChain {
        levels,
        top_matrix: Some(top_matrix),
        bottom_graph: current,
        bottom_matrix,
        bottom,
        bottom_labels: comps.labels,
        bottom_components: comps.count,
        top_labels: top_comps.labels,
        top_components: top_comps.count,
        top_perm,
        options,
        cycle,
        level0: None,
    };
    // Calibration runs *after* demotion so the Chebyshev intervals bracket
    // the spectrum of the operator the inner iteration actually applies.
    chain.calibrate_chebyshev_bounds();
    // The per-level Graph CSR is only consulted at build/calibration time
    // — every per-application sweep runs on the cycle's matrices — so it
    // is dropped here and a long-lived chain stops holding ~2× the matrix
    // memory it streams. (The bottom keeps its graph: `bottom_graph()`
    // and the stats read it.)
    for lvl in chain.levels.iter_mut() {
        lvl.graph = None;
    }
    chain
}

/// Solves of each level per top-level preconditioner application under
/// the W-cycle recursion — the work model of [`ChainStats`], shared by
/// [`SolverChain::stats`] and [`cheapest_bottom`] so the reported model
/// and the cut cannot drift apart. `inner_iterations` holds each level's
/// W-cycle width `k_i`, top first. Entry 0 is the top application
/// itself; it sweeps level 0's elimination once and solves level 1 once,
/// and a solve of level `i ≥ 1` runs `k_i` inner iterations, each one
/// sweep of `A_i` and one solve of level `i+1`. So entry `i+1` is both
/// the solves of level `i+1` (the bottom for the last entry: the
/// recursion leaves) and the sweeps of level `i`'s matrix.
fn w_cycle_solves(inner_iterations: impl IntoIterator<Item = usize>) -> Vec<f64> {
    let mut solves = vec![1.0f64];
    for (i, k) in inner_iterations.into_iter().enumerate() {
        let above = solves[i];
        solves.push(if i == 0 { above } else { above * k as f64 });
    }
    solves
}

/// Modelled flops of one direct bottom solve: both triangular passes over
/// a factor of `entries` stored entries plus the diagonal scaling of `n`.
fn direct_bottom_flops(n: usize, entries: usize) -> f64 {
    2.0 * entries as f64 + 2.0 * n as f64
}

/// The minimum-degree order and fill of a bottom candidate `g` (a simple
/// graph) whose direct factor stores at most `limit` entries; `None` when
/// it has no edges or its factor would be larger. Every edge is an entry
/// of the factor, so a level with more than `limit` edges is out without
/// being ordered.
fn direct_bottom_order(g: &Graph, limit: usize) -> Option<(Vec<u32>, usize)> {
    if g.m() == 0 || g.m() > limit {
        return None;
    }
    min_degree_order(g, limit)
}

/// One level's shape as the bottom cut sees it.
#[derive(Debug, Clone, Copy)]
struct CutLevel {
    /// Vertex count `n_j`.
    n: usize,
    /// Edge count `m_j`.
    m: usize,
    /// Provisional W-cycle width `k_j` (unused on the last entry).
    inner_iterations: usize,
}

/// Chooses where the chain stops: the index `j*` of the level in `levels`
/// (every chain level top first, then the natural bottom) whose direct
/// bottom minimises the modelled flops per application,
/// `Σ_{i<j} sweeps_i·m_i + solves_j·(2·E_j + 2·n_j)`, where `E_j =
/// entries(j)` is the level's factor size in minimum-degree order, or
/// `None` when it exceeds the entry cap. Candidates are the levels
/// `j ≥ 1` with `m_j > 0` and a factor within the cap; the natural bottom
/// is eligible when its factor is (at zero bottom cost when it has no
/// edges). `entries` is asked only about levels that could still win: a
/// level never costs less than the levels above it. Level 0 is never
/// chosen here: a depth-0 chain's bottom solve is the final answer,
/// priced per solve rather than per application, so cutting there is the
/// level-0 cut's call ([`build_solver_chain`]), made where the solve
/// tolerance is known. When the natural bottom is iterative nothing is
/// cut — its cost is only known after the build-time probe, and the
/// levels above it are larger still. Ties keep the deeper level, so the
/// chain changes only when the cut is strictly cheaper.
fn cheapest_bottom(levels: &[CutLevel], mut entries: impl FnMut(usize) -> Option<usize>) -> usize {
    let d = levels.len() - 1;
    let bottom = levels[d];
    if d == 0 {
        return d;
    }
    let bottom_flops = if bottom.m == 0 {
        0.0
    } else {
        match entries(d) {
            Some(e) => direct_bottom_flops(bottom.n, e),
            None => return d,
        }
    };
    let solves = w_cycle_solves(levels[..d].iter().map(|l| l.inner_iterations));
    // above[j]: flops of levels 0..j, the part a cut at j keeps.
    let mut above = vec![0.0f64];
    for (i, l) in levels[..d].iter().enumerate() {
        above.push(above[i] + solves[i + 1] * l.m as f64);
    }
    let mut best = (d, above[d] + solves[d] * bottom_flops);
    for j in (1..d).rev() {
        let l = levels[j];
        if l.m == 0 || above[j] >= best.1 {
            continue;
        }
        if let Some(e) = entries(j) {
            let cost = above[j] + solves[j] * direct_bottom_flops(l.n, e);
            if cost < best.1 {
                best = (j, cost);
            }
        }
    }
    best.0
}

/// The cost cut (DESIGN.md §2.10). Once levels shrink by less than their
/// W-cycle width, every further level multiplies the bottom solves by `k`
/// while shrinking the bottom by less; this truncates `levels` at the
/// level whose direct bottom minimises the modelled flops per application
/// ([`cheapest_bottom`], each candidate priced by
/// [`direct_bottom_order`] under the entry cap `limit`) and returns the
/// bottom graph — that level's graph, or `natural_bottom` when nothing is
/// cut — with its minimum-degree order when it is to be factored. A
/// level's graph is already simplified and in the order the elimination
/// above it emits. With no levels, `natural_bottom` is the top system,
/// factored when its own factor fits the cap.
fn cut_at_cheapest_bottom(
    levels: &mut Vec<ChainLevel>,
    natural_bottom: Graph,
    limit: usize,
) -> (Graph, Option<Vec<u32>>) {
    if levels.is_empty() {
        let order = direct_bottom_order(&natural_bottom, limit).map(|(order, _)| order);
        return (natural_bottom, order);
    }
    let (cut, order) = {
        let graphs: Vec<&Graph> = levels
            .iter()
            .map(|l| {
                l.graph
                    .as_ref()
                    .expect("level graphs are resident during build")
            })
            .chain([&natural_bottom])
            .collect();
        let widths = levels.iter().map(|l| l.inner_iterations).chain([0]);
        let shapes: Vec<CutLevel> = graphs
            .iter()
            .zip(widths)
            .map(|(g, inner_iterations)| CutLevel {
                n: g.n(),
                m: g.m(),
                inner_iterations,
            })
            .collect();
        let mut orders: Vec<Option<Vec<u32>>> = vec![None; graphs.len()];
        let cut = cheapest_bottom(&shapes, |j| {
            let (order, entries) = direct_bottom_order(graphs[j], limit)?;
            orders[j] = Some(order);
            Some(entries)
        });
        (cut, orders.swap_remove(cut))
    };
    if cut == levels.len() {
        return (natural_bottom, order);
    }
    let bottom = levels
        .drain(cut..)
        .next()
        .and_then(|l| l.graph)
        .expect("level graphs are resident during build");
    (bottom, order)
}

/// Fallback Chebyshev interval from the sampled quadratic-form ratio.
fn provisional_bounds(measured_ratio: (f64, f64), kappa: f64) -> (f64, f64) {
    let (lo, hi) = measured_ratio;
    if lo.is_finite() && lo > 0.0 && hi > lo {
        (lo / 2.0, hi * 2.0)
    } else {
        (1.0 / kappa.clamp(1.0, 1e12), 1.0)
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

    /// Estimated flops of one bottom solve: two streams of the
    /// direct factor, or the iterative bottom's probe iteration count
    /// times its edges.
    fn bottom_solve_cost(&self) -> f64 {
        let n = self.bottom_graph.n();
        let m = self.bottom_graph.m() as f64;
        match &self.bottom {
            BottomSolver::Trivial => 0.0,
            BottomSolver::Direct => {
                direct_bottom_flops(n, self.factor_shape().map_or(0, |(nnz, ..)| nnz))
            }
            BottomSolver::Iterative(jacobi) => m * jacobi.probe_iterations as f64,
        }
    }

    /// Bytes one bottom solve streams: both triangular passes and the
    /// diagonal of the direct factor (at its storage width), or the
    /// iterative bottom's matrix once per probe iteration.
    fn bottom_stream_bytes(&self) -> f64 {
        match &self.bottom {
            BottomSolver::Trivial => 0.0,
            BottomSolver::Direct => self.factor_shape().map_or(0, |(.., bytes)| bytes) as f64,
            BottomSolver::Iterative(jacobi) => {
                self.bottom_matrix.stream_bytes() as f64 * jacobi.probe_iterations as f64
            }
        }
    }

    /// Heap bytes the bottom keeps resident: its f64 merged-row matrix,
    /// the retained bottom graph, and the direct factor's arrays or the
    /// iterative bottom's inverse diagonal.
    fn bottom_resident_bytes(&self) -> usize {
        let factor = match &self.bottom {
            BottomSolver::Trivial => 0,
            BottomSolver::Iterative(jacobi) => jacobi.inv_diag.len() * 8,
            BottomSolver::Direct => self.factor_shape().map_or(0, |(_, bytes, _)| bytes),
        };
        self.bottom_matrix.stream_bytes() + self.bottom_graph.resident_bytes() + factor
    }

    /// Summary statistics of the chain, including the per-level work
    /// accounting of the W-cycle (see [`ChainStats`] for the model).
    pub fn stats(&self) -> ChainStats {
        let mut level_vertices: Vec<usize> = self.levels.iter().map(|l| l.n()).collect();
        let mut level_edges: Vec<usize> = self.levels.iter().map(|l| l.m()).collect();
        level_vertices.push(self.bottom_graph.n());
        level_edges.push(self.bottom_graph.m());
        let mut level_resident_bytes: Vec<usize> =
            self.levels.iter().map(|l| l.resident_bytes()).collect();
        level_resident_bytes.push(self.bottom_resident_bytes());
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
        level_work.push(recursion_leaves * self.bottom_solve_cost());
        streamed_bytes_per_application += recursion_leaves * self.bottom_stream_bytes();
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
        let input_edges = self
            .levels
            .first()
            .map(|l| l.m())
            .unwrap_or_else(|| self.bottom_graph.m());
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
            bottom_vertices: self.bottom_graph.n(),
            bottom_edges: self.bottom_graph.m(),
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

    /// Relative residual at which an iterative bottom solve that feeds a
    /// preconditioner application stops. The recursion needs only a
    /// constant-factor solve there (rPCh, Lemma 6.7): the outer flexible
    /// PCG absorbs the inexactness, and the Chebyshev calibration
    /// measures the recursion with it. 1e-1 is too loose for f32 chains
    /// (DESIGN.md §2.9).
    const PRECOND_BOTTOM_TOL: f64 = 3e-2;

    /// Loosest tolerance of a depth-0 chain's bottom solve, which is the
    /// final answer (see [`final_bottom_tol`](Self::final_bottom_tol)).
    const MAX_FINAL_BOTTOM_TOL: f64 = 1e-8;

    /// Tolerance of a depth-0 chain's bottom solve at caller tolerance
    /// `tol`: a tenth of it, within `[1e-14, MAX_FINAL_BOTTOM_TOL]`.
    fn final_bottom_tol(tol: f64) -> f64 {
        (tol * 0.1).clamp(1e-14, Self::MAX_FINAL_BOTTOM_TOL)
    }

    /// Applies the full preconditioner `B₀⁻¹` to `k` row-major right-hand
    /// sides in **internal** (chain) index order, writing into `out`.
    /// Once the chain's scratch arena is warm (one prior application of
    /// the same or larger width), this performs zero heap allocation on
    /// the sequential kernel dispatch paths — the contract pinned by
    /// `tests/alloc.rs`.
    pub fn precondition_block_rm(&self, rr: &[f64], k: usize, out: &mut Vec<f64>) {
        if self.levels.is_empty() {
            self.bottom_solve_rm_into(rr, k, Self::PRECOND_BOTTOM_TOL, out);
        } else {
            self.precondition_rm_into(0, rr, k, out);
        }
    }

    /// Solves the bottom system `A_d X = B` of a depth-0 chain for `k`
    /// row-major right-hand sides (to `tol` per column when iterative):
    /// the direct factor is streamed once per block, the
    /// iterative bottom runs Jacobi-PCG with per-column deflation.
    /// Allocation-free in steady state.
    fn bottom_solve_rm_into(&self, br: &[f64], k: usize, tol: f64, out: &mut Vec<f64>) {
        let ChainCycle::F64(cycle) = &self.cycle else {
            unreachable!("a depth-0 chain keeps its f64 bottom")
        };
        cycle.with_workspace(|ws| self.bottom_solve(cycle, br, k, tol, out, &mut ws.bottom));
    }

    /// A depth-0 chain's final answer for `k` row-major right-hand sides:
    /// the bottom solve to `tol`, and each column's iteration count — its
    /// own Jacobi-PCG iterations on an iterative bottom, one direct solve
    /// otherwise.
    fn final_bottom_solve(&self, br: &[f64], k: usize, tol: f64) -> (Vec<f64>, Vec<usize>) {
        let ChainCycle::F64(cycle) = &self.cycle else {
            unreachable!("a depth-0 chain keeps its f64 bottom")
        };
        cycle.with_workspace(|ws| {
            let mut out = Vec::new();
            self.bottom_solve(cycle, br, k, tol, &mut out, &mut ws.bottom);
            let iterations = match self.bottom {
                BottomSolver::Iterative(_) => ws.bottom.cg.iterations.clone(),
                _ => vec![1; k],
            };
            (out, iterations)
        })
    }

    /// Allocating [`bottom_solve_rm_into`](Self::bottom_solve_rm_into).
    fn bottom_solve_rm(&self, br: &[f64], k: usize, tol: f64) -> Vec<f64> {
        let mut out = Vec::new();
        self.bottom_solve_rm_into(br, k, tol, &mut out);
        out
    }

    /// The bottom solve at the cycle's precision. The direct bottom
    /// projects and solves at `T`; the trivial bottom zeroes. The
    /// iterative bottom runs at f64: it widens the right-hand side into
    /// the scratch's f64 staging, projects and solves there, and narrows
    /// the solution back.
    fn bottom_solve<T: Scalar>(
        &self,
        cycle: &Cycle<T>,
        br: &[T],
        k: usize,
        tol: f64,
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
                let (m, budget) = (
                    &self.bottom_matrix,
                    JacobiBottom::budget(self.bottom_matrix.n()),
                );
                jacobi.solve_rm_into(m, &s.wide_rhs, k, tol, budget, &mut s.wide_out, &mut s.cg);
                out.clear();
                out.extend(s.wide_out.iter().map(|&v| T::from_f64(v)));
            }
        }
    }

    /// Applies the level-`i` preconditioner `B_i⁻¹ R` to `k` row-major
    /// right-hand sides: forward-eliminate, recursively solve `A_{i+1}`
    /// with the W-cycle, back-substitute — the elimination trace and
    /// every matrix below are streamed once per block, and every step
    /// touches contiguous k-wide rows.
    fn precondition_rm(&self, level: usize, rr: &[f64], k: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.precondition_rm_into(level, rr, k, &mut out);
        out
    }

    /// [`precondition_rm`](Self::precondition_rm) into `out`, on a
    /// workspace checked out of the cycle's pool. This is the only place
    /// the W-cycle changes precision: an f32 chain narrows the residual
    /// once here, runs the whole cycle below on f32 vectors, and widens
    /// the correction once on the way out. The outer iteration keeps
    /// measuring true f64 residuals through the f64 top operator, so the
    /// narrowing only perturbs the preconditioner — which the flexible
    /// PCG absorbs.
    fn precondition_rm_into(&self, level: usize, rr: &[f64], k: usize, out: &mut Vec<f64>) {
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
            let tol = Self::PRECOND_BOTTOM_TOL;
            self.bottom_solve(cycle, &mine.reduced, k, tol, &mut mine.y, bottom);
        } else {
            let (reduced, y) = (&mine.reduced, &mut mine.y);
            self.chebyshev_fixed(cycle, level + 1, reduced, k, y, iter_ws, elim_rest, bottom);
        }
        trace.back_substitute_rowmajor_into(&mine.work, &mine.y, k, out, &mut mine.row);
    }

    /// Calibrates every level's Chebyshev interval bottom-up.
    ///
    /// Chebyshev polynomials are bounded on `[λ_min, λ_max]` but grow
    /// exponentially outside it, so the inner iteration *amplifies* any
    /// spectral mass of the effective preconditioned operator that escapes
    /// the assumed interval — with two or more levels the amplification
    /// compounds and the outer solve diverges. The effective operator at
    /// level `i` (elimination + inexact recursive solve of `A_{i+1}` +
    /// back-substitution) depends only on levels below `i`, so calibrating
    /// deepest-first is well defined; the measurement itself is
    /// [`spectrum_bounds_of_map`] on `v ↦ M_i⁻¹ A_i v`.
    fn calibrate_chebyshev_bounds(&mut self) {
        const POWER_ITERS: usize = 14;
        // Level 0 is driven by the adaptive outer flexible PCG, which needs
        // no spectrum interval — only levels >= 1 run the fixed Chebyshev
        // inner iteration. Skipping level 0 avoids the most expensive
        // calibration pass (two power iterations through the full recursion
        // on the largest graph); its cheb_bounds keep the provisional value.
        for level in (1..self.levels.len()).rev() {
            let n = self.levels[level].n();
            if n == 0 {
                continue;
            }
            // `build_chain` calibrates before dropping graphs, so the
            // component labelling always has its CSR — and the matrix
            // applied below is the (possibly demoted) operator the inner
            // iteration will actually run on.
            let comps = parsdd_graph::components::parallel_connected_components(
                self.levels[level]
                    .graph
                    .as_ref()
                    .expect("calibration runs before level graphs are dropped"),
            );
            let seed = self
                .options
                .seed
                .wrapping_add(0x51ab_0000 + level as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let bounds = {
                let this: &SolverChain = self;
                let mut av = vec![0.0; n];
                spectrum_bounds_of_map(
                    n,
                    |v| {
                        match &this.cycle {
                            ChainCycle::F64(c) => c.matrices[level - 1].apply(v, &mut av),
                            ChainCycle::F32(c) => c.matrices[level - 1].apply(v, &mut av),
                        }
                        this.precondition_rm(level, &av, 1)
                    },
                    |x| project_out_componentwise_constant(x, &comps.labels, comps.count),
                    POWER_ITERS,
                    seed,
                )
            };
            let Some((lambda_min, lambda_max)) = bounds else {
                // Degenerate level (e.g. edgeless): keep provisional bounds.
                continue;
            };
            // Widen both ends: power iteration underestimates extremes, and
            // an interval that over-covers only slows Chebyshev down while
            // one that under-covers makes it diverge.
            let bounds = (lambda_min * 0.5, lambda_max * 1.4);
            self.levels[level].cheb_bounds = bounds;
            // Re-derive this level's iteration budget from the *measured*
            // effective condition number: Chebyshev needs ≈ √κ_eff steps to
            // be a constant-factor solve (Lemma 6.7), and κ_eff here — the
            // scaled sparsifier quality composed with the inexact recursion
            // below — is what the configured `tree_scale · κ` target only
            // approximates. Must happen before the level above is
            // calibrated, since its effective operator includes this
            // level's solve.
            let kappa_eff = bounds.1 / bounds.0;
            self.levels[level].inner_iterations = (kappa_eff.sqrt().ceil() as usize
                + self.options.inner_extra_iterations)
                .clamp(2, self.options.max_inner_iterations.max(2));
        }
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

        if self.levels.is_empty() {
            // No chain above the bottom: this result IS the final answer,
            // so an iterative bottom must target the caller's tolerance,
            // not the looser preconditioner-application tolerance.
            if !active.is_empty() {
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
            return outcomes
                .into_iter()
                .map(|o| o.expect("every column resolved"))
                .collect();
        }

        if active.is_empty() {
            // Every column was in the null space: all outcomes are set.
            return outcomes
                .into_iter()
                .map(|o| o.expect("every column resolved"))
                .collect();
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
        outcomes
            .into_iter()
            .map(|o| o.expect("every column resolved"))
            .collect()
    }
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
fn compact_columns_rm_inplace(buf: &mut Vec<f64>, k: usize, keep: &[usize]) {
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
fn compact_scalars_inplace<T: Copy>(v: &mut Vec<T>, keep: &[usize]) {
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
        if let Some(l) = self.chain.levels.first() {
            l.n()
        } else {
            self.chain.bottom_graph.n()
        }
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        // External surface: callers work in the original vertex order, the
        // chain in its baked-in internal order — permute at the boundary.
        let rp = permute_into(r, &self.chain.top_perm);
        let out = if self.chain.levels.is_empty() {
            self.chain
                .bottom_solve_rm(&rp, 1, SolverChain::PRECOND_BOTTOM_TOL)
        } else {
            self.chain.precondition_rm(0, &rp, 1)
        };
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
        let out = if self.chain.levels.is_empty() {
            self.chain
                .bottom_solve_rm(&rp, r.ncols(), SolverChain::PRECOND_BOTTOM_TOL)
        } else {
            self.chain.precondition_rm(0, &rp, r.ncols())
        };
        scatter_block_rm(&out, perm, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsdd_graph::generators;
    use parsdd_linalg::laplacian::LaplacianOp;
    use parsdd_linalg::operator::LinearOperator;
    use parsdd_linalg::vector::project_out_constant;

    fn random_rhs(n: usize) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 37) % 23) as f64 - 11.0).collect();
        project_out_constant(&mut b);
        b
    }

    fn check_solve(g: &Graph, options: &ChainOptions, tol: f64) -> SolveOutcome {
        let chain = build_chain(g, options);
        let b = random_rhs(g.n());
        let out = chain.solve(&b, tol, 300);
        assert!(
            out.converged,
            "chain solve did not converge: rel={} iters={} levels={}",
            out.relative_residual,
            out.iterations,
            chain.depth()
        );
        // Cross-check the residual against an independent operator.
        let op = LaplacianOp::new(g);
        let r = op.residual(&out.x, &b);
        assert!(parsdd_linalg::vector::norm2(&r) <= tol * 10.0 * parsdd_linalg::vector::norm2(&b));
        out
    }

    #[test]
    fn small_graph_uses_bottom_solver_only() {
        let g = generators::grid2d(8, 8, |_, _| 1.0);
        let chain = build_chain(&g, &ChainOptions::default());
        assert_eq!(
            chain.depth(),
            0,
            "64 vertices should go straight to the bottom"
        );
        let b = random_rhs(g.n());
        let out = chain.solve(&b, 1e-10, 10);
        assert!(out.converged);
    }

    #[test]
    fn depth0_iterative_bottom_reaches_caller_tolerance() {
        // m ≤ n builds no levels, and an entry cap below the cycle's fill
        // leaves the bottom iterative: its solve is the final answer, so
        // it must reach the caller's tolerance, not the loose one a bottom
        // solve inside a preconditioner application stops at.
        let g = generators::cycle(4500, 1.0);
        let options = ChainOptions {
            direct_bottom_entry_limit: g.m(),
            ..Default::default()
        };
        let chain = build_chain(&g, &options);
        assert_eq!(chain.depth(), 0);
        assert!(!chain.stats().direct_bottom);
        let b = random_rhs(g.n());
        let out = chain.solve(&b, 1e-10, 10);
        assert!(out.converged, "rel {}", out.relative_residual);
        let r = LaplacianOp::new(&g).residual(&out.x, &b);
        assert!(
            parsdd_linalg::vector::norm2(&r) <= 1e-10 * parsdd_linalg::vector::norm2(&b),
            "true residual too large"
        );
    }

    #[test]
    fn medium_grid_builds_levels_and_solves() {
        let g = generators::grid2d(32, 32, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 200,
            ..Default::default()
        };
        let chain = build_chain(&g, &opts);
        assert!(
            chain.depth() >= 1,
            "1600 vertices should create at least one level"
        );
        let stats = chain.stats();
        assert_eq!(stats.level_vertices.len(), chain.depth() + 1);
        // Level sizes decrease.
        for w in stats.level_vertices.windows(2) {
            assert!(
                w[1] <= w[0],
                "level sizes must not grow: {:?}",
                stats.level_vertices
            );
        }
        check_solve(&g, &opts, 1e-8);
    }

    #[test]
    fn weighted_random_graph_solve() {
        let g = generators::weighted_random_graph(700, 2800, 1.0, 20.0, 5);
        let opts = ChainOptions {
            bottom_size: 250,
            ..Default::default()
        };
        check_solve(&g, &opts, 1e-8);
    }

    #[test]
    fn high_spread_graph_solve() {
        let base = generators::grid2d(30, 30, |_, _| 1.0);
        let g = generators::with_power_law_weights(&base, 6, 7);
        let opts = ChainOptions::default();
        check_solve(&g, &opts, 1e-8);
    }

    #[test]
    fn unscaled_chain_still_converges() {
        // tree_scale = 1 recovers the pre-KMP10 behaviour.
        let g = generators::grid2d(30, 30, |_, _| 1.0);
        let opts = ChainOptions {
            tree_scale: 1.0,
            bottom_size: 200,
            ..Default::default()
        };
        check_solve(&g, &opts, 1e-8);
    }

    #[test]
    fn disconnected_graph_solve() {
        use parsdd_graph::{Edge, Graph};
        // Two grids glued into one disconnected graph.
        let g1 = generators::grid2d(12, 12, |_, _| 1.0);
        let mut edges: Vec<Edge> = g1.edges().to_vec();
        let off = g1.n() as u32;
        for e in g1.edges() {
            edges.push(Edge::new(e.u + off, e.v + off, e.w));
        }
        let g = Graph::from_edges(2 * g1.n(), edges);
        let chain = build_chain(&g, &ChainOptions::default());
        // Per-component balanced rhs.
        let mut b = vec![0.0; g.n()];
        b[0] = 1.0;
        b[10] = -1.0;
        b[g1.n()] = 2.0;
        b[g1.n() + 5] = -2.0;
        let out = chain.solve(&b, 1e-9, 200);
        assert!(out.converged, "rel {}", out.relative_residual);
    }

    #[test]
    fn solve_block_matches_single_solves_bitwise() {
        // A deep-enough grid so the blocked W-cycle really recurses, plus a
        // zero column to exercise the short-circuit inside a block.
        let g = generators::grid2d(32, 32, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 200,
            ..Default::default()
        };
        let chain = build_chain(&g, &opts);
        let mut cols: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                let mut b: Vec<f64> = (0..g.n())
                    .map(|i| (((i * (3 * s + 7)) % 29) as f64) - 14.0)
                    .collect();
                project_out_constant(&mut b);
                b
            })
            .collect();
        cols.insert(1, vec![0.0; g.n()]);
        let outs = chain.solve_block(&MultiVector::from_columns(&cols), 1e-9, 300);
        for (j, b) in cols.iter().enumerate() {
            let single = chain.solve(b, 1e-9, 300);
            assert!(single.converged, "column {j} single did not converge");
            assert_eq!(outs[j].iterations, single.iterations, "column {j}");
            assert_eq!(
                outs[j].relative_residual.to_bits(),
                single.relative_residual.to_bits(),
                "column {j} residual"
            );
            for (a, s) in outs[j].x.iter().zip(&single.x) {
                assert_eq!(a.to_bits(), s.to_bits(), "column {j} solution");
            }
        }
        assert_eq!(outs[1].iterations, 0, "zero column short-circuits");
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let g = generators::grid2d(20, 20, |_, _| 1.0);
        let chain = build_chain(&g, &ChainOptions::default());
        let out = chain.solve(&vec![0.0; g.n()], 1e-12, 50);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn chain_preconditioner_with_external_cg() {
        let g = generators::grid2d(32, 32, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 150,
            ..Default::default()
        };
        let chain = build_chain(&g, &opts);
        let op = LaplacianOp::new(&g);
        let pre = ChainPreconditioner::new(&chain);
        let b = random_rhs(g.n());
        let out = parsdd_linalg::cg::pcg_solve(
            &op,
            &pre,
            &b,
            &parsdd_linalg::cg::CgOptions {
                max_iters: 300,
                tol: 1e-9,
            },
        );
        assert!(out.converged, "rel {}", out.relative_residual);
    }

    #[test]
    fn stats_reflect_options() {
        let g = generators::weighted_random_graph(800, 3200, 1.0, 5.0, 9);
        let mut opts = ChainOptions::default().with_kappa(36.0);
        opts.bottom_size = 200;
        let chain = build_chain(&g, &opts);
        let stats = chain.stats();
        for k in &stats.kappas {
            assert_eq!(*k, 36.0);
        }
        assert!(stats.recursion_leaves >= 1.0);
        assert_eq!(stats.sparsifier_edges.len(), chain.depth());
        // The new accounting is shape-consistent with the chain.
        assert_eq!(stats.level_applications.len(), chain.depth() + 1);
        assert_eq!(stats.level_work.len(), chain.depth() + 1);
        assert_eq!(stats.tree_scales.len(), chain.depth());
        assert_eq!(stats.kappa_eff.len(), chain.depth());
        assert!(stats.work_per_application > 0.0);
        assert_eq!(
            *stats.level_applications.last().unwrap(),
            stats.recursion_leaves
        );
    }

    fn cut_level(n: usize, m: usize, inner_iterations: usize) -> CutLevel {
        CutLevel {
            n,
            m,
            inner_iterations,
        }
    }

    /// Synthetic chain shapes for the bottom cut: each level shrinks by
    /// `shrink`, keeps `m = 2n` and runs width `k`; its factor stores
    /// `n · fill` entries.
    fn cut_shapes(
        n0: usize,
        shrink: usize,
        depth: usize,
        k: usize,
        fill: usize,
    ) -> (Vec<CutLevel>, Vec<usize>) {
        (0..=depth as u32)
            .map(|i| {
                let n = n0 / shrink.pow(i);
                (cut_level(n, 2 * n, k), n * fill)
            })
            .unzip()
    }

    /// The cut when level `j`'s factor stores `entries[j]` entries and
    /// only factors of at most `cap` entries may be built.
    fn cut(shapes: &[CutLevel], entries: &[usize], cap: usize) -> usize {
        cheapest_bottom(shapes, |j| Some(entries[j]).filter(|&e| e <= cap))
    }

    #[test]
    fn bottom_cut_shortens_a_bottom_heavy_tail() {
        // Levels halve against k = 4 and the factor grows like n^1.5 (a
        // bandwidth-ordered grid): each level deeper multiplies the bottom
        // solves by 4 but shrinks the factor by only ~2.8, so the
        // shallowest candidate wins.
        let (shapes, _) = cut_shapes(64_000, 2, 7, 4, 0);
        let entries: Vec<usize> = shapes
            .iter()
            .map(|l| (l.n as f64).powf(1.5) as usize)
            .collect();
        let cap = 1 << 18;
        let first_candidate = entries.iter().position(|&e| e <= cap).unwrap();
        assert_eq!(first_candidate, 4);
        assert_eq!(cut(&shapes, &entries, cap), first_candidate);
    }

    #[test]
    fn bottom_cut_keeps_a_balanced_chain() {
        // Levels shrink 8× against k = 4 over a small fill: every level
        // deeper halves the bottom's share, so the natural bottom stays.
        let (shapes, entries) = cut_shapes(64_000, 8, 4, 4, 20);
        assert_eq!(cut(&shapes, &entries, 1 << 18), shapes.len() - 1);
    }

    #[test]
    fn bottom_cut_never_picks_level_0_or_an_oversized_level() {
        // Level 0 would be the cheapest bottom by far, yet a cut keeps at
        // least one level.
        let (shapes, mut entries) = cut_shapes(3000, 2, 4, 4, 1000);
        entries[0] = 0;
        assert_eq!(cut(&shapes, &entries, usize::MAX), 1);
        // A level the model prices cheapest is skipped once its factor
        // passes the cap.
        let (shapes, mut entries) = cut_shapes(64_000, 2, 6, 4, 400);
        entries[2] = 100_000;
        assert_eq!(cut(&shapes, &entries, usize::MAX), 2);
        assert_ne!(cut(&shapes, &entries, 99_999), 2);
        // An iterative natural bottom is never cut.
        assert_eq!(cut(&shapes, &entries, 100), shapes.len() - 1);
        // Depth 0 stays depth 0.
        assert_eq!(cut(&shapes[..1], &entries, usize::MAX), 0);
    }

    #[test]
    fn bottom_cut_breaks_ties_toward_the_deeper_level() {
        // Level 1 as bottom: 200 + (2·30 + 2·10) = 280 flops. The natural
        // bottom: 200 + 2·20 + 2·(2·5 + 2·5) = 280 flops.
        let shapes = [
            cut_level(100, 200, 4),
            cut_level(10, 20, 2),
            cut_level(5, 10, 0),
        ];
        assert_eq!(cut(&shapes, &[0, 30, 5], usize::MAX), 2);
        // Two flops cheaper and level 1 wins.
        assert_eq!(cut(&shapes, &[0, 29, 5], usize::MAX), 1);
    }

    #[test]
    fn bottom_cut_prefers_a_shallow_level_with_a_small_factor() {
        // The 200×200 grid's chain: minimum-degree fill grows like
        // n log n, so level 1's factor (≈0.48M flops per application)
        // beats the deeper tails (≈0.74M at level 2, ≈1.25M at level 3).
        let shapes = [
            cut_level(40_000, 79_600, 4),
            cut_level(12_101, 30_000, 4),
            cut_level(4_672, 12_000, 4),
            cut_level(2_028, 5_200, 0),
        ];
        let entries = [0, 186_880, 62_348, 24_836];
        assert_eq!(cut(&shapes, &entries, 1 << 18), 1);
        // A cap below level 1's factor pushes the chain deeper.
        assert_eq!(cut(&shapes, &entries, 100_000), 2);
    }

    #[test]
    fn bottom_cut_cap_excludes_a_3d_like_level() {
        // A 3-D-like level 1 whose factor the model prices cheapest but
        // which stores more than the cap: the cut takes the next level.
        let shapes = [
            cut_level(64_000, 190_000, 4),
            cut_level(20_000, 60_000, 4),
            cut_level(8_000, 24_000, 4),
            cut_level(3_000, 9_000, 0),
        ];
        let entries = [0, 490_672, 150_000, 40_000];
        assert_eq!(cut(&shapes, &entries, usize::MAX), 1);
        assert_eq!(cut(&shapes, &entries, 1 << 18), 2);
    }

    #[test]
    fn identity_ordering_converges_and_agrees_with_rcm() {
        let g = generators::grid2d(30, 30, |x, y| 1.0 + ((2 * x + y) % 3) as f64);
        let b = random_rhs(g.n());
        let tol = 1e-10;
        let solve = |ordering: LevelOrdering| {
            let opts = ChainOptions {
                bottom_size: 200,
                ordering,
                ..Default::default()
            };
            let chain = build_chain(&g, &opts);
            let out = chain.solve(&b, tol, 300);
            assert!(out.converged, "{ordering:?}: rel {}", out.relative_residual);
            out.x
        };
        let x_rcm = solve(LevelOrdering::BandwidthReducing);
        let x_id = solve(LevelOrdering::Identity);
        let scale = parsdd_linalg::vector::norm2(&x_id).max(1.0);
        let diff = parsdd_linalg::vector::norm2(&parsdd_linalg::vector::sub(&x_rcm, &x_id));
        assert!(diff <= 1e-6 * scale, "|Δx| = {diff:.3e}");
    }

    #[test]
    fn min_degree_shrinks_the_bottom_factor() {
        // A direct bottom is factored in minimum-degree order whatever the
        // level ordering: the factor stays far below the dense triangle,
        // and `bottom_graph()` is in that order, so factoring it again
        // reproduces the chain's factor.
        let g = generators::grid2d(40, 40, |_, _| 1.0);
        for ordering in [LevelOrdering::BandwidthReducing, LevelOrdering::Identity] {
            let chain = build_chain(
                &g,
                &ChainOptions {
                    ordering,
                    ..Default::default()
                },
            );
            let stats = chain.stats();
            assert!(stats.direct_bottom);
            let bottom = chain.bottom_graph();
            let dense_triangle = bottom.n() * (bottom.n() - 1) / 2;
            assert!(
                stats.bottom_factor_nnz * 4 < dense_triangle,
                "{ordering:?}: factor {} vs dense {dense_triangle}",
                stats.bottom_factor_nnz
            );
            assert_eq!(
                SparseLdl::from_graph(bottom, 1e-10).nnz(),
                stats.bottom_factor_nnz
            );
        }
    }

    #[test]
    fn external_preconditioner_boundary_permutes_coherently() {
        // ChainPreconditioner speaks the *original* vertex order; its
        // single and blocked applications must agree with each other
        // bitwise (the blocked path is the row-major one).
        use parsdd_linalg::operator::Preconditioner as _;
        let g = generators::grid2d(26, 26, |_, _| 1.0);
        let chain = build_chain(
            &g,
            &ChainOptions {
                bottom_size: 150,
                ..Default::default()
            },
        );
        let pre = ChainPreconditioner::new(&chain);
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                let mut b: Vec<f64> = (0..g.n())
                    .map(|i| (((i * (5 + s)) % 19) as f64) - 9.0)
                    .collect();
                project_out_constant(&mut b);
                b
            })
            .collect();
        let block = MultiVector::from_columns(&cols);
        let mut zb = MultiVector::zeros(g.n(), cols.len());
        pre.precondition_block(&block, &mut zb);
        for (j, c) in cols.iter().enumerate() {
            let mut z1 = vec![0.0; g.n()];
            pre.precondition(c, &mut z1);
            for (a, b) in zb.col(j).iter().zip(&z1) {
                assert_eq!(a.to_bits(), b.to_bits(), "column {j}");
            }
        }
    }

    #[test]
    fn f32_chain_converges_and_slims_residency() {
        // The default cut stops this grid at depth 1, where only the
        // bottom factor demotes; a bottom-factor cap keeps levels ≥ 1 in
        // the chain, so their demotion is what the bounds below measure.
        let g = generators::grid2d(32, 32, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 200,
            direct_bottom_entry_limit: 3_000,
            ..Default::default()
        };
        let f64_chain = build_chain(&g, &opts);
        let f32_chain = build_chain(&g, &opts.with_precision(Precision::F32));
        assert!(f32_chain.depth() >= 2);
        // Level 0 stays f64 (the outer PCG's residual operator); every
        // deeper level demotes and drops its graph.
        assert_eq!(
            f32_chain.levels()[0].storage_precision(),
            Precision::F64,
            "level 0 must stay f64"
        );
        for (i, lvl) in f32_chain.levels().iter().enumerate() {
            assert!(lvl.graph().is_none(), "level {i} graph not dropped");
            if i >= 1 {
                assert_eq!(lvl.storage_precision(), Precision::F32, "level {i}");
            }
        }
        // The acceptance bound: demoted levels resident ≤ 0.72× f64.
        // Both tiers drop their level graphs now, so the comparison is
        // matrix-stream vs matrix-stream — nnz·(4+4)+offsets·4 over
        // nnz·(4+8)+offsets·4, strictly under 2/3 plus slack. Level 0
        // stays f64 on both tiers and must match exactly. (The last
        // entry is the bottom, which keeps its f64 matrix and graph for
        // the iterative fallback — only its factor's entries halve, so it
        // is bounded separately.)
        let s64 = f64_chain.stats();
        let s32 = f32_chain.stats();
        let depth = f32_chain.depth();
        assert_eq!(s32.level_resident_bytes[0], s64.level_resident_bytes[0]);
        for i in 1..depth {
            let (a, b) = (s32.level_resident_bytes[i], s64.level_resident_bytes[i]);
            assert!(
                (a as f64) <= 0.72 * (b as f64),
                "level {i}: f32 resident {a} vs f64 {b}"
            );
        }
        assert!(s32.level_resident_bytes[depth] < s64.level_resident_bytes[depth]);
        assert!(s32.resident_bytes < s64.resident_bytes);
        assert!(s32.streamed_bytes_per_application < 0.75 * s64.streamed_bytes_per_application);
        // Full outer accuracy through the f64 top operator.
        let b = random_rhs(g.n());
        let out = f32_chain.solve(&b, 1e-8, 300);
        assert!(out.converged, "rel {}", out.relative_residual);
        let op = LaplacianOp::new(&g);
        let r = op.residual(&out.x, &b);
        assert!(
            parsdd_linalg::vector::norm2(&r) <= 1e-7 * parsdd_linalg::vector::norm2(&b),
            "true residual too large"
        );
        // Iteration envelope vs the f64 chain.
        let out64 = f64_chain.solve(&b, 1e-8, 300);
        assert!(
            out.iterations as f64 <= 1.5 * out64.iterations.max(1) as f64,
            "f32 {} iters vs f64 {}",
            out.iterations,
            out64.iterations
        );
    }

    #[test]
    fn f32_knob_keeps_f64_bottom_on_shallow_chains() {
        // A bottom-only chain returns its bottom solve as the final
        // answer, so the knob must leave the bottom factor in f64 —
        // tight tolerances stay reachable in one solve.
        let g = generators::grid2d(12, 12, |x, y| 1.0 + ((x + 2 * y) % 3) as f64);
        let chain = build_chain(&g, &ChainOptions::default().with_precision(Precision::F32));
        assert_eq!(chain.depth(), 0);
        let stats = chain.stats();
        assert!(stats.direct_bottom);
        let b = random_rhs(g.n());
        let out = chain.solve(&b, 1e-10, 60);
        assert!(out.converged, "rel {}", out.relative_residual);
    }

    #[test]
    fn f32_block_solve_matches_single_solves_bitwise() {
        let g = generators::grid2d(30, 30, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 200,
            ..Default::default()
        }
        .with_precision(Precision::F32);
        let chain = build_chain(&g, &opts);
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                let mut b: Vec<f64> = (0..g.n())
                    .map(|i| (((i * (2 * s + 5)) % 31) as f64) - 15.0)
                    .collect();
                project_out_constant(&mut b);
                b
            })
            .collect();
        let outs = chain.solve_block(&MultiVector::from_columns(&cols), 1e-9, 300);
        for (j, b) in cols.iter().enumerate() {
            let single = chain.solve(b, 1e-9, 300);
            assert_eq!(outs[j].iterations, single.iterations, "column {j}");
            for (a, s) in outs[j].x.iter().zip(&single.x) {
                assert_eq!(a.to_bits(), s.to_bits(), "column {j}");
            }
        }
    }

    #[test]
    fn f64_default_is_knob_independent() {
        // ChainOptions::default() must behave bitwise-identically to an
        // explicit F64 knob — the default path is determinism-pinned.
        let g = generators::grid2d(28, 28, |x, y| 1.0 + ((x + 2 * y) % 3) as f64);
        let a = build_chain(&g, &ChainOptions::default());
        let b = build_chain(&g, &ChainOptions::default().with_precision(Precision::F64));
        let rhs = random_rhs(g.n());
        let xa = a.solve(&rhs, 1e-9, 300);
        let xb = b.solve(&rhs, 1e-9, 300);
        assert_eq!(xa.iterations, xb.iterations);
        for (u, v) in xa.x.iter().zip(&xb.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        // And every f64 level streams f64 with its build-time graph
        // dropped (the duplicate CSR goes on both precision tiers).
        for lvl in a.levels() {
            assert!(lvl.graph().is_none());
            assert_eq!(lvl.storage_precision(), Precision::F64);
        }
    }

    // `from_env` itself is not exercised here: tests run in parallel and
    // `SddSolverOptions::default` reads the variable, so mutating the
    // process environment would race with every other test.
    #[test]
    fn precision_env_value_parses_case_insensitively() {
        for (v, p) in [
            ("f32", Precision::F32),
            ("F32", Precision::F32),
            ("f64", Precision::F64),
            ("F64", Precision::F64),
        ] {
            assert_eq!(Precision::parse_env_value(v), p, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "PARSDD_PRECISION=\"fp32\" is not a precision")]
    fn precision_env_value_rejects_a_typo() {
        Precision::parse_env_value("fp32");
    }

    #[test]
    fn options_validation_rejects_bad_fields() {
        let good = ChainOptions::default();
        assert!(good.validate().is_ok());
        let mut bad = good;
        bad.kappa = 0.5;
        assert!(bad.validate().is_err());
        bad = good;
        bad.extra_fraction = f64::NAN;
        assert!(bad.validate().is_err());
        bad = good;
        bad.tree_scale = f64::INFINITY;
        assert!(bad.validate().is_err());
        bad = good;
        bad.bottom_size = 0;
        assert!(bad.validate().is_err());
        bad = good;
        bad.min_shrink = 1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn sanitized_options_are_valid_and_build_safely() {
        let bad = ChainOptions {
            kappa: 0.0,
            extra_fraction: f64::INFINITY,
            tree_scale: f64::NAN,
            oversample: -3.0,
            bottom_size: 0,
            bottom_exponent: 7.5,
            min_shrink: f64::NAN,
            ..Default::default()
        };
        let clean = bad.sanitized();
        assert!(clean.validate().is_ok(), "{:?}", clean.validate());
        // build_chain sanitizes internally: garbage options still converge
        // instead of diverging deep inside the build.
        let g = generators::grid2d(24, 24, |_, _| 1.0);
        let chain = build_chain(&g, &bad);
        let b = random_rhs(g.n());
        let out = chain.solve(&b, 1e-8, 300);
        assert!(out.converged, "rel {}", out.relative_residual);
    }
}
