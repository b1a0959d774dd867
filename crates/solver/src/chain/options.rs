//! The chain's options and its storage precision.

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
    /// ([`CompiledTrace`](crate::elimination::CompiledTrace), divisions
    /// prefolded into f32 reciprocals), demoted once after an all-f64
    /// build; Chebyshev intervals are calibrated against the demoted
    /// operator. The whole W-cycle below the outer PCG then runs on f32
    /// vectors. A depth-0 chain has no cycle and keeps its f64 bottom,
    /// whose solve is the final answer.
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
    pub(super) fn parse_env_value(v: &str) -> Precision {
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
/// [`build_chain`](super::build_chain)) to clamp out-of-range values, or
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
    /// fraction `f_i = clamp(c·s̄·ln n / 256, 0.02, 1)` — which pins the
    /// level's full condition target `t_i·κ_i = c·s̄·ln n / f_i` at 256
    /// whenever the clamps don't bind. High-stretch families (skewed
    /// weights, expanders) get heavier forests and denser sampling; easy
    /// families get lighter levels. The default is `false`: the fixed
    /// grid-tuned schedule is pinned for determinism, and every committed
    /// baseline/bitwise contract runs on it.
    pub adaptive: bool,
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
    /// most `max(bottom_size, m^{1/3})` vertices, where `m` is the edge
    /// count of the *input* (Section 6.3). The chain may end higher up,
    /// at the first graph below the top whose direct factor fits
    /// [`direct_bottom_entry_limit`](Self::direct_bottom_entry_limit)
    /// (DESIGN.md §2.10).
    pub bottom_size: usize,
    /// Most strictly-lower entries a direct bottom factor may store (its
    /// fill in minimum-degree order,
    /// [`min_degree_order`](parsdd_graph::reorder::min_degree_order)). A
    /// bottom system whose factor would store more is solved iteratively.
    /// The same cap ends the level loop: it stops at the first graph below
    /// the top whose factor fits, which becomes the bottom, and builds no
    /// level below it (DESIGN.md §2.10). It also decides whether a natural
    /// bottom or a depth-0 system is factored. The default, 2¹⁸ entries
    /// (2 MiB at f64), admits the bottoms of 2-D meshes and road networks
    /// of the benchmark sizes and keeps 3-D lattices and dense clusters
    /// iterative. A smaller cap forces a deeper chain.
    pub direct_bottom_entry_limit: usize,
    /// Maximum number of chain levels: a backstop against inputs that
    /// never reach the size floor. The size floor or the first bottom
    /// that fits is what normally ends the chain.
    pub max_levels: usize,
    /// Data-driven depth cutoff: stop recursing when a level's vertex
    /// count shrinks by less than this factor (or its edge count by less
    /// than 1.05×) — such levels only add recursion overhead.
    pub min_shrink: f64,
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
            kappa: 64.0,
            tree_scale: 8.0,
            subgraph_z: 32.0,
            subgraph_lambda: 2,
            oversample: 2.0,
            bottom_size: 300,
            direct_bottom_entry_limit: 1 << 18,
            // Only a backstop: the size floor or the first bottom that
            // fits ends the chain.
            max_levels: 32,
            min_shrink: 1.3,
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

    /// Sets the storage precision of the streamed preconditioner
    /// operators (see [`Precision`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Checks every field for values that would make `build_chain` diverge
    /// or loop; returns a description of the first violation. Use this when
    /// options come from an untrusted source and should be *rejected*;
    /// [`Self::sanitized`] is the clamping alternative. A field is valid
    /// exactly when sanitizing leaves it unchanged.
    pub fn validate(&self) -> Result<(), String> {
        let (o, s) = (self, self.sanitized());
        let fields = [
            ("extra_fraction", o.extra_fraction, s.extra_fraction),
            ("kappa", o.kappa, s.kappa),
            ("tree_scale", o.tree_scale, s.tree_scale),
            ("oversample", o.oversample, s.oversample),
            ("subgraph_z", o.subgraph_z, s.subgraph_z),
            ("bottom_size", o.bottom_size as f64, s.bottom_size as f64),
            ("min_shrink", o.min_shrink, s.min_shrink),
            (
                "max_inner_iterations",
                o.max_inner_iterations as f64,
                s.max_inner_iterations as f64,
            ),
        ];
        match fields
            .iter()
            .find(|(_, v, clean)| v.to_bits() != clean.to_bits())
        {
            Some((name, v, clean)) => Err(format!(
                "{name} = {v} is out of range; sanitized() makes it {clean}"
            )),
            None => Ok(()),
        }
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
        if !(o.oversample.is_finite() && o.oversample > 0.0) {
            o.oversample = d.oversample;
        }
        if !(o.subgraph_z.is_finite() && o.subgraph_z > 1.0) {
            o.subgraph_z = d.subgraph_z;
        }
        o.bottom_size = o.bottom_size.max(1);
        if !(o.min_shrink.is_finite() && o.min_shrink > 1.0) {
            o.min_shrink = d.min_shrink;
        }
        o.max_inner_iterations = o.max_inner_iterations.max(2);
        o
    }
}
