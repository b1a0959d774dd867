//! Synthetic graph generators.
//!
//! These are the workloads used by the tests, examples and experiment
//! benches: regular lattices (the SDD systems arising from PDE/vision
//! problems the paper's introduction motivates), random graphs (expander-
//! like inputs where low-diameter decomposition is easy but stretch is
//! interesting), pathological trees/cycles, and "ultra-sparse" graphs
//! (tree + few extra edges) matching the preconditioners the solver chain
//! produces internally.
//!
//! All generators are deterministic given their seed.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::builder::GraphBuilder;
use crate::graph::{Edge, Graph, VertexId};

/// Path graph `0 - 1 - ... - (n-1)` with constant edge weight.
pub fn path(n: usize, weight: f64) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge((v - 1) as VertexId, v as VertexId, weight);
    }
    b.build()
}

/// Cycle graph on `n >= 3` vertices with constant edge weight.
pub fn cycle(n: usize, weight: f64) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::with_capacity(n, n);
    for v in 1..n {
        b.add_edge((v - 1) as VertexId, v as VertexId, weight);
    }
    b.add_edge((n - 1) as VertexId, 0, weight);
    b.build()
}

/// Star graph: vertex 0 connected to vertices `1..n`.
pub fn star(n: usize, weight: f64) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for v in 1..n {
        b.add_edge(0, v as VertexId, weight);
    }
    b.build()
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize, weight: f64) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as VertexId, v as VertexId, weight);
        }
    }
    b.build()
}

/// Two complete graphs of size `k` joined by a single path of length
/// `bridge` — the classic "barbell", a worst case for ball growing and a
/// good stress test for decomposition quality.
pub fn barbell(k: usize, bridge: usize, weight: f64) -> Graph {
    assert!(k >= 2);
    let n = 2 * k + bridge;
    let mut b = GraphBuilder::new(n);
    let clique = |b: &mut GraphBuilder, off: usize| {
        for u in 0..k {
            for v in (u + 1)..k {
                b.add_edge((off + u) as VertexId, (off + v) as VertexId, weight);
            }
        }
    };
    clique(&mut b, 0);
    clique(&mut b, k + bridge);
    // Bridge path from vertex k-1 through bridge vertices to vertex k+bridge.
    let mut prev = (k - 1) as VertexId;
    for i in 0..bridge {
        let cur = (k + i) as VertexId;
        b.add_edge(prev, cur, weight);
        prev = cur;
    }
    b.add_edge(prev, (k + bridge) as VertexId, weight);
    b.build()
}

/// 2-D grid graph with `rows × cols` vertices; vertex `(r, c)` has index
/// `r * cols + c`. `weight(u, v)` supplies the weight of each edge.
pub fn grid2d(rows: usize, cols: usize, weight: impl Fn(VertexId, VertexId) -> f64) -> Graph {
    let n = rows.saturating_mul(cols);
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let idx = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                let (u, v) = (idx(r, c), idx(r, c + 1));
                b.add_edge(u, v, weight(u, v));
            }
            if r + 1 < rows {
                let (u, v) = (idx(r, c), idx(r + 1, c));
                b.add_edge(u, v, weight(u, v));
            }
        }
    }
    b.build()
}

/// 3-D grid graph with `nx × ny × nz` vertices and unit-or-custom weights.
pub fn grid3d(
    nx: usize,
    ny: usize,
    nz: usize,
    weight: impl Fn(VertexId, VertexId) -> f64,
) -> Graph {
    let n = nx.saturating_mul(ny).saturating_mul(nz);
    let mut b = GraphBuilder::with_capacity(n, 3 * n);
    let idx = |x: usize, y: usize, z: usize| (x * ny * nz + y * nz + z) as VertexId;
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                let u = idx(x, y, z);
                if x + 1 < nx {
                    let v = idx(x + 1, y, z);
                    b.add_edge(u, v, weight(u, v));
                }
                if y + 1 < ny {
                    let v = idx(x, y + 1, z);
                    b.add_edge(u, v, weight(u, v));
                }
                if z + 1 < nz {
                    let v = idx(x, y, z + 1);
                    b.add_edge(u, v, weight(u, v));
                }
            }
        }
    }
    b.build()
}

/// 2-D torus (grid with wrap-around edges), a common SDD benchmark with no
/// boundary effects.
pub fn torus2d(rows: usize, cols: usize, weight: f64) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs at least 3x3");
    let n = rows.saturating_mul(cols);
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let idx = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols), weight);
            b.add_edge(idx(r, c), idx((r + 1) % rows, c), weight);
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, m)`: `m` distinct uniformly random edges (no parallel
/// edges, no self-loops), unit weights.
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2 || m == 0);
    let max_edges = n * (n - 1) / 2;
    assert!(
        m <= max_edges,
        "requested more edges than a simple graph allows"
    );
    let mut b = GraphBuilder::with_capacity(n, m);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    while b.m() < m {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            b.add_edge(key.0, key.1, 1.0);
        }
    }
    b.build()
}

/// Random `d`-regular multigraph via the configuration model (pairs up
/// vertex "stubs" uniformly at random). Self-loops are discarded, so some
/// vertices may end up with degree slightly below `d`; parallel edges are
/// kept. `n * d` must be even.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n * d must be even");
    let mut b = GraphBuilder::with_capacity(n, n * d / 2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut stubs: Vec<VertexId> = (0..n)
        .flat_map(|v| std::iter::repeat_n(v as VertexId, d))
        .collect();
    stubs.shuffle(&mut rng);
    for pair in stubs.chunks_exact(2) {
        b.add_edge_skip_loops(pair[0], pair[1], 1.0);
    }
    b.build()
}

/// Connected random graph: a random spanning tree plus `extra` additional
/// distinct random edges, with weights drawn uniformly from
/// `[w_min, w_max]`. This is the workhorse input for solver tests.
pub fn weighted_random_graph(n: usize, m: usize, w_min: f64, w_max: f64, seed: u64) -> Graph {
    assert!(n >= 2);
    assert!(m + 1 >= n, "need at least n-1 edges for connectivity");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    let weight = |rng: &mut ChaCha8Rng| {
        if w_min == w_max {
            w_min
        } else {
            rng.gen_range(w_min..=w_max)
        }
    };
    let mut seen = std::collections::HashSet::new();
    // Random attachment tree guarantees connectivity.
    let perm: Vec<VertexId> = {
        let mut p: Vec<VertexId> = (0..n as VertexId).collect();
        p.shuffle(&mut rng);
        p
    };
    for i in 1..n {
        let u = perm[i];
        let v = perm[rng.gen_range(0..i)];
        let key = if u < v { (u, v) } else { (v, u) };
        seen.insert(key);
        let w = weight(&mut rng);
        b.add_edge(key.0, key.1, w);
    }
    let max_edges = n * (n - 1) / 2;
    let target = m.min(max_edges);
    while b.m() < target {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            let w = weight(&mut rng);
            b.add_edge(key.0, key.1, w);
        }
    }
    b.build()
}

/// Uniform random spanning tree-ish: random attachment tree on `n`
/// vertices with the given constant weight (not uniform over all trees,
/// but has the right size/shape distribution for testing).
pub fn random_tree(n: usize, weight: f64, seed: u64) -> Graph {
    assert!(n >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n as VertexId {
        let p = rng.gen_range(0..v);
        b.add_edge(p, v, weight);
    }
    b.build()
}

/// An "ultra-sparse" graph: a random tree plus `extra` random non-tree
/// edges (duplicates skipped), all with weights in `[w_min, w_max]`.
/// Matches the `n - 1 + O(m / polylog)` shape of the preconditioners the
/// chain produces (Theorem 5.9), and is the natural input for the greedy
/// elimination experiments (Lemma 6.5).
pub fn ultra_sparse(n: usize, extra: usize, w_min: f64, w_max: f64, seed: u64) -> Graph {
    weighted_random_graph(n, (n - 1) + extra, w_min, w_max, seed)
}

// ---------------------------------------------------------------------------
// The workload zoo: graph families beyond the grid.
//
// Every generator below is sequential and seeded, so its output is a pure
// function of its arguments — bitwise identical across repeated runs and
// across `RAYON_NUM_THREADS` (pinned by `tests/zoo.rs`). The families map
// to the diversity argument of GBBS ("Theoretically Efficient Parallel
// Graph Algorithms Can Be Fast and Scalable"): power-law (rMAT),
// small-world/expander (Watts–Strogatz), road-like planar meshes with
// skewed weights, 3D lattices, and near-disconnected clusters that stress
// the solver's κ clamps.
// ---------------------------------------------------------------------------

/// R-MAT power-law graph (Chakrabarti–Zhan–Faloutsos; the Graph500 /
/// GBBS-style recursive-quadrant generator) on `2^scale` vertices with up
/// to `edges` distinct undirected edges, restricted to its largest
/// connected component (rMAT leaves isolated vertices and fragments; the
/// solver workload is the giant component). Quadrant probabilities are the
/// conventional `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`, giving a heavy
/// power-law degree tail. Unit weights; duplicate pairs and self-loops are
/// discarded (so the edge count can land slightly below `edges`).
pub fn rmat(scale: u32, edges: usize, seed: u64) -> Graph {
    assert!((1..=26).contains(&scale), "rmat scale out of range");
    let n = 1usize << scale;
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(edges * 2);
    let mut b = GraphBuilder::with_capacity(n, edges);
    // Each attempt recurses `scale` times into one of four quadrants; noise
    // on the quadrant probabilities (the standard smoothing) prevents the
    // degenerate "all duplicates" fixed point at high densities.
    let mut attempts = 0usize;
    let max_attempts = edges.saturating_mul(16).max(1024);
    while b.m() < edges && attempts < max_attempts {
        attempts += 1;
        let (mut u, mut v) = (0usize, 0usize);
        for level in 0..scale {
            let bit = 1usize << (scale - 1 - level);
            let noise = 0.9 + 0.2 * rng.gen_range(0.0..1.0);
            let (a, bq, c) = (A * noise, B * noise, C * noise);
            let r = rng.gen_range(0.0..1.0) * (a + bq + c + (1.0 - A - B - C) * noise);
            if r < a {
                // top-left: neither bit set
            } else if r < a + bq {
                v |= bit;
            } else if r < a + bq + c {
                u |= bit;
            } else {
                u |= bit;
                v |= bit;
            }
        }
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            b.add_edge(key.0 as VertexId, key.1 as VertexId, 1.0);
        }
    }
    crate::components::largest_component(&b.build())
}

/// Watts–Strogatz small-world graph: a ring lattice on `n` vertices where
/// every vertex connects to its `k/2` nearest neighbours on each side
/// (`k` even), with each edge's far endpoint rewired to a uniformly random
/// vertex with probability `beta`. Small `beta` keeps the lattice's
/// clustering while the rewired shortcuts collapse the diameter — an
/// expander-like family where low-diameter decomposition is easy but the
/// low-stretch machinery earns nothing from geometry. Unit weights.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "watts_strogatz needs even k >= 2"
    );
    assert!(n > k, "watts_strogatz needs n > k");
    assert!((0.0..=1.0).contains(&beta));
    let mut b = GraphBuilder::with_capacity(n, n * k / 2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(n * k);
    for u in 0..n {
        for hop in 1..=(k / 2) {
            let v = (u + hop) % n;
            let (mut a, mut c) = (u, v);
            if rng.gen_range(0.0..1.0) < beta {
                // Rewire the far endpoint; on self-loop or duplicate keep
                // the lattice edge instead (the classic construction).
                let w = rng.gen_range(0..n);
                if w != u {
                    c = w;
                    a = u;
                }
            }
            let key = if a < c { (a, c) } else { (c, a) };
            if chosen.insert(key) {
                b.add_edge(key.0 as VertexId, key.1 as VertexId, 1.0);
            }
        }
    }
    crate::components::largest_component(&b.build())
}

/// Road-network-like planar mesh: a `rows × cols` grid whose spanning
/// "avenue + streets" comb (the row-0 spine plus every vertical edge) is
/// always present, whose remaining cross-street edges survive with
/// probability `keep`, and whose weights are log-normally distributed
/// (`exp(sigma · z)`, `z` standard normal) — the long-tailed
/// conductance skew of real road networks, where AKPW's weight-class
/// bucketing actually has classes to chew on. `keep = 0.55` and
/// `sigma = 1.5` are good defaults.
pub fn road_mesh(rows: usize, cols: usize, keep: f64, sigma: f64, seed: u64) -> Graph {
    assert!(rows >= 2 && cols >= 2);
    assert!((0.0..=1.0).contains(&keep));
    let n = rows.saturating_mul(cols);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let lognormal = move |rng: &mut ChaCha8Rng| {
        // Box–Muller; one normal per call is plenty here.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (sigma * z).exp()
    };
    let idx = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                // Horizontal: row 0 is the spine (always kept); deeper rows
                // are cross streets that may be missing.
                let w = lognormal(&mut rng);
                if r == 0 || rng.gen_range(0.0..1.0) < keep {
                    b.add_edge(idx(r, c), idx(r, c + 1), w);
                }
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c), lognormal(&mut rng));
            }
        }
    }
    b.build()
}

/// 3-D lattice with mildly heterogeneous random weights in
/// `[1, spread]` (log-uniform), the PDE-style workload one dimension up
/// from the benches' default grids: higher vertex degree, larger surface-
/// to-volume ratio, and a qualitatively different elimination fill pattern.
pub fn lattice3d(nx: usize, ny: usize, nz: usize, spread: f64, seed: u64) -> Graph {
    assert!(spread >= 1.0 && spread.is_finite());
    let ln_spread = spread.ln();
    // grid3d calls the weight closure once per edge in a fixed construction
    // order, so a sequential RNG stream behind a RefCell stays deterministic.
    let rng = std::cell::RefCell::new(ChaCha8Rng::seed_from_u64(seed));
    grid3d(nx, ny, nz, |_, _| {
        (rng.borrow_mut().gen_range(0.0f64..1.0) * ln_spread).exp()
    })
}

/// Near-disconnected clusters: `clusters` random connected graphs of
/// `cluster_n` vertices each (a random attachment tree with weights in
/// `[1, 4]` plus `extra` *light* edges with weights in `[0.002, 0.02]`),
/// chained together by single bridge edges of weight `bridge_weight`.
///
/// The family stresses the sparsifier's κ clamps from both ends. With
/// `bridge_weight ≪ 1` the graph's Fiedler value collapses, so κ(A) — and
/// with it the f64-attainable relative residual, ≈ ε·κ(A) — is set by the
/// bridges. And because the off-tree edges are light against the heavy
/// tree, their resistance stretch is tiny: the target-based κ derivation
/// in `incremental_sparsify_with_target` lands below its floor and clamps
/// (the flag the chain reports through `ChainQuality`). Bridges are cut
/// edges, so they always sit in the spanning forest — the clamp pressure
/// comes from the starved off-forest stretch, not from the bridges
/// themselves.
pub fn near_disconnected_clusters(
    clusters: usize,
    cluster_n: usize,
    extra: usize,
    bridge_weight: f64,
    seed: u64,
) -> Graph {
    assert!(clusters >= 2 && cluster_n >= 2);
    assert!(bridge_weight > 0.0 && bridge_weight.is_finite());
    let n = clusters.saturating_mul(cluster_n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, clusters * (cluster_n + extra));
    for c in 0..clusters {
        let off = (c * cluster_n) as VertexId;
        // Random attachment tree keeps the cluster connected.
        for v in 1..cluster_n as VertexId {
            let p = rng.gen_range(0..v);
            b.add_edge(off + p, off + v, rng.gen_range(1.0..=4.0));
        }
        let mut placed = 0usize;
        let mut tries = 0usize;
        let mut seen = std::collections::HashSet::new();
        while placed < extra && tries < extra * 20 {
            tries += 1;
            let u = rng.gen_range(0..cluster_n as VertexId);
            let v = rng.gen_range(0..cluster_n as VertexId);
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if seen.insert(key) {
                // Light against the [1, 4] tree: negligible resistance
                // stretch, which starves the sampler's κ derivation.
                b.add_edge(off + key.0, off + key.1, rng.gen_range(0.002..=0.02));
                placed += 1;
            }
        }
        if c + 1 < clusters {
            // One feeble bridge to the next cluster.
            let u = off + rng.gen_range(0..cluster_n as VertexId);
            let v = ((c + 1) * cluster_n) as VertexId + rng.gen_range(0..cluster_n as VertexId);
            b.add_edge(u, v, bridge_weight);
        }
    }
    b.build()
}

// ---------------------------------------------------------------------------
// Scaled generators: counter-based RNG, parallel emission, ≥10M edges.
//
// The zoo generators above walk a sequential ChaCha stream, which caps them
// at a few hundred thousand edges before generation dominates the workload.
// The generators below derive every random decision from `(seed, counter)`
// via SplitMix64 finalisation rounds (the same construction as the
// sparsifier's `counter_coin`), so each item is a pure function of its id:
// emission parallelises as an order-preserving map and the output is
// bitwise identical at every pool width.
// ---------------------------------------------------------------------------

/// Counter-based uniform `u64` for item `id` under `seed`: two SplitMix64
/// finalisation rounds over `(seed, id)`. Order-independent by
/// construction, which is what lets the scaled generators run as parallel
/// maps instead of sequential RNG streams.
#[inline]
pub fn counter_u64(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..2 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// Counter-based uniform f64 in `[0, 1)` (53 mantissa bits of
/// [`counter_u64`]).
#[inline]
pub fn counter_unit(seed: u64, id: u64) -> f64 {
    ((counter_u64(seed, id) >> 11) as f64) / (1u64 << 53) as f64
}

/// Flat parallel R-MAT on `2^scale` vertices: `edges` independent quadrant
/// walks, each a pure function of `(seed, edge id)`, emitted by a parallel
/// map with no shared state — no `HashSet`, no largest-component pass, no
/// sequential RNG. Self-loops are dropped and duplicate pairs merged (the
/// final sort + dedup is the only super-linear step), so the edge count
/// lands somewhat below `edges`; isolated vertices remain (callers wanting
/// the giant component compose with
/// [`largest_component`](crate::components::largest_component)). Unit
/// weights; bitwise identical at every pool width.
pub fn rmat_flat(scale: u32, edges: usize, seed: u64) -> Graph {
    use rayon::prelude::*;
    assert!((1..=31).contains(&scale), "rmat scale out of range");
    let n = 1usize << scale;
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let mut pairs: Vec<(VertexId, VertexId)> = (0..edges as u64)
        .into_par_iter()
        .with_min_len(4096)
        .filter_map(|i| {
            let (mut u, mut v) = (0usize, 0usize);
            for level in 0..scale {
                let bit = 1usize << (scale - 1 - level);
                // Two counter draws per level: probability-noise and the
                // quadrant pick (mirrors the sequential `rmat` smoothing).
                let id = i * 64 + 2 * level as u64;
                let noise = 0.9 + 0.2 * counter_unit(seed, id);
                let (a, bq, c) = (A * noise, B * noise, C * noise);
                let r = counter_unit(seed, id + 1) * (a + bq + c + (1.0 - A - B - C) * noise);
                if r < a {
                    // top-left: neither bit set
                } else if r < a + bq {
                    v |= bit;
                } else if r < a + bq + c {
                    u |= bit;
                } else {
                    u |= bit;
                    v |= bit;
                }
            }
            if u == v {
                None
            } else if u < v {
                Some((u as VertexId, v as VertexId))
            } else {
                Some((v as VertexId, u as VertexId))
            }
        })
        .collect();
    pairs.par_sort_unstable();
    pairs.dedup();
    let edges: Vec<Edge> = pairs
        .into_par_iter()
        .with_min_len(4096)
        .map(|(u, v)| Edge::new(u, v, 1.0))
        .collect();
    Graph::from_edges_unchecked(n, edges)
}

/// Barabási–Albert preferential attachment: each new vertex attaches `d`
/// edges to existing vertices chosen proportionally to degree (by sampling
/// uniform positions in the running arc-endpoint list). The attachment
/// process is inherently sequential, but every random draw is counter-based
/// (`(seed, draw counter)`), so the output is a pure function of the
/// arguments and generation is a single O(m) pass — no RNG state to
/// snapshot, no rejection loops beyond per-vertex duplicate avoidance.
/// Power-law degree tail, connected by construction, unit weights.
pub fn preferential_attachment(n: usize, d: usize, seed: u64) -> Graph {
    assert!(d >= 1 && n >= 2);
    GraphBuilder::new(n); // panics past the u32 ids, before any allocation
                          // Arc endpoints double as the sampling urn: a vertex appears once per
                          // incident edge, so a uniform index is a degree-proportional draw.
    let mut urn: Vec<VertexId> = Vec::with_capacity(2 * n * d.min(n));
    let mut edges: Vec<Edge> = Vec::with_capacity(n * d);
    let mut ctr = 0u64;
    let mut picked: Vec<VertexId> = Vec::with_capacity(d);
    urn.push(0);
    for v in 1..n as VertexId {
        let k = (v as usize).min(d);
        picked.clear();
        let mut guard = 0usize;
        while picked.len() < k && guard < 32 * k {
            guard += 1;
            let t = urn[(counter_u64(seed, ctr) % urn.len() as u64) as usize];
            ctr += 1;
            if t == v || picked.contains(&t) {
                continue;
            }
            picked.push(t);
            edges.push(Edge::new(t, v, 1.0));
            urn.push(t);
            urn.push(v);
        }
        if picked.is_empty() {
            // Degenerate fallback (urn exhausted by duplicates): attach to
            // the previous vertex so the graph stays connected.
            edges.push(Edge::new(v - 1, v, 1.0));
            urn.push(v - 1);
            urn.push(v);
        }
    }
    Graph::from_edges_unchecked(n, edges)
}

/// Random geometric graph on the unit square: `n` vertices at
/// counter-random positions, an edge between every pair within Euclidean
/// distance `r = sqrt(avg_degree / (π n))` (giving expected degree
/// `avg_degree` away from the boundary, i.e. `m ≈ n · avg_degree / 2`).
/// Neighbor search buckets vertices into an `r`-sided cell grid (flat cell
/// CSR, counting sort), and each vertex scans its 3×3 cell neighborhood in
/// a parallel map, emitting only `u < v` pairs in deterministic
/// (cell-order, then id) order — bitwise identical at every pool width.
/// The giant component covers nearly all vertices once
/// `avg_degree ≳ ln n`; weights are unit.
pub fn random_geometric(n: usize, avg_degree: f64, seed: u64) -> Graph {
    use rayon::prelude::*;
    assert!(n >= 2 && avg_degree > 0.0);
    GraphBuilder::new(n); // panics past the u32 ids, before any allocation
    let r = (avg_degree / (std::f64::consts::PI * n as f64)).sqrt();
    assert!(r < 0.5, "avg_degree too large for the unit square");
    // Positions: two counter draws per vertex.
    let pos: Vec<(f64, f64)> = (0..n as u64)
        .into_par_iter()
        .with_min_len(4096)
        .map(|v| (counter_unit(seed, 2 * v), counter_unit(seed, 2 * v + 1)))
        .collect();
    // Cell grid with side >= r so neighbors lie in the 3x3 surrounding
    // block. Counting sort into a flat cell CSR (cells in row-major order,
    // vertices in id order within a cell — fully deterministic).
    let side = (1.0 / r).floor().max(1.0) as usize;
    let cell_of = |v: usize| -> usize {
        let (x, y) = pos[v];
        let cx = ((x * side as f64) as usize).min(side - 1);
        let cy = ((y * side as f64) as usize).min(side - 1);
        cy * side + cx
    };
    let mut counts = vec![0u32; side * side + 1];
    for v in 0..n {
        counts[cell_of(v) + 1] += 1;
    }
    for c in 1..counts.len() {
        counts[c] += counts[c - 1];
    }
    let cell_start = counts.clone();
    let mut members = vec![0 as VertexId; n];
    let mut cursor = cell_start.clone();
    for v in 0..n {
        let c = cell_of(v);
        members[cursor[c] as usize] = v as VertexId;
        cursor[c] += 1;
    }
    // Parallel emission: vertex v scans the 3x3 block of its cell and
    // keeps u > v within radius. flat_map_iter keeps per-vertex output in
    // scan order and the shim's collect preserves item order.
    let r2 = r * r;
    let edges: Vec<Edge> = (0..n)
        .into_par_iter()
        .with_min_len(1024)
        .flat_map_iter(|v| {
            let (x, y) = pos[v];
            let cx = ((x * side as f64) as usize).min(side - 1);
            let cy = ((y * side as f64) as usize).min(side - 1);
            let x0 = cx.saturating_sub(1);
            let x1 = (cx + 1).min(side - 1);
            let y0 = cy.saturating_sub(1);
            let y1 = (cy + 1).min(side - 1);
            let mut out = Vec::new();
            for gy in y0..=y1 {
                for gx in x0..=x1 {
                    let c = gy * side + gx;
                    let lo = cell_start[c] as usize;
                    let hi = cell_start[c + 1] as usize;
                    for &u in &members[lo..hi] {
                        if (u as usize) <= v {
                            continue;
                        }
                        let (ux, uy) = pos[u as usize];
                        let (dx, dy) = (ux - x, uy - y);
                        if dx * dx + dy * dy <= r2 {
                            out.push(Edge::new(v as VertexId, u, 1.0));
                        }
                    }
                }
            }
            out
        })
        .collect();
    Graph::from_edges_unchecked(n, edges)
}

/// Rescales every edge weight by a power-law factor to produce graphs with
/// large *spread* Δ (ratio of max to min weight), exercising the weight-
/// class machinery of AKPW (Section 5). `decades` is log10(Δ).
pub fn with_power_law_weights(g: &Graph, decades: u32, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let edges = g
        .edges()
        .iter()
        .map(|e| {
            let exp = rng.gen_range(0..=decades) as f64;
            crate::graph::Edge::new(e.u, e.v, e.w * 10f64.powf(exp))
        })
        .collect();
    Graph::from_edges_unchecked(g.n(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected;

    // Vertex counts past the `u32` ids panic before anything is
    // allocated: each of these would ask for gigabytes otherwise.
    const TOO_MANY: usize = u32::MAX as usize;

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn grid2d_rejects_ids_past_u32() {
        grid2d(1 << 16, 1 << 16, |_, _| 1.0);
    }

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn grid3d_rejects_ids_past_u32() {
        grid3d(1 << 16, 1 << 16, 2, |_, _| 1.0);
    }

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn lattice3d_rejects_ids_past_u32() {
        lattice3d(1 << 11, 1 << 11, 1 << 10, 2.0, 0);
    }

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn watts_strogatz_rejects_ids_past_u32() {
        watts_strogatz(TOO_MANY, 4, 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn road_mesh_rejects_ids_past_u32() {
        road_mesh(1 << 16, 1 << 16, 0.5, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn clusters_reject_ids_past_u32() {
        near_disconnected_clusters(1 << 16, 1 << 16, 0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn random_geometric_rejects_ids_past_u32() {
        random_geometric(TOO_MANY, 8.0, 0);
    }

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn preferential_attachment_rejects_ids_past_u32() {
        preferential_attachment(TOO_MANY, 2, 0);
    }

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn barbell_rejects_ids_past_u32() {
        barbell(1 << 31, 2, 1.0);
    }

    #[test]
    fn path_cycle_star_shapes() {
        let p = path(10, 1.0);
        assert_eq!((p.n(), p.m()), (10, 9));
        let c = cycle(10, 1.0);
        assert_eq!((c.n(), c.m()), (10, 10));
        assert!(c.edges().iter().all(|e| e.w == 1.0));
        let s = star(10, 1.0);
        assert_eq!((s.n(), s.m()), (10, 9));
        assert_eq!(s.degree(0), 9);
        let k = complete(6, 1.0);
        assert_eq!((k.n(), k.m()), (6, 15));
        assert_eq!(k.max_degree(), 5);
    }

    #[test]
    fn grid_shapes() {
        let g = grid2d(5, 7, |_, _| 1.0);
        assert_eq!(g.n(), 35);
        assert_eq!(g.m(), 5 * 6 + 4 * 7); // horizontal + vertical
        assert!(is_connected(&g));
        let g3 = grid3d(3, 4, 5, |_, _| 1.0);
        assert_eq!(g3.n(), 60);
        assert!(is_connected(&g3));
        let t = torus2d(4, 5, 1.0);
        assert_eq!(t.n(), 20);
        assert_eq!(t.m(), 40);
        assert_eq!(t.max_degree(), 4);
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5, 3, 1.0);
        assert_eq!(g.n(), 13);
        assert_eq!(g.m(), 2 * 10 + 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn erdos_renyi_counts_and_determinism() {
        let a = erdos_renyi_gnm(100, 300, 7);
        let b = erdos_renyi_gnm(100, 300, 7);
        assert_eq!(a.m(), 300);
        assert!(a.is_simple());
        assert_eq!(
            a.edges().iter().map(|e| (e.u, e.v)).collect::<Vec<_>>(),
            b.edges().iter().map(|e| (e.u, e.v)).collect::<Vec<_>>()
        );
        let c = erdos_renyi_gnm(100, 300, 8);
        assert_ne!(
            a.edges().iter().map(|e| (e.u, e.v)).collect::<Vec<_>>(),
            c.edges().iter().map(|e| (e.u, e.v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_regular_degrees() {
        let g = random_regular(200, 4, 3);
        assert!(g.m() <= 400);
        assert!(g.max_degree() <= 4 + 4); // parallel edges possible but bounded in practice
                                          // Average degree close to 4.
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(avg > 3.5 && avg <= 4.0);
    }

    #[test]
    fn weighted_random_graph_connected() {
        let g = weighted_random_graph(150, 400, 1.0, 10.0, 5);
        assert_eq!(g.m(), 400);
        assert!(is_connected(&g));
        assert!(g.min_weight().unwrap() >= 1.0);
        assert!(g.max_weight().unwrap() <= 10.0);
    }

    #[test]
    fn random_tree_is_tree() {
        let g = random_tree(500, 1.0, 9);
        assert_eq!(g.m(), 499);
        assert!(is_connected(&g));
    }

    #[test]
    fn ultra_sparse_edge_count() {
        let g = ultra_sparse(100, 20, 1.0, 1.0, 13);
        assert_eq!(g.m(), 119);
        assert!(is_connected(&g));
    }

    #[test]
    fn rmat_is_powerlaw_connected_and_deterministic() {
        let g = rmat(10, 4096, 3);
        assert!(is_connected(&g));
        assert!(g.is_simple());
        assert!(g.n() > 256, "giant component too small: {}", g.n());
        // Power-law tail: the max degree dwarfs the average degree.
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(
            g.max_degree() as f64 > 5.0 * avg,
            "max degree {} vs avg {avg:.1} is not heavy-tailed",
            g.max_degree()
        );
        let h = rmat(10, 4096, 3);
        assert_eq!(g.n(), h.n());
        assert_eq!(g.edges(), h.edges());
        assert_ne!(rmat(10, 4096, 4).edges(), g.edges());
    }

    #[test]
    fn watts_strogatz_shape() {
        let g = watts_strogatz(1000, 6, 0.1, 7);
        assert!(is_connected(&g));
        assert!(g.is_simple());
        // Rewiring discards few edges: close to n*k/2 survive.
        assert!(g.m() > 2800 && g.m() <= 3000, "m = {}", g.m());
        assert_eq!(g.edges(), watts_strogatz(1000, 6, 0.1, 7).edges());
    }

    #[test]
    fn road_mesh_is_connected_and_skewed() {
        let g = road_mesh(40, 40, 0.55, 1.5, 11);
        assert_eq!(g.n(), 1600);
        assert!(is_connected(&g), "comb spine must keep the mesh connected");
        // Log-normal weights: heavy spread.
        assert!(g.spread() > 100.0, "spread {}", g.spread());
        // Thinning removed a visible fraction of the grid's edges.
        assert!(g.m() < 2 * 40 * 39);
        assert_eq!(g.edges(), road_mesh(40, 40, 0.55, 1.5, 11).edges());
    }

    #[test]
    fn lattice3d_shape() {
        let g = lattice3d(8, 8, 8, 10.0, 5);
        assert_eq!(g.n(), 512);
        assert!(is_connected(&g));
        assert!(g.min_weight().unwrap() >= 1.0);
        assert!(g.max_weight().unwrap() <= 10.0);
        assert_eq!(g.edges(), lattice3d(8, 8, 8, 10.0, 5).edges());
    }

    #[test]
    fn near_disconnected_clusters_shape() {
        let g = near_disconnected_clusters(4, 100, 150, 1e-8, 9);
        assert_eq!(g.n(), 400);
        assert!(is_connected(&g));
        // Exactly clusters-1 feeble bridges.
        let bridges = g.edges().iter().filter(|e| e.w == 1e-8).count();
        assert_eq!(bridges, 3);
        assert!(g.spread() >= 1e8);
        assert_eq!(
            g.edges(),
            near_disconnected_clusters(4, 100, 150, 1e-8, 9).edges()
        );
    }

    #[test]
    fn largest_component_extracts_giant() {
        use crate::components::largest_component;
        // A path of 50 plus an isolated triangle plus isolated vertices.
        let mut b = crate::builder::GraphBuilder::new(60);
        for v in 1..50u32 {
            b.add_edge(v - 1, v, 1.0);
        }
        b.add_edge(50, 51, 2.0);
        b.add_edge(51, 52, 2.0);
        b.add_edge(52, 50, 2.0);
        let g = b.build();
        let giant = largest_component(&g);
        assert_eq!(giant.n(), 50);
        assert_eq!(giant.m(), 49);
        assert!(is_connected(&giant));
    }

    #[test]
    fn rmat_flat_shape_and_width_determinism() {
        let g = rmat_flat(11, 12_000, 5);
        assert!(g.is_simple());
        assert!(g.m() > 9_000, "dedup removed too much: m = {}", g.m());
        // Heavy tail survives the flat construction.
        let giant = crate::components::largest_component(&g);
        let avg = 2.0 * giant.m() as f64 / giant.n() as f64;
        assert!(
            giant.max_degree() as f64 > 5.0 * avg,
            "max degree {} vs avg {avg:.1}",
            giant.max_degree()
        );
        // Pure function of (scale, edges, seed) at every pool width.
        for threads in [1usize, 2, 4] {
            let h = crate::parutil::with_threads(threads, || rmat_flat(11, 12_000, 5));
            assert_eq!(h.edges(), g.edges(), "width {threads}");
        }
        assert_ne!(rmat_flat(11, 12_000, 6).edges(), g.edges());
    }

    #[test]
    fn preferential_attachment_shape() {
        let g = preferential_attachment(4_000, 3, 9);
        assert!(is_connected(&g), "attachment graphs are connected");
        // m = 3(n - 1) - duplicates-at-start ≈ 3n.
        assert!(g.m() >= 3 * (g.n() - 2) - 3 && g.m() < 3 * g.n());
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(
            g.max_degree() as f64 > 8.0 * avg,
            "max degree {} vs avg {avg:.1} lacks the rich-get-richer tail",
            g.max_degree()
        );
        assert_eq!(g.edges(), preferential_attachment(4_000, 3, 9).edges());
        assert_ne!(g.edges(), preferential_attachment(4_000, 3, 10).edges());
    }

    #[test]
    fn random_geometric_shape_and_width_determinism() {
        let n = 6_000;
        let deg = 12.0;
        let g = random_geometric(n, deg, 31);
        assert!(g.is_simple());
        // Edge count within 25% of n·deg/2 (boundary effects shave a bit).
        let target = n as f64 * deg / 2.0;
        assert!(
            (g.m() as f64) > 0.75 * target && (g.m() as f64) < 1.25 * target,
            "m = {} vs target {target}",
            g.m()
        );
        // deg ≳ ln n: the giant component covers nearly everything.
        let giant = crate::components::largest_component(&g);
        assert!(giant.n() as f64 > 0.95 * n as f64, "giant = {}", giant.n());
        for threads in [1usize, 2, 4] {
            let h = crate::parutil::with_threads(threads, || random_geometric(n, deg, 31));
            assert_eq!(h.edges(), g.edges(), "width {threads}");
        }
        assert_ne!(g.edges(), random_geometric(n, deg, 32).edges());
    }

    #[test]
    fn counter_rng_is_uniform_enough() {
        // Cheap sanity: mean of 4096 unit draws near 0.5, distinct values.
        let k = 4096;
        let mean: f64 = (0..k).map(|i| counter_unit(7, i)).sum::<f64>() / k as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert_ne!(counter_u64(7, 1), counter_u64(7, 2));
        assert_ne!(counter_u64(7, 1), counter_u64(8, 1));
    }

    #[test]
    fn power_law_weights_increase_spread() {
        let g = grid2d(10, 10, |_, _| 1.0);
        let w = with_power_law_weights(&g, 6, 21);
        assert!(w.spread() >= 1e4);
        assert_eq!(w.m(), g.m());
    }
}
