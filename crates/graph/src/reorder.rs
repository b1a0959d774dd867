//! Vertex orderings: bandwidth-reducing (reverse Cuthill–McKee) for the
//! chain's streamed levels, fill-reducing (minimum degree) for its direct
//! bottom factor.
//!
//! The solver chain's inner loops are memory-bandwidth-bound sparse
//! matrix–vector sweeps; how much of each cache line they use is decided
//! by the vertex numbering. Generator/elimination order scatters
//! neighbours across the index space, so every adjacency gather touches a
//! cold line. A reverse Cuthill–McKee (RCM) ordering — breadth-first from
//! a pseudo-peripheral vertex, neighbours visited in increasing degree,
//! order reversed — clusters every vertex's neighbourhood into a narrow
//! index band, so SpMV gathers and elimination traces stay
//! cache-resident. A direct factorisation wants the opposite trade: an
//! order that keeps the factor's fill small ([`min_degree_order`]).
//!
//! Everything here is deterministic: ties break on vertex id, so the
//! ordering — and every f64 the solver computes downstream of it — is a
//! pure function of the graph.

use crate::graph::{Graph, VertexId, INVALID_VERTEX};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum rounds of the pseudo-peripheral search (each round is one BFS;
/// the eccentricity estimate is non-decreasing, so a handful of rounds
/// reaches a fixed point on everything but adversarial inputs).
const PERIPHERAL_ROUNDS: usize = 4;

/// Breadth-first distances from `source` over the component of `source`,
/// written into `dist` (which must be `INVALID_LEVEL`-initialised for the
/// component). Returns the vertex list of the component in BFS order and
/// the eccentricity of `source` within it.
fn bfs_levels(g: &Graph, source: VertexId, dist: &mut [u32]) -> (Vec<VertexId>, u32) {
    let mut order = vec![source];
    dist[source as usize] = 0;
    let mut head = 0;
    let mut ecc = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        let dv = dist[v as usize];
        for &u in g.neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = dv + 1;
                ecc = ecc.max(dv + 1);
                order.push(u);
            }
        }
    }
    (order, ecc)
}

/// A pseudo-peripheral vertex of the component containing `start`: repeat
/// "BFS, move to a minimum-degree vertex of the last level" until the
/// eccentricity stops growing (George–Liu). Starting RCM from such a
/// vertex keeps the level sets — and therefore the bandwidth — small.
fn pseudo_peripheral(
    g: &Graph,
    degree: &[usize],
    start: VertexId,
    dist: &mut [u32],
) -> (VertexId, Vec<VertexId>) {
    let mut source = start;
    let (mut comp, mut ecc) = bfs_levels(g, source, dist);
    for _ in 0..PERIPHERAL_ROUNDS {
        // Minimum-degree vertex of the farthest level (ties on id).
        let far = comp
            .iter()
            .copied()
            .filter(|&v| dist[v as usize] == ecc)
            .min_by_key(|&v| (degree[v as usize], v))
            .unwrap_or(source);
        if far == source {
            break;
        }
        for &v in &comp {
            dist[v as usize] = u32::MAX;
        }
        let (next_comp, next_ecc) = bfs_levels(g, far, dist);
        // George–Liu return the *last candidate* when the eccentricity
        // stops growing — `far` sits in the previous sweep's farthest
        // level, i.e. at one end of a pseudo-diameter, even when its own
        // measured eccentricity did not increase. (Deliberate: on the
        // bench chains this end gives flatter level structures — ~10 %
        // less time per solver iteration — than keeping the old source.)
        comp = next_comp;
        source = far;
        if next_ecc <= ecc {
            break;
        }
        ecc = next_ecc;
    }
    (source, comp)
}

/// Computes the reverse Cuthill–McKee ordering of `g`, returned as
/// `old_to_new` labels: vertex `v` of the input moves to index
/// `rcm_order(g)[v]` of the reordered graph.
///
/// Components are processed in order of their smallest vertex id, each
/// from a pseudo-peripheral start; within a component the Cuthill–McKee
/// queue visits neighbours in increasing `(degree, id)` order, and the
/// concatenated order is reversed (the classic RCM profile-reduction
/// trick). Deterministic: no randomness, all ties break on vertex id.
/// Degrees are those of `g.simplify()` — distinct neighbours, a self-loop
/// counting two — so `rcm_order(g) == rcm_order(&g.simplify())`.
pub fn rcm_order(g: &Graph) -> Vec<u32> {
    let n = g.n();
    let mut seen = vec![INVALID_VERTEX; n];
    let degree: Vec<usize> = (0..n as VertexId)
        .map(|v| {
            let mut first = |u: VertexId| std::mem::replace(&mut seen[u as usize], v) != v;
            let d = g.neighbors(v).iter().filter(|&&u| first(u)).count();
            d + (seen[v as usize] == v) as usize
        })
        .collect();
    drop(seen);
    let mut dist = vec![u32::MAX; n];
    let mut cm: Vec<VertexId> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut nbrs: Vec<VertexId> = Vec::new();
    for s in 0..n as u32 {
        if placed[s as usize] {
            continue;
        }
        if degree[s as usize] == 0 {
            // Isolated vertices need no BFS (and `bfs_levels` would leave
            // stale state); emit them directly.
            placed[s as usize] = true;
            cm.push(s);
            continue;
        }
        let (source, comp) = pseudo_peripheral(g, &degree, s, &mut dist);
        for &v in &comp {
            dist[v as usize] = u32::MAX;
        }
        // Cuthill–McKee: BFS from the pseudo-peripheral source, each
        // vertex's unvisited neighbours appended in (degree, id) order.
        let head0 = cm.len();
        cm.push(source);
        placed[source as usize] = true;
        let mut head = head0;
        while head < cm.len() {
            let v = cm[head];
            head += 1;
            nbrs.clear();
            nbrs.extend(g.neighbors(v).iter().copied().filter(|&u| {
                if placed[u as usize] {
                    false
                } else {
                    // Parallel edges repeat a neighbour; mark on first sight.
                    placed[u as usize] = true;
                    true
                }
            }));
            nbrs.sort_unstable_by_key(|&u| (degree[u as usize], u));
            cm.extend_from_slice(&nbrs);
        }
    }
    debug_assert_eq!(cm.len(), n);
    // Reverse: old_to_new[cm[i]] = n - 1 - i.
    let mut old_to_new = vec![INVALID_VERTEX; n];
    for (i, &v) in cm.iter().enumerate() {
        old_to_new[v as usize] = (n - 1 - i) as u32;
    }
    old_to_new
}

/// A minimum-degree ordering of `g` and the fill it produces, or `None`
/// as soon as that fill passes `budget`.
///
/// Returns `(old_to_new, entries)`: vertex `v` moves to index
/// `old_to_new[v]`, and `entries` is the number of strictly-lower entries
/// the LDLᵀ factor of `g`'s Laplacian stores in that order (each vertex's
/// degree in the elimination graph when it is eliminated — exactly the
/// column counts of the linear-algebra crate's `SparseLdl`). The chain
/// prices a direct bottom with it before factoring, so giving up at
/// `budget` bounds what pricing an oversized level costs.
///
/// The elimination graph is kept as a quotient graph (George–Liu): an
/// eliminated vertex becomes an *element* standing for the clique of its
/// neighbours, and absorbs the elements it touched or that lie inside its
/// clique, so no clique is ever stored edge by edge. Vertices whose closed
/// neighbourhoods coincide are merged into supervariables and eliminated
/// together (mass elimination). The next pivot is the supervariable of
/// least `(degree, id)`, where the degree is AMD's upper bound on the
/// external degree (Amestoy–Davis–Duff), and its members follow in merge
/// order. The order is a pure function of the graph and the same at every
/// pool width; the entry count is exact whatever the degrees were.
/// Parallel edges count once and self-loops not at all.
pub fn min_degree_order(g: &Graph, budget: usize) -> Option<(Vec<u32>, usize)> {
    let n = g.n();
    // A node is a live supervariable, a live element, or dead (merged
    // into another supervariable, or an element absorbed by a later one).
    const VARIABLE: u8 = 0;
    const ELEMENT: u8 = 1;
    const DEAD: u8 = 2;
    // `mark[x] == tick` marks x as seen in the current pass; the first n
    // ticks are the vertex ids of the adjacency pass.
    let mut mark = vec![usize::MAX; n];
    // A variable's adjacent variables; an element's boundary variables.
    let mut vars: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    let mut edges = 0usize;
    for v in 0..n as VertexId {
        let mut list = Vec::with_capacity(g.degree(v));
        for &u in g.neighbors(v) {
            if u != v && mark[u as usize] != v as usize {
                mark[u as usize] = v as usize;
                list.push(u);
            }
        }
        edges += list.len();
        vars.push(list);
    }
    // Every edge is an entry of the factor.
    if edges / 2 > budget {
        return None;
    }
    let mut tick = n;
    let mut elems: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut state = vec![VARIABLE; n];
    let mut weight = vec![1usize; n];
    let mut members: Vec<Vec<VertexId>> = (0..n as VertexId).map(|v| vec![v]).collect();
    let mut degree: Vec<usize> = vars.iter().map(Vec::len).collect();
    // Lazy min-heap on (degree, id): an entry is current while its node is
    // a live variable of that degree; stale entries are skipped. A degree
    // is pushed only when it differs from the last one pushed.
    let mut queued = degree.clone();
    let mut queue: BinaryHeap<Reverse<(usize, VertexId)>> = degree
        .iter()
        .enumerate()
        .map(|(v, &d)| Reverse((d, v as VertexId)))
        .collect();
    let mut order = vec![INVALID_VERTEX; n];
    let mut next = 0u32;
    let mut entries = 0usize;
    let mut boundary: Vec<VertexId> = Vec::new();
    // An element's boundary weight when it was created, and (stamped with
    // the pivot's tick) the part of it outside the current pivot's.
    let mut born = vec![0usize; n];
    let mut outside = vec![0usize; n];
    let mut outside_at = vec![usize::MAX; n];
    // Total weight of the live variables.
    let mut remaining = n;
    let mut keyed: Vec<(u64, VertexId)> = Vec::new();
    while let Some(Reverse((d, p))) = queue.pop() {
        let pi = p as usize;
        if state[pi] != VARIABLE || degree[pi] != d {
            continue;
        }
        // The pivot's boundary: its variables and those of its elements,
        // which it absorbs.
        tick += 1;
        mark[pi] = tick;
        boundary.clear();
        for &u in &vars[pi] {
            if state[u as usize] == VARIABLE && mark[u as usize] != tick {
                mark[u as usize] = tick;
                boundary.push(u);
            }
        }
        for &e in &elems[pi] {
            for &u in &vars[e as usize] {
                if state[u as usize] == VARIABLE && mark[u as usize] != tick {
                    mark[u as usize] = tick;
                    boundary.push(u);
                }
            }
            state[e as usize] = DEAD;
            vars[e as usize] = Vec::new();
        }
        let external: usize = boundary.iter().map(|&u| weight[u as usize]).sum();
        let w = weight[pi];
        entries += w * external + w * (w - 1) / 2;
        if entries > budget {
            return None;
        }
        for &v in &members[pi] {
            order[v as usize] = next;
            next += 1;
        }
        members[pi] = Vec::new();
        elems[pi] = Vec::new();
        vars[pi] = boundary.clone();
        born[pi] = external;
        state[pi] = ELEMENT;
        // Prune the boundary's lists: absorbed elements give way to the
        // pivot, and variables now reached through it leave the lists.
        let in_boundary = tick;
        for &u in &boundary {
            let ui = u as usize;
            elems[ui].retain(|&e| state[e as usize] == ELEMENT);
            elems[ui].push(p);
            vars[ui].retain(|&x| state[x as usize] == VARIABLE && mark[x as usize] != in_boundary);
        }
        // |L_e \ L_p| of every other element next to the boundary, from
        // the weight it was born with: merges keep that weight (merged
        // variables share their elements), and an element loses a
        // variable only by being absorbed.
        for &u in &boundary {
            for &e in &elems[u as usize] {
                let ei = e as usize;
                if e != p {
                    if outside_at[ei] != in_boundary {
                        outside_at[ei] = in_boundary;
                        outside[ei] = born[ei];
                    }
                    outside[ei] -= weight[u as usize];
                }
            }
        }
        // Elements inside the pivot's boundary are absorbed by it, and
        // each boundary variable's degree is bounded by its variables, the
        // rest of the boundary, and its other elements' parts outside the
        // boundary (the approximate degree of Amestoy–Davis–Duff's AMD).
        remaining -= w;
        for &u in &boundary {
            let ui = u as usize;
            elems[ui].retain(|&e| {
                let inside = e != p && outside[e as usize] == 0;
                if inside {
                    state[e as usize] = DEAD;
                    vars[e as usize] = Vec::new();
                }
                !inside
            });
            let own: usize = vars[ui].iter().map(|&x| weight[x as usize]).sum();
            let others: usize = elems[ui]
                .iter()
                .filter(|&&e| e != p)
                .map(|&e| outside[e as usize])
                .sum();
            let rest = external - weight[ui];
            degree[ui] = (own + rest + others)
                .min(degree[ui] + rest)
                .min(remaining - weight[ui]);
        }
        // Supervariables: boundary variables with the same elements and
        // variables have the same closed neighbourhood. Candidates share a
        // hash of their lists; each merges into the least id of its class.
        keyed.clear();
        keyed.extend(boundary.iter().map(|&u| {
            let ui = u as usize;
            let h = elems[ui].iter().chain(&vars[ui]).fold(0u64, |h, &x| {
                h.wrapping_add((x as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            });
            (h, u)
        }));
        keyed.sort_unstable();
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            for (a, &(_, i)) in run.iter().enumerate() {
                let ii = i as usize;
                if state[ii] != VARIABLE {
                    continue;
                }
                for &(_, j) in &run[a + 1..] {
                    let ji = j as usize;
                    if state[ji] != VARIABLE
                        || elems[ii].len() != elems[ji].len()
                        || vars[ii].len() != vars[ji].len()
                    {
                        continue;
                    }
                    tick += 1;
                    for &x in elems[ii].iter().chain(&vars[ii]) {
                        mark[x as usize] = tick;
                    }
                    if elems[ji]
                        .iter()
                        .chain(&vars[ji])
                        .all(|&x| mark[x as usize] == tick)
                    {
                        weight[ii] += weight[ji];
                        degree[ii] -= weight[ji];
                        weight[ji] = 0;
                        state[ji] = DEAD;
                        let merged = std::mem::take(&mut members[ji]);
                        members[ii].extend(merged);
                        vars[ji] = Vec::new();
                        elems[ji] = Vec::new();
                    }
                }
            }
        }
        for &u in &boundary {
            let ui = u as usize;
            if state[ui] == VARIABLE && degree[ui] != queued[ui] {
                queued[ui] = degree[ui];
                queue.push(Reverse((degree[ui], u)));
            }
        }
    }
    debug_assert_eq!(next as usize, n);
    Some((order, entries))
}

/// The bandwidth of `g` under its current numbering: `max |u − v|` over
/// edges (0 for edgeless graphs). The quantity RCM minimises in practice;
/// exposed for tests and the bench baseline's locality accounting.
pub fn bandwidth(g: &Graph) -> usize {
    g.edges()
        .iter()
        .map(|e| (e.u as isize - e.v as isize).unsigned_abs())
        .max()
        .unwrap_or(0)
}

/// Returns a copy of `g` with vertex `v` renamed to `old_to_new[v]`, in
/// canonical form: edges normalised (`u <= v`) and sorted by endpoint
/// pair, parallel edges in input order, every row sorted by target. The
/// result — including its CSR arc order, which downstream f64
/// accumulation orders depend on — is a pure function of the input graph
/// and the labelling. Edge ids are renumbered; weights are untouched.
/// Panics unless `old_to_new` is a permutation of `0..n`.
pub fn relabel(g: &Graph, old_to_new: &[u32]) -> Graph {
    assert_eq!(old_to_new.len(), g.n());
    g.canonical(Some(old_to_new), false)
}

/// `relabel(&g.simplify(), old_to_new)`, bit for bit, in one pass and
/// without the intermediate simple graph.
pub fn simplify_relabel(g: &Graph, old_to_new: &[u32]) -> Graph {
    assert_eq!(old_to_new.len(), g.n());
    g.canonical(Some(old_to_new), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Edge;

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_a_repeated_id() {
        relabel(&generators::path(3, 1.0), &[0, 0, 2]);
    }

    fn is_permutation(p: &[u32]) -> bool {
        let mut seen = vec![false; p.len()];
        for &v in p {
            if (v as usize) >= p.len() || seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        true
    }

    #[test]
    fn rcm_is_a_permutation() {
        let g = generators::weighted_random_graph(200, 600, 1.0, 4.0, 3);
        let p = rcm_order(&g);
        assert!(is_permutation(&p));
    }

    #[test]
    fn rcm_shrinks_grid_bandwidth_after_shuffle() {
        // A grid whose vertices were scattered: RCM must bring the
        // bandwidth back near the grid's natural O(side) profile.
        let side = 24;
        let g = generators::grid2d(side, side, |_, _| 1.0);
        // Scatter with a deterministic stride permutation.
        let n = g.n();
        let stride = 397; // coprime with 576
        let scatter: Vec<u32> = (0..n).map(|i| ((i * stride) % n) as u32).collect();
        let shuffled = relabel(&g, &scatter);
        let before = bandwidth(&shuffled);
        let ordered = relabel(&shuffled, &rcm_order(&shuffled));
        let after = bandwidth(&ordered);
        assert!(
            after <= 2 * side && after < before / 4,
            "bandwidth {before} -> {after}, expected ≤ {}",
            2 * side
        );
    }

    #[test]
    fn rcm_deterministic() {
        let g = generators::weighted_random_graph(300, 900, 1.0, 9.0, 7);
        assert_eq!(rcm_order(&g), rcm_order(&g));
    }

    #[test]
    fn handles_disconnected_and_isolated() {
        // Two components plus two isolated vertices.
        let g = Graph::from_edges(
            7,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(4, 5, 2.0),
            ],
        );
        let p = rcm_order(&g);
        assert!(is_permutation(&p));
        let r = relabel(&g, &p);
        assert_eq!(r.n(), 7);
        assert_eq!(r.m(), 3);
        assert!((r.total_weight() - g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = generators::grid2d(9, 9, |x, y| 1.0 + (x + 2 * y) as f64);
        let p = rcm_order(&g);
        let r = relabel(&g, &p);
        assert_eq!(r.n(), g.n());
        assert_eq!(r.m(), g.m());
        assert!((r.total_weight() - g.total_weight()).abs() < 1e-9);
        // Degrees transport through the permutation.
        for v in 0..g.n() as u32 {
            assert_eq!(g.degree(v), r.degree(p[v as usize]));
        }
        // Weighted degrees too (the Laplacian diagonal).
        for v in 0..g.n() as u32 {
            assert!((g.weighted_degree(v) - r.weighted_degree(p[v as usize])).abs() < 1e-12);
        }
    }

    #[test]
    fn relabel_keeps_parallel_edges_in_input_order() {
        let g = Graph::from_edges(
            4,
            vec![
                Edge::new(0, 1, 3.0),
                Edge::new(2, 3, 9.0),
                Edge::new(1, 0, 1.0),
                Edge::new(3, 2, 8.0),
                Edge::new(0, 1, 2.0),
                Edge::new(0, 3, 4.0),
            ],
        );
        // 0 → 3, 1 → 2, 2 → 1, 3 → 0.
        let r = relabel(&g, &[3, 2, 1, 0]);
        let got: Vec<_> = r.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        assert_eq!(
            got,
            vec![
                (0, 1, 9.0),
                (0, 1, 8.0),
                (0, 3, 4.0),
                (2, 3, 3.0),
                (2, 3, 1.0),
                (2, 3, 2.0),
            ]
        );
        // Long runs too: weights grow in input order along every run.
        let edges = (0..300)
            .map(|i| {
                let (u, v) = [(0, 1), (2, 1), (2, 0)][i % 3];
                Edge::new(u, v, 1.0 + i as f64)
            })
            .collect();
        let r = relabel(&Graph::from_edges(3, edges), &[2, 0, 1]);
        for w in r.edges().windows(2) {
            if (w[0].u, w[0].v) == (w[1].u, w[1].v) {
                assert!(w[0].w < w[1].w);
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, vec![]);
        assert!(rcm_order(&g).is_empty());
        assert_eq!(bandwidth(&g), 0);
        assert_eq!(min_degree_order(&g, 0), Some((vec![], 0)));
    }

    #[test]
    fn min_degree_is_a_permutation_with_tree_fill_on_a_forest() {
        // Eliminating leaves first adds no fill: a forest stores exactly
        // its edges, and isolated vertices none.
        let mut edges: Vec<Edge> = (1..40).map(|v| Edge::new(v / 3, v, 1.0)).collect();
        edges.push(Edge::new(41, 42, 2.0));
        let g = Graph::from_edges(45, edges);
        let (order, entries) = min_degree_order(&g, usize::MAX).expect("no budget");
        assert!(is_permutation(&order));
        assert_eq!(entries, g.m());
    }

    #[test]
    fn min_degree_fill_on_a_grid_is_far_below_dense() {
        let g = generators::grid2d(30, 30, |_, _| 1.0);
        let (order, entries) = min_degree_order(&g, usize::MAX).expect("no budget");
        assert!(is_permutation(&order));
        let dense = g.n() * (g.n() - 1) / 2;
        assert!(
            entries >= g.m() && entries * 20 < dense,
            "{entries} vs {dense}"
        );
        // Parallel edges and the vertex numbering's direction change
        // nothing the ordering sees but ids: the fill of a doubled graph
        // is the fill of the simple one.
        let doubled: Vec<Edge> = g.edges().iter().chain(g.edges()).copied().collect();
        let doubled = Graph::from_edges(g.n(), doubled);
        assert_eq!(
            min_degree_order(&doubled, usize::MAX),
            Some((order, entries))
        );
    }

    /// The budget cut-off answers `None` exactly when the fill exceeds it.
    #[test]
    fn min_degree_budget_gives_up_exactly_past_the_fill() {
        for g in [
            generators::grid2d(12, 9, |_, _| 1.0),
            generators::weighted_random_graph(150, 450, 0.5, 8.0, 3),
        ] {
            let (order, entries) = min_degree_order(&g, usize::MAX).expect("no budget");
            assert_eq!(
                min_degree_order(&g, entries),
                Some((order.clone(), entries))
            );
            assert_eq!(min_degree_order(&g, entries - 1), None);
            assert_eq!(min_degree_order(&g, g.m() / 2), None);
        }
    }

    /// Sequential and tie-broken on `(degree, id)`: the same order at every
    /// pool width.
    #[test]
    fn min_degree_is_identical_at_every_pool_width() {
        let g = generators::weighted_random_graph(400, 1200, 1.0, 9.0, 11);
        let runs: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|t| crate::parutil::with_threads(t, || min_degree_order(&g, usize::MAX)))
            .collect();
        assert!(runs[0].is_some());
        assert!(runs.iter().all(|r| *r == runs[0]));
    }
}
