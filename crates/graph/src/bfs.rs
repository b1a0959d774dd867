//! Breadth-first search: the sequential single-source reference and the
//! parallel *shifted multi-source* variant that implements the paper's
//! jittered ball growing (Section 2 "Parallel Ball Growing" and Algorithm 4.1).
//!
//! The shifted BFS is the engine of `splitGraph`: every center `s` is
//! injected into the search at round `δ_s` (its random jitter), and every
//! vertex is claimed by the first center that reaches it, with ties broken
//! deterministically (smaller owner index, then smaller edge id). Claiming
//! a vertex also records the arc it was claimed through, so each resulting
//! region comes with its own BFS tree — exactly what AKPW (Algorithm 5.1,
//! step 2 "add a BFS tree of each component") needs.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;

use crate::frontier::{edge_map, EdgeMapOp, Frontier};
use crate::graph::{EdgeId, Graph, VertexId, INVALID_VERTEX};

/// Distance value meaning "unreached".
pub const UNREACHED: u32 = u32::MAX;

/// Result of a single-source BFS.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Hop distance from the source (`UNREACHED` if not reachable).
    pub dist: Vec<u32>,
    /// BFS-tree parent (`INVALID_VERTEX` for the source and unreached vertices).
    pub parent: Vec<VertexId>,
    /// Edge id used to reach each vertex (`EdgeId::MAX` for source/unreached).
    pub parent_edge: Vec<EdgeId>,
    /// Number of BFS levels processed (eccentricity of the source within its
    /// component). A machine-independent depth proxy.
    pub rounds: u32,
}

impl BfsResult {
    /// Eccentricity of the source within its component.
    pub fn eccentricity(&self) -> u32 {
        self.rounds
    }

    /// Ids of the tree edges (one per reached non-source vertex).
    pub fn tree_edges(&self) -> Vec<EdgeId> {
        self.parent_edge
            .iter()
            .copied()
            .filter(|&e| e != EdgeId::MAX)
            .collect()
    }
}

/// Sequential single-source BFS over hop distance.
pub fn bfs(g: &Graph, source: VertexId) -> BfsResult {
    let n = g.n();
    let mut dist = vec![UNREACHED; n];
    let mut parent = vec![INVALID_VERTEX; n];
    let mut parent_edge = vec![EdgeId::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    let mut max_level = 0;
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for (u, _w, e) in g.arcs(v) {
            if dist[u as usize] == UNREACHED {
                dist[u as usize] = dv + 1;
                parent[u as usize] = v;
                parent_edge[u as usize] = e;
                max_level = max_level.max(dv + 1);
                queue.push_back(u);
            }
        }
    }
    BfsResult {
        dist,
        parent,
        parent_edge,
        rounds: max_level,
    }
}

/// A source for the shifted multi-source BFS: a starting vertex plus the
/// round (jitter `δ_s`) at which it becomes active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftedSource {
    /// Starting vertex (the center `s`).
    pub vertex: VertexId,
    /// Delay before the center starts growing its ball.
    pub delay: u32,
}

/// Result of a shifted multi-source BFS.
#[derive(Debug, Clone)]
pub struct ShiftedBfsResult {
    /// Index (into the source list) of the center owning each vertex, or
    /// `u32::MAX` when the vertex was not reached.
    pub owner: Vec<u32>,
    /// Hop distance from the owning center (`UNREACHED` if unowned).
    pub dist: Vec<u32>,
    /// Parent vertex within the owner's BFS tree.
    pub parent: Vec<VertexId>,
    /// Edge id used to reach each vertex from its parent.
    pub parent_edge: Vec<EdgeId>,
    /// Number of synchronous rounds executed (depth proxy).
    pub rounds: u32,
    /// Total number of arcs relaxed (work proxy).
    pub arcs_traversed: u64,
}

/// Sentinel for "no owner".
pub const NO_OWNER: u32 = u32::MAX;

/// Unclaimed sentinel for the packed (owner, edge) claim word.
const UNCLAIMED: u64 = u64::MAX;

#[inline]
fn pack_claim(owner_idx: u32, edge: u32) -> u64 {
    ((owner_idx as u64) << 32) | edge as u64
}

/// The shifted-BFS relaxation as an [`EdgeMapOp`]: claim unsettled alive
/// destinations with `fetch_min` of the packed `(owner, edge)` word, so
/// ties break by smaller owner index then smaller edge id no matter which
/// direction or pool width ran the round.
struct ShiftedClaimOp<'a> {
    claim: &'a [AtomicU64],
    settled: &'a [bool],
    owner: &'a [u32],
    alive: Option<&'a [bool]>,
    arc_edges: &'a [EdgeId],
}

impl EdgeMapOp for ShiftedClaimOp<'_> {
    fn update(&self, src: VertexId, dst: VertexId, _w: f64, arc: usize) -> bool {
        let word = pack_claim(self.owner[src as usize], self.arc_edges[arc]);
        let prev = self.claim[dst as usize].fetch_min(word, Ordering::AcqRel);
        word < prev
    }
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f64, arc: usize) -> bool {
        self.update(src, dst, w, arc)
    }
    fn cond(&self, dst: VertexId) -> bool {
        self.alive.is_none_or(|a| a[dst as usize]) && !self.settled[dst as usize]
    }
}

/// Level-synchronous shifted multi-source BFS.
///
/// Vertex `u` ends up owned by the source `i` (at hop distance `d_i(u)`
/// inside the restriction of `g` to `alive` vertices) that minimises
/// `d_i(u) + delay_i`, subject to `d_i(u) + delay_i <= max_radius`; ties are
/// broken by smaller source index, then smaller claiming edge id. This is
/// exactly the assignment rule of Algorithm 4.1 (step 6) with a consistent
/// lexicographic tie break, and simultaneously yields each region's BFS
/// tree via `parent`/`parent_edge`.
///
/// `alive` (if provided) restricts the search to the induced subgraph on
/// the vertices flagged `true`; dead vertices are never claimed nor
/// traversed. Sources on dead vertices are ignored.
pub fn shifted_multi_source_bfs(
    g: &Graph,
    sources: &[ShiftedSource],
    max_radius: u32,
    alive: Option<&[bool]>,
) -> ShiftedBfsResult {
    let n = g.n();
    assert!(sources.len() < NO_OWNER as usize, "too many sources");
    let is_alive = |v: VertexId| alive.is_none_or(|a| a[v as usize]);

    // Per-vertex claim state, packed as (owner: high 32 bits, edge: low 32
    // bits) so that `fetch_min` resolves ties by owner index then edge id.
    // A vertex is *settled* once a previous round claimed it; claims within
    // the current round race through `fetch_min` and are therefore
    // deterministic regardless of scheduling.
    let claim: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(UNCLAIMED)).collect();
    let mut settled = vec![false; n];
    let mut owner = vec![NO_OWNER; n];
    let mut dist = vec![UNREACHED; n];
    let mut parent = vec![INVALID_VERTEX; n];
    let mut parent_edge = vec![EdgeId::MAX; n];

    // Sources grouped by delay for O(1) injection per round.
    let max_delay = sources.iter().map(|s| s.delay).max().unwrap_or(0);
    let mut by_delay: Vec<Vec<u32>> =
        vec![Vec::new(); (max_delay as usize).min(max_radius as usize) + 1];
    for (i, s) in sources.iter().enumerate() {
        if s.delay <= max_radius && is_alive(s.vertex) {
            by_delay[s.delay as usize].push(i as u32);
        }
    }

    let unpack = |x: u64| ((x >> 32) as u32, x as u32);

    let mut frontier: Vec<VertexId> = Vec::new();
    let mut rounds = 0u32;
    let mut arcs_traversed = 0u64;

    for level in 0..=max_radius {
        // Inject sources whose delay equals the current level and whose
        // vertex has not been settled by an earlier level.
        let mut injected: Vec<VertexId> = Vec::new();
        if (level as usize) < by_delay.len() {
            for &src_idx in &by_delay[level as usize] {
                let v = sources[src_idx as usize].vertex;
                if !settled[v as usize] {
                    // Candidate claim with no parent edge (EdgeId::MAX would
                    // break fetch_min tie-breaking; use edge = u32::MAX so
                    // parent-bearing claims of the same owner win, which is
                    // harmless because a source is its own root).
                    claim[v as usize].fetch_min(pack_claim(src_idx, u32::MAX), Ordering::AcqRel);
                    injected.push(v);
                }
            }
        }

        // Expand the previous round's frontier through `edge_map`. Claims
        // race through `fetch_min`, so the sparse push and the dense pull
        // (chosen by the deterministic work estimate) produce identical
        // claim states at every pool width. The output frontier is the set
        // of vertices whose claim word was lowered this round; vertices
        // pre-claimed by an injection with a smaller word are covered by
        // `injected` below.
        let mut candidates: Vec<VertexId> = if frontier.is_empty() {
            Vec::new()
        } else {
            let op = ShiftedClaimOp {
                claim: &claim,
                settled: &settled,
                owner: &owner,
                alive,
                arc_edges: g.csr_arc_edges(),
            };
            let front = Frontier::from_sorted(std::mem::take(&mut frontier));
            let res = edge_map(g, &front, &op, None);
            arcs_traversed += res.arcs_scanned;
            res.frontier.to_sorted_vec()
        };
        if !injected.is_empty() {
            candidates.extend(injected.iter().copied());
            candidates.par_sort_unstable();
            candidates.dedup();
        }

        if candidates.is_empty() {
            // Nothing claimed this round. If no future injections remain we
            // are done; otherwise keep advancing rounds (frontier stays
            // empty until the next injection).
            let future_injections = by_delay
                .iter()
                .skip(level as usize + 1)
                .any(|v| !v.is_empty());
            if !future_injections {
                break;
            }
            frontier.clear();
            rounds = level + 1;
            continue;
        }

        // Settle this round's claims.
        let mut next_frontier = Vec::with_capacity(candidates.len());
        for &u in &candidates {
            let c = claim[u as usize].load(Ordering::Acquire);
            if c == UNCLAIMED {
                continue;
            }
            let (o, e) = unpack(c);
            settled[u as usize] = true;
            owner[u as usize] = o;
            if e == u32::MAX {
                // Injected source: distance 0, no parent.
                dist[u as usize] = 0;
                parent[u as usize] = INVALID_VERTEX;
                parent_edge[u as usize] = EdgeId::MAX;
            } else {
                let edge = g.edge(e);
                let p = edge.other(u);
                dist[u as usize] = level - sources[o as usize].delay;
                parent[u as usize] = p;
                parent_edge[u as usize] = e;
            }
            next_frontier.push(u);
        }
        frontier = next_frontier;
        rounds = level + 1;
        if frontier.is_empty()
            && by_delay
                .iter()
                .skip(level as usize + 1)
                .all(|v| v.is_empty())
        {
            break;
        }
    }

    ShiftedBfsResult {
        owner,
        dist,
        parent,
        parent_edge,
        rounds,
        arcs_traversed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Edge;

    fn path_graph(n: usize) -> Graph {
        generators::path(n, 1.0)
    }

    #[test]
    fn sequential_bfs_path() {
        let g = path_graph(5);
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.rounds, 4);
        assert_eq!(r.parent[3], 2);
        assert_eq!(r.tree_edges().len(), 4);
    }

    #[test]
    fn parallel_bfs_matches_sequential() {
        let g = generators::grid2d(17, 23, |_, _| 1.0);
        let seq = bfs(&g, 0);
        // One zero-delay source with an unbounded radius is a plain BFS.
        let source = ShiftedSource {
            vertex: 0,
            delay: 0,
        };
        let par = shifted_multi_source_bfs(&g, &[source], g.n() as u32, None);
        assert_eq!(seq.dist, par.dist);
        assert_eq!(seq.rounds, par.dist.iter().copied().max().unwrap());
        // Parent edges form a valid BFS tree: dist[parent] + 1 == dist[v].
        for v in 0..g.n() {
            if par.parent[v] != INVALID_VERTEX {
                assert_eq!(par.dist[par.parent[v] as usize] + 1, par.dist[v]);
            }
        }
    }

    #[test]
    fn bfs_disconnected() {
        let g = Graph::from_edges(4, vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)]);
        let r = bfs(&g, 0);
        assert_eq!(r.dist[1], 1);
        assert_eq!(r.dist[2], UNREACHED);
        assert_eq!(r.dist[3], UNREACHED);
    }

    /// The ball `B_G(s, r)`: a single zero-delay source grown `r` rounds
    /// (Section 2, "Parallel Ball Growing").
    fn ball(g: &Graph, source: VertexId, radius: u32) -> Vec<VertexId> {
        let res = shifted_multi_source_bfs(
            g,
            &[ShiftedSource {
                vertex: source,
                delay: 0,
            }],
            radius,
            None,
        );
        (0..g.n() as VertexId)
            .filter(|&v| res.owner[v as usize] != NO_OWNER)
            .collect()
    }

    #[test]
    fn ball_growing_radius() {
        let g = path_graph(10);
        assert_eq!(ball(&g, 5, 0), vec![5]);
        let b2 = ball(&g, 5, 2);
        assert_eq!(b2, vec![3, 4, 5, 6, 7]);
        let ball_all = ball(&g, 0, 100);
        assert_eq!(ball_all.len(), 10);
    }

    #[test]
    fn shifted_two_sources_split_path() {
        // Path of 11 vertices, sources at both ends with zero delay: the
        // middle vertex (5) is equidistant and must go to the smaller owner
        // index (source 0).
        let g = path_graph(11);
        let sources = vec![
            ShiftedSource {
                vertex: 0,
                delay: 0,
            },
            ShiftedSource {
                vertex: 10,
                delay: 0,
            },
        ];
        let r = shifted_multi_source_bfs(&g, &sources, 100, None);
        assert_eq!(r.owner[0], 0);
        assert_eq!(r.owner[10], 1);
        assert_eq!(r.owner[4], 0);
        assert_eq!(r.owner[6], 1);
        assert_eq!(
            r.owner[5], 0,
            "tie must break toward the smaller source index"
        );
        assert_eq!(r.dist[5], 5);
    }

    #[test]
    fn shifted_delay_shrinks_region() {
        // Same path, but source 0 is delayed by 4: it should only win the
        // vertices it reaches strictly earlier than source 1.
        let g = path_graph(11);
        let sources = vec![
            ShiftedSource {
                vertex: 0,
                delay: 4,
            },
            ShiftedSource {
                vertex: 10,
                delay: 0,
            },
        ];
        let r = shifted_multi_source_bfs(&g, &sources, 100, None);
        // Vertex v is owned by 0 iff v + 4 < (10 - v)  =>  v < 3, tie at v=3
        // goes to owner 0 (smaller index).
        for v in 0..=3u32 {
            assert_eq!(r.owner[v as usize], 0, "vertex {v}");
        }
        for v in 4..=10u32 {
            assert_eq!(r.owner[v as usize], 1, "vertex {v}");
        }
    }

    #[test]
    fn shifted_radius_limits_coverage() {
        let g = path_graph(21);
        let sources = vec![ShiftedSource {
            vertex: 10,
            delay: 1,
        }];
        let r = shifted_multi_source_bfs(&g, &sources, 4, None);
        // Effective reach: delay + dist <= 4 => dist <= 3.
        for v in 0..21usize {
            let d = (v as i64 - 10).unsigned_abs() as u32;
            if d <= 3 {
                assert_eq!(r.owner[v], 0);
                assert_eq!(r.dist[v], d);
            } else {
                assert_eq!(r.owner[v], NO_OWNER);
            }
        }
    }

    #[test]
    fn shifted_respects_alive_mask() {
        let g = path_graph(7);
        let mut alive = vec![true; 7];
        alive[3] = false; // cut the path in half
        let sources = vec![ShiftedSource {
            vertex: 0,
            delay: 0,
        }];
        let r = shifted_multi_source_bfs(&g, &sources, 100, Some(&alive));
        assert_eq!(r.owner[2], 0);
        assert_eq!(r.owner[3], NO_OWNER);
        assert_eq!(r.owner[4], NO_OWNER);
    }

    #[test]
    fn shifted_source_on_dead_vertex_ignored() {
        let g = path_graph(5);
        let mut alive = vec![true; 5];
        alive[0] = false;
        let sources = vec![
            ShiftedSource {
                vertex: 0,
                delay: 0,
            },
            ShiftedSource {
                vertex: 4,
                delay: 0,
            },
        ];
        let r = shifted_multi_source_bfs(&g, &sources, 100, Some(&alive));
        assert_eq!(r.owner[0], NO_OWNER);
        assert_eq!(r.owner[1], 1);
    }

    #[test]
    fn shifted_parent_edges_form_per_owner_trees() {
        let g = generators::grid2d(12, 12, |_, _| 1.0);
        let sources = vec![
            ShiftedSource {
                vertex: 0,
                delay: 0,
            },
            ShiftedSource {
                vertex: 143,
                delay: 1,
            },
            ShiftedSource {
                vertex: 77,
                delay: 2,
            },
        ];
        let r = shifted_multi_source_bfs(&g, &sources, 1000, None);
        for v in 0..g.n() {
            let o = r.owner[v];
            assert_ne!(o, NO_OWNER, "grid is connected; everything is claimed");
            if r.parent[v] != INVALID_VERTEX {
                let p = r.parent[v] as usize;
                assert_eq!(r.owner[p], o, "parent must share the owner");
                assert_eq!(r.dist[p] + 1, r.dist[v]);
            } else {
                assert_eq!(r.dist[v], 0);
            }
        }
    }

    #[test]
    fn shifted_deterministic_across_runs() {
        let g = generators::grid2d(20, 20, |_, _| 1.0);
        let sources: Vec<ShiftedSource> = (0..10)
            .map(|i| ShiftedSource {
                vertex: (i * 37) % 400,
                delay: (i % 3),
            })
            .collect();
        let a = shifted_multi_source_bfs(&g, &sources, 50, None);
        let b = shifted_multi_source_bfs(&g, &sources, 50, None);
        assert_eq!(a.owner, b.owner);
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.parent_edge, b.parent_edge);
    }
}
