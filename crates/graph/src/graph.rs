//! The core immutable CSR graph type.
//!
//! [`Graph`] stores a weighted undirected multigraph in compressed sparse
//! row (CSR) form. Every undirected edge has a stable [`EdgeId`] (its index
//! in the edge list) so that higher layers — the AKPW contraction, the
//! low-stretch subgraph output, the incremental sparsifier — can refer to
//! edges of the *original* graph across transformations.

use crate::parutil::{counting_sort, counting_sort_runs, SyncMutPtr, SEQ_CUTOFF};
use rayon::prelude::*;

/// Vertex identifier. Vertices are numbered `0..n`.
pub type VertexId = u32;

/// Undirected edge identifier. Edges are numbered `0..m` in the order they
/// were supplied to the builder.
pub type EdgeId = u32;

/// Sentinel for "no vertex" (used in BFS parents, component labels, ...).
pub const INVALID_VERTEX: VertexId = u32::MAX;

/// A structural defect found while validating graph input data.
///
/// Returned by [`Graph::validated`]; every per-edge variant pins the
/// offending edge index so callers (and error messages) can point at the
/// exact input record. The panicking constructors ([`Graph::from_edges`],
/// [`GraphBuilder::add_edge`](crate::builder::GraphBuilder::add_edge))
/// enforce the same invariants with `assert!`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphDataError {
    /// An edge weight is NaN or ±∞.
    NonFiniteWeight {
        /// Index of the offending edge in the input list.
        edge: usize,
        /// The rejected weight.
        weight: f64,
    },
    /// An edge weight is zero or negative (weights are conductances and
    /// must be strictly positive).
    NonPositiveWeight {
        /// Index of the offending edge in the input list.
        edge: usize,
        /// The rejected weight.
        weight: f64,
    },
    /// An edge connects a vertex to itself.
    SelfLoop {
        /// Index of the offending edge in the input list.
        edge: usize,
        /// The looping vertex.
        vertex: VertexId,
    },
    /// An edge references a vertex `>= n` (a "ghost" vertex outside the
    /// declared vertex set).
    EndpointOutOfRange {
        /// Index of the offending edge in the input list.
        edge: usize,
        /// The out-of-range endpoint.
        endpoint: VertexId,
        /// The declared vertex count.
        n: usize,
    },
    /// The vertex or edge count reaches `u32::MAX`: ids are `u32`, and
    /// [`INVALID_VERTEX`] and `EdgeId::MAX` are reserved sentinels.
    TooLarge {
        /// The declared vertex count.
        n: usize,
        /// The edge count.
        m: usize,
    },
}

impl std::fmt::Display for GraphDataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphDataError::NonFiniteWeight { edge, weight } => {
                write!(f, "edge {edge} has non-finite weight {weight}")
            }
            GraphDataError::NonPositiveWeight { edge, weight } => {
                write!(f, "edge {edge} has non-positive weight {weight}")
            }
            GraphDataError::SelfLoop { edge, vertex } => {
                write!(f, "edge {edge} is a self-loop at vertex {vertex}")
            }
            GraphDataError::EndpointOutOfRange { edge, endpoint, n } => {
                write!(
                    f,
                    "edge {edge} references vertex {endpoint} outside the vertex set 0..{n}"
                )
            }
            GraphDataError::TooLarge { n, m } => {
                write!(
                    f,
                    "{n} vertices and {m} edges: both counts must stay below u32::MAX = {}",
                    u32::MAX
                )
            }
        }
    }
}

impl std::error::Error for GraphDataError {}

/// Checks that `n` vertices and `m` edges fit the `u32` ids below their
/// sentinels.
pub(crate) fn check_scale(n: usize, m: usize) -> Result<(), GraphDataError> {
    if n >= INVALID_VERTEX as usize || m >= EdgeId::MAX as usize {
        return Err(GraphDataError::TooLarge { n, m });
    }
    Ok(())
}

/// Checks one edge against the graph invariants (used by both the
/// panicking and the fallible constructors).
pub(crate) fn check_edge(i: usize, e: &Edge, n: usize) -> Result<(), GraphDataError> {
    if (e.u as usize) >= n {
        return Err(GraphDataError::EndpointOutOfRange {
            edge: i,
            endpoint: e.u,
            n,
        });
    }
    if (e.v as usize) >= n {
        return Err(GraphDataError::EndpointOutOfRange {
            edge: i,
            endpoint: e.v,
            n,
        });
    }
    if e.u == e.v {
        return Err(GraphDataError::SelfLoop {
            edge: i,
            vertex: e.u,
        });
    }
    if !e.w.is_finite() {
        return Err(GraphDataError::NonFiniteWeight {
            edge: i,
            weight: e.w,
        });
    }
    if e.w <= 0.0 {
        return Err(GraphDataError::NonPositiveWeight {
            edge: i,
            weight: e.w,
        });
    }
    Ok(())
}

/// An undirected weighted edge `{u, v}` with weight `w > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
    /// Positive edge weight. In Laplacian terms this is the conductance;
    /// in metric terms the *length* of the edge is `1/w` for some uses and
    /// `w` for others — the stretch module documents which convention it
    /// uses (the paper treats `w(e)` as a length).
    pub w: f64,
}

impl Edge {
    /// Creates a new edge.
    #[inline]
    pub fn new(u: VertexId, v: VertexId, w: f64) -> Self {
        Edge { u, v, w }
    }

    /// Returns the endpoint different from `x`; panics if `x` is not an
    /// endpoint of this edge.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            debug_assert_eq!(x, self.v);
            self.u
        }
    }
}

/// A weighted undirected multigraph in CSR form with stable edge ids.
///
/// The graph is immutable after construction (use
/// [`GraphBuilder`](crate::builder::GraphBuilder) or the constructors on
/// this type). Self-loops are not allowed; parallel edges are.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Arc targets, length `2m`.
    targets: Vec<VertexId>,
    /// Arc weights, length `2m` (mirrors the undirected edge weight).
    weights: Vec<f64>,
    /// Undirected edge id of each arc, length `2m`.
    arc_edge: Vec<EdgeId>,
    /// The undirected edge list, length `m`.
    edges: Vec<Edge>,
}

impl Graph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Panics if an edge references a vertex `>= n`, has a non-positive or
    /// non-finite weight, or is a self-loop. [`Graph::validated`] is the
    /// fallible alternative for untrusted input.
    pub fn from_edges(n: usize, edges: Vec<Edge>) -> Self {
        match Self::validated(n, edges) {
            Ok(g) => g,
            Err(e) => panic!("Graph::from_edges: {e}"),
        }
    }

    /// Builds a graph with `n` vertices from an untrusted undirected edge
    /// list, returning a typed [`GraphDataError`] (instead of panicking)
    /// on the first self-loop, out-of-range endpoint, or non-finite /
    /// non-positive weight, or when `n` or `m` reaches `u32::MAX`.
    pub fn validated(n: usize, edges: Vec<Edge>) -> Result<Self, GraphDataError> {
        Self::check_edges(n, &edges)?;
        Ok(Self::from_edges_unchecked(n, edges))
    }

    /// The checks of [`validated`](Self::validated) without the build: the
    /// error of the lowest-numbered bad edge, or [`GraphDataError::TooLarge`]
    /// when `n` or `m` reaches `u32::MAX`.
    pub fn check_edges(n: usize, edges: &[Edge]) -> Result<(), GraphDataError> {
        check_scale(n, edges.len())?;
        if edges.len() < SEQ_CUTOFF {
            for (i, e) in edges.iter().enumerate() {
                check_edge(i, e, n)?;
            }
        } else if let Some((_, err)) = edges
            .par_iter()
            .enumerate()
            .with_min_len(SEQ_CUTOFF)
            .filter_map(|(i, e)| check_edge(i, e, n).err().map(|err| (i, err)))
            .min_by(|a, b| a.0.cmp(&b.0))
        {
            return Err(err);
        }
        Ok(())
    }

    /// Builds a graph assuming the edge list has already been validated.
    ///
    /// One stable [`counting_sort`] of the `2m` arcs, in edge-id order
    /// (edge `i`'s arc at `u`, then its arc at `v`), by source vertex: every
    /// vertex's arcs sit in edge-id order, at every pool width.
    ///
    /// Panics if `n` or `m` reaches `u32::MAX` (see
    /// [`GraphDataError::TooLarge`]).
    pub fn from_edges_unchecked(n: usize, edges: Vec<Edge>) -> Self {
        let m = edges.len();
        if let Err(e) = check_scale(n, m) {
            panic!("Graph::from_edges_unchecked: {e}");
        }
        let mut targets = vec![0 as VertexId; 2 * m];
        let mut weights = vec![0.0f64; 2 * m];
        let mut arc_edge = vec![0 as EdgeId; 2 * m];
        let tp = SyncMutPtr(targets.as_mut_ptr());
        let wp = SyncMutPtr(weights.as_mut_ptr());
        let ep = SyncMutPtr(arc_edge.as_mut_ptr());
        let offsets = counting_sort(
            2 * m,
            n,
            |a| {
                let e = &edges[a / 2];
                (if a % 2 == 0 { e.u } else { e.v }) as usize
            },
            |a, slot| {
                let e = &edges[a / 2];
                // SAFETY: `counting_sort` hands every arc a distinct slot
                // below `2m`.
                unsafe {
                    tp.write(slot, if a % 2 == 0 { e.v } else { e.u });
                    wp.write(slot, e.w);
                    ep.write(slot, (a / 2) as EdgeId);
                }
            },
        );
        Graph {
            n,
            offsets,
            targets,
            weights,
            arc_edge,
            edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Heap bytes this graph's CSR + edge list occupy (offsets, arc
    /// targets/weights/edge-ids, and the undirected edge array): the cost
    /// of *retaining* the graph, as opposed to the bytes a solver kernel
    /// streams. Used by the chain's resident-memory accounting.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<f64>()
            + self.arc_edge.len() * std::mem::size_of::<EdgeId>()
            + self.edges.len() * std::mem::size_of::<Edge>()
    }

    /// Degree of vertex `v` (counting parallel edges).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The undirected edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with identifier `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    /// Neighbors of `v` (with multiplicity), as a slice of vertex ids.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterates over the arcs leaving `v` as `(neighbor, weight, edge_id)`.
    #[inline]
    pub fn arcs(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64, EdgeId)> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        (lo..hi).map(move |i| (self.targets[i], self.weights[i], self.arc_edge[i]))
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.par_iter().map(|e| e.w).sum()
    }

    /// Minimum edge weight (`None` for the empty graph).
    pub fn min_weight(&self) -> Option<f64> {
        self.edges.par_iter().map(|e| e.w).reduce_with(f64::min)
    }

    /// Maximum edge weight (`None` for the empty graph).
    pub fn max_weight(&self) -> Option<f64> {
        self.edges.par_iter().map(|e| e.w).reduce_with(f64::max)
    }

    /// The *spread* Δ = max weight / min weight (1.0 for the empty graph).
    pub fn spread(&self) -> f64 {
        match (self.min_weight(), self.max_weight()) {
            (Some(lo), Some(hi)) => hi / lo,
            _ => 1.0,
        }
    }

    /// Maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n)
            .into_par_iter()
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Returns a copy of the graph with every edge weight replaced by `1.0`.
    pub fn unweighted(&self) -> Graph {
        let edges = self
            .edges
            .par_iter()
            .map(|e| Edge::new(e.u, e.v, 1.0))
            .collect();
        Graph::from_edges_unchecked(self.n, edges)
    }

    /// Returns the subgraph consisting of the listed edge ids, on the same
    /// vertex set.
    pub fn edge_subgraph(&self, edge_ids: &[EdgeId]) -> Graph {
        let edges: Vec<Edge> = edge_ids.iter().map(|&e| self.edge(e)).collect();
        Graph::from_edges_unchecked(self.n, edges)
    }

    /// Merges parallel edges by summing their weights in edge-id order,
    /// returning a simple graph: edges sorted by `(u, v)` with `u <= v`,
    /// every row sorted by target. Parallel self-loops merge the same way.
    /// One transpose of the arcs, O(n + m) work, no hash map.
    pub fn simplify(&self) -> Graph {
        self.canonical(None, true)
    }

    /// This graph with vertex `v` renamed `old_to_new[v]` (`None` keeps
    /// the ids), in canonical form: every row sorted by target, parallel
    /// arcs in edge-id order, and the edges numbered by their arcs at the
    /// smaller endpoint in row order, so the edge list is sorted by
    /// `(u, v)` with `u <= v`. With `merge`, each run of parallel edges
    /// becomes one edge whose weight is summed in edge-id order.
    ///
    /// One stable counting sort of the arcs by new target, the sources
    /// visited in new-id order: a transpose, which sorts every row with no
    /// comparison sort. Work O(m + B·n) for its B blocks, and the same
    /// output at every pool width.
    pub(crate) fn canonical(&self, old_to_new: Option<&[u32]>, merge: bool) -> Graph {
        let n = self.n;
        let new = |v: VertexId| old_to_new.map_or(v, |p| p[v as usize]);
        // The sort below visits every source once only if this inverts.
        let mut old = vec![INVALID_VERTEX; n];
        for v in 0..n as VertexId {
            let slot = std::mem::replace(&mut old[new(v) as usize], v);
            assert_eq!(slot, INVALID_VERTEX, "old_to_new is not a permutation");
        }
        // The transposed arcs as (target, weight, input edge id).
        let mut arcs = vec![(0 as VertexId, 0.0f64, 0 as EdgeId); self.targets.len()];
        let ap = SyncMutPtr(arcs.as_mut_ptr());
        let rows = counting_sort_runs(
            n,
            |s| self.offsets[old[s] as usize]..self.offsets[old[s] as usize + 1],
            n,
            |a| new(self.targets[a]) as usize,
            // SAFETY: every arc gets a distinct slot below `arcs.len()`.
            |s, a, slot| unsafe {
                ap.write(slot, (s as VertexId, self.weights[a], self.arc_edge[a]))
            },
        );
        drop(old);
        // Each run of row v becomes one output edge: the two arcs of one
        // self-loop, or with `merge` every arc to one target.
        let runs = |v: usize| {
            arcs[rows[v]..rows[v + 1]].chunk_by(move |a, b| a.0 == b.0 && (merge || a.2 == b.2))
        };
        let copies = |v: usize, r: &[(VertexId, f64, EdgeId)]| 1 + (r[0].0 as usize == v) as usize;
        // Row v's arcs and edges (those at their smaller endpoint).
        let size = |v: usize| {
            runs(v).fold((0, 0), |(a, e), r| {
                (a + copies(v, r), e + (r[0].0 as usize >= v) as usize)
            })
        };
        // The rows are cut into blocks as the sort cuts the sources. Every
        // block but the last sizes its rows first, so each block knows its
        // first slot and edge id; then every block writes its rows in one
        // pass. One block (one worker) writes without sizing anything.
        let blocks = rayon::current_num_threads().min(n / SEQ_CUTOFF).max(1);
        let block = n.div_ceil(blocks).max(1);
        let sizes: Vec<(usize, usize)> = (0..blocks - 1)
            .into_par_iter()
            .map(|b| {
                (b * block..((b + 1) * block).min(n))
                    .map(size)
                    .fold((0, 0), |x, y| (x.0 + y.0, x.1 + y.1))
            })
            .collect();
        let mut starts = vec![(0, 0)];
        for (a, e) in sizes {
            let last = starts[starts.len() - 1];
            starts.push((last.0 + a, last.1 + e));
        }
        // Merging only shrinks: the input's sizes bound the output's.
        let mut offsets = vec![0usize; n + 1];
        let mut targets: Vec<VertexId> = Vec::with_capacity(arcs.len());
        let mut weights: Vec<f64> = Vec::with_capacity(arcs.len());
        // Each arc's input edge id, until the edges are numbered.
        let mut arc_edge: Vec<EdgeId> = Vec::with_capacity(arcs.len());
        let mut edges: Vec<Edge> = Vec::with_capacity(self.m());
        let mut ids = vec![0 as EdgeId; self.m()];
        let (tp, wp, ep) = (
            SyncMutPtr(targets.as_mut_ptr()),
            SyncMutPtr(weights.as_mut_ptr()),
            SyncMutPtr(arc_edge.as_mut_ptr()),
        );
        let (edp, idp) = (SyncMutPtr(edges.as_mut_ptr()), SyncMutPtr(ids.as_mut_ptr()));
        let ends: Vec<(usize, usize)> = offsets[..n]
            .par_chunks_mut(block)
            .enumerate()
            .map(|(b, offs)| {
                let (mut slot, mut id) = starts[b];
                for (k, off) in offs.iter_mut().enumerate() {
                    let v = b * block + k;
                    *off = slot;
                    for r in runs(v) {
                        let (t, e, c) = (r[0].0, r[0].2, copies(v, r));
                        let w = r.iter().step_by(c).fold(0.0, |s, a| s + a.1);
                        // SAFETY: the blocks' slots and edge ids are disjoint
                        // ranges below the input's sizes, and each input edge
                        // id numbered here heads a run at its smaller
                        // endpoint only.
                        unsafe {
                            for k in slot..slot + c {
                                tp.write(k, t);
                                wp.write(k, w);
                                ep.write(k, e);
                            }
                            if t as usize >= v {
                                edp.write(id, Edge::new(v as VertexId, t, w));
                                idp.write(e as usize, id as EdgeId);
                                id += 1;
                            }
                        }
                        slot += c;
                    }
                }
                (slot, id)
            })
            .collect();
        let (len, m) = ends.last().copied().unwrap_or((0, 0));
        offsets[n] = len;
        // SAFETY: every slot below `len` and edge id below `m` was written.
        unsafe {
            targets.set_len(len);
            weights.set_len(len);
            arc_edge.set_len(len);
            edges.set_len(m);
        }
        arc_edge
            .par_iter_mut()
            .with_min_len(SEQ_CUTOFF)
            .for_each(|e| *e = ids[*e as usize]);
        Graph {
            n,
            offsets,
            targets,
            weights,
            arc_edge,
            edges,
        }
    }

    /// True when the graph contains no parallel edges.
    pub fn is_simple(&self) -> bool {
        self.simplify().m() == self.m()
    }

    /// The raw CSR offset array, length `n + 1`. `offsets[v]..offsets[v+1]`
    /// is vertex `v`'s arc segment in [`csr_targets`](Self::csr_targets) /
    /// [`csr_weights`](Self::csr_weights) / [`csr_arc_edges`](Self::csr_arc_edges).
    #[inline]
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw arc-target array, length `2m`.
    #[inline]
    pub fn csr_targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The raw arc-weight array, length `2m`.
    #[inline]
    pub fn csr_weights(&self) -> &[f64] {
        &self.weights
    }

    /// The raw arc→edge-id array, length `2m`.
    #[inline]
    pub fn csr_arc_edges(&self) -> &[EdgeId] {
        &self.arc_edge
    }

    /// Volume (sum of degrees) of a set of vertices.
    pub fn volume(&self, vertices: &[VertexId]) -> usize {
        vertices.iter().map(|&v| self.degree(v)).sum()
    }

    /// Weighted degree (sum of incident edge weights) of vertex `v`.
    pub fn weighted_degree(&self, v: VertexId) -> f64 {
        self.arcs(v).map(|(_, w, _)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 2.0),
                Edge::new(2, 0, 4.0),
            ],
        )
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_and_arcs() {
        let g = triangle();
        let mut nbrs: Vec<_> = g.neighbors(0).to_vec();
        nbrs.sort();
        assert_eq!(nbrs, vec![1, 2]);
        let arcs: Vec<_> = g.arcs(1).collect();
        assert_eq!(arcs.len(), 2);
        for (nbr, w, id) in arcs {
            let e = g.edge(id);
            assert!((e.u == 1 && e.v == nbr) || (e.v == 1 && e.u == nbr));
            assert_eq!(e.w, w);
        }
    }

    #[test]
    fn weight_statistics() {
        let g = triangle();
        assert_eq!(g.total_weight(), 7.0);
        assert_eq!(g.min_weight(), Some(1.0));
        assert_eq!(g.max_weight(), Some(4.0));
        assert_eq!(g.spread(), 4.0);
        assert!((g.weighted_degree(2) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn unweighted_copy() {
        let g = triangle().unweighted();
        assert!(g.edges().iter().all(|e| e.w == 1.0));
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn edge_subgraph_selects_edges() {
        let g = triangle();
        let sub = g.edge_subgraph(&[0, 2]);
        assert_eq!(sub.m(), 2);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.degree(1), 1);
    }

    #[test]
    fn simplify_merges_parallel_edges() {
        let g = Graph::from_edges(
            2,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 0, 2.5),
                Edge::new(0, 1, 0.5),
            ],
        );
        assert!(!g.is_simple());
        let s = g.simplify();
        assert!(s.is_simple());
        assert_eq!(s.m(), 1);
        assert!((s.edge(0).w - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_self_loop() {
        let _ = Graph::from_edges(2, vec![Edge::new(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        let _ = Graph::from_edges(2, vec![Edge::new(0, 2, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_weight() {
        let _ = Graph::from_edges(2, vec![Edge::new(0, 1, 0.0)]);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(3, 7, 1.0);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    /// Deterministic pseudo-random edge list large enough to exercise the
    /// parallel CSR assembly path (splitmix64-style mixing).
    fn scrambled_edges(n: u32, m: usize) -> Vec<Edge> {
        let mut out = Vec::with_capacity(m);
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..m {
            let mut next = || {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            let u = (next() % n as u64) as u32;
            let mut v = (next() % n as u64) as u32;
            if v == u {
                v = (v + 1) % n;
            }
            let w = 0.5 + (next() % 1000) as f64 / 250.0;
            out.push(Edge::new(u, v, w));
        }
        out
    }

    /// A hub-heavy multigraph in the spirit of rMAT: sources skew towards
    /// low ids, every 8th edge leaves vertex 0 and every 5th repeats the
    /// previous pair with another weight.
    fn hub_edges(n: u32, m: usize) -> Vec<Edge> {
        let mut out: Vec<Edge> = Vec::with_capacity(m);
        for (i, e) in scrambled_edges(n, m).into_iter().enumerate() {
            let skewed = (e.u as u64 * e.v as u64 / n as u64) as u32;
            let (u, v) = if i % 5 == 4 {
                (out[i - 1].v, out[i - 1].u)
            } else if i % 8 == 0 {
                (0, e.v.max(1))
            } else {
                (skewed, e.v)
            };
            let v = if u == v { (v + 1) % n } else { v };
            out.push(Edge::new(u, v, e.w));
        }
        out
    }

    #[test]
    fn parallel_build_matches_sequential_layout() {
        let n = 503;
        let edges = hub_edges(n as u32, 3 * SEQ_CUTOFF + 1717);
        // Reference: each vertex's arcs, filtered from the edge list in id
        // order.
        let mut expect: Vec<Vec<(VertexId, u64, EdgeId)>> = vec![Vec::new(); n];
        for (id, e) in edges.iter().enumerate() {
            expect[e.u as usize].push((e.v, e.w.to_bits(), id as EdgeId));
            expect[e.v as usize].push((e.u, e.w.to_bits(), id as EdgeId));
        }
        for threads in [1, 2, 4] {
            let g = crate::parutil::with_threads(threads, || {
                Graph::from_edges_unchecked(n, edges.clone())
            });
            assert_eq!(g.edges(), &edges[..]);
            for (v, want) in expect.iter().enumerate() {
                let got: Vec<_> = g
                    .arcs(v as VertexId)
                    .map(|(t, w, id)| (t, w.to_bits(), id))
                    .collect();
                assert_eq!(&got, want, "vertex {v} at {threads} threads");
            }
        }
    }

    #[test]
    fn simplify_sums_parallel_edges_in_input_order() {
        // (1 + 1e16) + 1 rounds to 1e16 twice; any other order keeps a 2.
        let g = Graph::from_edges(
            4,
            vec![
                Edge::new(2, 3, 5.0),
                Edge::new(1, 0, 1.0),
                Edge::new(0, 3, 7.0),
                Edge::new(0, 1, 1e16),
                Edge::new(3, 2, 6.0),
                Edge::new(1, 0, 1.0),
            ],
        );
        let s = g.simplify();
        let pairs: Vec<_> = s.edges().iter().map(|e| (e.u, e.v)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 3), (2, 3)]);
        assert_eq!(s.edge(0).w.to_bits(), ((1.0 + 1e16) + 1.0f64).to_bits());
        assert_ne!(s.edge(0).w.to_bits(), (1.0 + 1.0 + 1e16f64).to_bits());
        assert_eq!(s.edge(2).w, 11.0);
    }

    #[test]
    fn scale_guard_rejects_u32_overflow() {
        let max = u32::MAX as usize;
        assert_eq!(check_scale(max - 1, max - 1), Ok(()));
        assert_eq!(
            check_scale(max, 0),
            Err(GraphDataError::TooLarge { n: max, m: 0 })
        );
        assert_eq!(
            check_scale(3, max),
            Err(GraphDataError::TooLarge { n: 3, m: max })
        );
        assert!(matches!(
            Graph::validated(max, vec![]),
            Err(GraphDataError::TooLarge { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "must stay below u32::MAX")]
    fn unchecked_build_panics_past_u32_ids() {
        let _ = Graph::from_edges_unchecked(u32::MAX as usize, vec![]);
    }

    #[test]
    fn simplify_matches_hashmap_reference() {
        use std::collections::HashMap;
        let n = 97;
        let edges = scrambled_edges(n as u32, SEQ_CUTOFF + 311);
        let g = Graph::from_edges_unchecked(n, edges.clone());
        let mut map: HashMap<(VertexId, VertexId), f64> = HashMap::new();
        for e in &edges {
            let key = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
            *map.entry(key).or_insert(0.0) += e.w;
        }
        let mut expect: Vec<Edge> = map
            .into_iter()
            .map(|((u, v), w)| Edge::new(u, v, w))
            .collect();
        expect.sort_by_key(|e| (e.u, e.v));
        let s = g.simplify();
        assert!(s.is_simple());
        assert_eq!(s.m(), expect.len());
        for (a, b) in s.edges().iter().zip(&expect) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.w.to_bits(), b.w.to_bits());
        }
    }

    /// The items `0..len` in stable `key` order, by [`counting_sort`].
    fn counting_sorted<T: Send>(
        len: usize,
        buckets: usize,
        key: impl Fn(usize) -> usize + Sync,
        item: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(len);
        let ptr = SyncMutPtr(out.as_mut_ptr());
        // SAFETY: `counting_sort` hands every item a distinct slot below `len`.
        counting_sort(len, buckets, key, |i, slot| unsafe {
            ptr.write(slot, item(i))
        });
        // SAFETY: all `len` slots were written above.
        unsafe { out.set_len(len) };
        out
    }

    /// The two-pass `simplify` the canonical build replaced: two stable
    /// counting sorts order the edge ids by larger endpoint, then by
    /// smaller, and each run of one pair becomes one edge summed in order.
    fn reference_simplify(g: &Graph) -> Graph {
        let m = g.m();
        let ends = |id: EdgeId| {
            let e = &g.edges[id as usize];
            (e.u.min(e.v), e.u.max(e.v))
        };
        let by_max = counting_sorted(m, g.n, |i| ends(i as EdgeId).1 as usize, |i| i as EdgeId);
        let sorted = counting_sorted(m, g.n, |s| ends(by_max[s]).0 as usize, |s| by_max[s]);
        let edges: Vec<Edge> = (0..m)
            .filter(|&i| i == 0 || ends(sorted[i]) != ends(sorted[i - 1]))
            .map(|lo| {
                let pair = ends(sorted[lo]);
                let mut w = 0.0;
                for &id in sorted[lo..].iter().take_while(|&&id| ends(id) == pair) {
                    w += g.edges[id as usize].w;
                }
                Edge::new(pair.0, pair.1, w)
            })
            .collect();
        Graph::from_edges_unchecked(g.n, edges)
    }

    /// The two-pass `relabel` the canonical build replaced: normalised
    /// edges sorted by larger endpoint, then by smaller, stably.
    fn reference_relabel(g: &Graph, old_to_new: &[u32]) -> Graph {
        let ends = |id: usize| {
            let e = g.edges[id];
            let (u, v) = (old_to_new[e.u as usize], old_to_new[e.v as usize]);
            Edge::new(u.min(v), u.max(v), e.w)
        };
        let by_max = counting_sorted(g.m(), g.n, |i| ends(i).v as usize, |i| i);
        let edges = counting_sorted(
            g.m(),
            g.n,
            |s| ends(by_max[s]).u as usize,
            |s| ends(by_max[s]),
        );
        Graph::from_edges_unchecked(g.n, edges)
    }

    fn assert_bitwise(got: &Graph, want: &Graph, what: &str) {
        assert_eq!(got.n, want.n, "{what}: n");
        assert_eq!(got.offsets, want.offsets, "{what}: offsets");
        assert_eq!(got.targets, want.targets, "{what}: targets");
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.weights), bits(&want.weights), "{what}: weights");
        assert_eq!(got.arc_edge, want.arc_edge, "{what}: arc_edge");
        let edge = |e: &Edge| (e.u, e.v, e.w.to_bits());
        let edges = |g: &Graph| g.edges.iter().map(edge).collect::<Vec<_>>();
        assert_eq!(edges(got), edges(want), "{what}: edges");
    }

    /// A multigraph on `n` vertices (the last tenth isolated) with `m`
    /// edges: every 7th repeats an earlier pair reversed, every 11th is a
    /// self-loop, every 5th leaves the hub 0, weights spread over 2^±20.
    fn oracle_multigraph(n: usize, m: usize, seed: u64) -> Graph {
        let live = (n - n / 10).max(1) as u64;
        let rand = |i: usize, k: u64| crate::generators::counter_u64(seed, 4 * i as u64 + k);
        let mut edges: Vec<Edge> = Vec::with_capacity(m);
        for i in 0..m {
            let w = 2f64.powi((rand(i, 0) % 41) as i32 - 20) * (1.0 + (rand(i, 1) % 1000) as f64);
            let (u, v) = if i % 7 == 6 {
                let e = edges[rand(i, 2) as usize % i];
                (e.v, e.u)
            } else if i % 11 == 10 {
                let u = (rand(i, 2) % live) as VertexId;
                (u, u)
            } else if i % 5 == 4 {
                (0, (rand(i, 2) % live) as VertexId)
            } else {
                (
                    (rand(i, 2) % live) as VertexId,
                    (rand(i, 3) % live) as VertexId,
                )
            };
            edges.push(Edge::new(u, v, w));
        }
        Graph::from_edges_unchecked(n, edges)
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    fn oracle_permutation(n: usize, seed: u64) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = crate::generators::counter_u64(seed, i as u64) as usize % (i + 1);
            p.swap(i, j);
        }
        p
    }

    /// `simplify`, `relabel` and the fused build match the two-pass
    /// references bit for bit at pool widths {1, 2, 4}, on multigraphs with
    /// reversed parallel edges, self-loops, isolated vertices and a hub;
    /// the largest spans several blocks of the parallel passes.
    #[test]
    fn oracle_canonical_builds_match_the_two_pass_reference() {
        use crate::reorder::{relabel, simplify_relabel};
        let cases = [
            (1, 3),
            (2, 9),
            (7, 40),
            (300, 1_000),
            (5 * SEQ_CUTOFF, 12 * SEQ_CUTOFF),
        ];
        for (seed, &(n, m)) in cases.iter().enumerate() {
            let g = oracle_multigraph(n, m, seed as u64);
            let p = oracle_permutation(n, seed as u64 + 17);
            let simple = reference_simplify(&g);
            let want = [
                simple.clone(),
                reference_relabel(&g, &p),
                reference_relabel(&simple, &p),
            ];
            for threads in [1, 2, 4] {
                let got = crate::parutil::with_threads(threads, || {
                    [g.simplify(), relabel(&g, &p), simplify_relabel(&g, &p)]
                });
                for (what, (got, want)) in ["simplify", "relabel", "fused"]
                    .iter()
                    .zip(got.iter().zip(&want))
                {
                    assert_bitwise(got, want, &format!("{what}, n {n}, {threads} threads"));
                }
            }
            // Already canonical: both builds reproduce a simple graph.
            assert_bitwise(&simple.simplify(), &simple, &format!("resimplify, n {n}"));
            let identity: Vec<u32> = (0..n as u32).collect();
            assert_bitwise(
                &relabel(&simple, &identity),
                &simple,
                &format!("identity, n {n}"),
            );
        }
    }

    /// RCM orders a multigraph as it orders its simple graph.
    #[test]
    fn oracle_rcm_order_sees_the_simple_graph() {
        use crate::reorder::rcm_order;
        for (seed, &(n, m)) in [(1, 3), (7, 40), (300, 1_000), (3_000, 9_000)]
            .iter()
            .enumerate()
        {
            let g = oracle_multigraph(n, m, seed as u64);
            assert_eq!(rcm_order(&g), rcm_order(&g.simplify()), "n {n}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(5, vec![]);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.min_weight(), None);
        assert_eq!(g.spread(), 1.0);
        assert_eq!(g.max_degree(), 0);
    }
}
