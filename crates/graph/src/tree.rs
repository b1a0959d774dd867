//! Rooted spanning forests with LCA and path-length queries.
//!
//! [`RootedForest`] takes a set of tree edges of a host graph, roots every
//! tree at its smallest vertex, and supports O(log n) lowest-common-ancestor
//! queries by binary lifting. This powers the *stretch* computations of
//! Section 2/5: the stretch of an edge `{u,v}` with length `w` over a tree
//! `T` is `d_T(u, v) / w`, and `d_T` decomposes along the u–LCA–v path.

use crate::bfs::UNREACHED;
use crate::graph::{EdgeId, Graph, VertexId, INVALID_VERTEX};
use crate::parutil::{counting_sort, SyncMutPtr, SEQ_CUTOFF};
use rayon::prelude::*;

/// A rooted spanning forest of a host graph.
///
/// The tree adjacency and the binary-lifting ancestor table are stored as
/// flat arrays (no per-vertex `Vec`s), so building a forest over a 10M-edge
/// level does a handful of large allocations instead of `n` small ones.
#[derive(Debug, Clone)]
pub struct RootedForest {
    /// Parent of each vertex (`INVALID_VERTEX` for roots).
    pub parent: Vec<VertexId>,
    /// Edge id (in the host graph) connecting each vertex to its parent.
    pub parent_edge: Vec<EdgeId>,
    /// Hop depth from the root.
    pub depth: Vec<u32>,
    /// Weighted depth (sum of edge weights along the root path).
    pub wdepth: Vec<f64>,
    /// Root of each vertex's tree.
    pub root: Vec<VertexId>,
    /// Flat binary-lifting ancestor table: entry `k * n + v` is the
    /// `2^k`-th ancestor of `v`; `levels` strides of length `n`.
    up: Vec<VertexId>,
    /// Number of lifting levels in `up`.
    levels: usize,
}

/// Flat CSR adjacency restricted to a set of tree edges, with per-vertex
/// segments in tree-edge-list order (exactly the order the old per-vertex
/// `Vec` adjacency produced, so the DFS below visits identically).
struct TreeAdj {
    off: Vec<usize>,
    nbr: Vec<VertexId>,
    edge: Vec<EdgeId>,
    w: Vec<f64>,
}

impl TreeAdj {
    /// One stable [`counting_sort`] of the `2t` tree arcs (tree edge `i`'s
    /// arc at `u`, then its arc at `v`) by source vertex.
    fn build(g: &Graph, tree_edges: &[EdgeId], length: &(impl Fn(f64) -> f64 + Sync)) -> Self {
        let t = tree_edges.len();
        let mut nbr = vec![INVALID_VERTEX; 2 * t];
        let mut edge_ids = vec![EdgeId::MAX; 2 * t];
        let mut w = vec![0.0f64; 2 * t];
        let np = SyncMutPtr(nbr.as_mut_ptr());
        let ep = SyncMutPtr(edge_ids.as_mut_ptr());
        let wp = SyncMutPtr(w.as_mut_ptr());
        let off = counting_sort(
            2 * t,
            g.n(),
            |a| {
                let e = g.edge(tree_edges[a / 2]);
                (if a % 2 == 0 { e.u } else { e.v }) as usize
            },
            |a, slot| {
                let id = tree_edges[a / 2];
                let e = g.edge(id);
                // SAFETY: `counting_sort` hands every arc a distinct slot
                // below `2t`.
                unsafe {
                    np.write(slot, if a % 2 == 0 { e.v } else { e.u });
                    ep.write(slot, id);
                    wp.write(slot, length(e.w));
                }
            },
        );
        TreeAdj {
            off,
            nbr,
            edge: edge_ids,
            w,
        }
    }
}

impl RootedForest {
    /// Builds a rooted forest from a list of tree edge ids of `g`.
    ///
    /// Panics if the edges contain a cycle.
    pub fn from_tree_edges(g: &Graph, tree_edges: &[EdgeId]) -> Self {
        Self::from_tree_edges_with(g, tree_edges, |w| w)
    }

    /// Builds a rooted forest whose path lengths accumulate `length(w)`
    /// instead of the raw edge weight `w`.
    ///
    /// This lets the stretch computations work in the *length* metric
    /// (`length = |w| 1.0 / w` for conductance graphs) without
    /// materialising a reweighted copy of the host graph. Panics if the
    /// edges contain a cycle.
    pub fn from_tree_edges_with(
        g: &Graph,
        tree_edges: &[EdgeId],
        length: impl Fn(f64) -> f64 + Sync,
    ) -> Self {
        let n = g.n();
        let adj = TreeAdj::build(g, tree_edges, &length);
        let mut parent = vec![INVALID_VERTEX; n];
        let mut parent_edge = vec![EdgeId::MAX; n];
        let mut depth = vec![UNREACHED; n];
        let mut wdepth = vec![0.0f64; n];
        let mut root = vec![INVALID_VERTEX; n];
        let mut visited_edges = 0usize;
        let mut stack = Vec::new();
        for r in 0..n as VertexId {
            if depth[r as usize] != UNREACHED {
                continue;
            }
            depth[r as usize] = 0;
            wdepth[r as usize] = 0.0;
            root[r as usize] = r;
            stack.push(r);
            while let Some(v) = stack.pop() {
                let lo = adj.off[v as usize];
                let hi = adj.off[v as usize + 1];
                for i in lo..hi {
                    let u = adj.nbr[i];
                    if depth[u as usize] != UNREACHED {
                        continue;
                    }
                    visited_edges += 1;
                    depth[u as usize] = depth[v as usize] + 1;
                    wdepth[u as usize] = wdepth[v as usize] + adj.w[i];
                    parent[u as usize] = v;
                    parent_edge[u as usize] = adj.edge[i];
                    root[u as usize] = r;
                    stack.push(u);
                }
            }
        }
        assert_eq!(
            visited_edges,
            tree_edges.len(),
            "tree edge list contains a cycle or duplicate edges"
        );
        // Flat binary lifting table: `levels` strides of length `n`.
        let max_depth = depth.iter().copied().max().unwrap_or(0).max(1);
        let levels = (usize::BITS - (max_depth as usize).leading_zeros()) as usize + 1;
        let mut up: Vec<VertexId> = Vec::with_capacity(levels * n);
        up.extend_from_slice(&parent);
        for k in 1..levels {
            let cur: Vec<VertexId> = {
                let prev = &up[(k - 1) * n..k * n];
                (0..n)
                    .into_par_iter()
                    .with_min_len(SEQ_CUTOFF)
                    .map(|v| {
                        let mid = prev[v];
                        if mid == INVALID_VERTEX {
                            INVALID_VERTEX
                        } else {
                            prev[mid as usize]
                        }
                    })
                    .collect()
            };
            up.extend_from_slice(&cur);
        }
        RootedForest {
            parent,
            parent_edge,
            depth,
            wdepth,
            root,
            up,
            levels,
        }
    }

    /// The `2^k`-th ancestor of `v` (`INVALID_VERTEX` beyond the root).
    #[inline]
    fn up(&self, k: usize, v: VertexId) -> VertexId {
        self.up[k * self.parent.len() + v as usize]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the forest is over an empty vertex set.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Lowest common ancestor of `u` and `v`, or `None` when they lie in
    /// different trees.
    pub fn lca(&self, mut u: VertexId, mut v: VertexId) -> Option<VertexId> {
        if self.root[u as usize] != self.root[v as usize] {
            return None;
        }
        if self.depth[u as usize] < self.depth[v as usize] {
            std::mem::swap(&mut u, &mut v);
        }
        // Lift u to v's depth.
        let mut diff = self.depth[u as usize] - self.depth[v as usize];
        let mut k = 0;
        while diff > 0 {
            if diff & 1 == 1 {
                u = self.up(k, u);
            }
            diff >>= 1;
            k += 1;
        }
        if u == v {
            return Some(u);
        }
        for k in (0..self.levels).rev() {
            let au = self.up(k, u);
            let av = self.up(k, v);
            if au != av {
                u = au;
                v = av;
            }
        }
        Some(self.parent[u as usize])
    }

    /// Weighted tree distance `d_T(u, v)`; `f64::INFINITY` when `u` and `v`
    /// are in different trees.
    pub fn tree_distance(&self, u: VertexId, v: VertexId) -> f64 {
        match self.lca(u, v) {
            None => f64::INFINITY,
            Some(a) => {
                self.wdepth[u as usize] + self.wdepth[v as usize] - 2.0 * self.wdepth[a as usize]
            }
        }
    }

    /// Hop distance in the tree between `u` and `v` (`u32::MAX` when in
    /// different trees).
    pub fn tree_hops(&self, u: VertexId, v: VertexId) -> u32 {
        match self.lca(u, v) {
            None => u32::MAX,
            Some(a) => self.depth[u as usize] + self.depth[v as usize] - 2 * self.depth[a as usize],
        }
    }

    /// Number of trees (connected components) in the forest.
    pub fn tree_count(&self) -> usize {
        self.parent.iter().filter(|&&p| p == INVALID_VERTEX).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::mst::kruskal;

    #[test]
    fn path_tree_distances() {
        let g = generators::path(6, 2.0);
        let all: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
        let f = RootedForest::from_tree_edges(&g, &all);
        assert_eq!(f.tree_count(), 1);
        assert_eq!(f.lca(0, 5), Some(0));
        assert_eq!(f.tree_hops(1, 4), 3);
        assert_eq!(f.tree_distance(0, 5), 10.0);
        assert_eq!(f.tree_distance(2, 2), 0.0);
    }

    #[test]
    fn star_lca_is_center() {
        let g = generators::star(8, 1.0);
        let all: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
        let f = RootedForest::from_tree_edges(&g, &all);
        // Center is vertex 0; leaves are 1..8.
        assert_eq!(f.lca(3, 5), Some(0));
        assert_eq!(f.tree_distance(3, 5), 2.0);
        assert_eq!(f.tree_hops(0, 7), 1);
    }

    #[test]
    fn forest_with_two_trees() {
        let g = generators::path(4, 1.0);
        // Use only edges 0 and 2 -> components {0,1} and {2,3}.
        let f = RootedForest::from_tree_edges(&g, &[0, 2]);
        assert_eq!(f.tree_count(), 2);
        assert_eq!(f.lca(0, 3), None);
        assert!(f.tree_distance(1, 2).is_infinite());
        assert_eq!(f.tree_distance(2, 3), 1.0);
    }

    #[test]
    fn mst_tree_distance_upper_bounds_graph_distance() {
        let g = generators::weighted_random_graph(120, 500, 1.0, 10.0, 9);
        let t = kruskal(&g);
        let f = RootedForest::from_tree_edges(&g, &t);
        // Tree distance is at least the graph distance for every edge.
        for e in g.edges() {
            let dt = f.tree_distance(e.u, e.v);
            assert!(
                dt + 1e-9 >= 0.0 && dt.is_finite(),
                "connected graph must give finite tree distance"
            );
            // Stretch >= 1 modulo floating error would require d_G; here we
            // only check that the tree distance is at least the direct edge
            // weight cannot be *shorter* than the shortest path, which is
            // <= w(e). So d_T >= d_G is not checkable without Dijkstra;
            // checked in the lsst crate. Here: d_T(u,v) > 0 for u != v.
            assert!(dt > 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn cycle_in_tree_edges_panics() {
        let g = generators::cycle(4, 1.0);
        let all: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
        let _ = RootedForest::from_tree_edges(&g, &all);
    }

    /// A hub-heavy tree on `n` vertices (parents skew towards low ids)
    /// plus about as many non-tree edges of weight 0.5, and its tree edge
    /// ids in scrambled order.
    fn hub_tree(n: usize) -> (Graph, Vec<EdgeId>) {
        let mix = |x: u64| generators::counter_u64(7, x) as usize;
        let mut b = crate::builder::GraphBuilder::new(n);
        for i in 1..n {
            let p = (mix(i as u64) % i) * (mix((n + i) as u64) % i) / i;
            b.add_edge(p as VertexId, i as VertexId, 1.0 + (i % 13) as f64);
            let j = mix((2 * n + i) as u64) % n;
            if j != i {
                b.add_edge(i as VertexId, j as VertexId, 0.5);
            }
        }
        let g = b.build();
        let mut tree: Vec<EdgeId> = (0..g.m() as EdgeId)
            .filter(|&e| g.edge(e).w != 0.5)
            .collect();
        tree.sort_by_key(|&e| mix(3 * n as u64 + e as u64));
        (g, tree)
    }

    #[test]
    fn tree_adjacency_matches_reference_at_every_width() {
        let (g, tree) = hub_tree(3 * SEQ_CUTOFF);
        let length = |w: f64| 1.0 / w;
        // Reference: each vertex's arcs in tree-edge-list order.
        let mut expect: Vec<Vec<(VertexId, EdgeId, u64)>> = vec![Vec::new(); g.n()];
        for &id in &tree {
            let e = g.edge(id);
            let lw = length(e.w).to_bits();
            expect[e.u as usize].push((e.v, id, lw));
            expect[e.v as usize].push((e.u, id, lw));
        }
        let mut forests = Vec::new();
        for threads in [1, 2, 4] {
            let (adj, forest) = crate::parutil::with_threads(threads, || {
                (
                    TreeAdj::build(&g, &tree, &length),
                    RootedForest::from_tree_edges(&g, &tree),
                )
            });
            for (v, want) in expect.iter().enumerate() {
                let got: Vec<_> = (adj.off[v]..adj.off[v + 1])
                    .map(|i| (adj.nbr[i], adj.edge[i], adj.w[i].to_bits()))
                    .collect();
                assert_eq!(&got, want, "vertex {v} at {threads} threads");
            }
            forests.push(forest);
        }
        let f1 = &forests[0];
        assert_eq!(f1.tree_count(), 1);
        for f in &forests[1..] {
            assert_eq!(f.parent, f1.parent);
            assert_eq!(f.parent_edge, f1.parent_edge);
            assert_eq!(f.depth, f1.depth);
            assert_eq!(f.root, f1.root);
            assert_eq!((&f.up, f.levels), (&f1.up, f1.levels));
            assert!(f
                .wdepth
                .iter()
                .zip(&f1.wdepth)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn deep_path_binary_lifting() {
        let g = generators::path(1025, 1.0);
        let all: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
        let f = RootedForest::from_tree_edges(&g, &all);
        assert_eq!(f.tree_hops(0, 1024), 1024);
        assert_eq!(f.lca(1000, 512), Some(512));
        assert_eq!(f.tree_distance(7, 1001), 994.0);
    }
}
