//! Connected components, sequentially and in parallel.

use rayon::prelude::*;

use crate::graph::{Graph, VertexId};
use crate::unionfind::{ConcurrentUnionFind, UnionFind};

/// A labelling of vertices by connected component.
#[derive(Debug, Clone)]
pub struct Components {
    /// Component label of each vertex, in `0..count`.
    pub labels: Vec<u32>,
    /// Number of connected components.
    pub count: usize,
}

impl Components {
    /// Returns the vertices of each component.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut groups = vec![Vec::new(); self.count];
        for (v, &l) in self.labels.iter().enumerate() {
            groups[l as usize].push(v as VertexId);
        }
        groups
    }

    /// Size of each component.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// True when vertices `u` and `v` are in the same component.
    pub fn same(&self, u: VertexId, v: VertexId) -> bool {
        self.labels[u as usize] == self.labels[v as usize]
    }
}

/// Sequential connected components via union–find.
pub fn connected_components(g: &Graph) -> Components {
    let mut uf = UnionFind::new(g.n());
    for e in g.edges() {
        uf.unite(e.u, e.v);
    }
    let (labels, count) = uf.dense_labels();
    Components { labels, count }
}

/// Parallel connected components via concurrent union–find over the edge
/// list.
pub fn parallel_connected_components(g: &Graph) -> Components {
    let uf = ConcurrentUnionFind::new(g.n());
    g.edges().par_iter().for_each(|e| {
        uf.unite(e.u, e.v);
    });
    let (labels, count) = uf.dense_labels();
    Components { labels, count }
}

/// True when the graph is connected (the empty graph and the single-vertex
/// graph are considered connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() <= 1 {
        return true;
    }
    parallel_connected_components(g).count == 1
}

/// The largest connected component of `g`, with vertices relabelled
/// contiguously in their original order (the mapping is deterministic, so
/// the output is a pure function of the input). Random-graph generators
/// (rMAT in particular) produce isolated vertices and small fragments;
/// solver workloads want the giant component. Ties between equally large
/// components break toward the smaller label (the component containing the
/// lowest-numbered vertex wins).
pub fn largest_component(g: &Graph) -> Graph {
    if g.n() == 0 {
        return Graph::from_edges(0, Vec::new());
    }
    let comps = connected_components(g);
    if comps.count <= 1 {
        return g.clone();
    }
    let sizes = comps.sizes();
    let (best, _) = sizes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .expect("non-empty graph has a component");
    let best = best as u32;
    let mut map = vec![u32::MAX; g.n()];
    let mut next = 0u32;
    for (v, &l) in comps.labels.iter().enumerate() {
        if l == best {
            map[v] = next;
            next += 1;
        }
    }
    let edges = g
        .edges()
        .iter()
        .filter(|e| comps.labels[e.u as usize] == best)
        .map(|e| crate::graph::Edge::new(map[e.u as usize], map[e.v as usize], e.w))
        .collect();
    Graph::from_edges(next as usize, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Edge;

    #[test]
    fn single_component_grid() {
        let g = generators::grid2d(8, 9, |_, _| 1.0);
        let c = connected_components(&g);
        assert_eq!(c.count, 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn multiple_components() {
        let g = Graph::from_edges(
            6,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(2, 3, 1.0),
                Edge::new(3, 4, 1.0),
            ],
        );
        let c = connected_components(&g);
        assert_eq!(c.count, 3); // {0,1}, {2,3,4}, {5}
        assert!(c.same(2, 4));
        assert!(!c.same(0, 2));
        assert_eq!(c.sizes().iter().sum::<usize>(), 6);
        assert!(!is_connected(&g));
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = generators::erdos_renyi_gnm(500, 600, 42);
        let seq = connected_components(&g);
        let par = parallel_connected_components(&g);
        assert_eq!(seq.count, par.count);
        for u in 0..g.n() as VertexId {
            for v in [0u32, u / 2, g.n() as u32 - 1] {
                assert_eq!(seq.same(u, v), par.same(u, v));
            }
        }
    }

    #[test]
    fn members_partition_vertices() {
        let g = generators::erdos_renyi_gnm(100, 80, 3);
        let c = parallel_connected_components(&g);
        let groups = c.members();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 100);
        assert_eq!(groups.len(), c.count);
    }

    #[test]
    fn trivial_graphs_are_connected() {
        assert!(is_connected(&Graph::from_edges(0, vec![])));
        assert!(is_connected(&Graph::from_edges(1, vec![])));
        assert!(!is_connected(&Graph::from_edges(2, vec![])));
    }
}
