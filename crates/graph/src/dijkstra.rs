//! Weighted shortest paths (Dijkstra).
//!
//! In the paper's convention the weight `w(e)` of an edge is its *length*,
//! and `d_G(u, v)` is the weighted shortest-path distance (Section 2).
//! Dijkstra is used by the stretch verification code and the experiment
//! harness; it is not on the solver's critical path.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{Graph, VertexId, INVALID_VERTEX};

/// Result of a single-source Dijkstra run.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Weighted distance from the source (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// Shortest-path tree parent.
    pub parent: Vec<VertexId>,
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: VertexId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance (reverse), ties by vertex for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

/// Single-source shortest paths with edge weights interpreted as lengths.
pub fn dijkstra(g: &Graph, source: VertexId) -> ShortestPaths {
    let n = g.n();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![INVALID_VERTEX; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        vertex: source,
    });
    while let Some(HeapEntry { dist: d, vertex: v }) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (u, w, _e) in g.arcs(v) {
            let nd = d + w;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                parent[u as usize] = v;
                heap.push(HeapEntry {
                    dist: nd,
                    vertex: u,
                });
            }
        }
    }
    ShortestPaths { dist, parent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Edge;

    #[test]
    fn path_distances() {
        let g = generators::path(5, 2.0);
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        assert_eq!(sp.parent[4], 3);
    }

    #[test]
    fn takes_lighter_route() {
        // Triangle where the direct edge is heavier than the two-hop route.
        let g = Graph::from_edges(
            3,
            vec![
                Edge::new(0, 2, 10.0),
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 2.0),
            ],
        );
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist[2], 3.0);
        assert_eq!(sp.parent[2], 1);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = Graph::from_edges(3, vec![Edge::new(0, 1, 1.0)]);
        let sp = dijkstra(&g, 0);
        assert!(sp.dist[2].is_infinite());
    }

    #[test]
    fn grid_distance_matches_manhattan_for_unit_weights() {
        let g = generators::grid2d(6, 7, |_, _| 1.0);
        let sp = dijkstra(&g, 0);
        // Vertex (r, c) has index r * 7 + c and distance r + c.
        for r in 0..6usize {
            for c in 0..7usize {
                assert_eq!(sp.dist[r * 7 + c], (r + c) as f64);
            }
        }
    }
}
