//! Incremental graph construction.

use crate::graph::{check_scale, Edge, EdgeId, Graph, VertexId};

/// A mutable edge-list accumulator that produces an immutable [`Graph`].
///
/// The builder deduplicates nothing and keeps insertion order, so edge ids
/// of the resulting graph equal the order in which `add_edge` was called.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Creates a builder with capacity for `m` edges. Panics, before it
    /// allocates, unless `n` fits the `u32` ids
    /// ([`GraphDataError::TooLarge`](crate::GraphDataError::TooLarge)).
    pub fn with_capacity(n: usize, m: usize) -> Self {
        if let Err(e) = check_scale(n, 0) {
            panic!("GraphBuilder: {e}");
        }
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Grows the vertex set to at least `n` vertices.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// Panics on self-loops, invalid weights, or out-of-range endpoints.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) -> EdgeId {
        assert!(u != v, "self-loop {u}");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range"
        );
        assert!(w.is_finite() && w > 0.0, "invalid weight {w}");
        let id = self.edges.len() as EdgeId;
        self.edges.push(Edge::new(u, v, w));
        id
    }

    /// Adds an edge only if `u != v`; returns `None` for self-loops.
    /// Useful for randomized generators that may propose loops.
    pub fn add_edge_skip_loops(&mut self, u: VertexId, v: VertexId, w: f64) -> Option<EdgeId> {
        if u == v {
            None
        } else {
            Some(self.add_edge(u, v, w))
        }
    }

    /// Appends every edge of `other` (vertex ids are taken verbatim).
    pub fn extend_from_graph(&mut self, other: &Graph) {
        self.ensure_vertices(other.n());
        for e in other.edges() {
            self.edges.push(*e);
        }
    }

    /// Finalizes the builder into an immutable CSR graph.
    pub fn build(self) -> Graph {
        Graph::from_edges(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_insertion_order() {
        let mut b = GraphBuilder::new(4);
        let e0 = b.add_edge(0, 1, 1.0);
        let e1 = b.add_edge(1, 2, 2.0);
        let e2 = b.add_edge(2, 3, 3.0);
        assert_eq!((e0, e1, e2), (0, 1, 2));
        let g = b.build();
        assert_eq!(g.m(), 3);
        assert_eq!(g.edge(1).w, 2.0);
    }

    #[test]
    fn skip_loops_helper() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge_skip_loops(0, 0, 1.0).is_none());
        assert!(b.add_edge_skip_loops(0, 1, 1.0).is_some());
        assert_eq!(b.m(), 1);
    }

    #[test]
    fn ensure_vertices_grows() {
        let mut b = GraphBuilder::new(2);
        b.ensure_vertices(10);
        b.add_edge(9, 0, 1.0);
        let g = b.build();
        assert_eq!(g.n(), 10);
    }

    #[test]
    fn extend_from_graph_appends() {
        let g = Graph::from_edges(3, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)]);
        let mut b = GraphBuilder::new(0);
        b.extend_from_graph(&g);
        b.add_edge(0, 2, 5.0);
        let h = b.build();
        assert_eq!(h.m(), 3);
        assert_eq!(h.n(), 3);
    }

    #[test]
    #[should_panic]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1, 1.0);
    }
}
