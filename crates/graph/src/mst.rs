//! Minimum spanning forests (Kruskal).
//!
//! The low-stretch subgraph construction (Lemma 5.8) uses an MST to
//! shortcut the AKPW iteration chain at "special" weight classes; the
//! solver's greedy elimination tests also use spanning forests to build
//! ultra-sparse inputs.

use crate::graph::{EdgeId, Graph};
use crate::unionfind::UnionFind;

/// Kruskal's algorithm. Returns edge ids of a minimum spanning forest
/// (spanning tree per connected component), sorted by weight.
pub fn kruskal(g: &Graph) -> Vec<EdgeId> {
    let mut order: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
    order.sort_by(|&a, &b| {
        g.edge(a)
            .w
            .partial_cmp(&g.edge(b).w)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut uf = UnionFind::new(g.n());
    let mut out = Vec::with_capacity(g.n().saturating_sub(1));
    for e in order {
        let edge = g.edge(e);
        if uf.unite(edge.u, edge.v) {
            out.push(e);
        }
    }
    out
}

/// Total weight of a set of edges.
pub fn total_weight(g: &Graph, edges: &[EdgeId]) -> f64 {
    edges.iter().map(|&e| g.edge(e).w).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::parallel_connected_components;
    use crate::generators;
    use crate::graph::Edge;

    #[test]
    fn kruskal_simple() {
        let g = Graph::from_edges(
            4,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 2.0),
                Edge::new(2, 3, 3.0),
                Edge::new(3, 0, 4.0),
                Edge::new(0, 2, 5.0),
            ],
        );
        let t = kruskal(&g);
        assert_eq!(t.len(), 3);
        assert_eq!(total_weight(&g, &t), 6.0);
    }

    #[test]
    fn spanning_forest_spans_components() {
        let g = generators::erdos_renyi_gnm(300, 250, 5);
        let comps = parallel_connected_components(&g);
        let t = kruskal(&g);
        assert_eq!(t.len(), g.n() - comps.count);
        // The forest edges must connect exactly the same components.
        let sub = g.edge_subgraph(&t);
        let comps2 = parallel_connected_components(&sub);
        assert_eq!(comps.count, comps2.count);
        for v in 0..g.n() as u32 {
            assert_eq!(
                comps.same(0, v),
                comps2.same(0, v),
                "forest changes connectivity at {v}"
            );
        }
    }

    #[test]
    fn forest_is_acyclic() {
        let g = generators::grid2d(10, 10, |u, v| ((u + v) % 7 + 1) as f64);
        let t = kruskal(&g);
        assert_eq!(t.len(), g.n() - 1);
        let mut uf = UnionFind::new(g.n());
        for &e in &t {
            let edge = g.edge(e);
            assert!(uf.unite(edge.u, edge.v), "cycle introduced by edge {e}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(4, vec![]);
        assert!(kruskal(&g).is_empty());
    }
}
