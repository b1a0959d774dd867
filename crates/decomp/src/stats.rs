//! Measured decomposition statistics — the empirical counterparts of the
//! quantities Theorem 4.1 bounds. Used by tests and by the E1/E2/E3
//! experiments.

use parsdd_graph::bfs::bfs;
use parsdd_graph::Graph;

use crate::split::SplitResult;

/// Summary statistics of a decomposition of `g`.
#[derive(Debug, Clone)]
pub struct DecompositionStats {
    /// Number of components.
    pub components: usize,
    /// Maximum hop radius (distance to center measured inside the
    /// component) — Theorem 4.1(2) bounds this by ρ.
    pub max_radius: u32,
    /// Maximum *strong diameter* measured by an exact BFS inside each
    /// component (at most `2 × max_radius`).
    pub max_strong_diameter: u32,
    /// Number of edges crossing between components.
    pub cut_edges: usize,
    /// Fraction of edges crossing between components — Theorem 4.1(3)
    /// bounds this by `c₁·k·log³n/ρ` per class.
    pub cut_fraction: f64,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Mean component size.
    pub mean_component_size: f64,
}

/// Computes decomposition statistics. `exact_diameter` additionally runs a
/// BFS per component (from the component's center) to measure the strong
/// diameter exactly; for large graphs pass `false` to skip it.
pub fn decomposition_stats(
    g: &Graph,
    split: &SplitResult,
    exact_diameter: bool,
) -> DecompositionStats {
    let n = g.n();
    let cut_edges = g
        .edges()
        .iter()
        .filter(|e| split.labels[e.u as usize] != split.labels[e.v as usize])
        .count();
    let cut_fraction = if g.m() == 0 {
        0.0
    } else {
        cut_edges as f64 / g.m() as f64
    };
    let mut sizes = vec![0usize; split.component_count];
    for &l in &split.labels {
        sizes[l as usize] += 1;
    }
    let largest_component = sizes.iter().copied().max().unwrap_or(0);
    let mean_component_size = if split.component_count == 0 {
        0.0
    } else {
        n as f64 / split.component_count as f64
    };

    let max_strong_diameter = if exact_diameter && split.component_count > 0 {
        // Strong diameter of component C measured in G[C]: run a BFS from
        // the center inside the induced subgraph and take twice the
        // eccentricity as an upper bound witness; the radius itself is the
        // maximum distance found (this is the measurement used in the E1
        // experiment).
        let members = split.members();
        let mut max_diam = 0u32;
        for (c, verts) in members.iter().enumerate() {
            if verts.len() <= 1 {
                continue;
            }
            // Build the induced subgraph on this component.
            let mut remap = std::collections::HashMap::with_capacity(verts.len());
            for (i, &v) in verts.iter().enumerate() {
                remap.insert(v, i as u32);
            }
            let mut edges = Vec::new();
            for &v in verts {
                for (u, w, _e) in g.arcs(v) {
                    if v < u {
                        if let (Some(&a), Some(&b)) = (remap.get(&v), remap.get(&u)) {
                            if split.labels[u as usize] == c as u32 {
                                edges.push(parsdd_graph::Edge::new(a, b, w));
                            }
                        }
                    }
                }
            }
            let sub = Graph::from_edges_unchecked(verts.len(), edges);
            let center_local = remap[&split.centers[c]];
            let ecc = bfs(&sub, center_local).eccentricity();
            max_diam = max_diam.max(2 * ecc);
        }
        max_diam
    } else {
        2 * split.max_radius()
    };

    DecompositionStats {
        components: split.component_count,
        max_radius: split.max_radius(),
        max_strong_diameter,
        cut_edges,
        cut_fraction,
        largest_component,
        mean_component_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SplitParams;
    use crate::split::split_graph;
    use parsdd_graph::generators;

    #[test]
    fn stats_consistency_on_grid() {
        let g = generators::grid2d(25, 25, |_, _| 1.0);
        let split = split_graph(&g, &SplitParams::new(20).with_seed(4));
        let stats = decomposition_stats(&g, &split, true);
        assert_eq!(stats.components, split.component_count);
        assert!(stats.max_radius <= 40);
        assert!(stats.max_strong_diameter <= 2 * stats.max_radius);
        assert!(stats.cut_fraction >= 0.0 && stats.cut_fraction <= 1.0);
        assert!(stats.largest_component <= g.n());
        assert!((stats.mean_component_size * stats.components as f64 - g.n() as f64).abs() < 1e-9);
    }

    #[test]
    fn exact_vs_approximate_diameter() {
        let g = generators::erdos_renyi_gnm(300, 900, 12);
        let split = split_graph(&g, &SplitParams::new(30).with_seed(8));
        let exact = decomposition_stats(&g, &split, true);
        let approx = decomposition_stats(&g, &split, false);
        assert!(exact.max_strong_diameter <= approx.max_strong_diameter);
        assert_eq!(exact.cut_edges, approx.cut_edges);
    }

    #[test]
    fn single_component_decomposition_cuts_nothing() {
        let g = generators::path(32, 1.0);
        // Huge radius -> single component (whole path claimed by one center
        // in some round).
        let split = split_graph(&g, &SplitParams::new(1000).with_seed(1));
        let stats = decomposition_stats(&g, &split, true);
        if stats.components == 1 {
            assert_eq!(stats.cut_edges, 0);
        } else {
            assert!(stats.cut_edges > 0);
        }
        assert!(stats.cut_edges <= g.m());
    }
}
