//! The four workloads: graphs and right-hand sides made from `--seed` alone.

use parsdd_graph::generators::{self, counter_unit};
use parsdd_graph::Graph;
use parsdd_solver::sparsify::counter_coin;

/// Workload names, in the order the full run executes them.
pub const NAMES: [&str; 4] = ["grid200", "rmat131k", "smallworld200k", "grid120-ss32"];

/// Right-hand sides of `grid120-ss32`, solved together in one `solve_many`.
const SS_RHS: usize = 32;

/// A workload's inputs: the graph and the right-hand sides solved together
/// in one call (one for every workload except `grid120-ss32`).
pub struct Inputs {
    pub graph: Graph,
    pub rhs: Vec<Vec<f64>>,
}

/// Seed of the random graphs. Each workload is one fixed graph: another
/// draw of `rmat131k` or `smallworld200k` changes its chain, and with it the
/// cost of a solve by about 10%, which would hide a regression of that size
/// in the spread between seeds.
const GRAPH_SEED: u64 = 1;

/// Generates the inputs of workload `name` for `seed`, or `None` for an
/// unknown name. The seed moves the right-hand sides; the graphs are fixed.
pub fn generate(name: &str, seed: u64) -> Option<Inputs> {
    let graph = match name {
        "grid200" => generators::grid2d(200, 200, |_, _| 1.0),
        "rmat131k" => generators::rmat(14, 131_072, GRAPH_SEED),
        "smallworld200k" => generators::watts_strogatz(40_000, 10, 0.1, GRAPH_SEED),
        "grid120-ss32" => generators::grid2d(120, 120, |_, _| 1.0),
        _ => return None,
    };
    let rhs = if name == "grid120-ss32" {
        (0..SS_RHS as u64)
            .map(|p| projection_rhs(&graph, seed, p))
            .collect()
    } else {
        vec![random_rhs(graph.n(), seed)]
    };
    Some(Inputs { graph, rhs })
}

/// Uniform entries in `[-1, 1)` with the mean removed. Every workload graph
/// is connected (the generators keep the largest component), so a zero sum
/// puts the vector in the Laplacian's range.
fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    let stream = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x7268_7300;
    let mut b: Vec<f64> = (0..n as u64)
        .map(|i| 2.0 * counter_unit(stream, i) - 1.0)
        .collect();
    parsdd_linalg::vector::project_out_constant(&mut b);
    b
}

/// Spielman–Srivastava projection `Bᵀ W^{1/2} s` for the sign vector `s` of
/// projection `p`: each edge adds `±√w` to one endpoint and takes it from
/// the other, so the vector is balanced by construction.
fn projection_rhs(g: &Graph, seed: u64, p: u64) -> Vec<f64> {
    let stream = 0x55ab_0001
        ^ seed.wrapping_mul(0xa076_1d64_78bd_642f)
        ^ p.wrapping_mul(0xd1b5_4a32_d192_ed03);
    let mut y = vec![0.0f64; g.n()];
    for (id, e) in g.edges().iter().enumerate() {
        let sign = if counter_coin(stream, id as u64) < 0.5 {
            1.0
        } else {
            -1.0
        };
        let w = e.w.sqrt() * sign;
        y[e.u as usize] += w;
        y[e.v as usize] -= w;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the vertex count and every edge's endpoints and weight bits:
    /// equal fingerprints mean the same graph in the same edge order.
    fn fingerprint(g: &Graph) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        mix(g.n() as u64);
        for e in g.edges() {
            mix(u64::from(e.u));
            mix(u64::from(e.v));
            mix(e.w.to_bits());
        }
        h
    }

    fn bits(rhs: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rhs.iter()
            .map(|b| b.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_rhs() {
        for name in NAMES {
            let a = generate(name, 1).expect("known workload");
            let b = generate(name, 1).expect("known workload");
            let c = generate(name, 2).expect("known workload");
            assert_eq!(fingerprint(&a.graph), fingerprint(&b.graph), "{name}");
            assert_eq!(
                fingerprint(&a.graph),
                fingerprint(&c.graph),
                "{name}: fixed graph"
            );
            assert_eq!(bits(&a.rhs), bits(&b.rhs), "{name}");
            assert_ne!(bits(&a.rhs), bits(&c.rhs), "{name}");
            assert!(a.rhs.iter().all(|r| r.len() == a.graph.n()), "{name}");
            assert!(
                parsdd_graph::components::is_connected(&a.graph),
                "{name}: right-hand sides are balanced for one component only"
            );
        }
        assert!(generate("no-such-workload", 1).is_none());
    }
}
