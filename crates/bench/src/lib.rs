//! # parsdd-bench
//!
//! The reproduction's measurements: the [`experiments`] registry (each
//! experiment's workloads, Markdown tables and headline timing, defined
//! once and run by the `baseline` bin), the workload suites they share,
//! the workload [`zoo`] and the [`faults`] injection machinery that the
//! repository's integration tests also drive. The end-to-end benchmark
//! package under `src/bin/benchmark/` stands alone.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod faults;
pub mod zoo;

/// The standard set of workload graphs used across the experiments.
pub mod workloads {
    use parsdd_graph::{generators, Graph};

    /// A named workload graph.
    pub struct Workload {
        /// Short name used in tables.
        pub name: &'static str,
        /// The graph.
        pub graph: Graph,
    }

    /// The small workload suite (fast; used by most experiments).
    pub fn small_suite() -> Vec<Workload> {
        vec![
            Workload {
                name: "grid2d-48x48",
                graph: generators::grid2d(48, 48, |_, _| 1.0),
            },
            Workload {
                name: "grid2d-weighted",
                graph: generators::with_power_law_weights(
                    &generators::grid2d(48, 48, |_, _| 1.0),
                    4,
                    7,
                ),
            },
            Workload {
                name: "rand-regular-4",
                graph: generators::random_regular(2048, 4, 11),
            },
            Workload {
                name: "erdos-renyi",
                graph: generators::erdos_renyi_gnm(2048, 6144, 13),
            },
        ]
    }

    /// The scaling suite: the same family at growing sizes (for work/size
    /// scaling curves).
    pub fn grid_scaling_suite() -> Vec<(usize, Graph)> {
        [24usize, 48, 72, 96]
            .iter()
            .map(|&side| (side * side, generators::grid2d(side, side, |_, _| 1.0)))
            .collect()
    }

    /// Ultra-sparse graphs (tree + extra edges) for the elimination
    /// experiment.
    pub fn ultra_sparse_suite() -> Vec<(usize, usize, Graph)> {
        [(10_000usize, 50usize), (10_000, 200), (10_000, 500)]
            .iter()
            .map(|&(n, extra)| (n, extra, generators::ultra_sparse(n, extra, 1.0, 4.0, 17)))
            .collect()
    }

    /// A balanced right-hand side for a graph of `n` vertices.
    pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed.wrapping_add(29)) % 997) as f64) - 498.0)
            .collect();
        parsdd_linalg::vector::project_out_constant(&mut b);
        b
    }
}

#[cfg(test)]
mod tests {
    use crate::experiments::Timer;

    /// Each point of a headline is one warm-up and `samples` timed runs,
    /// all on one pool of the point's width.
    #[test]
    fn group_runs_and_counts() {
        for (quick, samples) in [(true, 1), (false, 3)] {
            let timer = Timer::new(quick, 3);
            for threads in [1, 3] {
                let mut widths = Vec::new();
                let timing = timer.time_at(threads, || widths.push(rayon::current_num_threads()));
                assert_eq!(widths, vec![threads; 1 + samples]);
                assert_eq!(timing.threads, threads);
                assert!(
                    timing.min_ms <= timing.mean_ms,
                    "{} > {}",
                    timing.min_ms,
                    timing.mean_ms
                );
            }
        }
    }
}
