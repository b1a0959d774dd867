//! # parsdd-graph
//!
//! Graph substrate for the `parsdd` reproduction of *Near Linear-Work
//! Parallel SDD Solvers, Low-Diameter Decomposition, and Low-Stretch
//! Subgraphs* (Blelloch, Gupta, Koutis, Miller, Peng, Tangwongsan;
//! SPAA 2011).
//!
//! This crate provides everything the higher layers (low-diameter
//! decomposition, low-stretch trees/subgraphs, the solver chain and the
//! applications) need from a graph library:
//!
//! * [`Graph`] — an immutable, weighted, undirected graph in compressed
//!   sparse row (CSR) form, with stable undirected edge identifiers.
//! * [`builder::GraphBuilder`] — incremental construction from edge lists,
//!   with parallel CSR assembly.
//! * [`generators`] — the synthetic workloads used throughout the paper's
//!   experiment reproduction: 2-D/3-D grids, random regular multigraphs,
//!   Erdős–Rényi graphs, paths, cycles, stars, complete graphs, barbells,
//!   random trees and "ultra-sparse" tree-plus-extra-edges graphs.
//! * [`csr`] — the lean structure-of-arrays CSR ([`Csr`]) used by the
//!   traversal kernels, the binary on-disk format and the scale workloads.
//! * [`frontier`] — Ligra/GBBS-style `edge_map`/`vertex_map` primitives
//!   with a direction-optimizing dense/sparse switch.
//! * [`bfs`] — sequential breadth-first search and the parallel *shifted*
//!   multi-source BFS that implements the paper's jittered ball growing
//!   (Section 2, "Parallel Ball Growing").
//! * [`components`] — connected components (sequential and parallel).
//! * [`unionfind`] — sequential and concurrent union–find.
//! * [`mst`] — Kruskal minimum spanning forests.
//! * [`tree`] — rooted spanning forests with binary-lifting LCA and
//!   weighted path queries (used for stretch computation).
//! * [`dijkstra`] — weighted shortest paths, used to verify subgraph
//!   stretch in tests and experiments.
//! * [`parutil`] — small parallel primitives (prefix sums, counting).
//! * [`reorder`] — bandwidth-reducing vertex orderings (reverse
//!   Cuthill–McKee) that the solver chain bakes into every level so its
//!   memory-bound sweeps stay cache-resident.
//!
//! All parallelism is expressed with [rayon]; all randomness is seeded
//! through [`rand_chacha::ChaCha8Rng`] so results are reproducible.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bfs;
pub mod builder;
pub mod components;
pub mod csr;
pub mod dijkstra;
pub mod frontier;
pub mod generators;
pub mod graph;
pub mod io;
pub mod mst;
pub mod multigraph;
pub mod parutil;
pub mod reorder;
pub mod tree;
pub mod unionfind;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use frontier::{
    edge_map, edge_map_seq, vertex_map, CsrLike, Direction, EdgeMapOp, EdgeMapOptions,
    EdgeMapResult, Frontier,
};
pub use graph::{Edge, EdgeId, Graph, GraphDataError, VertexId, INVALID_VERTEX};
#[cfg(all(unix, target_endian = "little"))]
pub use io::MappedCsr;
pub use multigraph::{ClassedEdge, MultiGraph};
pub use tree::RootedForest;
