//! # parsdd-decomp
//!
//! Parallel low-diameter graph decomposition — Section 4 of *Near
//! Linear-Work Parallel SDD Solvers, Low-Diameter Decomposition, and
//! Low-Stretch Subgraphs* (SPAA 2011).
//!
//! The crate implements the two algorithms of that section:
//!
//! * [`split::split_graph`] — Algorithm 4.1 (`splitGraph`): decomposes an
//!   unweighted graph into components of strong (hop) radius at most `ρ`
//!   by growing balls from progressively larger random samples of centers,
//!   each delayed by a random "jitter", and assigning every vertex to the
//!   first ball that reaches it.
//! * [`partition::partition`] — Algorithm 4.2 (`Partition`): wraps
//!   `splitGraph` for inputs whose edge set is divided into `k` classes,
//!   re-running the decomposition until every class has few crossing edges
//!   (Corollary 4.8 / Theorem 4.1(3)).
//!
//! [`stats`] computes the quantities Theorem 4.1 bounds (component radius,
//! per-class cut fractions, work/depth proxies); the experiments E1,
//! E2 and E3 are built on it.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod params;
pub mod partition;
pub mod split;
pub mod stats;

pub use params::{CutValidation, PartitionParams, SplitParams};
pub use partition::{partition, PartitionResult};
pub use split::{split_graph, SplitResult};
pub use stats::DecompositionStats;
