//! Golden bits of the greedy elimination (`GreedyElimination`, Section
//! 6.1): every recorded step, the star neighbour lists, the kept vertices,
//! the round count and the reduced graph, folded into one `u64` per input.
//! The chain's golden fingerprints (`tests/precision.rs`) cover the
//! elimination only through the solves it feeds; this pin names it
//! directly, so a rewrite of the elimination's data structures must
//! reproduce the old one's output bit for bit.
//!
//! The inputs cover what the elimination's bookkeeping has to get right:
//! a weighted grid (bounded-fill stars on the boundary), a weighted
//! random graph (dominated vertices), an R-MAT graph (hubs of high
//! degree), a star whose hub loses thousands of leaves, some of them
//! joined in pairs (degree-2 steps onto an existing hub edge), and a
//! barbell (a path that compresses away, and two K5 cliques that only the
//! zero-fill star rule dissolves). Each runs under the default parameters
//! and under degree-2-only ones.

use parsdd_graph::{generators, Edge, Graph};
use parsdd_solver::elimination::{
    greedy_elimination_with_params, EliminationParams, EliminationResult, EliminationStep,
};

/// FNV-1a over the little-endian bytes of one 64-bit word.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &byte| {
        (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every field of an elimination's output as words: steps (tag, vertices,
/// weight bits), star records, kept ids, rounds, and the reduced edges
/// in stored order with their weight bits.
fn words(elim: &EliminationResult) -> Vec<u64> {
    let mut w = vec![elim.steps.len() as u64];
    for step in &elim.steps {
        match *step {
            EliminationStep::Degree1 { v, u, w: c } => {
                w.extend([1, v as u64, u as u64, c.to_bits()])
            }
            EliminationStep::Degree2 { v, a, b, wa, wb } => {
                w.extend([2, v as u64, a as u64, b as u64, wa.to_bits(), wb.to_bits()])
            }
            EliminationStep::Star { v, offset, len } => {
                w.extend([3, v as u64, offset as u64, len as u64])
            }
            EliminationStep::Isolated { v } => w.extend([4, v as u64]),
        }
    }
    w.push(elim.star_data.len() as u64);
    for &(u, c) in &elim.star_data {
        w.extend([u as u64, c.to_bits()]);
    }
    w.push(elim.kept.len() as u64);
    w.extend(elim.kept.iter().map(|&v| v as u64));
    w.push(elim.rounds as u64);
    let reduced = &elim.reduced_graph;
    w.extend([reduced.n() as u64, reduced.m() as u64]);
    for e in reduced.edges() {
        w.extend([e.u as u64, e.v as u64, e.w.to_bits()]);
    }
    w
}

/// A hub (vertex 0) holding `leaves` leaves, every third pair of which is
/// also joined by an edge, with weights varying by leaf.
fn hub_star(leaves: u32) -> Graph {
    let mut edges: Vec<Edge> = (1..=leaves)
        .map(|v| Edge::new(0, v, 1.0 + (v % 7) as f64))
        .collect();
    edges.extend(
        (1..leaves)
            .step_by(2)
            .filter(|v| v % 3 == 0)
            .map(|v| Edge::new(v, v + 1, 0.5 + (v % 5) as f64)),
    );
    Graph::from_edges(leaves as usize + 1, edges)
}

/// The golden inputs, each with its elimination seed.
fn inputs() -> Vec<(&'static str, Graph, u64)> {
    vec![
        (
            "grid",
            generators::grid2d(60, 60, |x, y| 1.0 + ((x * 7 + y * 3) % 5) as f64),
            3,
        ),
        (
            "weighted_random",
            generators::weighted_random_graph(3000, 7500, 0.3, 9.0, 17),
            9,
        ),
        ("rmat", generators::rmat(11, 16_384, 5), 11),
        ("hub_star", hub_star(5000), 13),
        ("barbell", generators::barbell(5, 40, 1.5), 17),
    ]
}

/// One fingerprint per input under `params`.
fn fingerprints(params: &EliminationParams) -> Vec<(&'static str, u64)> {
    inputs()
        .into_iter()
        .map(|(name, g, seed)| {
            let elim = greedy_elimination_with_params(&g, seed, params);
            let fp = words(&elim).into_iter().fold(0xcbf2_9ce4_8422_2325, fnv1a);
            (name, fp)
        })
        .collect()
}

/// The parameters with the star and dominated classes off: degrees 1 and
/// 2 only, the paper's Rake and Compress.
fn degree2_only() -> EliminationParams {
    EliminationParams {
        max_star_degree: 2,
        max_dominated_degree: 2,
        ..Default::default()
    }
}

/// Gated to x86-64, where the constants were captured, like the chain's
/// golden fingerprints.
#[cfg(target_arch = "x86_64")]
#[test]
fn elimination_matches_committed_bits() {
    let expected_default = [
        ("grid", 0x8caf_4326_c338_4a8f),
        ("weighted_random", 0x35af_b0f1_fc76_f75c),
        ("rmat", 0x8bf5_5438_f846_a25b),
        ("hub_star", 0x6821_4548_2677_5e8e),
        ("barbell", 0x5277_652d_cad3_b55d),
    ];
    let expected_degree2 = [
        ("grid", 0xbfc5_9ad4_d12c_931d),
        ("weighted_random", 0xf028_6a17_c747_3c0f),
        ("rmat", 0xae83_b923_d04b_7554),
        ("hub_star", 0x6821_4548_2677_5e8e),
        ("barbell", 0x0eff_30dd_bc1d_b85e),
    ];
    for (params, expected, tag) in [
        (EliminationParams::default(), expected_default, "default"),
        (degree2_only(), expected_degree2, "degree-2 only"),
    ] {
        for ((name, fp), (want_name, want)) in fingerprints(&params).into_iter().zip(expected) {
            assert_eq!(name, want_name);
            assert_eq!(
                fp, want,
                "{tag} {name}: elimination fingerprint moved to {fp:#018x}"
            );
        }
    }
}
