//! Union–find (disjoint set union) structures.
//!
//! Two flavours are provided:
//!
//! * [`UnionFind`] — the standard sequential structure with union by rank
//!   and path halving, used by Kruskal's MST and the AKPW contraction
//!   bookkeeping.
//! * [`ConcurrentUnionFind`] — a lock-free structure supporting concurrent
//!   `unite`/`find` via CAS on parent pointers (Anderson–Woll style "union
//!   by index" with path compression), used by the parallel
//!   connected-components routine.

use std::sync::atomic::{AtomicU32, Ordering};

/// Sequential union–find with union by rank and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Finds the representative of `x`, with path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Unites the sets containing `a` and `b`. Returns `true` if they were
    /// previously different sets.
    pub fn unite(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// Returns whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Produces a dense relabelling: a vector mapping each element to a
    /// component index in `0..component_count()`, numbered in order of
    /// first appearance, plus the number of components.
    pub fn dense_labels(&mut self) -> (Vec<u32>, usize) {
        let n = self.len();
        let mut labels = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut out = vec![0u32; n];
        for x in 0..n as u32 {
            let r = self.find(x) as usize;
            if labels[r] == u32::MAX {
                labels[r] = next;
                next += 1;
            }
            out[x as usize] = labels[r];
        }
        (out, next as usize)
    }
}

/// Lock-free concurrent union–find.
///
/// `unite` links the root with the larger id under the root with the
/// smaller id using CAS, retrying on contention; `find` performs wait-free
/// path compression with relaxed writes (any interleaving still yields a
/// pointer closer to the root).
#[derive(Debug)]
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicU32>,
}

impl ConcurrentUnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        ConcurrentUnionFind {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the current root of `x` (with path compression).
    pub fn find(&self, x: u32) -> u32 {
        let mut cur = x;
        loop {
            let p = self.parent[cur as usize].load(Ordering::Acquire);
            if p == cur {
                break;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp != p {
                // Path halving; benign race.
                let _ = self.parent[cur as usize].compare_exchange(
                    p,
                    gp,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
            cur = p;
        }
        cur
    }

    /// Unites the sets containing `a` and `b`; returns `true` if a link was
    /// made by this call.
    pub fn unite(&self, a: u32, b: u32) -> bool {
        let mut x = a;
        let mut y = b;
        loop {
            x = self.find(x);
            y = self.find(y);
            if x == y {
                return false;
            }
            // Link larger root under smaller root for determinism-free
            // correctness (the final forest shape may vary, the partition
            // does not).
            let (hi, lo) = if x < y { (y, x) } else { (x, y) };
            match self.parent[hi as usize].compare_exchange(
                hi,
                lo,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(_) => continue,
            }
        }
    }

    /// Returns whether `a` and `b` are currently in the same set. Only
    /// meaningful once all concurrent `unite` calls have finished.
    pub fn same(&self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Converts into dense component labels (sequential post-pass).
    pub fn dense_labels(&self) -> (Vec<u32>, usize) {
        let n = self.len();
        let mut map = vec![u32::MAX; n];
        let mut out = vec![0u32; n];
        let mut next = 0u32;
        for x in 0..n as u32 {
            let r = self.find(x) as usize;
            if map[r] == u32::MAX {
                map[r] = next;
                next += 1;
            }
            out[x as usize] = map[r];
        }
        (out, next as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    /// Unites every pair concurrently and returns the dense labels.
    fn unite_pairs_concurrently(n: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, usize) {
        let uf = ConcurrentUnionFind::new(n);
        pairs.par_iter().for_each(|&(a, b)| {
            uf.unite(a, b);
        });
        uf.dense_labels()
    }

    #[test]
    fn sequential_basic() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.unite(0, 1));
        assert!(uf.unite(1, 2));
        assert!(!uf.unite(0, 2));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
        let (labels, k) = uf.dense_labels();
        assert_eq!(k, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn concurrent_matches_sequential() {
        let n = 2000usize;
        // Chain unions in random-ish order.
        let pairs: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let (labels, k) = unite_pairs_concurrently(n, &pairs);
        assert_eq!(k, 1);
        assert!(labels.iter().all(|&l| l == labels[0]));
    }

    #[test]
    fn concurrent_many_components() {
        let n = 10_000usize;
        // Pair up evens with odds within blocks of 2.
        let pairs: Vec<(u32, u32)> = (0..n as u32 / 2).map(|i| (2 * i, 2 * i + 1)).collect();
        let (_, k) = unite_pairs_concurrently(n, &pairs);
        assert_eq!(k, n / 2);
    }

    #[test]
    fn concurrent_stress_random_unions() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let n = 5000usize;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let pairs: Vec<(u32, u32)> = (0..8000)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .filter(|(a, b)| a != b)
            .collect();
        // Compare parallel result against sequential result.
        let (par_labels, pk) = unite_pairs_concurrently(n, &pairs);
        let mut uf = UnionFind::new(n);
        for &(a, b) in &pairs {
            uf.unite(a, b);
        }
        let (seq_labels, sk) = uf.dense_labels();
        assert_eq!(pk, sk);
        // Partitions must agree: same label in one iff same label in other.
        for i in 0..n {
            for &j in &[0usize, i / 2, n - 1] {
                assert_eq!(
                    par_labels[i] == par_labels[j],
                    seq_labels[i] == seq_labels[j],
                    "partition mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn empty_structures() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        let cuf = ConcurrentUnionFind::new(0);
        assert!(cuf.is_empty());
    }
}
