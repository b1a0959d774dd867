//! Small parallel primitives shared by the graph algorithms.
//!
//! These are the classic PRAM building blocks (prefix sums, filtered
//! compaction, counting) expressed with rayon. They keep the higher-level
//! algorithms close to their PRAM pseudocode.

use rayon::prelude::*;

/// Sequential-work cutoff below which parallel dispatch is not worth it.
pub const SEQ_CUTOFF: usize = 1 << 12;

/// Exclusive prefix sum. Returns a vector of length `input.len() + 1`
/// where `out[i]` is the sum of `input[..i]` and `out[len]` is the total.
pub fn exclusive_prefix_sum(input: &[usize]) -> Vec<usize> {
    let n = input.len();
    let mut out = Vec::with_capacity(n + 1);
    if n < SEQ_CUTOFF {
        let mut acc = 0usize;
        out.push(0);
        for &x in input {
            acc += x;
            out.push(acc);
        }
        return out;
    }
    // Block-wise parallel scan. 4 blocks per worker leaves the runtime
    // stealing slack without shrinking blocks below the dispatch cost;
    // block sums are exact integers, so the blocking (unlike an f64
    // reduction tree) has no effect on the result.
    let threads = rayon::current_num_threads().max(1);
    let block = n.div_ceil(threads * 4).max(SEQ_CUTOFF / 4);
    let block_sums: Vec<usize> = input
        .par_chunks(block)
        .map(|chunk| chunk.iter().sum::<usize>())
        .collect();
    let mut block_offsets = Vec::with_capacity(block_sums.len() + 1);
    let mut acc = 0usize;
    block_offsets.push(0);
    for &s in &block_sums {
        acc += s;
        block_offsets.push(acc);
    }
    out.resize(n + 1, 0);
    out[n] = acc;
    let out_ptr = SyncMutPtr(out.as_mut_ptr());
    input.par_chunks(block).enumerate().for_each(|(bi, chunk)| {
        let mut local = block_offsets[bi];
        let base = bi * block;
        for (i, &x) in chunk.iter().enumerate() {
            // SAFETY: each (bi, i) pair maps to a distinct index < n,
            // and index n was written before the parallel loop.
            unsafe { out_ptr.write(base + i, local) };
            local += x;
        }
    });
    out
}

/// Stable counting sort of the items `0..len` by `key(i) < buckets`.
///
/// Calls `place(i, slot)` exactly once for every item, with the slots
/// forming a permutation of `0..len`: bucket `k` fills
/// `offsets[k]..offsets[k + 1]` of the returned offsets (length
/// `buckets + 1`), its items in increasing `i`. That output is unique, so
/// it does not depend on the pool width.
///
/// The items are cut into `B` contiguous blocks, `B` at most the pool
/// width and 1 below [`SEQ_CUTOFF`] items per block. Each block counts its
/// keys into its own histogram row; a column-wise scan over the rows gives
/// every block its first slot in each bucket; the blocks then scatter in
/// parallel, each through its own row of cursors. Work O(len + B·buckets),
/// span O(len / B + buckets).
pub fn counting_sort(
    len: usize,
    buckets: usize,
    key: impl Fn(usize) -> usize + Sync,
    place: impl Fn(usize, usize) + Sync,
) -> Vec<usize> {
    if buckets == 0 {
        assert_eq!(len, 0, "counting_sort: items but no buckets");
        return vec![0];
    }
    let blocks = rayon::current_num_threads().min(len / SEQ_CUTOFF).max(1);
    let block = len.div_ceil(blocks).max(1);
    let block_range = |b: usize| b * block..((b + 1) * block).min(len);
    let mut rows = vec![0usize; blocks * buckets];
    rows.par_chunks_mut(buckets)
        .enumerate()
        .for_each(|(b, row)| {
            for i in block_range(b) {
                row[key(i)] += 1;
            }
        });
    // Column-wise exclusive scan over the blocks: afterwards `rows[b][k]`
    // counts bucket `k`'s items in blocks before `b`, and `totals[k]` the
    // whole bucket.
    let mut totals = vec![0usize; buckets];
    for row in rows.chunks_mut(buckets) {
        totals
            .par_iter_mut()
            .zip(row.par_iter_mut())
            .with_min_len(SEQ_CUTOFF)
            .for_each(|(total, r)| {
                let count = *r;
                *r = *total;
                *total += count;
            });
    }
    let offsets = exclusive_prefix_sum(&totals);
    drop(totals);
    rows.par_chunks_mut(buckets)
        .enumerate()
        .for_each(|(b, row)| {
            for i in block_range(b) {
                let k = key(i);
                place(i, offsets[k] + row[k]);
                row[k] += 1;
            }
        });
    offsets
}

/// [`counting_sort`] collecting `item(i)` into each item's slot: the items
/// in stable key order. `key` must be a pure function of the item (it is
/// called twice per item, and the slots are only distinct if it answers
/// the same both times).
pub(crate) fn counting_sorted<T: Send>(
    len: usize,
    buckets: usize,
    key: impl Fn(usize) -> usize + Sync,
    item: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    let ptr = SyncMutPtr(out.as_mut_ptr());
    // SAFETY: `counting_sort` hands every item a distinct slot below `len`.
    counting_sort(len, buckets, key, |i, slot| unsafe {
        ptr.write(slot, item(i))
    });
    // SAFETY: all `len` slots were written above.
    unsafe { out.set_len(len) };
    out
}

/// A Send/Sync wrapper for a raw mutable pointer used in disjoint parallel
/// writes. Callers must guarantee disjointness.
#[derive(Clone, Copy)]
pub(crate) struct SyncMutPtr<T>(pub *mut T);
unsafe impl<T> Send for SyncMutPtr<T> {}
unsafe impl<T> Sync for SyncMutPtr<T> {}

impl<T> SyncMutPtr<T> {
    /// Writes `val` at `idx`.
    ///
    /// # Safety
    /// The caller must guarantee that `idx` is in bounds and that no other
    /// thread writes or reads the same index concurrently.
    pub(crate) unsafe fn write(&self, idx: usize, val: T) {
        self.0.add(idx).write(val);
    }
}

/// Parallel filter + collect preserving order.
pub fn par_filter<T, F>(items: &[T], keep: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    if items.len() < SEQ_CUTOFF {
        return items.iter().copied().filter(|x| keep(x)).collect();
    }
    items.par_iter().copied().filter(|x| keep(x)).collect()
}

/// Counts how many items satisfy a predicate, in parallel.
pub fn par_count<T, F>(items: &[T], pred: F) -> usize
where
    T: Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    if items.len() < SEQ_CUTOFF {
        return items.iter().filter(|x| pred(x)).count();
    }
    items.par_iter().filter(|x| pred(x)).count()
}

/// Runs `f` on a rayon pool with exactly `threads` worker threads. Used by
/// the scaling experiments (E3/E9) to measure parallel speedup without
/// touching the global pool.
///
/// Since the shim gained a real runtime this *spawns OS threads* (and
/// joins them on return): fine around a whole experiment, wasteful inside
/// a tight loop — build one [`rayon::ThreadPool`] and `install` per
/// iteration instead.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool");
    pool.install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sum_small() {
        let xs = vec![1usize, 2, 3, 4];
        assert_eq!(exclusive_prefix_sum(&xs), vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn prefix_sum_empty() {
        assert_eq!(exclusive_prefix_sum(&[]), vec![0]);
    }

    #[test]
    fn prefix_sum_large_matches_sequential() {
        let xs: Vec<usize> = (0..100_000).map(|i| i % 7).collect();
        let par = exclusive_prefix_sum(&xs);
        let mut acc = 0;
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(par[i], acc);
            acc += x;
        }
        assert_eq!(par[xs.len()], acc);
    }

    #[test]
    fn counting_sort_is_a_stable_sort_at_every_width() {
        let key = |i: usize| (crate::generators::counter_u64(5, i as u64) % 1000) as usize;
        for len in [0, 7, SEQ_CUTOFF - 1, 5 * SEQ_CUTOFF + 3] {
            let mut expect: Vec<usize> = (0..len).collect();
            expect.sort_by_key(|&i| key(i));
            for threads in [1, 2, 4] {
                let (offsets, sorted) = with_threads(threads, || {
                    let sorted = counting_sorted(len, 1000, key, |i| i);
                    (counting_sort(len, 1000, key, |_, _| {}), sorted)
                });
                assert_eq!(sorted, expect, "len {len} at {threads} threads");
                assert_eq!(offsets.len(), 1001);
                for k in 0..1000 {
                    assert!(sorted[offsets[k]..offsets[k + 1]]
                        .iter()
                        .all(|&i| key(i) == k));
                }
            }
        }
        assert_eq!(counting_sort(0, 0, |_| 0, |_, _| {}), vec![0]);
    }

    #[test]
    fn filter_and_count() {
        let xs: Vec<u32> = (0..10_000).collect();
        let evens = par_filter(&xs, |x| x % 2 == 0);
        assert_eq!(evens.len(), 5000);
        assert_eq!(par_count(&xs, |x| *x < 100), 100);
        // Order preserved.
        assert!(evens.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn with_threads_runs_closure() {
        let r = with_threads(2, rayon::current_num_threads);
        assert_eq!(r, 2);
    }
}
