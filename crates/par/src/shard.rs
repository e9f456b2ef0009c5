//! Contiguous shard routing for persistent-ownership parallel paths.
//!
//! The sharded paths (local search's relocate sweep) partition the
//! server-id range `[0, n)` into `k` contiguous, ascending shards: each
//! worker owns a shard of `ServerLedger`s for the whole run and only
//! the owning shard's results ever touch those ledgers. Contiguity is what makes
//! the deterministic reduction trivial — merging per-shard argmins in
//! ascending shard order *is* the sequential left-to-right fold,
//! including the lowest-id tie-break (the paper's Eq. 7 rule).
//!
//! The partition rule mirrors the pool's chunking: with `n = q·k + r`,
//! the first `r` shards hold `q + 1` ids, the rest hold `q`. Shard
//! sizes therefore differ by at most one, and every id belongs to
//! exactly one shard ([`ShardRouting::shard_of`] is the inverse of
//! [`ShardRouting::range`] — property-tested below).

use std::ops::Range;

/// A contiguous partition of the id range `[0, n_items)` into
/// `n_shards` ascending shards.
///
/// ```
/// use esvm_par::ShardRouting;
/// let routing = ShardRouting::new(10, 4); // sizes 3, 3, 2, 2
/// assert_eq!(routing.range(0), 0..3);
/// assert_eq!(routing.range(2), 6..8);
/// assert_eq!(routing.shard_of(7), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouting {
    n_items: usize,
    n_shards: usize,
    /// Base shard size `q = n_items / n_shards`.
    base: usize,
    /// Number of leading shards holding `q + 1` items.
    extra: usize,
}

impl ShardRouting {
    /// Partitions `[0, n_items)` into `n_shards` shards. The shard
    /// count is clamped to `[1, max(n_items, 1)]` so no shard is ever
    /// empty (except the single shard of an empty range).
    pub fn new(n_items: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.clamp(1, n_items.max(1));
        Self {
            n_items,
            n_shards,
            base: n_items / n_shards,
            extra: n_items % n_shards,
        }
    }

    /// Number of shards (≥ 1).
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Total number of items partitioned.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The half-open id range owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s >= n_shards()`.
    pub fn range(&self, s: usize) -> Range<usize> {
        assert!(s < self.n_shards, "shard {s} out of {}", self.n_shards);
        // The first `extra` shards hold `base + 1` items each.
        let start = s * self.base + s.min(self.extra);
        let len = self.base + usize::from(s < self.extra);
        start..start + len
    }

    /// The shard owning item `i` — the inverse of [`ShardRouting::range`].
    ///
    /// # Panics
    ///
    /// Panics when `i >= n_items()`.
    pub fn shard_of(&self, i: usize) -> usize {
        assert!(i < self.n_items, "item {i} out of {}", self.n_items);
        let wide = self.extra * (self.base + 1);
        if i < wide {
            i / (self.base + 1)
        } else {
            self.extra + (i - wide) / self.base
        }
    }

    /// Iterates `(shard, range)` pairs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        (0..self.n_shards).map(move |s| (s, self.range(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shard_counts_are_clamped() {
        assert_eq!(ShardRouting::new(10, 0).n_shards(), 1);
        assert_eq!(ShardRouting::new(3, 8).n_shards(), 3);
        assert_eq!(ShardRouting::new(0, 4).n_shards(), 1);
        assert_eq!(ShardRouting::new(0, 4).range(0), 0..0);
    }

    #[test]
    fn even_and_uneven_splits() {
        let even = ShardRouting::new(8, 4);
        assert_eq!(
            even.iter().map(|(_, r)| r).collect::<Vec<_>>(),
            vec![0..2, 2..4, 4..6, 6..8]
        );
        let uneven = ShardRouting::new(10, 3); // 4, 3, 3
        assert_eq!(
            uneven.iter().map(|(_, r)| r).collect::<Vec<_>>(),
            vec![0..4, 4..7, 7..10]
        );
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        for n in [1usize, 2, 7, 100, 1001] {
            for k in [1usize, 2, 3, 8, 64] {
                let routing = ShardRouting::new(n, k);
                let sizes: Vec<usize> =
                    routing.iter().map(|(_, r)| r.len()).collect();
                let (min, max) = (
                    *sizes.iter().min().unwrap(),
                    *sizes.iter().max().unwrap(),
                );
                assert!(max - min <= 1, "n={n} k={k} sizes={sizes:?}");
                assert!(min >= 1, "n={n} k={k}: empty shard");
            }
        }
    }

    proptest! {
        /// The ISSUE-mandated partition property: for arbitrary item
        /// and shard counts, every item is owned by exactly one shard,
        /// ranges are contiguous and ascending, and `shard_of` inverts
        /// `range`.
        #[test]
        fn routing_is_a_partition(n in 0usize..4096, k in 0usize..128) {
            let routing = ShardRouting::new(n, k);
            let mut next = 0usize;
            for (s, range) in routing.iter() {
                // Contiguous and ascending: each range starts where
                // the previous one ended.
                prop_assert_eq!(range.start, next);
                next = range.end;
                for i in range {
                    prop_assert_eq!(routing.shard_of(i), s);
                }
            }
            // Covers the whole id range exactly.
            prop_assert_eq!(next, n);
        }
    }
}
