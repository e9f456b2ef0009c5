//! Thread-count configuration shared by every parallel entry point.

/// Average number of chunks each thread should see per generation.
/// More chunks than threads lets the dynamic claiming absorb load
/// imbalance; the constant is small so tiny inputs stay in one chunk.
pub(crate) const CHUNKS_PER_THREAD: usize = 4;

/// Thread count for a parallel entry point.
///
/// The default — [`Parallelism::sequential`], one thread — makes every
/// parallel code path *be* the sequential one (no pool, no locks, plain
/// in-order loops). Results are identical for every thread count by
/// construction; only wall-clock changes.
///
/// # Example
///
/// ```
/// use esvm_par::Parallelism;
/// assert_eq!(Parallelism::default(), Parallelism::sequential());
/// assert_eq!(Parallelism::new(4).threads(), 4);
/// assert_eq!(Parallelism::new(0).threads(), 1); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// One thread: the sequential code path.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// `threads` worker threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Configured thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this is the sequential configuration.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// The chunking `(chunk_size, n_chunks)` this configuration uses
    /// for `n` items: about [`CHUNKS_PER_THREAD`] chunks per thread so
    /// dynamic claiming can absorb imbalance, never empty chunks.
    ///
    /// Chunking is a pure function of `(threads, n)` — callers size
    /// their per-chunk result slots with it before dispatching.
    pub fn chunking(&self, n: usize) -> (usize, usize) {
        if n == 0 {
            return (1, 0);
        }
        let target = self.threads * CHUNKS_PER_THREAD;
        let chunk_size = ((n + target - 1) / target).max(1);
        (chunk_size, (n + chunk_size - 1) / chunk_size)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        assert!(Parallelism::default().is_sequential());
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert!(!Parallelism::new(2).is_sequential());
    }

    #[test]
    fn chunking_covers_every_item_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let par = Parallelism::new(threads);
            for n in [0usize, 1, 2, 7, 16, 100, 1001] {
                let (size, count) = par.chunking(n);
                assert!(size >= 1);
                // Chunks tile [0, n) exactly.
                assert_eq!(count, if n == 0 { 0 } else { (n + size - 1) / size });
                let covered: usize = (0..count)
                    .map(|c| ((c + 1) * size).min(n) - (c * size).min(n))
                    .sum();
                assert_eq!(covered, n, "threads={threads} n={n}");
                // Never more chunks than items.
                assert!(count <= n.max(1));
            }
        }
    }

    #[test]
    fn chunking_scales_with_threads() {
        let (_, sequential_chunks) = Parallelism::new(1).chunking(1000);
        let (_, parallel_chunks) = Parallelism::new(8).chunking(1000);
        assert!(parallel_chunks > sequential_chunks);
        assert!(parallel_chunks <= 8 * CHUNKS_PER_THREAD);
    }
}
