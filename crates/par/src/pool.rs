//! The generation-gated scoped pool.
//!
//! One [`scope`] call spawns `threads − 1` workers inside a
//! [`std::thread::scope`] and hands the caller a [`Conductor`]. Each
//! [`Conductor::dispatch`] is one *generation*: the item range is cut
//! into chunks ([`Parallelism::chunking`]), workers (and the conductor
//! thread itself) claim chunks from a shared atomic counter and run the
//! worker body on each, and `dispatch` returns only when every chunk of
//! the generation has been executed and every worker has quiesced.
//!
//! That last point is the safety hinge: because the conductor only
//! regains control while *all* workers are parked between generations,
//! it may freely mutate state the worker body reads without data races,
//! and a chunk claim can never leak across generations.
//!
//! A panic in the worker body poisons the gate instead of deadlocking
//! it: the dying worker flags the state and wakes everyone, the
//! conductor re-raises, and the scope join propagates the original
//! panic.

use crate::config::Parallelism;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

#[derive(Debug, Default)]
struct GateState {
    /// Monotone generation counter; workers wait for it to advance.
    generation: u64,
    /// Items in the current generation.
    n_items: usize,
    /// Chunk size of the current generation.
    chunk_size: usize,
    /// Chunk count of the current generation.
    n_chunks: usize,
    /// Workers that have finished claiming for the current generation.
    workers_done: usize,
    /// Tells workers to exit their wait loop.
    shutdown: bool,
    /// Set by a panicking worker so the conductor can re-raise instead
    /// of waiting forever.
    poisoned: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<GateState>,
    /// Workers wait here for a new generation (or shutdown).
    start: Condvar,
    /// The conductor waits here for `workers_done == n_workers`.
    done: Condvar,
    /// Next unclaimed chunk of the current generation.
    next_chunk: AtomicUsize,
    n_workers: usize,
}

impl Shared {
    fn new(n_workers: usize) -> Self {
        Self {
            state: Mutex::new(GateState {
                // Workers start quiescent, as if a generation just ended.
                workers_done: n_workers,
                ..GateState::default()
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            next_chunk: AtomicUsize::new(0),
            n_workers,
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        // A worker that panicked *while holding the lock* cannot exist
        // (the pool never panics under the lock), but the body may have
        // poisoned some unrelated mutex; recover defensively anyway.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// On unwind, poisons the gate and wakes both sides so neither the
/// conductor nor the surviving workers deadlock on a dead peer.
struct PoisonGuard<'s> {
    shared: &'s Shared,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.shared.lock();
            st.poisoned = true;
            st.shutdown = true;
            drop(st);
            self.shared.start.notify_all();
            self.shared.done.notify_all();
        }
    }
}

/// On leaving the scope (normally or by unwind), tells workers to exit
/// so the thread scope can join them.
struct ShutdownGuard<'s> {
    shared: &'s Shared,
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.shutdown = true;
        drop(st);
        self.shared.start.notify_all();
    }
}

/// Claims and executes chunks of the current generation until the
/// counter is exhausted. Chunk claims are dynamic; results must not
/// (and, for every caller in this workspace, do not) depend on which
/// participant executed which chunk.
fn claim_chunks<W>(shared: &Shared, body: &W, n_chunks: usize, chunk_size: usize, n_items: usize)
where
    W: Fn(usize, Range<usize>) + Sync,
{
    loop {
        let chunk = shared.next_chunk.fetch_add(1, Ordering::Relaxed);
        if chunk >= n_chunks {
            return;
        }
        let lo = chunk * chunk_size;
        let hi = ((chunk + 1) * chunk_size).min(n_items);
        body(chunk, lo..hi);
    }
}

fn worker_loop<W>(shared: &Shared, body: &W)
where
    W: Fn(usize, Range<usize>) + Sync,
{
    let _poison = PoisonGuard { shared };
    let mut seen_generation = 0u64;
    loop {
        let (n_items, chunk_size, n_chunks);
        {
            let mut st = shared.lock();
            while !st.shutdown && st.generation == seen_generation {
                st = match shared.start.wait(st) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            if st.shutdown {
                return;
            }
            seen_generation = st.generation;
            n_items = st.n_items;
            chunk_size = st.chunk_size;
            n_chunks = st.n_chunks;
        }
        claim_chunks(shared, body, n_chunks, chunk_size, n_items);
        let mut st = shared.lock();
        st.workers_done += 1;
        if st.workers_done == shared.n_workers {
            drop(st);
            shared.done.notify_all();
        }
    }
}

/// Handle for dispatching generations onto the pool; see [`scope`].
#[derive(Debug)]
pub struct Conductor<'s, W> {
    shared: &'s Shared,
    body: &'s W,
    par: Parallelism,
}

impl<W> Conductor<'_, W>
where
    W: Fn(usize, Range<usize>) + Sync,
{
    /// Runs one generation over `n_items` items and blocks until every
    /// chunk has executed **and every worker has quiesced** — on
    /// return, data the worker body reads may be mutated freely until
    /// the next `dispatch`.
    ///
    /// The worker body receives `(chunk_index, item_range)` with ranges
    /// tiling `0..n_items` exactly once, per [`Parallelism::chunking`].
    /// The conductor thread participates in chunk claiming, so
    /// `threads == 1` degenerates to an in-order sequential loop with
    /// no synchronization beyond one uncontended mutex lock.
    ///
    /// # Panics
    ///
    /// Re-raises (as a conductor panic) if a worker panicked during the
    /// generation.
    pub fn dispatch(&self, n_items: usize) {
        let (chunk_size, n_chunks) = self.par.chunking(n_items);
        if n_chunks == 0 {
            return;
        }
        let n_workers = self.shared.n_workers;
        {
            let mut st = self.shared.lock();
            debug_assert_eq!(st.workers_done, n_workers, "dispatch while workers active");
            st.generation += 1;
            st.n_items = n_items;
            st.chunk_size = chunk_size;
            st.n_chunks = n_chunks;
            st.workers_done = 0;
            self.shared.next_chunk.store(0, Ordering::Relaxed);
        }
        self.shared.start.notify_all();
        // The conductor claims chunks too: on a loaded machine this
        // guarantees progress even if every worker is descheduled.
        claim_chunks(self.shared, self.body, n_chunks, chunk_size, n_items);
        let mut st = self.shared.lock();
        while st.workers_done < n_workers && !st.poisoned {
            st = match self.shared.done.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        if st.poisoned {
            st.shutdown = true;
            drop(st);
            self.shared.start.notify_all();
            panic!("esvm-par: a worker thread panicked during dispatch");
        }
    }
}

/// Runs `main_body` with a pool of `par.threads() − 1` workers all
/// executing `worker_body` on the chunks of each dispatched generation.
///
/// The worker body is fixed for the lifetime of the scope — this is
/// what keeps the pool expressible in safe Rust. Callers that need
/// per-generation variability route it *as data* through shared state
/// the body reads, written by the conductor between dispatches, when
/// [`Conductor::dispatch`]'s quiescence guarantee makes that race-free.
///
/// With `threads == 1` no threads are spawned and `main_body` runs with
/// a conductor whose dispatches execute chunks inline, in order.
///
/// # Example
///
/// ```
/// use esvm_par::{scope, Parallelism};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
/// scope(
///     Parallelism::new(4),
///     |_chunk, range| {
///         for i in range {
///             hits[i].fetch_add(1, Ordering::Relaxed);
///         }
///     },
///     |pool| {
///         pool.dispatch(100);
///         pool.dispatch(100);
///     },
/// );
/// assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));
/// ```
pub fn scope<W, M, R>(par: Parallelism, worker_body: W, main_body: M) -> R
where
    W: Fn(usize, Range<usize>) + Sync,
    M: FnOnce(&Conductor<'_, W>) -> R,
{
    let n_workers = par.threads() - 1;
    let shared = Shared::new(n_workers);
    let conductor = Conductor {
        shared: &shared,
        body: &worker_body,
        par,
    };
    if n_workers == 0 {
        return main_body(&conductor);
    }
    std::thread::scope(|s| {
        for _ in 0..n_workers {
            let shared = &shared;
            let body = &worker_body;
            s.spawn(move || worker_loop(shared, body));
        }
        let _shutdown = ShutdownGuard { shared: &shared };
        main_body(&conductor)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_chunk_range_tiles_the_items_exactly_once() {
        for threads in [1usize, 2, 4] {
            let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
            scope(
                Parallelism::new(threads),
                |_c, range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                },
                |pool| pool.dispatch(hits.len()),
            );
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn generations_reuse_the_same_workers() {
        let counter = AtomicU64::new(0);
        let workers = Mutex::new(std::collections::HashSet::new());
        scope(
            Parallelism::new(3),
            |_c, range| {
                counter.fetch_add(range.len() as u64, Ordering::Relaxed);
                workers.lock().unwrap().insert(std::thread::current().id());
            },
            |pool| {
                for n in [0usize, 1, 5, 64] {
                    pool.dispatch(n);
                }
            },
        );
        assert_eq!(counter.load(Ordering::Relaxed), 70);
        // Every generation ran on the conductor or one of the two
        // workers spawned for the scope, never on a fresh thread.
        assert!(workers.into_inner().unwrap().len() <= 3);
    }

    #[test]
    fn sequential_scope_runs_inline_and_in_order() {
        let seen = Mutex::new(Vec::new());
        scope(
            Parallelism::sequential(),
            |chunk, range| seen.lock().unwrap().push((chunk, range)),
            |pool| pool.dispatch(10),
        );
        let seen = seen.into_inner().unwrap();
        // Chunks arrive in ascending order and tile 0..10.
        assert!(seen.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        assert_eq!(seen.first().unwrap().1.start, 0);
        assert_eq!(seen.last().unwrap().1.end, 10);
    }

    #[test]
    fn scope_returns_the_main_body_result() {
        let r = scope(Parallelism::new(2), |_c, _r| {}, |_pool| 42usize);
        assert_eq!(r, 42);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            scope(
                Parallelism::new(4),
                |_c, range| {
                    if range.contains(&13) {
                        panic!("boom");
                    }
                },
                |pool| {
                    // Several generations: whichever thread hits item 13
                    // poisons the gate; dispatch must re-raise rather
                    // than hang.
                    for _ in 0..8 {
                        pool.dispatch(100);
                    }
                },
            );
        });
        assert!(result.is_err());
    }
}
