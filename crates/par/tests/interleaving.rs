//! Interleaving stress tests for the pool's gate primitives.
//!
//! The vendored-deps philosophy rules out `loom`, so these tests take
//! the classic substitute approach: hammer the generation gate with
//! many threads × many generations × awkward sizes and assert the
//! invariants that a bad interleaving would break — exactly-once chunk
//! execution, full quiescence between generations, and panic
//! propagation instead of deadlock.

use esvm_par::{scope, Parallelism};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Every item of every generation is executed exactly once, across a
/// stress grid of thread counts and sizes chosen to produce ragged
/// final chunks and near-empty generations.
#[test]
fn exactly_once_execution_across_generations() {
    for threads in [1usize, 2, 3, 4, 8] {
        let sizes = [1usize, 2, 5, 16, 17, 100, 255, 1000];
        let hits: Vec<Vec<AtomicU64>> = sizes
            .iter()
            .map(|&n| (0..n).map(|_| AtomicU64::new(0)).collect())
            .collect();
        let generation = AtomicUsize::new(0);
        scope(
            Parallelism::new(threads),
            |_chunk, range| {
                let g = generation.load(Ordering::Relaxed);
                for i in range {
                    hits[g][i].fetch_add(1, Ordering::Relaxed);
                }
            },
            |pool| {
                for (g, &n) in sizes.iter().enumerate() {
                    // dispatch() has quiesced all workers before it
                    // returns, so this non-atomic-looking protocol —
                    // bump the generation marker, then dispatch — is
                    // race-free.
                    generation.store(g, Ordering::Relaxed);
                    pool.dispatch(n);
                }
            },
        );
        for (g, row) in hits.iter().enumerate() {
            for (i, h) in row.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "threads={threads} generation={g} item={i}"
                );
            }
        }
    }
}

/// Workers are fully quiescent when `dispatch` returns: the conductor
/// may mutate unsynchronized-looking shared state (here a `Mutex` we
/// only lock on the conductor between generations — the worker reads
/// a snapshot copied before dispatch) without torn reads.
#[test]
fn dispatch_is_a_full_barrier() {
    // The job value changes every generation; if any worker were still
    // executing a stale generation's chunks after dispatch returned,
    // it would record a value from the wrong generation.
    let job = Mutex::new(0u64);
    let bad = AtomicU64::new(0);
    scope(
        Parallelism::new(4),
        |_chunk, range| {
            let expected = *job.lock().unwrap();
            for _ in range {
                if *job.lock().unwrap() != expected {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
            }
        },
        |pool| {
            for g in 0..200u64 {
                *job.lock().unwrap() = g;
                pool.dispatch(97);
            }
        },
    );
    assert_eq!(bad.load(Ordering::Relaxed), 0);
}

/// Many consecutive empty dispatches neither wedge the gate nor count
/// as generations of work.
#[test]
fn empty_dispatches_are_noops() {
    let ran = AtomicU64::new(0);
    let chunks = AtomicU64::new(0);
    scope(
        Parallelism::new(4),
        |_chunk, range| {
            ran.fetch_add(range.len() as u64, Ordering::Relaxed);
            chunks.fetch_add(1, Ordering::Relaxed);
        },
        |pool| {
            for _ in 0..1000 {
                pool.dispatch(0);
            }
            pool.dispatch(10);
        },
    );
    assert_eq!(ran.load(Ordering::Relaxed), 10);
    let (_, expected_chunks) = Parallelism::new(4).chunking(10);
    assert_eq!(chunks.load(Ordering::Relaxed), expected_chunks as u64);
}

/// Every generation runs exactly the chunks its chunking promises,
/// each with the chunk index and item range that chunking assigns it.
#[test]
fn stats_account_for_all_chunks() {
    let par = Parallelism::new(4);
    let chunks = Mutex::new(Vec::new());
    scope(
        par,
        |chunk, range| chunks.lock().unwrap().push((chunk, range)),
        |pool| {
            for n in [10usize, 1000, 3, 64, 999] {
                pool.dispatch(n);
                let (size, count) = par.chunking(n);
                assert!(size * count >= n);
                let mut seen = std::mem::take(&mut *chunks.lock().unwrap());
                seen.sort_by_key(|(chunk, _)| *chunk);
                assert_eq!(seen.len(), count, "n={n}");
                for (i, (chunk, range)) in seen.into_iter().enumerate() {
                    assert_eq!(chunk, i, "n={n}");
                    assert_eq!(range, i * size..((i + 1) * size).min(n), "n={n}");
                }
            }
        },
    );
}

/// A worker panic mid-generation surfaces as a conductor panic and the
/// scope still joins — repeatedly, to exercise different interleavings
/// of the poison flag with the wait loops.
#[test]
fn worker_panics_never_deadlock() {
    for round in 0..20u64 {
        let result = std::panic::catch_unwind(|| {
            scope(
                Parallelism::new(4),
                move |_chunk, range| {
                    if range.contains(&(round as usize % 50)) {
                        panic!("injected failure");
                    }
                },
                |pool| pool.dispatch(50),
            );
        });
        assert!(result.is_err(), "round {round} should have panicked");
    }
}

/// A panic in the *main body* (not a worker) still shuts the pool down
/// so the scope join does not hang on parked workers.
#[test]
fn main_body_panic_releases_workers() {
    let result = std::panic::catch_unwind(|| {
        scope(
            Parallelism::new(4),
            |_chunk, _range| {},
            |pool| {
                pool.dispatch(100);
                panic!("main body failure");
            },
        );
    });
    assert!(result.is_err());
}
