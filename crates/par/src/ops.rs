//! Deterministic parallel operations built on the pool.
//!
//! [`par_map`] guarantees results *identical to the sequential loop*
//! for every thread count: each result lands in its input-index slot.

use crate::config::Parallelism;
use crate::pool::scope;
use std::sync::Mutex;

/// Maps `f` over `items` on the pool, returning results in input order.
///
/// `f` receives `(index, &item)` so callers can derive per-item state
/// (an RNG stream, a seed) from the position rather than the thread.
/// With a sequential [`Parallelism`] this is a plain in-order loop.
///
/// # Example
///
/// ```
/// use esvm_par::{par_map, Parallelism};
/// let squares = par_map(Parallelism::new(4), &[1u64, 2, 3, 4], |_i, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if par.is_sequential() || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    scope(
        par,
        |_chunk, range| {
            for i in range {
                let result = f(i, &items[i]);
                *slots[i].lock().expect("par_map slot poisoned") = Some(result);
            }
        },
        |pool| pool.dispatch(items.len()),
    );
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("par_map slot poisoned")
                .expect("par_map slot unfilled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1usize, 2, 4, 8] {
            let items: Vec<u64> = (0..123).collect();
            let out = par_map(Parallelism::new(threads), &items, |i, x| x * 2 + i as u64);
            let expected: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 2 + i as u64).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(Parallelism::new(4), &empty, |_i, x| *x).is_empty());
        assert_eq!(par_map(Parallelism::new(4), &[7u32], |_i, x| *x), vec![7]);
    }
}
