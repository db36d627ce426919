//! Deterministic parallel fan-out for Monte-Carlo trials.
//!
//! [`parallel_map`] runs a function over an index range on all available
//! cores, returning results **in index order** — combined with
//! [`SeedSequence`](tagwatch_sim::SeedSequence)-derived per-trial seeds,
//! an experiment produces bit-identical output whether it runs on 1
//! thread or 64.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// Number of worker threads used by [`parallel_map`]: the machine's
/// available parallelism, capped at 32 (Monte-Carlo trials are compute
/// bound; oversubscription buys nothing).
#[must_use]
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(32)
}

/// Maps `f` over `0..count` in parallel, returning results in index
/// order.
///
/// `f` must be `Sync` (shared across workers) and is called exactly once
/// per index. Panics in `f` propagate to the caller after all workers
/// stop.
pub fn parallel_map<R, F>(count: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let threads = worker_threads().min(count.max(1) as usize);
    if threads <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }

    let next = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(u64, R)>();
    // std::thread::scope re-raises any worker panic when the scope
    // closes, so a panicking `f` still propagates to the caller.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                // Send failure means the receiver is gone (caller
                // panicked); just stop.
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
        for (i, r) in rx {
            slots[i as usize] = Some(r);
        }
        #[expect(
            clippy::expect_used,
            reason = "the scatter loop sends exactly one result per index in 0..count, so every slot is filled before the channel closes"
        )]
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    })
}

/// Counts how many of `0..count` indices satisfy `pred`, in parallel.
pub fn parallel_count<F>(count: u64, pred: F) -> u64
where
    F: Fn(u64) -> bool + Sync,
{
    parallel_map(count, pred).into_iter().filter(|&b| b).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        let out = parallel_map(1000, |i| i * 2);
        assert_eq!(out.len(), 1000);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u64 * 2);
        }
    }

    #[test]
    fn zero_count_is_empty() {
        let out: Vec<u64> = parallel_map(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(parallel_map(1, |i| i + 9), vec![9]);
    }

    #[test]
    fn matches_sequential_execution() {
        let seq: Vec<u64> = (0..500).map(|i| i * i % 97).collect();
        let par = parallel_map(500, |i| i * i % 97);
        assert_eq!(seq, par);
    }

    #[test]
    fn count_counts() {
        assert_eq!(parallel_count(100, |i| i % 4 == 0), 25);
        assert_eq!(parallel_count(0, |_| true), 0);
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn heavy_closure_is_shared_not_cloned() {
        // A closure capturing a large read-only table by reference.
        let table: Vec<u64> = (0..10_000).collect();
        let out = parallel_map(64, |i| table[i as usize * 100]);
        assert_eq!(out[1], 100);
    }
}
