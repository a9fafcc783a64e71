//! Deterministic parallel execution primitives.
//!
//! The workspace-wide contract is that every batch result is
//! **bit-identical for any thread count**. Two rules make that hold:
//!
//! 1. anything random is derived per *work item* from the base seed
//!    with [`mix`] (SplitMix64), never from a shared RNG stream;
//! 2. per-item outputs are materialized in item order and every
//!    floating-point reduction runs sequentially over that order —
//!    threads only compute, they never reduce.
//!
//! These helpers live in `nanoleak-core` (rather than the engine) so
//! the estimator's own batch entry points share the same threading
//! convention; `nanoleak-engine` re-exports them unchanged.

/// SplitMix64: decorrelates per-item seeds from a base seed.
///
/// The same mixer `nanoleak-variation` uses for Monte-Carlo sample
/// streams, so engine sweeps and MC runs share one seeding discipline.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Resolves a requested worker count: `0` means "all cores" (capped
/// at 16); anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
    } else {
        requested
    }
}

/// Workers [`par_map_with`] (and so [`par_map`]) spawns for `n` items
/// on `threads` requested workers: the request resolved by
/// [`resolve_threads`] and capped at `n`, then one worker per
/// contiguous chunk of `ceil(n / threads)` items — which can leave
/// fewer workers than requested (9 items on 4 threads run 3 chunks
/// of 3). Never below 1. Telemetry that reports a worker count calls
/// this, so it cannot drift from what actually ran.
pub fn worker_count(n: usize, threads: usize) -> usize {
    let n = n.max(1);
    n.div_ceil(n.div_ceil(resolve_threads(threads).min(n)))
}

/// Maps `f` over `0..n` on up to `threads` workers, returning results
/// in index order.
///
/// Work is split into contiguous index chunks, one per worker; chunk
/// outputs are concatenated in chunk order, so the returned vector is
/// identical to `(0..n).map(f).collect()` regardless of `threads`.
///
/// # Panics
/// Propagates panics from `f`.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(n, threads, || (), |(), i| f(i))
}

/// [`par_map`] with per-worker mutable state: each worker calls `init`
/// once and threads the resulting scratch through every item of its
/// contiguous chunk.
///
/// This is the hot-loop shape of the compiled estimator: `init`
/// builds an `EstimateScratch` (the only allocations), and `f` runs
/// allocation-free per item. Results are still materialized in item
/// order, so the output is identical to
/// `(0..n).map(|i| f(&mut init(), i)).collect()` for any `threads`
/// as long as `f` is deterministic given a warmed scratch (which the
/// estimator guarantees — scratch contents never leak across items).
///
/// # Panics
/// Propagates panics from `init` and `f`.
pub fn par_map_with<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = worker_count(n, threads);
    if workers <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let (init, f) = (&init, &f);
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(n);
                scope.spawn(move || {
                    let mut scratch = init();
                    (start..end).map(|i| f(&mut scratch, i)).collect::<Vec<T>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().expect("estimator worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_streams_do_not_collide_trivially() {
        let a: Vec<u64> = (0..64).map(|i| mix(2005, i)).collect();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "no duplicates in the first 64 streams");
        assert_ne!(mix(2005, 0), mix(2006, 0), "seed changes the stream");
    }

    #[test]
    fn par_map_preserves_index_order_for_any_thread_count() {
        let expect: Vec<usize> = (0..103).map(|i| i * i).collect();
        for threads in [1, 2, 3, 7, 16, 64] {
            assert_eq!(par_map(103, threads, |i| i * i), expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        assert_eq!(par_map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn par_map_with_initializes_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 3, 8] {
            let inits = AtomicUsize::new(0);
            let out = par_map_with(
                20,
                threads,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |count, i| {
                    *count += 1;
                    (i, *count)
                },
            );
            // Item order is preserved...
            assert_eq!(
                out.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                (0..20).collect::<Vec<_>>()
            );
            // ...and scratch state stays within one worker's chunk:
            // per-item counts restart at 1 on each chunk boundary.
            let workers = inits.load(Ordering::SeqCst);
            assert!(workers <= threads.max(1), "{workers} inits for {threads} threads");
            assert_eq!(out.iter().filter(|(_, c)| *c == 1).count(), workers);
        }
    }

    #[test]
    fn worker_count_is_the_number_of_workers_spawned() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for n in [0, 1, 2, 9, 10, 100] {
            for threads in [1, 2, 4, 8, 16] {
                let inits = AtomicUsize::new(0);
                par_map_with(n, threads, || inits.fetch_add(1, Ordering::SeqCst), |_, i| i);
                let spawned = inits.load(Ordering::SeqCst);
                assert_eq!(worker_count(n, threads), spawned, "n = {n}, threads = {threads}");
            }
        }
        assert_eq!(worker_count(9, 4), 3, "three chunks of three");
        assert_eq!(worker_count(2, 8), 2, "capped at the item count");
    }

    #[test]
    fn requested_threads_are_honored() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
