//! # cellsync_runtime — the workspace's shared parallel runtime
//!
//! A dependency-free scoped worker pool for the embarrassingly-parallel
//! hot paths of the deconvolution stack: genome-wide batch fits
//! ([`cellsync::Deconvolver::fit_many`]), bootstrap replicates, multi-start
//! optimization, and Monte-Carlo kernel estimation. All of these share one
//! shape — *evaluate an index-addressed pure function over `0..n` and
//! collect the results in order* — which is exactly what
//! [`Pool::par_map_indexed`] provides. Workloads whose per-index work
//! wants reusable solver state (factorization buffers, fit workspaces)
//! use the scratch-carrying variant [`Pool::par_map_with`], which hands
//! each worker one thread-local scratch while keeping the same
//! bit-identical ordering guarantee.
//!
//! Design constraints (and how they are met):
//!
//! * **Zero dependencies.** Built on [`std::thread::scope`] and one
//!   [`AtomicUsize`] work counter; no channels, no rayon.
//! * **Deterministic result ordering.** Workers steal *indices*, not
//!   results: slot `i` of the output always holds `f(i)`, so the output is
//!   bit-identical at any thread count whenever `f` itself is a pure
//!   function of its index. Randomized work keeps that property by
//!   seeding index `i`'s RNG with [`stream_seed`].
//! * **Panic propagation.** A panic inside a worker is re-raised on the
//!   calling thread with its original payload (no poisoned state, no
//!   swallowed errors).
//! * **Sensible default width.** [`Pool::default`] sizes itself from
//!   [`std::thread::available_parallelism`]; `threads == 1` degrades to a
//!   plain serial loop with zero thread-spawn overhead.
//!
//! ```
//! use cellsync_runtime::Pool;
//!
//! let squares = Pool::new(4).par_map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! [`cellsync::Deconvolver::fit_many`]: ../cellsync/struct.Deconvolver.html#method.fit_many

#![deny(missing_docs)]

pub mod cancel;

pub use cancel::CancelToken;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f`, converting a panic into `Err` with the panic payload
/// rendered as a string — the panic-isolation wrapper for job runners
/// that must survive a poisoned work item (a serving dispatcher, a batch
/// worker). The closure is treated as unwind-safe: callers hand in work
/// over shared *immutable* engine state plus locals owned by the
/// closure, which a panic cannot leave half-mutated.
///
/// ```
/// let ok = cellsync_runtime::catch_panic(|| 2 + 2);
/// assert_eq!(ok, Ok(4));
/// let err = cellsync_runtime::catch_panic(|| -> i32 { panic!("boom") });
/// assert_eq!(err, Err("boom".to_string()));
/// ```
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }),
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed hash of one `u64`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed of per-index stream `index` under `seed`, a hash of the pair
/// `(seed, index)`. Parallel randomized paths (bootstrap replicates,
/// multi-start perturbations, chaos fault plans) seed stream `i` with
/// `stream_seed(seed, i)`, so results never depend on which worker ran
/// `i`. The index is hashed before it meets the seed: unlike `seed ^ i`,
/// seeds that differ only in low bits do not share their streams.
///
/// ```
/// use cellsync_runtime::stream_seed;
///
/// assert_eq!(stream_seed(7, 3), stream_seed(7, 3));
/// assert_ne!(stream_seed(0, 1), stream_seed(1, 0));
/// ```
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

/// A scoped worker pool of a fixed width.
///
/// The pool owns no threads: every [`Pool::par_map_indexed`] call spawns
/// scoped workers for its own duration, so a `Pool` is nothing but a
/// validated thread-count and is freely `Copy`-able into configuration
/// structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Creates a pool of `threads` workers. `0` is clamped to `1`.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The machine-wide default width:
    /// [`std::thread::available_parallelism`], or `1` when the parallelism
    /// cannot be determined.
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// The number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(i)` for every `i ∈ 0..n` across the pool and returns
    /// the results in index order.
    ///
    /// Work is distributed dynamically (one shared atomic cursor), so
    /// uneven per-index cost — a QP that converges slowly for one gene,
    /// say — load-balances automatically. Output slot `i` always holds
    /// `f(i)`: results are bit-identical at any thread count for pure `f`.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any worker on the calling thread (if several
    /// workers panic, the one joined first wins).
    pub fn par_map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.par_map_with(n, || (), |(), i| f(i))
    }

    /// Evaluates `f(&mut scratch, i)` for every `i ∈ 0..n` across the
    /// pool, handing each worker one thread-local scratch value built by
    /// `make_scratch`, and returns the results in index order.
    ///
    /// This is the workspace-carrying variant of
    /// [`Pool::par_map_indexed`]: per-index work that needs factorization
    /// buffers, RNG-free solver state, or other reusable allocations
    /// builds the scratch once per worker instead of once per index. At
    /// most `min(threads, n)` scratches are ever constructed, and the
    /// serial path (`threads == 1` or `n <= 1`) builds exactly one.
    ///
    /// **Determinism contract:** the output is bit-identical at any
    /// thread count *provided `f(·, i)`'s result is a pure function of
    /// `i`* — the scratch must be an allocation cache, not a value that
    /// feeds the result. Carrying information between indices through the
    /// scratch (running sums, warm starts derived from the previous index
    /// served by the same worker) makes results depend on the work
    /// distribution and breaks the contract; derive any warm-start data
    /// from the index itself instead.
    ///
    /// ```
    /// use cellsync_runtime::Pool;
    ///
    /// // The scratch buffer is reused across indices on each worker.
    /// let out = Pool::new(4).par_map_with(
    ///     6,
    ///     || Vec::with_capacity(16),
    ///     |buf, i| {
    ///         buf.clear();
    ///         buf.extend((0..=i).map(|k| k * k));
    ///         buf.iter().sum::<usize>()
    ///     },
    /// );
    /// assert_eq!(out, vec![0, 1, 5, 14, 30, 55]);
    /// ```
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any worker on the calling thread (if several
    /// workers panic, the one joined first wins).
    pub fn par_map_with<S, T, FS, F>(&self, n: usize, make_scratch: FS, f: F) -> Vec<T>
    where
        T: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers <= 1 {
            let mut scratch = make_scratch();
            return (0..n).map(|i| f(&mut scratch, i)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let f = &f;
        let make_scratch = &make_scratch;
        let cursor = &cursor;
        // Each worker drains the shared cursor into a private
        // `(index, value)` list; the lists are merged into index-ordered
        // slots afterwards, off the hot path.
        let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut scratch = make_scratch();
                        let mut out = Vec::with_capacity(n / workers + 1);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, f(&mut scratch, i)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(list) => list,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for list in per_worker {
            for (i, value) in list {
                debug_assert!(slots[i].is_none(), "index {i} computed twice");
                slots[i] = Some(value);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index is claimed exactly once"))
            .collect()
    }

    /// Fallible variant of [`Pool::par_map_with`]: evaluates every index
    /// with a per-worker scratch and, if any failed, returns the error of
    /// the **smallest** failing index (deterministic regardless of which
    /// worker saw it first), tagged with that index.
    ///
    /// # Errors
    ///
    /// `Err((i, e))` where `i` is the lowest index whose `f(·, i)`
    /// returned `Err(e)`.
    pub fn try_par_map_with<S, T, E, FS, F>(
        &self,
        n: usize,
        make_scratch: FS,
        f: F,
    ) -> std::result::Result<Vec<T>, (usize, E)>
    where
        T: Send,
        E: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> std::result::Result<T, E> + Sync,
    {
        let mut results = self.par_map_with(n, make_scratch, f);
        if let Some(i) = results.iter().position(std::result::Result::is_err) {
            let Err(e) = results.swap_remove(i) else {
                unreachable!("position() found an Err at {i}")
            };
            return Err((i, e));
        }
        Ok(results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(_) => unreachable!("errors were ruled out above"),
            })
            .collect())
    }

    /// Fallible variant of [`Pool::par_map_indexed`]: evaluates every
    /// index and, if any failed, returns the error of the **smallest**
    /// failing index (deterministic regardless of which worker saw it
    /// first), tagged with that index.
    ///
    /// # Errors
    ///
    /// `Err((i, e))` where `i` is the lowest index whose `f(i)` returned
    /// `Err(e)`.
    pub fn try_par_map_indexed<T, E, F>(
        &self,
        n: usize,
        f: F,
    ) -> std::result::Result<Vec<T>, (usize, E)>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> std::result::Result<T, E> + Sync,
    {
        self.try_par_map_with(n, || (), |(), i| f(i))
    }
}

impl Default for Pool {
    /// A pool as wide as the machine.
    fn default() -> Self {
        Pool::new(Pool::available_parallelism())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn zero_width_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::default().threads() >= 1);
        assert!(Pool::available_parallelism() >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let calls = AtomicUsize::new(0);
        let out: Vec<usize> = Pool::new(4).par_map_indexed(0, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(out.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ordering_matches_serial_at_any_width() {
        let expected: Vec<usize> = (0..100).map(|i| i * 7 + 3).collect();
        for threads in [1, 2, 3, 4, 16, 200] {
            let got = Pool::new(threads).par_map_indexed(100, |i| i * 7 + 3);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_index_called_exactly_once() {
        let n = 257;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        Pool::new(8).par_map_indexed(n, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn panic_propagates_with_payload() {
        for threads in [1, 4] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                Pool::new(threads).par_map_indexed(50, |i| {
                    if i == 31 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }));
            let payload = result.expect_err("worker panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("boom at 31"), "payload: {msg:?}");
        }
    }

    #[test]
    fn try_map_reports_smallest_failing_index() {
        for threads in [1, 2, 8] {
            let r: std::result::Result<Vec<usize>, (usize, String)> = Pool::new(threads)
                .try_par_map_indexed(64, |i| {
                    if i % 10 == 7 {
                        Err(format!("bad {i}"))
                    } else {
                        Ok(i)
                    }
                });
            assert_eq!(r.unwrap_err(), (7, "bad 7".to_string()));
        }
    }

    #[test]
    fn try_map_success_collects_in_order() {
        let r: std::result::Result<Vec<usize>, (usize, ())> =
            Pool::new(4).try_par_map_indexed(33, Ok);
        assert_eq!(r.unwrap(), (0..33).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_with_builds_at_most_one_scratch_per_worker() {
        let n = 64;
        for threads in [1, 2, 4, 16] {
            let built = AtomicUsize::new(0);
            let out = Pool::new(threads).par_map_with(
                n,
                || {
                    built.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    scratch.push(i);
                    i * 3
                },
            );
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
            let count = built.load(Ordering::Relaxed);
            assert!(
                count >= 1 && count <= threads.min(n),
                "threads {threads}: {count} scratches"
            );
        }
    }

    #[test]
    fn par_map_with_serial_path_builds_exactly_one_scratch() {
        let built = AtomicUsize::new(0);
        let out = Pool::new(1).par_map_with(10, || built.fetch_add(1, Ordering::Relaxed), |_, i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(built.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn try_par_map_with_reports_smallest_failing_index() {
        for threads in [1, 2, 8] {
            let r: std::result::Result<Vec<usize>, (usize, String)> = Pool::new(threads)
                .try_par_map_with(
                    48,
                    || 0usize,
                    |scratch, i| {
                        *scratch += 1; // scratch mutation must not affect results
                        if i % 9 == 4 {
                            Err(format!("bad {i}"))
                        } else {
                            Ok(i)
                        }
                    },
                );
            assert_eq!(
                r.unwrap_err(),
                (4, "bad 4".to_string()),
                "threads {threads}"
            );
        }
    }
}
