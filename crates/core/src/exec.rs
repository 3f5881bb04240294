//! Deterministic parallel execution for the evaluation/search core.
//!
//! Everything in this crate that fans out across threads — subdomain
//! signature computation ([`crate::subdomain::QueryIndex::build_with`])
//! and evaluation-context construction
//! ([`crate::ese::EvalContext::new_with`]) — routes through
//! [`ExecPolicy::map`], which guarantees **output order equals input
//! order regardless of thread count**. The searches, single- and
//! multi-target, build one context per target under
//! [`crate::search::SearchOptions::exec`] and run on the
//! `(`[`crate::ese::EvalContext`]`, `[`crate::ese::EvalCursor`]`)` pair,
//! which implements [`crate::search::HitEvaluator`]; so every search
//! result is byte-identical at any `IQ_THREADS` setting: parallelism
//! changes wall-clock time, never answers.
//!
//! The pool is `std::thread::scope`-based — no dependencies, no global
//! state, threads live only for the duration of one `map` call. Work is
//! handed out as contiguous chunks claimed from an atomic counter, so the
//! schedule adapts to load imbalance while the *merge* stays stable: each
//! chunk records its start offset and results are reassembled in offset
//! order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many threads the evaluation/search core may use.
///
/// The default ([`ExecPolicy::from_env`]) honours the `IQ_THREADS`
/// environment variable and otherwise uses the machine's available
/// parallelism. `ExecPolicy { threads: 1 }` is exact sequential execution
/// (no threads are spawned at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker-thread count; clamped to at least 1.
    pub threads: usize,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::from_env()
    }
}

impl ExecPolicy {
    /// `IQ_THREADS` if set (any unparsable / zero value falls back), else
    /// `std::thread::available_parallelism()`.
    pub fn from_env() -> Self {
        let threads = std::env::var("IQ_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ExecPolicy { threads }
    }

    /// An explicit thread count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy {
            threads: threads.max(1),
        }
    }

    /// Strictly sequential execution.
    pub fn sequential() -> Self {
        ExecPolicy { threads: 1 }
    }

    /// Divides the machine's parallelism across `concurrent` executors
    /// that each run their own searches side by side — the serving layer's
    /// worker pool hook. With `W` request workers on a `C`-core box, each
    /// worker gets `max(1, C / W)` threads, so the pool as a whole never
    /// oversubscribes the machine while a lone request still fans out.
    /// Results are byte-identical at any setting (see the module docs), so
    /// this only shapes latency/throughput, never answers. `IQ_THREADS`
    /// caps the numerator like everywhere else.
    pub fn share_across(concurrent: usize) -> Self {
        let total = Self::from_env().threads();
        ExecPolicy {
            threads: (total / concurrent.max(1)).max(1),
        }
    }

    /// The effective worker count.
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**, whatever the thread count. `f` receives `(index, &item)`.
    ///
    /// Determinism: the only scheduling freedom is which worker claims
    /// which chunk; results are keyed by chunk offset and reassembled in
    /// offset order, so the output is identical to the sequential
    /// `items.iter().enumerate().map(f).collect()`.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_init(|| (), items, |(), i, t| f(i, t))
    }

    /// [`ExecPolicy::map`] with per-worker scratch state: `init()` runs
    /// once on each worker thread (once total in the sequential path) and
    /// the resulting value is passed mutably to every `f` call that worker
    /// executes. This is how the scoring paths reuse a scores buffer
    /// across items without per-call allocation and without sharing
    /// mutable state between threads.
    ///
    /// Determinism: the scratch is an accumulator-free workspace — `f`'s
    /// result must depend only on `(index, item)`, never on which worker
    /// ran it or what the scratch held before. Given that, the offset-
    /// ordered merge makes the output identical to the sequential
    /// `items.iter().enumerate().map(...)`, whatever the thread count.
    pub fn map_init<T, R, S, I, F>(&self, init: I, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let threads = self.threads().min(items.len().max(1));
        if threads <= 1 || items.len() <= 1 {
            let mut scratch = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut scratch, i, t))
                .collect();
        }

        // Small chunks (≈4 per worker) absorb load imbalance; the atomic
        // counter hands them out first-come-first-served.
        let chunk = items.len().div_ceil(threads * 4).max(1);
        let next = AtomicUsize::new(0);
        let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut scratch = init();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        let results: Vec<R> = items[start..end]
                            .iter()
                            .enumerate()
                            .map(|(off, t)| f(&mut scratch, start + off, t))
                            .collect();
                        parts.lock().unwrap().push((start, results));
                    }
                });
            }
        });

        let mut parts = parts.into_inner().unwrap();
        parts.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(items.len());
        for (_, mut chunk_results) in parts {
            out.append(&mut chunk_results);
        }
        debug_assert_eq!(out.len(), items.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = ExecPolicy::with_threads(threads).map(&items, |_, &x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_passes_global_indices() {
        let items = vec!["a"; 100];
        for threads in [1usize, 4] {
            let got = ExecPolicy::with_threads(threads).map(&items, |i, _| i);
            assert_eq!(got, (0..100).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn map_init_scratch_reuse_is_order_invariant() {
        // The scratch buffer is reused across items within a worker; the
        // output must still be input-ordered and value-identical at every
        // thread count.
        let items: Vec<usize> = (0..123).collect();
        let expect: Vec<f64> = items.iter().map(|&x| (x * 3) as f64).collect();
        for threads in [1usize, 2, 7, 16] {
            let got = ExecPolicy::with_threads(threads).map_init(
                Vec::new,
                &items,
                |buf: &mut Vec<f64>, i, &x| {
                    assert_eq!(i, x);
                    buf.clear();
                    buf.extend([x as f64; 3]);
                    buf.iter().sum::<f64>()
                },
            );
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let pol = ExecPolicy::with_threads(8);
        assert_eq!(pol.map(&[] as &[u8], |_, &x| x), Vec::<u8>::new());
        assert_eq!(pol.map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn with_threads_clamps_zero() {
        assert_eq!(ExecPolicy::with_threads(0).threads(), 1);
    }

    #[test]
    fn from_env_reads_iq_threads() {
        // Env mutation is process-global: restore afterwards, and keep
        // every IQ_THREADS-dependent assertion inside this one test so
        // parallel test threads never race on the variable.
        let prev = std::env::var("IQ_THREADS").ok();
        std::env::set_var("IQ_THREADS", "3");
        assert_eq!(ExecPolicy::from_env().threads(), 3);
        std::env::set_var("IQ_THREADS", "not-a-number");
        assert!(ExecPolicy::from_env().threads() >= 1);
        // share_across divides the IQ_THREADS budget without oversubscribing.
        std::env::set_var("IQ_THREADS", "8");
        assert_eq!(ExecPolicy::share_across(1).threads(), 8);
        assert_eq!(ExecPolicy::share_across(2).threads(), 4);
        assert_eq!(ExecPolicy::share_across(3).threads(), 2);
        assert_eq!(ExecPolicy::share_across(8).threads(), 1);
        assert_eq!(ExecPolicy::share_across(100).threads(), 1);
        assert_eq!(ExecPolicy::share_across(0).threads(), 8);
        match prev {
            Some(v) => std::env::set_var("IQ_THREADS", v),
            None => std::env::remove_var("IQ_THREADS"),
        }
    }
}
