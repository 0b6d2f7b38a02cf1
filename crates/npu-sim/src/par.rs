//! Deterministic parallel map: the one worker-pool loop every fan-out
//! in the pipeline runs on.
//!
//! Profiling sweeps, parallel calibration, fleet epochs and the service
//! pool all fan independent, index-addressed jobs out over scoped
//! workers. [`par_map_ordered`] is that loop: workers pull indices from
//! one atomic cursor, so which worker runs which index depends on
//! scheduling, but the returned vector is in index order and each entry
//! is whatever `f(i)` returned. When `f` is a pure function of its
//! index, the result is bit-identical at every worker count.
//!
//! Worker counts resolve through [`resolve_threads`]: an explicit count
//! is taken literally and `0` means auto, which honours the
//! `NPU_THREADS` environment variable before falling back to one worker
//! per available CPU.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Resolves a requested worker count. An explicit `requested > 0` is
/// taken literally; `0` means "auto" — the `NPU_THREADS` environment
/// variable (a positive integer) pins the count, otherwise one worker
/// per available CPU.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    resolve_threads_with(requested, |name| std::env::var(name).ok())
}

/// [`resolve_threads`] with an injectable environment lookup, so the
/// resolution logic is testable without `std::env::set_var` — process
/// environment mutation is unsynchronized with respect to concurrent
/// readers (and outright UB on some platforms once threads exist), and
/// the default test harness runs tests in parallel.
///
/// `lookup` is called with the variable name (`"NPU_THREADS"`) and
/// returns its value, or `None` when unset.
#[must_use]
pub fn resolve_threads_with(requested: usize, lookup: impl Fn(&str) -> Option<String>) -> usize {
    if requested > 0 {
        return requested;
    }
    // `0` means "auto": the `NPU_THREADS` environment variable pins the
    // count (how benches and CI get deterministic parallelism without
    // touching configs); `0`, unset or unparsable falls through to
    // one worker per available CPU. Thread count never changes results,
    // only wall time.
    if let Some(n) = lookup("NPU_THREADS")
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Computes `f(0), f(1), …, f(n - 1)` on
/// `resolve_threads(threads).min(n).max(1)` scoped workers and returns
/// the results in index order.
///
/// Workers pull indices from one shared cursor, so a slow index never
/// holds up the rest of the queue. Each index runs exactly once. A
/// panic in `f` is resumed on the caller once the workers have joined.
/// Callers that need "the lowest-indexed error wins" map into
/// `Result`s and collect the returned vector into `Result<Vec<_>, _>`.
///
/// # Examples
///
/// ```
/// use npu_sim::par::par_map_ordered;
///
/// let squares = par_map_ordered(4, 6, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16, 25]);
/// ```
pub fn par_map_ordered<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = resolve_threads(threads).min(n).max(1);
    // The cursor hands out indices only; results travel back through
    // `join`, which synchronizes, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A pure function of the index with awkward float bits, so any
    /// misplaced or duplicated entry shows up in a bitwise comparison.
    fn mix(i: usize) -> (usize, u64) {
        let x = (i as f64 + 0.1).sqrt().sin() * 1e3;
        (
            i,
            x.to_bits() ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // `n` draws 0 and 1 often, so empty input and more workers than
        // indices are in every run.
        #[test]
        fn matches_the_serial_map_at_every_worker_count(
            n in prop_oneof![Just(0usize), Just(1), 0usize..301],
            threads in prop_oneof![Just(0usize), Just(1), Just(2), Just(8), Just(64)],
        ) {
            let serial: Vec<(usize, u64)> = (0..n).map(mix).collect();
            prop_assert_eq!(par_map_ordered(threads, n, mix), serial);
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_map_ordered(4, 50, |i| {
                assert_ne!(i, 17, "index 17 is poisoned");
                i
            })
        });
        let payload = caught.expect_err("the panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("index 17 is poisoned"), "payload: {msg:?}");
    }

    #[test]
    fn npu_threads_env_pins_auto_detection() {
        // Explicit counts always beat the environment; NPU_THREADS only
        // steers the `0 = auto` path, and `0`/garbage stay auto. The
        // lookup is injected instead of mutating the process environment:
        // `set_var` is unsynchronized with concurrent readers under the
        // parallel test harness (see `resolve_threads_with`).
        let env = |val: &'static str| {
            move |name: &str| {
                assert_eq!(name, "NPU_THREADS");
                Some(val.to_string())
            }
        };
        assert_eq!(resolve_threads_with(5, env("3")), 5);
        assert_eq!(resolve_threads_with(0, env("3")), 3);
        assert_eq!(resolve_threads_with(0, env(" 12 ")), 12);
        assert!(resolve_threads_with(0, env("0")) >= 1);
        assert!(resolve_threads_with(0, env("not-a-number")) >= 1);
        assert!(resolve_threads_with(0, |_| None) >= 1);
        // The env-reading wrapper stays a thin pass-through: with an
        // explicit request it never consults the environment at all.
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }
}
