//! Minimal scoped-thread fork-join pool for the experiment harness.
//!
//! The paper protocol is embarrassingly parallel twice over: every trial
//! is an independent `(config, seed)` pure function, and every figure arm
//! (controller × workload × sweep point) is independent of its siblings.
//! This module fans both levels out over `std::thread::scope` workers with
//! two properties the harness relies on:
//!
//! 1. **Deterministic assembly.** Results are written into a slot indexed
//!    by the job's position in the input, so the output `Vec` is in input
//!    order no matter how the OS schedules workers. Combined with
//!    per-trial seeds derived from the root seed (`base_seed + i`), the
//!    parallel harness is byte-identical to the serial one
//!    (`--serial` / `SG_EXP_THREADS=1`), which the determinism tests in
//!    `tests/determinism.rs` assert.
//! 2. **No nested fan-out.** Figure modules parallelize arms, and each arm
//!    calls [`crate::run_trials`] which parallelizes trials. A
//!    thread-local flag makes any `par_map` issued from inside a worker
//!    run inline, so the worker count stays bounded by [`threads`] instead
//!    of multiplying per level.
//!
//! The worker count comes from, in priority order: [`set_threads`], the
//! `SG_EXP_THREADS` environment variable, then
//! `std::thread::available_parallelism()`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count for all subsequent `par_map` calls
/// (`1` forces fully serial, in-place execution). Takes precedence over
/// `SG_EXP_THREADS` and the detected core count.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("SG_EXP_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Worker count the next top-level `par_map` will use.
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// True when called from inside a `par_map` worker (nested calls run
/// inline).
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Map `f` over `items` on up to [`threads`] scoped workers, returning
/// results in input order. Falls back to a plain serial loop when one
/// thread suffices or when already inside a worker.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 || in_worker() {
        return items.into_iter().map(f).collect();
    }

    // Job slots (taken exactly once via the shared cursor) and result
    // slots (written exactly once, read back in input order). The crate
    // forbids unsafe code, so slot access goes through uncontended
    // mutexes rather than raw cells; one lock per *job* is noise next to
    // a multi-second trial.
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let item = jobs[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    let r = f(item);
                    *results[i].lock().expect("result slot poisoned") = Some(r);
                }
                IN_WORKER.with(|w| w.set(false));
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker finished every claimed job")
        })
        .collect()
}

/// Run a batch of heterogeneous jobs (boxed closures) in parallel,
/// returning their results in input order. This is how figure modules fan
/// out arms that each do different work (different controller, workload,
/// sweep point) but produce the same row type.
pub fn par_run<'scope, R: Send>(jobs: Vec<Box<dyn FnOnce() -> R + Send + 'scope>>) -> Vec<R> {
    par_map(jobs, |job| job())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let out = par_map((0..100).collect::<Vec<usize>>(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_map_runs_inline() {
        let out = par_map(vec![0usize, 1, 2, 3], |i| {
            assert!(in_worker() || threads() == 1);
            // Nested call must not spawn another layer of workers.
            let inner = par_map((0..10).collect::<Vec<usize>>(), |j| j + i);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![45, 55, 65, 75]);
    }

    #[test]
    fn par_run_handles_heterogeneous_jobs() {
        let a = 7usize;
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(move || a * 2),
            Box::new(|| 1),
            Box::new(|| (0..5).sum()),
        ];
        assert_eq!(par_run(jobs), vec![14, 1, 10]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = par_map(Vec::<usize>::new(), |i| i);
        assert!(out.is_empty());
    }
}
