//! Minimal scoped-thread fork-join pool for the experiment harness.
//!
//! Every trial is an independent `(config, seed)` pure function, so
//! `crate::suite::Suite::run_batches` fans all trials of all new
//! batches out at once through [`par_map`]. Two properties the harness
//! relies on:
//!
//! 1. **Deterministic assembly.** Each job carries its input position and
//!    results are sorted back by it, so the output `Vec` is in input
//!    order no matter how the OS schedules workers. Combined with
//!    per-trial seeds derived from the root seed (`base_seed + i`), the
//!    parallel harness is byte-identical to the serial one
//!    (`--threads 1`), which the determinism tests in
//!    `tests/determinism.rs` assert.
//! 2. **No nested fan-out.** A thread-local flag makes any `par_map`
//!    issued from inside a worker run inline, so the worker count stays
//!    bounded by [`threads`] instead of multiplying per level.
//!
//! The worker count is [`set_threads`] if called (`--threads N`), else
//! `std::thread::available_parallelism()`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count for all subsequent `par_map` calls
/// (`1` forces fully serial, in-place execution). Takes precedence over
/// the detected core count.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// Worker count the next top-level `par_map` will use.
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
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
    // Nested calls, from inside a worker, run inline.
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }

    // Workers pull `(index, item)` jobs off one shared queue and hand
    // back what they computed; sorting by index restores input order.
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut out = Vec::new();
                    loop {
                        let job = queue.lock().expect("job queue poisoned").next();
                        let Some((i, item)) = job else { break out };
                        out.push((i, f(item)));
                    }
                })
            })
            .collect();
        let joined = workers.into_iter().map(|w| w.join());
        joined
            .flat_map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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
            assert!(IN_WORKER.with(Cell::get) || threads() == 1);
            // Nested call must not spawn another layer of workers.
            let inner = par_map((0..10).collect::<Vec<usize>>(), |j| j + i);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![45, 55, 65, 75]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = par_map(Vec::<usize>::new(), |i| i);
        assert!(out.is_empty());
    }
}
