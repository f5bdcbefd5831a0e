//! The worker pool: the one place outside tests that starts a thread.
//!
//! Everything the evaluation runs in parallel is a list of independent
//! items known before the first one starts — sweep jobs, fleet conference
//! batches — so a shared counter is all the scheduling there is: a worker
//! claims the next unclaimed index until none is left.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `job(&mut state, index)` once for every index in `0..n` on up to
/// `workers` threads. Each worker builds its own `state` with `init`,
/// once, before its first claim. Returns the results in index order and
/// the worker states in worker order (the calling thread is worker 0).
///
/// The calling thread is always one of the workers, so with one worker or
/// one item nothing is spawned. A panic in a job is resumed on the calling
/// thread once every worker has stopped.
pub fn run<S: Send, R: Send>(
    n: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> R + Sync,
) -> (Vec<R>, Vec<S>) {
    // Relaxed: the counter hands out indices and publishes nothing else
    // (everything a job reads was written before the scope opened).
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut mine = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                return (mine, state);
            }
            mine.push((index, job(&mut state, index)));
        }
    };
    let yields = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers.min(n)).map(|_| s.spawn(work)).collect();
        let mut yields = vec![work()];
        for handle in spawned {
            yields.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        yields
    });
    let mut results = Vec::with_capacity(n);
    let mut states = Vec::with_capacity(yields.len());
    for (mine, state) in yields {
        results.extend(mine);
        states.push(state);
    }
    results.sort_unstable_by_key(|&(index, _)| index);
    (
        results.into_iter().map(|(_, result)| result).collect(),
        states,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_index_order_under_skewed_costs() {
        // The early indices are the slow ones, so they finish last.
        let (results, states) = run(
            24,
            4,
            || (),
            |_, i| {
                thread::sleep(Duration::from_millis(if i < 4 { 20 } else { 0 }));
                i * i
            },
        );
        assert_eq!(results, (0..24).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(states.len(), 4);
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        for (n, workers) in [(5, 1), (1, 4), (0, 4), (3, 0)] {
            let (ids, states) = run(n, workers, || (), |_, _| thread::current().id());
            assert_eq!(ids, vec![caller; n], "n={n} workers={workers}");
            assert_eq!(states.len(), 1, "n={n} workers={workers}");
        }
        // With more of both, worker 0 is still the caller.
        let (_, states) = run(8, 3, || thread::current().id(), |_, _| ());
        assert_eq!(states[0], caller);
    }

    #[test]
    fn every_worker_state_is_built_once_and_returned_once() {
        let built = AtomicUsize::new(0);
        let (results, states) = run(
            40,
            3,
            || (built.fetch_add(1, Ordering::Relaxed), 0usize),
            |state, i| {
                state.1 += 1;
                i
            },
        );
        assert_eq!(results.len(), 40);
        assert_eq!(built.load(Ordering::Relaxed), 3);
        let mut ids: Vec<usize> = states.iter().map(|s| s.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(
            states.iter().map(|s| s.1).sum::<usize>(),
            40,
            "each item claimed once"
        );
    }

    #[test]
    #[should_panic(expected = "failed off the calling thread")]
    fn a_panicking_job_propagates_from_a_spawned_worker() {
        let caller = thread::current().id();
        // Each job waits for the other, so the two items are held by two
        // different workers, and the one that is not the caller panics.
        let both = Barrier::new(2);
        run(
            2,
            2,
            || (),
            |_, _| {
                both.wait();
                assert!(
                    thread::current().id() == caller,
                    "failed off the calling thread"
                );
            },
        );
    }
}
