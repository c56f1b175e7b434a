//! Ordered parallel map over an index range.
//!
//! The one worker-pool primitive the workspace needs: scoped OS threads
//! pull indices from an atomic counter and write results into their index
//! slot, so the output order is always `0..n` regardless of scheduling.
//! Both the scenario-sweep engine and the `bench` experiment harness run
//! their fan-out through this function.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count for [`parallel_map`]: one per available core,
/// falling back to 4 when the count is unknowable.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Run `f(0..n)` on up to `threads` OS threads and collect results in
/// index order. With one thread `f` runs on the calling thread, in index
/// order, and no thread is spawned.
///
/// # Panics
/// Propagates panics from `f` (the scope joins all workers first).
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let slots = Mutex::new(&mut out);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                slots.lock().expect("no panics while holding the slot lock")[i] = Some(v);
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_under_any_thread_count() {
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 7, 128] {
            assert_eq!(parallel_map(100, threads, |i| i * i), expect);
        }
    }

    #[test]
    fn one_thread_runs_on_the_caller_in_index_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let ids = parallel_map(5, 1, |i| {
            order
                .lock()
                .expect("no panics while holding the lock")
                .push(i);
            std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller));
        let order = order
            .into_inner()
            .expect("no panics while holding the lock");
        assert_eq!(order, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
    }
}
