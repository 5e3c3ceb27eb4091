//! Order-preserving worker-pool fan-out.
//!
//! One small primitive, [`scatter`], behind the one place the engine
//! goes parallel: inter-query batch execution (the executor's worker
//! pool; a single query always evaluates sequentially). Workers pull
//! task indexes from a shared atomic counter — classic work stealing
//! without queues — and results are re-assembled *by task index*, so
//! the output order is deterministic and independent of the thread
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `tasks` work items over up to `threads` workers, preserving task
/// order in the result vector.
///
/// * `init` runs once per worker and produces its private state (a
///   session, a scratch buffer, …). On the inline path (one thread or
///   one task) it runs exactly once on the calling thread.
/// * `work` maps `(worker state, task index)` to the task's result.
///
/// # Panics
///
/// A panic inside any worker is re-raised on the calling thread once
/// every worker has stopped — the pool never returns a silently
/// incomplete result. Callers that must not unwind (the batch executor)
/// catch it with their existing per-query panic guard and surface it as
/// an internal error; everyone else propagates it like the sequential
/// path always did.
pub fn scatter<S, T, I, W>(tasks: usize, threads: usize, init: I, work: W) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || tasks <= 1 {
        let mut state = init();
        return (0..tasks)
            .map(|k| {
                crate::fault::point("par.worker");
                work(&mut state, k)
            })
            .collect();
    }
    let workers = threads.min(tasks);
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = Vec::with_capacity(tasks);
    results.resize_with(tasks, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let init = &init;
                let work = &work;
                scope.spawn(move || {
                    let mut state = init();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= tasks {
                            break;
                        }
                        crate::fault::point("par.worker");
                        local.push((k, work(&mut state, k)));
                    }
                    local
                })
            })
            .collect();
        // Join every worker before re-raising any panic: the scope must
        // not tear down while siblings still run, and the first panic
        // payload (by worker index) is the one reported.
        let mut first_panic = None;
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (k, v) in local {
                        results[k] = Some(v);
                    }
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("non-panicked scatter fills every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `par.worker` is a process-wide fault point: the test that arms it
    /// must not overlap the others, or its injected panic lands in them.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn preserves_task_order() {
        let _serial = serial();
        for threads in [1, 2, 4, 8] {
            let got = scatter(37, threads, || 0u32, |_, k| k * k);
            let want: Vec<usize> = (0..37).map(|k| k * k).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn init_runs_once_per_worker_inline() {
        let _serial = serial();
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let got = scatter(
            5,
            1,
            || inits.fetch_add(1, Ordering::Relaxed),
            |state, k| (*state, k),
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert!(got.iter().all(|r| r.0 == 0));
    }

    #[test]
    fn empty_and_single_task() {
        let _serial = serial();
        assert!(scatter(0, 4, || (), |_, k| k).is_empty());
        assert_eq!(scatter(1, 4, || (), |_, k| k), vec![0]);
    }

    /// Regression: a panicked worker used to lose only its own slots,
    /// letting callers observe a silently incomplete result. The panic
    /// must now surface on the calling thread.
    #[test]
    fn worker_panic_propagates_to_caller() {
        let _serial = serial();
        for threads in [1, 4] {
            let outcome = std::panic::catch_unwind(|| {
                scatter(
                    64,
                    threads,
                    || (),
                    |_, k| {
                        if k == 17 {
                            panic!("worker down");
                        }
                        k
                    },
                )
            });
            let payload = outcome.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "worker down", "threads={threads}");
        }
    }

    /// Same regression via the fault-injection registry: one injected
    /// worker panic anywhere in the pool fails the whole scatter.
    #[test]
    fn injected_worker_fault_propagates() {
        let _serial = serial();
        crate::fault::inject_times("par.worker", crate::fault::FaultAction::Panic, 1);
        let outcome = std::panic::catch_unwind(|| scatter(32, 4, || (), |_, k| k));
        crate::fault::clear("par.worker");
        assert!(outcome.is_err(), "injected fault must fail the scatter");
    }
}
