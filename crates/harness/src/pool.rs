//! The worker-pool pattern shared by the campaign driver and the test-case
//! reducer: fan a slice of independent items over worker threads and
//! collect the results *in item order*, so callers are deterministic for
//! every worker count.
//!
//! Workers are **persistent**: the first pooled call spawns them (growing
//! to the largest worker count any call has requested) and they survive
//! for the life of the process, parked on the shared job queue. Sharded
//! campaigns issue one `map_parallel` per shard — spawning a fresh set of
//! OS threads per shard used to cost more than a small shard's entire
//! differential workload, and with reuse that cost is paid once. Each
//! call still makes progress on its *own* thread as well, so a call never
//! deadlocks waiting for pool capacity another call is using.

use crossbeam::channel;
use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

/// Upper bound on the worker threads one call may use. The pool grows to
/// the largest count any call asks for and never shrinks, so an
/// unchecked request (a mistyped `--workers`) would pin that many OS
/// threads for the life of the process.
pub const MAX_WORKERS: usize = 64;

/// Resolve a configured worker count (`0` = use the machine's available
/// parallelism, falling back to 4 when it cannot be queried), clamped to
/// [`MAX_WORKERS`].
pub fn resolve_workers(requested: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        requested
    };
    workers.min(MAX_WORKERS)
}

/// A lifetime-erased unit of work on the shared queue. Every job a call
/// submits is joined (via its completion signal) before that call
/// returns, which is what makes the erasure sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct SharedPool {
    tx: channel::Sender<Job>,
    /// Kept so newly spawned workers can clone the receiving half.
    rx: channel::Receiver<Job>,
    /// How many worker threads exist; grown, never shrunk.
    spawned: Mutex<usize>,
}

static POOL: OnceLock<SharedPool> = OnceLock::new();

thread_local! {
    /// Set on pool worker threads. A nested `map_parallel` issued from a
    /// worker runs serially instead of queueing sub-jobs: a job must never
    /// block on queue capacity occupied by the very jobs ahead of it.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn shared_pool() -> &'static SharedPool {
    POOL.get_or_init(|| {
        let (tx, rx) = channel::unbounded::<Job>();
        SharedPool {
            tx,
            rx,
            spawned: Mutex::new(0),
        }
    })
}

/// Grow the pool to at least `wanted` worker threads.
fn ensure_workers(pool: &'static SharedPool, wanted: usize) {
    let mut spawned = pool.spawned.lock().unwrap_or_else(|e| e.into_inner());
    while *spawned < wanted {
        let rx = pool.rx.clone();
        std::thread::Builder::new()
            .name(format!("ompfuzz-pool-{}", *spawned))
            .spawn(move || {
                IS_POOL_WORKER.with(|flag| flag.set(true));
                while let Ok(job) = rx.recv() {
                    // A panic inside a job belongs to the call that
                    // submitted it (the caller sees the missing result);
                    // this worker survives for the next job.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                }
            })
            .expect("spawn pool worker");
        *spawned += 1;
    }
}

/// Sends its completion signal when dropped, so a job that unwinds still
/// reports itself finished — the submitting call must never wait forever.
struct DoneGuard(channel::Sender<()>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// Waits, when dropped, for every job a call submitted: the call's frame —
/// the `f` and `items` its jobs borrow — cannot be left, by return or by
/// unwind, while one of them may still run.
struct JoinGuard {
    done: channel::Receiver<()>,
    pending: usize,
}

impl JoinGuard {
    fn join(&mut self) {
        while self.pending > 0 {
            // A closed channel means every job (and its `DoneGuard`) is
            // gone, finished or never to run.
            if self.done.recv().is_err() {
                break;
            }
            self.pending -= 1;
        }
    }
}

impl Drop for JoinGuard {
    fn drop(&mut self) {
        self.join();
    }
}

/// Apply `f` to every item, using up to `workers` threads (the calling
/// thread plus persistent pool workers), and return the results in item
/// order.
///
/// Every item is evaluated — there is no early exit — so the output is
/// identical whatever the worker count or scheduling. Single-item batches
/// (and `workers <= 1`) skip the pool: with one item there is nothing to
/// overlap.
pub fn map_parallel<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len()).clamp(1, MAX_WORKERS);
    if workers == 1 || items.len() <= 1 || IS_POOL_WORKER.with(|flag| flag.get()) {
        return items.iter().map(f).collect();
    }

    let (work_tx, work_rx) = channel::unbounded::<usize>();
    for index in 0..items.len() {
        work_tx.send(index).expect("queue open");
    }
    // Dropped before any job runs: `work_rx.recv()` can therefore never
    // block — it drains the queue and then reports disconnection — so
    // every job terminates on its own, wherever it runs.
    drop(work_tx);
    let (done_tx, done_rx) = channel::unbounded::<()>();
    // Declared before the result channel so an unwind drops `res_rx`
    // first: the jobs' sends then fail and they stop early.
    let mut joined = JoinGuard {
        done: done_rx,
        pending: 0,
    };
    let (res_tx, res_rx) = channel::unbounded::<(usize, R)>();

    // The calling thread is one of the `workers`; the rest are pool jobs.
    let helpers = workers - 1;
    let pool = shared_pool();
    ensure_workers(pool, helpers);
    for _ in 0..helpers {
        let work_rx = work_rx.clone();
        let res_tx = res_tx.clone();
        let done = DoneGuard(done_tx.clone());
        let f = &f;
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let _done = done;
            while let Ok(index) = work_rx.recv() {
                if res_tx.send((index, f(&items[index]))).is_err() {
                    return;
                }
            }
        });
        // SAFETY: the job borrows `f` and `items` from this frame. Once
        // sent it is counted in `joined`, which waits for its completion
        // signal (sent by `DoneGuard` even if the job unwinds) before this
        // frame is left — on return and on unwind alike, including a panic
        // in `f` on this thread — so the borrows outlive every use. The
        // erasure only widens the lifetime; layout is unchanged.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        assert!(pool.tx.send(job).is_ok(), "pool queue open");
        joined.pending += 1;
    }
    drop(done_tx);

    // Work the queue here too: even if every pool worker is busy with
    // other calls' jobs, this call completes on its own thread.
    while let Ok(index) = work_rx.recv() {
        if res_tx.send((index, f(&items[index]))).is_err() {
            break;
        }
    }
    drop(res_tx);

    // Join every submitted job before touching the results.
    joined.join();

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (index, result) in res_rx {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item produces a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [0, 1, 3, 8] {
            let out = map_parallel(resolve_workers(workers), &items, |&x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tiny_batches_and_empty_input_work() {
        assert_eq!(map_parallel(8, &[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(map_parallel(8, &[7], |&x| x + 1), vec![8]);
        // Two items take the pooled path; order must still hold.
        assert_eq!(map_parallel(8, &[1, 2], |&x| x + 1), vec![2, 3]);
    }

    #[test]
    fn worker_resolution() {
        assert!(resolve_workers(0) >= 1);
        assert!(resolve_workers(0) <= MAX_WORKERS);
        assert_eq!(resolve_workers(5), 5);
    }

    #[test]
    fn worker_counts_are_capped() {
        // Pure: resolving a huge request starts no thread.
        assert_eq!(resolve_workers(MAX_WORKERS), MAX_WORKERS);
        assert_eq!(resolve_workers(MAX_WORKERS + 1), MAX_WORKERS);
        assert_eq!(resolve_workers(1_000_000), MAX_WORKERS);
    }

    #[test]
    fn a_panic_on_the_calling_thread_joins_every_job_first() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        use std::time::Duration;
        /// Counts one `f` invocation out when it ends (returns or unwinds).
        struct Live<'a>(&'a AtomicUsize);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let started = AtomicUsize::new(0);
        let ended = AtomicUsize::new(0);
        // Two items, two workers: the barrier holds the calling thread's
        // first item until the pool job is inside `f` with the other, so
        // each runs on its own thread.
        let both_inside = Barrier::new(2);
        let caller = std::thread::current().id();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_parallel(2, &[0u64, 1], |&x| {
                started.fetch_add(1, Ordering::SeqCst);
                let _live = Live(&ended);
                both_inside.wait();
                if std::thread::current().id() == caller {
                    panic!("f panics on the calling thread");
                }
                // Without the join guard the unwind would leave the call
                // while this job still borrows its frame.
                std::thread::sleep(Duration::from_millis(50));
                x
            })
        }));
        assert!(result.is_err(), "the calling thread's panic propagates");
        assert_eq!(started.load(Ordering::SeqCst), 2);
        assert_eq!(ended.load(Ordering::SeqCst), 2, "a job outlived the call");
    }

    #[test]
    fn borrowed_items_and_closure_state_survive_pooling() {
        // The lifetime erasure must never outlive the call: run many
        // short pooled maps over stack-owned data, with results that
        // depend on borrowed closure state.
        let offset = 1000usize;
        for round in 0..50 {
            let items: Vec<usize> = (0..23).map(|i| i + round).collect();
            let out = map_parallel(4, &items, |&x| x + offset);
            assert_eq!(out, items.iter().map(|&x| x + offset).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_calls_share_the_pool() {
        // Several threads issuing pooled maps at once: each must finish
        // with correct, ordered results (the calling thread guarantees
        // progress even when pool workers are busy elsewhere).
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let items: Vec<usize> = (0..200).collect();
                    let out = map_parallel(4, &items, |&x| x * 3 + t);
                    assert_eq!(out, items.iter().map(|&x| x * 3 + t).collect::<Vec<_>>());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn nested_calls_fall_back_to_serial() {
        // A map inside a map must complete (the inner call detects it is
        // on a pool worker and runs serially rather than queueing).
        let outer: Vec<usize> = (0..16).collect();
        let out = map_parallel(4, &outer, |&x| {
            let inner: Vec<usize> = (0..8).collect();
            map_parallel(4, &inner, |&y| y + x).iter().sum::<usize>()
        });
        let expect: Vec<usize> = outer
            .iter()
            .map(|&x| (0..8).map(|y| y + x).sum::<usize>())
            .collect();
        assert_eq!(out, expect);
    }
}
