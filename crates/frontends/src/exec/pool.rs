//! Fixed worker pool for morsel-driven parallel kernels.
//!
//! One process-wide pool ([`global`]) serves every kernel, session, and
//! server connection. Work is expressed as an indexed task set
//! ([`ExecPool::run_indexed`]): `n` independent items claimed by threads
//! through a shared atomic counter (morsel stealing) and returned in
//! index order — so the *schedule* is nondeterministic but the *result
//! vector* never is. Thread count is a pure performance knob: it must not
//! change any output bytes, and the kernels guarantee that by deriving
//! every algorithmic decision (morsel boundaries, table capacities) from
//! data size alone, never from [`ExecPool::threads`].
//!
//! The pool runs `threads - 1` OS workers; the calling thread always
//! participates as the last worker, so `threads == 1` degrades to plain
//! inline execution with no queue traffic. Nested `run_indexed` calls are
//! safe: workers never block on other jobs, so an inner call simply runs
//! inline when every worker is busy.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;

/// Rows per morsel: the unit of work stealing. Fixed (never derived from
/// thread count) so row-range splits are identical at every parallelism.
pub const MORSEL_ROWS: usize = 16 * 1024;

/// The row count from which a gather or a multi-conjunct mask spreads its
/// columns over the pool instead of running inline. Below it every kernel
/// is its one-morsel case. The threshold is data-dependent only, so no
/// output byte and no counter a profile reports depends on the thread
/// count.
pub const PARALLEL_MIN_ROWS: usize = MORSEL_ROWS;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Inner {
    /// Pending jobs plus the shutdown flag, under one lock.
    queue: Mutex<Queue>,
    available: Condvar,
}

type Queue = (VecDeque<Job>, bool);

impl Inner {
    /// The queue, poisoned or not: the job list and the shutdown flag
    /// each change in one step and jobs run outside the lock, so a thread
    /// that panicked holding it left nothing half-changed.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn submit(&self, job: Job) {
        self.lock().0.push_back(job);
        self.available.notify_one();
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.lock();
                loop {
                    if q.1 {
                        return;
                    }
                    if let Some(j) = q.0.pop_front() {
                        break j;
                    }
                    q = self
                        .available
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job();
        }
    }
}

/// A fixed-size worker pool; see the module docs for the execution model.
pub struct ExecPool {
    inner: Arc<Inner>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl ExecPool {
    /// Creates a pool of `threads` compute threads (`threads - 1` spawned
    /// workers; the caller of [`ExecPool::run_indexed`] is the last one).
    /// A worker the OS refuses to start is not retried: the pool runs
    /// with the workers it got, and [`ExecPool::threads`] counts them.
    pub fn new(threads: usize) -> ExecPool {
        ExecPool::spawned(threads, |name, work| {
            std::thread::Builder::new().name(name).spawn(work)
        })
    }

    /// A pool whose workers `spawn` starts, up to the first it fails on.
    fn spawned(
        threads: usize,
        mut spawn: impl FnMut(String, Job) -> std::io::Result<JoinHandle<()>>,
    ) -> ExecPool {
        let inner = Arc::new(Inner {
            queue: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
        });
        let workers: Vec<JoinHandle<()>> = (1..threads.max(1))
            .map_while(|i| {
                let inner = Arc::clone(&inner);
                spawn(
                    format!("skadi-exec-{i}"),
                    Box::new(move || inner.worker_loop()),
                )
                .ok()
            })
            .collect();
        ExecPool {
            inner,
            threads: workers.len() + 1,
            workers,
        }
    }

    /// Total compute threads (spawned workers + the participating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0..n)` across the pool and returns the results in index
    /// order. Items are claimed through a shared counter, so load balance
    /// adapts to skew while the output stays deterministic. A panic in
    /// any item resumes on the calling thread.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        if n == 0 {
            return Vec::new();
        }
        let helpers = (self.threads - 1).min(n - 1);
        if helpers == 0 {
            return (0..n).map(f).collect();
        }
        let f = Arc::new(f);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..helpers {
            let f = Arc::clone(&f);
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            self.inner
                .submit(Box::new(move || claim_loop(&*f, &counter, n, &tx)));
        }
        claim_loop(&*f, &counter, n, &tx);
        drop(tx);
        // Every claimed index sends exactly one result; indices the caller
        // didn't claim are held by workers actively computing them. Should
        // every sender be gone with a result unsent, the caller computes
        // that index itself: items are pure, so its result is the same.
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let Ok((i, r)) = rx.recv() else { break };
            match r {
                Ok(v) => out[i] = Some(v),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out.into_iter()
            .enumerate()
            .map(|(i, v)| v.unwrap_or_else(|| f(i)))
            .collect()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.inner.lock().1 = true;
        self.inner.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn claim_loop<R: Send>(
    f: &(dyn Fn(usize) -> R + Send + Sync),
    counter: &AtomicUsize,
    n: usize,
    tx: &mpsc::Sender<(usize, std::thread::Result<R>)>,
) {
    loop {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)));
        // A send error means the caller already unwound (another item
        // panicked); nothing left to report.
        if tx.send((i, r)).is_err() {
            return;
        }
    }
}

/// Splits `n` rows into fixed [`MORSEL_ROWS`]-sized `(lo, hi)` ranges.
/// The split depends only on `n`, keeping per-morsel results — and any
/// order-sensitive merge of them — identical at every thread count.
pub fn morsels(n: usize) -> Vec<(usize, usize)> {
    (0..n.div_ceil(MORSEL_ROWS).max(1))
        .map(|m| (m * MORSEL_ROWS, ((m + 1) * MORSEL_ROWS).min(n)))
        .collect()
}

fn default_threads() -> usize {
    if let Ok(s) = std::env::var("SKADI_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

static GLOBAL: OnceLock<RwLock<Arc<ExecPool>>> = OnceLock::new();

fn cell() -> &'static RwLock<Arc<ExecPool>> {
    GLOBAL.get_or_init(|| RwLock::new(Arc::new(ExecPool::new(default_threads()))))
}

/// The shared process-wide pool. Sized by `SKADI_THREADS` or
/// `available_parallelism` on first use; resized by
/// [`set_global_threads`].
pub fn global() -> Arc<ExecPool> {
    // The registry's one write is an `Arc` swap, so a poisoned lock
    // still holds a whole pool.
    cell()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// The shared pool's thread count.
pub fn global_threads() -> usize {
    global().threads()
}

/// Resizes the shared pool (no-op when the size already matches; in-flight
/// users of the old pool finish on it — `Arc` keeps it alive).
pub fn set_global_threads(threads: usize) {
    let threads = threads.max(1);
    let mut w = cell().write().unwrap_or_else(PoisonError::into_inner);
    if w.threads() != threads {
        *w = Arc::new(ExecPool::new(threads));
    }
}

/// Serializes tests that resize the global pool (resizing is safe at any
/// time, but a test asserting the global size must not interleave with
/// another test's resize).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ExecPool::new(threads);
            let out = pool.run_indexed(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_sets() {
        let pool = ExecPool::new(4);
        assert_eq!(pool.run_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = Arc::new(ExecPool::new(3));
        let inner = Arc::clone(&pool);
        let out = pool.run_indexed(8, move |i| inner.run_indexed(5, move |j| i * 10 + j));
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row, &(0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_work_still_completes() {
        let pool = ExecPool::new(4);
        let out = pool.run_indexed(32, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = ExecPool::new(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_indexed(16, |i| {
                if i == 9 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(r.is_err());
        // The pool survives a panicked run.
        assert_eq!(pool.run_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn morsel_split_is_fixed_and_covering() {
        assert_eq!(morsels(0), vec![(0, 0)]);
        assert_eq!(morsels(10), vec![(0, 10)]);
        let m = morsels(MORSEL_ROWS * 2 + 5);
        assert_eq!(
            m,
            vec![
                (0, MORSEL_ROWS),
                (MORSEL_ROWS, MORSEL_ROWS * 2),
                (MORSEL_ROWS * 2, MORSEL_ROWS * 2 + 5)
            ]
        );
    }

    /// A pool that cannot start all its workers runs with those it got.
    #[test]
    fn a_refused_worker_leaves_a_smaller_pool() {
        let mut started = 0;
        let pool = ExecPool::spawned(4, |name, work| {
            started += 1;
            if started == 3 {
                return Err(std::io::Error::other("refused"));
            }
            std::thread::Builder::new().name(name).spawn(work)
        });
        assert_eq!((pool.threads(), started), (3, 3));
        assert_eq!(pool.run_indexed(9, |i| i), (0..9).collect::<Vec<_>>());
        let none = ExecPool::spawned(4, |_, _| Err(std::io::Error::other("refused")));
        assert_eq!(none.threads(), 1);
        assert_eq!(none.run_indexed(3, |i| i * 2), vec![0, 2, 4]);
    }

    /// A panic while the queue lock is held leaves the pool usable.
    #[test]
    fn a_poisoned_queue_still_runs_and_shuts_down() {
        let pool = ExecPool::new(3);
        let inner = Arc::clone(&pool.inner);
        let _ = std::thread::spawn(move || {
            let _held = inner.queue.lock().unwrap();
            panic!("poison the queue");
        })
        .join();
        assert!(pool.inner.queue.is_poisoned());
        assert_eq!(pool.run_indexed(8, |i| i + 1), (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn global_pool_resizes_once_per_size() {
        let _guard = test_guard();
        set_global_threads(3);
        let a = global();
        assert_eq!(a.threads(), 3);
        set_global_threads(3);
        assert!(Arc::ptr_eq(&a, &global()), "same size must not rebuild");
        set_global_threads(2);
        assert_eq!(global_threads(), 2);
    }
}
