//! The work-stealing thread pool.
//!
//! Topology: one global injector queue plus one deque per worker. A
//! worker pops from the *back* of its own deque (LIFO — cache-warm
//! chunks), refills from the *front* of the injector, and failing that
//! steals from the *front* of a sibling's deque (FIFO — the oldest,
//! largest-grained work). Idle workers park on a condvar and are woken
//! whenever a batch is submitted.
//!
//! Everything is safe Rust: the deques are mutex-protected `VecDeque`s
//! rather than lock-free Chase–Lev buffers (`unsafe_code` is forbidden
//! workspace-wide). For this workspace's job granularity — Monte Carlo
//! populations, study cells, whole-chip campaigns, milliseconds to
//! seconds each — the lock cost is noise.
//!
//! # Determinism contract
//!
//! [`Pool::par_map`] and friends assemble results **by input index**, and
//! job closures receive their input index (and, via
//! [`crate::SeedSequence`], an RNG stream derived from index alone), so
//! the output is bit-for-bit identical to a serial loop at any worker
//! count, including zero (the inline-serial pool). Scheduling order is
//! not deterministic; observable results are.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use selfheal_telemetry as telemetry;

/// A unit of work owned by the pool; it receives the pool state so it
/// can count itself done before it signals its batch.
type Job = Box<dyn FnOnce(&Shared) + Send + 'static>;

/// How long a parked worker sleeps before re-scanning the queues — the
/// backstop against the (benign, rare) missed-wakeup race between a
/// worker's queue scan and its park.
const PARK_TIMEOUT: Duration = Duration::from_millis(20);

/// How long a batch waiter sleeps between help attempts when no job is
/// runnable.
const WAIT_TIMEOUT: Duration = Duration::from_millis(1);

/// State shared between the pool handle and its workers.
struct Shared {
    /// `queues[0]` is the global injector; `queues[1 + w]` is worker
    /// `w`'s own deque.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Pairs with `work_signal` to park and wake workers.
    park: Mutex<()>,
    work_signal: Condvar,
    shutdown: AtomicBool,
    /// Jobs executed after being stolen from another worker's deque.
    steals: AtomicU64,
    /// Jobs executed, however acquired.
    executed: AtomicU64,
}

impl Shared {
    fn queue(&self, index: usize) -> MutexGuard<'_, VecDeque<Job>> {
        self.queues[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Total queued jobs across the injector and every deque.
    fn depth(&self) -> usize {
        (0..self.queues.len()).map(|i| self.queue(i).len()).sum()
    }

    /// Finds one runnable job for the caller occupying queue slot
    /// `home` (workers pass their own deque; batch waiters pass the
    /// injector). Own-deque pops come from the back, injector refills
    /// and steals from the front.
    fn find_job(&self, home: usize) -> Option<Job> {
        if home != 0 {
            if let Some(job) = self.queue(home).pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.queue(0).pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (home + offset) % n;
            if victim == 0 || victim == home {
                continue;
            }
            if let Some(job) = self.queue(victim).pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                // Mark the steal on the thief's trace row (victim is the
                // deque slot; its worker index is victim - 1).
                telemetry::event!("runtime.pool.steal", victim = victim - 1);
                return Some(job);
            }
        }
        None
    }

    /// Runs one job with panic isolation: a panicking job never takes
    /// its worker thread down (batch bookkeeping lives inside the job
    /// and is infallible; the panic itself is captured there and
    /// re-raised on the submitting caller).
    fn run_job(&self, job: Job) {
        let _ = catch_unwind(AssertUnwindSafe(|| job(self)));
    }

    /// Counts one finished job. Jobs call this before signalling their
    /// batch, so a caller that sees the batch done sees every job
    /// counted. The lifetime totals go to the registry as high-water
    /// marks, which keeps them live while a batch runs.
    fn count_executed(&self) {
        let executed = self.executed.fetch_add(1, Ordering::Relaxed) + 1;
        if telemetry::metrics::enabled() {
            let steals = self.steals.load(Ordering::Relaxed);
            telemetry::metrics::gauge_max("runtime.pool.jobs_executed_total", executed as f64);
            telemetry::metrics::gauge_max("runtime.pool.steals_total", steals as f64);
        }
    }

    fn worker_loop(&self, home: usize) {
        // Label this thread's timeline row for trace exports and announce
        // the worker so a trace shows when the pool spun up.
        telemetry::register_thread_name(&format!("worker-{}", home - 1));
        telemetry::event!("runtime.worker.start", worker = home - 1);
        loop {
            if let Some(job) = self.find_job(home) {
                self.run_job(job);
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let guard = self.park.lock().unwrap_or_else(PoisonError::into_inner);
            // Re-check under the park lock: submitters signal under it.
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let (_guard, _timeout) = self
                .work_signal
                .wait_timeout(guard, PARK_TIMEOUT)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn wake_all(&self) {
        let _guard = self.park.lock().unwrap_or_else(PoisonError::into_inner);
        self.work_signal.notify_all();
    }
}

/// Completion tracking for one `par_*` batch.
struct Batch<R> {
    remaining: Mutex<usize>,
    done: Condvar,
    /// `(start_index, chunk_results)` pairs in completion order.
    results: Mutex<Vec<(usize, Vec<R>)>>,
    /// Panic messages from failed jobs (isolation: other jobs still run).
    panics: Mutex<Vec<String>>,
}

impl<R> Batch<R> {
    fn new(jobs: usize) -> Self {
        Batch {
            remaining: Mutex::new(jobs),
            done: Condvar::new(),
            results: Mutex::new(Vec::with_capacity(jobs)),
            panics: Mutex::new(Vec::new()),
        }
    }

    fn finish_one(&self) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            == 0
    }
}

/// Renders a `catch_unwind` payload the way `std` does for uncaught
/// panics.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The work-stealing execution engine.
///
/// Per-worker deques plus a global injector; see the [crate docs](crate)
/// for the determinism contract. Construct with [`Pool::new`] (dedicated worker threads) or
/// [`Pool::serial`] (zero workers — every `par_*` call executes inline
/// on the caller, which is both the determinism reference and the
/// degenerate single-thread configuration).
///
/// # Examples
///
/// ```
/// use selfheal_runtime::Pool;
///
/// let pool = Pool::new(2);
/// let squares = pool.par_map((0..100u64).collect(), |x| x * x);
/// assert_eq!(squares, Pool::serial().par_map((0..100u64).collect(), |x| x * x));
/// ```
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .field("queued", &self.shared.depth())
            .finish()
    }
}

impl Pool {
    /// A pool with `workers` dedicated worker threads (`0` is allowed
    /// and equivalent to [`Pool::serial`]).
    #[must_use]
    pub fn new(workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            queues: (0..=workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(()),
            work_signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("selfheal-worker-{w}"))
                    .spawn(move || shared.worker_loop(w + 1))
                    .unwrap_or_else(|err| panic!("cannot spawn pool worker {w}: {err}"))
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    /// The inline-serial pool: no worker threads, every batch runs on
    /// the calling thread. The reference configuration the determinism
    /// tests compare against.
    #[must_use]
    pub fn serial() -> Pool {
        Pool::new(0)
    }

    /// Number of dedicated worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs executed after being stolen from a sibling deque (over the
    /// pool's lifetime).
    #[must_use]
    pub fn steal_count(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Maps `f` over `items` in parallel; output order matches input
    /// order bit-for-bit at any worker count.
    ///
    /// # Panics
    ///
    /// Re-raises (a summary of) job panics on the caller after the whole
    /// batch has settled — one failing item never aborts its siblings.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        self.par_map_indexed(items, move |_, item| f(item))
    }

    /// [`Pool::par_map`] with the input index passed to `f` — the hook
    /// deterministic seeding ([`crate::SeedSequence`]) attaches to.
    ///
    /// # Panics
    ///
    /// As [`Pool::par_map`].
    pub fn par_map_indexed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let chunk = self.default_chunk(items.len());
        let f = Arc::new(f);
        self.par_chunks(items, chunk, move |start, chunk_items| {
            chunk_items
                .into_iter()
                .enumerate()
                .map(|(k, item)| f(start + k, item))
                .collect()
        })
    }

    /// Splits `items` into contiguous chunks of (at most) `chunk_size`,
    /// applies `f(start_index, chunk)` to each in parallel, and
    /// concatenates the per-chunk outputs in input order.
    ///
    /// This is the primitive under [`Pool::par_map`]; call it directly
    /// when per-item closures are too fine-grained.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`; re-raises job panics as
    /// [`Pool::par_map`] does.
    pub fn par_chunks<T, R, F>(&self, items: Vec<T>, chunk_size: usize, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, Vec<T>) -> Vec<R> + Send + Sync + 'static,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        let total = items.len();
        if total == 0 {
            return Vec::new();
        }

        // Inline-serial fast path: no workers to hand jobs to.
        if self.workers.is_empty() {
            let mut out = Vec::with_capacity(total);
            let mut start = 0usize;
            let mut items = items.into_iter();
            while start < total {
                let take = chunk_size.min(total - start);
                let chunk: Vec<T> = items.by_ref().take(take).collect();
                out.extend(f(start, chunk));
                start += take;
            }
            return out;
        }

        let _span = telemetry::span!("runtime.par_chunks", items = total, chunk = chunk_size);
        let jobs = total.div_ceil(chunk_size);
        let batch: Arc<Batch<R>> = Arc::new(Batch::new(jobs));
        let f = Arc::new(f);
        let events_on = telemetry::events_enabled();

        let mut items = items.into_iter();
        let mut start = 0usize;
        let mut queued: Vec<(usize, Job)> = Vec::with_capacity(jobs);
        let mut next_queue = 1usize;
        while start < total {
            let take = chunk_size.min(total - start);
            let chunk: Vec<T> = items.by_ref().take(take).collect();
            let batch = Arc::clone(&batch);
            let f = Arc::clone(&f);
            let chunk_start = start;
            // Async-flow arrow from this enqueue to wherever the job
            // executes: `s` here on the submitting thread, `f` on the
            // worker that picks it up (trace exports draw the arrow).
            let flow = events_on.then(|| {
                let id = telemetry::next_flow_id();
                telemetry::emit_flow_start("runtime.pool.job", id);
                id
            });
            let job: Job = Box::new(move |shared| {
                if let Some(id) = flow {
                    telemetry::emit_flow_end("runtime.pool.job", id);
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| f(chunk_start, chunk)));
                match outcome {
                    Ok(results) => batch
                        .results
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((chunk_start, results)),
                    Err(payload) => batch
                        .panics
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(panic_message(payload.as_ref())),
                }
                shared.count_executed();
                batch.finish_one();
            });
            // Pre-distribute round-robin across worker deques; imbalance
            // is corrected by stealing.
            queued.push((next_queue, job));
            next_queue = next_queue % self.workers.len() + 1;
            start += take;
        }
        for (queue, job) in queued {
            self.shared.queue(queue).push_back(job);
        }
        let metrics_on = telemetry::metrics::enabled();
        // Region-local utilisation: snapshot the lifetime steal/executed
        // totals around this batch so the per-region deltas (and the
        // steal ratio derived from them) survive into the run manifest.
        let steals_at_submit = self.shared.steals.load(Ordering::Relaxed);
        let executed_at_submit = self.shared.executed.load(Ordering::Relaxed);
        if metrics_on {
            telemetry::metrics::counter_add("runtime.pool.batches", 1.0);
            telemetry::metrics::counter_add("runtime.pool.jobs", jobs as f64);
            let depth = self.shared.depth() as f64;
            telemetry::metrics::gauge_set("runtime.pool.queue_depth", depth);
            telemetry::metrics::gauge_max("runtime.pool.max_queue_depth", depth);
        }
        if telemetry::events_enabled() {
            // Counter tracks for trace exports: sampled at submit (full
            // queues) and again after the drain below (empty queues).
            telemetry::emit_counter("runtime.pool.queue_depth", self.shared.depth() as f64);
            telemetry::emit_counter(
                "runtime.pool.steals",
                self.shared.steals.load(Ordering::Relaxed) as f64,
            );
        }
        self.shared.wake_all();

        // Help drain the batch instead of blocking outright: lets
        // nested par_* calls issued from inside a worker make progress
        // (the blocked "caller" here may itself be a pool worker).
        loop {
            if let Some(job) = self.shared.find_job(0) {
                self.shared.run_job(job);
                continue;
            }
            if batch.is_done() {
                break;
            }
            let guard = batch
                .remaining
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if *guard == 0 {
                break;
            }
            let _ = batch
                .done
                .wait_timeout(guard, WAIT_TIMEOUT)
                .unwrap_or_else(PoisonError::into_inner);
        }

        if telemetry::events_enabled() {
            telemetry::emit_counter("runtime.pool.queue_depth", self.shared.depth() as f64);
            telemetry::emit_counter(
                "runtime.pool.steals",
                self.shared.steals.load(Ordering::Relaxed) as f64,
            );
        }
        if metrics_on {
            let steals = self.shared.steals.load(Ordering::Relaxed);
            let executed = self.shared.executed.load(Ordering::Relaxed);
            telemetry::metrics::gauge_set("runtime.pool.queue_depth", self.shared.depth() as f64);
            // This region's share of the pool's work. `executed` deltas
            // can include jobs from concurrently draining batches, so the
            // ratio is best-effort — but batches overwhelmingly run one
            // at a time, where it is exact.
            let region_steals = steals.saturating_sub(steals_at_submit);
            let region_executed = executed.saturating_sub(executed_at_submit);
            if region_executed > 0 {
                telemetry::metrics::histogram_observe(
                    "runtime.pool.steal_ratio",
                    region_steals as f64 / region_executed as f64,
                );
            }
        }

        let panics = {
            let mut panics = batch.panics.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *panics)
        };
        if !panics.is_empty() {
            panic!(
                "{} parallel job(s) panicked; first: {}",
                panics.len(),
                panics[0]
            );
        }

        let mut per_chunk = {
            let mut results = batch.results.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *results)
        };
        per_chunk.sort_by_key(|(chunk_start, _)| *chunk_start);
        let mut out = Vec::with_capacity(total);
        for (_, chunk_results) in per_chunk {
            out.extend(chunk_results);
        }
        out
    }

    /// The chunk size [`Pool::par_map_indexed`] uses: enough chunks to
    /// feed every worker ~4 stealable pieces, never below one item.
    fn default_chunk(&self, items: usize) -> usize {
        let ways = (self.workers().max(1)) * 4;
        items.div_ceil(ways).max(1)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_at_every_worker_count() {
        let input: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = input.iter().map(|x| x.wrapping_mul(*x) ^ 0xABCD).collect();
        for workers in [0usize, 1, 2, 4, 8] {
            let pool = Pool::new(workers);
            let got = pool.par_map(input.clone(), |x| x.wrapping_mul(x) ^ 0xABCD);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_indexed_sees_the_input_index() {
        let pool = Pool::new(3);
        let got = pool.par_map_indexed(vec!["a"; 64], |i, s| format!("{s}{i}"));
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("a{i}"));
        }
    }

    #[test]
    fn par_chunks_concatenates_in_input_order() {
        let pool = Pool::new(2);
        let got = pool.par_chunks((0..97u32).collect(), 10, |start, chunk| {
            vec![(start, chunk.len())]
        });
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], (0, 10));
        assert_eq!(got[9], (90, 7));
        let starts: Vec<usize> = got.iter().map(|(s, _)| *s).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "chunk outputs keep input order");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = Pool::new(2);
        let got: Vec<u8> = pool.par_map(Vec::<u8>::new(), |x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn panicking_job_is_isolated_and_reraised() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map((0..64u32).collect(), |x| {
                assert!(x != 13, "unlucky");
                x
            })
        }));
        assert!(result.is_err(), "the panic reaches the caller");
        // The pool survives and runs the next batch normally.
        let ok = pool.par_map((0..64u32).collect(), |x| x + 1);
        assert_eq!(ok.len(), 64);
        assert_eq!(ok[63], 64);
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let pool = Arc::new(Pool::new(2));
        let inner = Arc::clone(&pool);
        let got = pool.par_map((0..4u64).collect(), move |outer| {
            inner
                .par_map((0..8u64).collect(), move |x| x + outer * 100)
                .iter()
                .sum::<u64>()
        });
        let serial: Vec<u64> = (0..4u64)
            .map(|outer| (0..8u64).map(|x| x + outer * 100).sum())
            .collect();
        assert_eq!(got, serial);
    }

    #[test]
    fn counters_move() {
        let pool = Pool::new(2);
        let _ = pool.par_map((0..256u32).collect(), |x| x);
        assert!(pool.shared.executed.load(Ordering::Relaxed) > 0);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_size_is_rejected() {
        let pool = Pool::serial();
        let _ = pool.par_chunks(vec![1u8], 0, |_, c| c);
    }
}
