//! selfheal-runtime: deterministic work-stealing execution engine for
//! the self-healing reproduction, plus the naming of its on-disk stores.
//!
//! Two parts, usable independently:
//!
//! * **[`Pool`]** — a work-stealing thread pool (per-worker deques plus a
//!   global injector, parked idle workers, per-job panic isolation)
//!   exposing [`Pool::par_map`] / [`Pool::par_chunks`]. Combined with
//!   [`SeedSequence`] splittable seeding, parallel results are
//!   bit-for-bit identical to serial execution at any worker count —
//!   the whole stack's golden values survive parallelization unchanged.
//! * **[`ResultCache`]** — names the files of the on-disk stores (the
//!   fleet's checkpoint and image) under one root, by FNV-1a content
//!   hashes (the same hash [`RunManifest`](selfheal_telemetry::RunManifest)
//!   stamps as `config_hash`) with versioned invalidation.
//!
//! The pool reports into the `selfheal-telemetry` registry: queue
//! depth, steal and job counters.
//!
//! # The determinism contract
//!
//! A computation stays bit-for-bit reproducible under this runtime iff:
//!
//! 1. each work item is a pure function of its input and input index;
//! 2. all randomness comes from a [`SeedSequence`]-derived stream for
//!    that index (never a shared RNG advanced across items);
//! 3. results are combined in input-index order (which [`Pool::par_map`]
//!    does for you) or with an order-insensitive reduction.
//!
//! # Example
//!
//! ```
//! use selfheal_runtime::{Pool, SeedSequence};
//! use rand::Rng;
//!
//! let seeds = SeedSequence::new(2014);
//! let serial: Vec<f64> = (0..32)
//!     .map(|i| seeds.rng(i).gen::<f64>())
//!     .collect();
//! let pool = Pool::new(4);
//! let parallel = pool.par_map_indexed(vec![(); 32], move |i, ()| {
//!     seeds.rng(i as u64).gen::<f64>()
//! });
//! assert_eq!(serial, parallel); // bit-for-bit, any worker count
//! ```

mod cache;
mod pool;
mod seed;

pub use cache::ResultCache;
pub use pool::Pool;
pub use seed::{splitmix64_mix, SeedSequence};

use std::sync::{Arc, Mutex, PoisonError};

/// The process-global pool behind [`global_pool`].
static GLOBAL_POOL: Mutex<Option<Arc<Pool>>> = Mutex::new(None);

/// Environment variable overriding the global pool's worker count.
pub const THREADS_ENV_VAR: &str = "SELFHEAL_THREADS";

/// The shared process-wide pool. First use initializes it from
/// `SELFHEAL_THREADS` (or the machine's available parallelism, capped at
/// 8 — the largest count the scaling bench exercises); later calls reuse
/// it. [`set_global_threads`] replaces it explicitly (the `--threads`
/// flag lands there).
#[must_use]
pub fn global_pool() -> Arc<Pool> {
    let mut slot = GLOBAL_POOL.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(pool) = slot.as_ref() {
        return Arc::clone(pool);
    }
    let pool = Arc::new(Pool::new(default_threads()));
    *slot = Some(Arc::clone(&pool));
    pool
}

/// Replaces the global pool with one of exactly `threads` workers
/// (`0` = inline serial). Existing `Arc` handles to the previous pool
/// stay valid; its workers shut down when the last handle drops.
pub fn set_global_threads(threads: usize) {
    let pool = Arc::new(Pool::new(threads));
    let mut slot = GLOBAL_POOL.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(pool);
}

/// The worker count a fresh global pool gets: `SELFHEAL_THREADS` if set
/// and parseable, else available parallelism (capped at 8).
#[must_use]
pub fn default_threads() -> usize {
    // analyzer: trust(env): the worker count cannot change results — the
    // pool pins chunk->seed assignment, so par output == serial output.
    if let Ok(raw) = std::env::var(THREADS_ENV_VAR) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// [`Pool::par_map`] on the [`global_pool`].
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    global_pool().par_map(items, f)
}

/// [`Pool::par_map_indexed`] on the [`global_pool`].
pub fn par_map_indexed<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    global_pool().par_map_indexed(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_is_reused_and_replaceable() {
        let a = global_pool();
        let b = global_pool();
        assert!(Arc::ptr_eq(&a, &b));
        set_global_threads(2);
        let c = global_pool();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.workers(), 2);
    }

    #[test]
    fn global_par_map_works() {
        let out = par_map(vec![1u32, 2, 3], |x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }
}
