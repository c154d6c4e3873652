//! Offline stand-in for the subset of [`rayon`](https://docs.rs/rayon) this
//! workspace uses.
//!
//! The build environment cannot fetch crates.io dependencies, so this shim
//! provides the same API shape backed by `std::thread::scope`: a parallel
//! iterator is materialized into a `Vec`, split into one contiguous chunk
//! per worker thread, and the chunks are processed concurrently. Results are
//! returned in input order, so callers observe the same determinism
//! guarantees real rayon gives for the patterns used here
//! (`into_par_iter().map().collect()`, `par_iter_mut().enumerate().for_each()`).
//!
//! Covered surface:
//! * `prelude::*` with [`IntoParallelIterator`] (for `Range<usize>` and
//!   `Vec<T>`) and [`IntoParallelRefMutIterator`] (for slices and `Vec<T>`),
//! * `map`, `collect`, `for_each`, `enumerate` on the resulting iterators,
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] (the thread count
//!   bounds the workers used inside `install`),
//! * [`ThreadPoolBuilder::build_global`] / [`current_num_threads`] — the
//!   process-global default worker count, which (unlike `install`, whose
//!   override is thread-local) also bounds parallel work issued from inside
//!   worker threads. CLI `--threads` flags go through this.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefMutIterator};
}

std::thread_local! {
    static POOL_THREADS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Process-wide default worker count set by [`ThreadPoolBuilder::build_global`];
/// 0 means "unset" (fall back to the machine's available parallelism).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

fn worker_threads() -> usize {
    POOL_THREADS
        .with(|c| c.get())
        .or_else(|| match GLOBAL_THREADS.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
        .max(1)
}

/// The number of worker threads data-parallel calls on this thread would
/// currently use (mirrors `rayon::current_num_threads`).
pub fn current_num_threads() -> usize {
    worker_threads()
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type mirroring `rayon::ThreadPoolBuildError` (never produced).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }

    /// Installs this builder's thread count as the process-global default,
    /// mirroring `rayon::ThreadPoolBuilder::build_global`. A count of 0 (or
    /// none) resets to the machine default. Unlike [`ThreadPool::install`]
    /// the global default is visible from every thread, so it also bounds
    /// nested data-parallel calls made inside worker threads — `--threads 1`
    /// makes the whole process run serially.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_THREADS.store(self.num_threads.unwrap_or(0), Ordering::Relaxed);
        Ok(())
    }
}

/// A "pool" that scopes a worker-thread-count override.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count bounding data-parallel work.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|c| c.replace(self.num_threads.filter(|&n| n > 0)));
        let out = f();
        POOL_THREADS.with(|c| c.set(prev));
        out
    }
}

/// Runs `f` over `items` on up to [`worker_threads`] scoped threads,
/// preserving input order in the result.
fn run_map<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let threads = worker_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items;
    // Split off back-to-front so each chunk is a contiguous input range.
    let mut bounds: Vec<usize> = (1..threads).map(|i| i * chunk).rev().collect();
    bounds.retain(|&b| b < n);
    for b in bounds {
        chunks.push(items.split_off(b));
    }
    chunks.push(items);
    chunks.reverse();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk_items| s.spawn(move || chunk_items.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        join_all(handles)
    });
    let mut out = Vec::with_capacity(n);
    out.extend(parts.into_iter().flatten());
    out
}

/// Joins every worker in spawn order, then re-raises the first worker panic
/// with its original payload, as real rayon does. Left to itself,
/// `std::thread::scope` would replace that payload with "a scoped thread
/// panicked".
fn join_all<R>(handles: Vec<std::thread::ScopedJoinHandle<'_, R>>) -> Vec<R> {
    let mut out = Vec::with_capacity(handles.len());
    let mut panic = None;
    for handle in handles {
        match handle.join() {
            Ok(r) => out.push(r),
            Err(payload) => {
                panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    out
}

/// Conversion into an (eager) parallel iterator.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// An eager "parallel iterator" over owned items.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap { items: self.items, f }
    }

    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_map(self.items, &|t| f(t));
    }

    pub fn collect(self) -> Vec<T> {
        self.items
    }
}

/// Result of [`ParIter::map`]; terminal operations run in parallel.
pub struct ParMap<T: Send, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, F> {
    pub fn collect(self) -> Vec<R> {
        run_map(self.items, &self.f)
    }

    pub fn for_each(self) {
        run_map(self.items, &self.f);
    }
}

/// Conversion of `&mut` collections into a parallel iterator of `&mut T`.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self.as_mut_slice() }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self }
    }
}

/// Parallel iterator over mutable references.
pub struct ParIterMut<'a, T: Send> {
    items: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    pub fn enumerate(self) -> ParIterMutEnumerate<'a, T> {
        ParIterMutEnumerate { items: self.items }
    }

    pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
        ParIterMutEnumerate { items: self.items }.for_each(|(_, t)| f(t));
    }
}

/// Enumerated variant of [`ParIterMut`].
pub struct ParIterMutEnumerate<'a, T: Send> {
    items: &'a mut [T],
}

impl<T: Send> ParIterMutEnumerate<'_, T> {
    pub fn for_each<F: Fn((usize, &mut T)) + Sync>(self, f: F) {
        let n = self.items.len();
        let threads = worker_threads().min(n.max(1));
        if threads <= 1 || n <= 1 {
            for (i, t) in self.items.iter_mut().enumerate() {
                f((i, t));
            }
            return;
        }
        let chunk = n.div_ceil(threads);
        std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = self
                .items
                .chunks_mut(chunk)
                .enumerate()
                .map(|(ci, chunk_items)| {
                    s.spawn(move || {
                        for (i, t) in chunk_items.iter_mut().enumerate() {
                            f((ci * chunk + i, t));
                        }
                    })
                })
                .collect();
            join_all(handles);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn vec_into_par_iter() {
        let v: Vec<String> = vec![1, 2, 3].into_par_iter().map(|i: i32| i.to_string()).collect();
        assert_eq!(v, vec!["1", "2", "3"]);
    }

    #[test]
    fn par_iter_mut_enumerate() {
        let mut v = vec![0usize; 777];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * 3);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3));
    }

    #[test]
    fn pool_install_bounds_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let out = pool.install(|| (0..100).into_par_iter().map(|i| i + 1).collect());
        assert_eq!(out.len(), 100);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn empty_input() {
        let v: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn worker_panic_payload_reaches_caller() {
        fn message(payload: Box<dyn std::any::Any + Send>) -> String {
            payload.downcast::<String>().map(|m| *m).expect("panic message is a String")
        }
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let mapped = std::panic::catch_unwind(|| {
            pool.install(|| (0..64).into_par_iter().for_each(|i| assert!(i != 40, "map {i}")))
        });
        assert_eq!(message(mapped.unwrap_err()), "map 40");
        let mut v = vec![0usize; 64];
        let mutated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                v.par_iter_mut().enumerate().for_each(|(i, _)| assert!(i != 50, "mut {i}"))
            })
        }));
        assert_eq!(message(mutated.unwrap_err()), "mut 50");
    }

    #[test]
    fn build_global_bounds_all_threads_and_install_overrides() {
        // One test covers set / read / override / reset so parallel test
        // threads never observe a half-configured global.
        ThreadPoolBuilder::new().num_threads(2).build_global().unwrap();
        assert_eq!(current_num_threads(), 2);
        // The global default is visible from freshly spawned threads
        // (thread-local `install` state is not).
        let seen = std::thread::spawn(current_num_threads).join().unwrap();
        assert_eq!(seen, 2);
        // A scoped install still takes precedence on its own thread.
        let pool = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        pool.install(|| assert_eq!(current_num_threads(), 5));
        assert_eq!(current_num_threads(), 2);
        // Work still completes correctly under the bound.
        let v: Vec<usize> = (0..100).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v[99], 100);
        // Reset to the machine default for the rest of the test binary.
        ThreadPoolBuilder::new().build_global().unwrap();
        assert!(current_num_threads() >= 1);
    }
}
