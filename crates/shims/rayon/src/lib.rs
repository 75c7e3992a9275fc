//! Offline shim for `rayon`.
//!
//! The workspace parallelises two shapes — `(0..n).into_par_iter().map(f)
//! .collect()` (index-parallel tasks) and `slice.par_chunks_mut(len)
//! .enumerate().for_each(f)` (disjoint in-place writes into one pre-sized
//! buffer) — so the shim implements exactly those, preserving output order.
//!
//! Both run on one process-wide pool of persistent worker threads (see
//! [`current_num_threads`]), spawned on first use and parked on a condvar
//! while idle, so a parallel call costs a wake-up rather than an OS thread
//! spawn.  Each call publishes one job; workers and the calling thread
//! claim its task indices from an atomic counter.  The caller only ever
//! waits for tasks another thread has already claimed, so a parallel call
//! made from inside a parallel closure cannot deadlock.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

pub mod prelude {
    //! Drop-in for `rayon::prelude::*`.
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

/// Number of threads the pool runs parallel work on: the host's available
/// parallelism, read once per process.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Locks a pool mutex.  Task bodies never run while one is held and every
/// update under them is a single step, so a poisoned guard still holds
/// valid data and is recovered.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A lifetime-erased task body: `body(i)` runs task `i`.
type Body = dyn Fn(usize) + Sync;

/// One published parallel call.  Lives in an `Arc` so a worker that picked
/// it up can still read the counters after the caller has returned; only
/// `body` borrows from the caller's stack.
struct Job {
    body: *const Body,
    tasks: usize,
    /// Next task index to claim; values `>= tasks` mean "nothing left".
    next: AtomicUsize,
    /// Tasks finished (returned or panicked).  The increment that reaches
    /// `tasks` flips `finished` under its mutex, so the caller's wait
    /// observes every task's writes (AcqRel on the counter, then the mutex
    /// hand-off).
    done: AtomicUsize,
    finished: Mutex<bool>,
    finished_cv: Condvar,
    /// The first task panic, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` points at a `Sync` closure, so sharing it across threads
// is sound, and it is only dereferenced under the invariant documented on
// `run_job` (the pointee outlives every call).  Every other field is
// `Send + Sync` on its own.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs tasks until none are left unclaimed.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return;
            }
            // SAFETY: index `i < tasks` was claimed, so the job is not
            // drained and its caller is still blocked in `run_job`, which
            // keeps the closure behind `body` alive.
            let body = unsafe { &*self.body };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.tasks {
                *lock(&self.finished) = true;
                self.finished_cv.notify_all();
            }
        }
    }

    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.tasks
    }

    /// Blocks until every task has finished.
    fn wait(&self) {
        let mut finished = lock(&self.finished);
        while !*finished {
            finished = self
                .finished_cv
                .wait(finished)
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// The process-wide pool: jobs with unclaimed tasks, and the condvar idle
/// workers park on.
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    workers: usize,
}

impl Pool {
    fn get() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = current_num_threads();
            let pool: &'static Pool = Box::leak(Box::new(Pool {
                queue: Mutex::new(VecDeque::new()),
                work_cv: Condvar::new(),
                workers,
            }));
            for w in 0..workers {
                // Workers run for the life of the process and never exit,
                // so there is nothing to join.
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{w}"))
                    .spawn(move || pool.worker_loop())
                    .expect("rayon shim: cannot spawn pool worker");
            }
            pool
        })
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.iter().find(|j| j.has_unclaimed()) {
                        break Arc::clone(job);
                    }
                    queue = self.work_cv.wait(queue).unwrap_or_else(|p| p.into_inner());
                }
            };
            job.work();
        }
    }
}

/// Runs `body(i)` for every `i in 0..tasks` across the pool and the calling
/// thread, returning once all have finished.  Re-raises the first task
/// panic after the job has drained.
///
/// Lifetime erasure: the job stores `body` as a pointer with its lifetime
/// erased so pool workers can call it.  That is sound because the body is
/// never called after this function returns: a thread calls it only for a
/// task index it claimed below `tasks`, and this function does not return
/// (or unwind) until `done == tasks`, i.e. until every claimed call has
/// returned.  Claims made after that see `next >= tasks` and never touch
/// `body`.
fn run_job(tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    if tasks <= 1 || current_num_threads() <= 1 {
        (0..tasks).for_each(body);
        return;
    }
    let pool = Pool::get();
    let body: *const (dyn Fn(usize) + Sync + '_) = body;
    // SAFETY: only the lifetime changes (same fat-pointer layout); the
    // erased pointer is dereferenced solely under the invariant above.
    let body =
        unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const Body>(body) };
    let job = Arc::new(Job {
        body,
        tasks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        finished: Mutex::new(false),
        finished_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    lock(&pool.queue).push_back(Arc::clone(&job));
    // The caller takes tasks too, so wake at most one worker per other task.
    for _ in 0..(tasks - 1).min(pool.workers) {
        pool.work_cv.notify_one();
    }
    job.work();
    lock(&pool.queue).retain(|j| !Arc::ptr_eq(j, &job));
    job.wait();
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// A raw pointer the pool may share between threads; every access goes to
/// an index exactly one task owns.
struct SharedMut<T>(*mut T);

// SAFETY: tasks only touch disjoint elements through the pointer (each
// task index is claimed by exactly one thread), so sharing it only ever
// moves `T` values between threads, which `T: Send` allows.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// Going through a method makes closures capture the whole `Sync`
    /// wrapper rather than the bare pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;

    /// Starts a parallel pipeline.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over an index range.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Maps each index through `f` in parallel.
    pub fn map<T, F>(self, f: F) -> ParMap<F>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        ParMap {
            range: self.range,
            f,
        }
    }
}

/// A mapped parallel range, ready to collect.
pub struct ParMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParMap<F> {
    /// Runs the map across threads and collects results in index order.
    pub fn collect<C, T>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FromIterator<T>,
    {
        parallel_map_range(self.range, &self.f)
            .into_iter()
            .map(|slot| slot.expect("rayon shim: every task fills its slot"))
            .collect()
    }
}

/// Runs `f` over `range`, writing each result into its index-ordered slot.
fn parallel_map_range<T, F>(range: Range<usize>, f: &F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(range.len()).collect();
    let out = SharedMut(slots.as_mut_ptr());
    let start = range.start;
    run_job(slots.len(), &|i| {
        let v = f(start + i);
        // SAFETY: `i < slots.len()` and task `i` is run by exactly one
        // thread, so this is the only access to slot `i` until `run_job`
        // returns; `slots` is neither moved nor resized meanwhile.
        unsafe { *out.get().add(i) = Some(v) };
    });
    slots
}

/// Parallel mutation of non-overlapping slice chunks (the
/// `slice.par_chunks_mut(n)` entry point of real rayon).
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into chunks of at most `chunk_size` elements, to be
    /// processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { inner: self }
    }

    /// Runs `f` over every chunk in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        parallel_chunks(self.slice, self.chunk_size, &|_, chunk| f(chunk));
    }
}

/// An enumerated parallel chunk iterator.
pub struct ParChunksMutEnumerate<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Runs `f` over every `(index, chunk)` pair in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        parallel_chunks(self.inner.slice, self.inner.chunk_size, &|i, chunk| {
            f((i, chunk))
        });
    }
}

fn parallel_chunks<T, F>(slice: &mut [T], chunk_size: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = slice.len();
    let base = SharedMut(slice.as_mut_ptr());
    run_job(len.div_ceil(chunk_size), &|i| {
        let lo = i * chunk_size;
        let n = chunk_size.min(len - lo);
        // SAFETY: chunk `i` is `[lo, lo + n)`, inside the slice, and
        // disjoint from every other chunk; task `i` is run by exactly one
        // thread, and the exclusive borrow of `slice` outlives `run_job`.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), n) };
        f(i, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Barrier;

    #[test]
    fn preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range() {
        let v: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn single_element() {
        let v: Vec<String> = (3..4).into_par_iter().map(|i| format!("{i}")).collect();
        assert_eq!(v, vec!["3".to_string()]);
    }

    #[test]
    fn par_chunks_mut_enumerated_writes() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 10 + j;
            }
        });
        let expected: Vec<usize> = (0..103).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn par_chunks_mut_plain_for_each() {
        let mut data = [1i32; 37];
        data.par_chunks_mut(5).for_each(|chunk| {
            for v in chunk {
                *v *= 2;
            }
        });
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    fn par_chunks_mut_empty_slice() {
        let mut data: Vec<u8> = Vec::new();
        data.par_chunks_mut(4).enumerate().for_each(|(_, _)| {
            panic!("no chunks expected");
        });
    }

    #[test]
    fn nested_parallel_calls_complete() {
        let sums: Vec<usize> = (0..16)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..i + 1).into_par_iter().map(|j| j * i).collect();
                let mut data = [0usize; 9];
                data.par_chunks_mut(2).enumerate().for_each(|(c, chunk)| {
                    chunk.fill(c + i);
                });
                inner.iter().sum::<usize>() + data.iter().sum::<usize>()
            })
            .collect();
        let expected: Vec<usize> = (0..16)
            .map(|i| {
                (0..=i).map(|j| j * i).sum::<usize>() + (0..9).map(|x| x / 2 + i).sum::<usize>()
            })
            .collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn task_panic_reaches_the_caller_and_the_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..64)
                .into_par_iter()
                .map(|i| {
                    assert!(i != 37, "task 37 fails");
                    i
                })
                .collect();
        });
        let payload = caught.expect_err("the task panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("task 37 fails"), "unexpected payload {msg:?}");

        let mut data = [0u32; 50];
        data.par_chunks_mut(3).for_each(|chunk| chunk.fill(7));
        assert!(data.iter().all(|&v| v == 7));
        let v: Vec<usize> = (0..64).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v, (1..65).collect::<Vec<_>>());
    }

    /// Returns `i` after a little busy work, so tasks outlast the claim
    /// race and really run on several threads at once.
    fn slow_identity(i: usize) -> usize {
        (0..2000).fold(i, |acc, _| std::hint::black_box(acc))
    }

    /// Three caller threads (like three in-process providers) start
    /// together and each get their own, correctly ordered results —
    /// including chunk lengths that do not divide the slice.
    #[test]
    fn concurrent_callers_get_their_own_ordered_results() {
        let start = Barrier::new(3);
        std::thread::scope(|scope| {
            for t in 0..3usize {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for round in 0..50usize {
                        let salt = t * 1000 + round;
                        let v: Vec<usize> = (0..257)
                            .into_par_iter()
                            .map(|i| slow_identity(i) * 3 + salt)
                            .collect();
                        assert_eq!(v, (0..257).map(|i| i * 3 + salt).collect::<Vec<_>>());

                        let chunk = [1, 3, 7, 64][round % 4];
                        let mut data = vec![0usize; 101 + t];
                        data.par_chunks_mut(chunk)
                            .enumerate()
                            .for_each(|(c, part)| {
                                for (j, x) in part.iter_mut().enumerate() {
                                    *x = slow_identity(c * chunk + j) ^ salt;
                                }
                            });
                        let expected: Vec<usize> = (0..101 + t).map(|i| i ^ salt).collect();
                        assert_eq!(data, expected, "caller {t}, chunk {chunk}");
                    }
                });
            }
        });
    }
}
