//! Offline drop-in subset of the `rayon` API.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a minimal data-parallelism shim exposing exactly the surface the
//! codebase uses: `par_iter().map(..).collect()`, `par_chunks_mut(..)
//! .enumerate().for_each(..)`, and a shared implicit thread pool sized by
//! [`current_num_threads`]. Work is distributed dynamically
//! (an atomic work index, one OS thread per core) and results preserve
//! input order, matching rayon's observable semantics for these adaptors.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod prelude {
    pub use crate::iter::{IntoParallelRefIterator, ParallelIterator};
    pub use crate::slice::ParallelSliceMut;
}

/// Number of worker threads of the implicit pool: the CPUs the process may
/// run on, asked of the OS at the first call and kept (the query is an
/// affinity syscall plus cgroup file reads, and every adaptor and every
/// large GEMM calls this). A process that narrows its own affinity does so
/// before its first parallel call.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Order-preserving parallel map over owned items with dynamic scheduling.
fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("slot taken twice");
                let out = f(item);
                *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker skipped a slot")
        })
        .collect()
}

pub mod iter {
    use super::parallel_map;

    /// A parallel iterator: a finite sequence whose per-item work runs on
    /// the implicit pool when a terminal adaptor drives it.
    pub trait ParallelIterator: Sized + Send {
        /// Item type produced by this iterator.
        type Item: Send;

        /// Materialize all items in order. Adaptors that carry user
        /// closures (e.g. [`Map`]) apply them in parallel here.
        fn drive(self) -> Vec<Self::Item>;

        /// Map every item through `f` on the pool.
        fn map<R, F>(self, f: F) -> Map<Self, F>
        where
            R: Send,
            F: Fn(Self::Item) -> R + Sync + Send,
        {
            Map { base: self, f }
        }

        /// Pair every item with its index.
        fn enumerate(self) -> Enumerate<Self> {
            Enumerate { base: self }
        }

        /// Run `f` on every item (parallel, unordered effects).
        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Sync + Send,
        {
            self.map(f).drive();
        }

        /// Collect all items in input order.
        fn collect<C: From<Vec<Self::Item>>>(self) -> C {
            C::from(self.drive())
        }
    }

    /// Borrowing conversion into a parallel iterator (`par_iter`).
    pub trait IntoParallelRefIterator<'a> {
        /// Item type (a shared reference).
        type Item: Send + 'a;
        /// The iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Parallel counterpart of `[T]::iter`.
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;
        type Iter = ParIter<'a, T>;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { items: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;
        type Iter = ParIter<'a, T>;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { items: self }
        }
    }

    /// Parallel iterator over shared slice references.
    pub struct ParIter<'a, T> {
        items: &'a [T],
    }

    impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
        type Item = &'a T;
        fn drive(self) -> Vec<&'a T> {
            self.items.iter().collect()
        }
    }

    /// Mapped parallel iterator (the stage that runs user code).
    pub struct Map<I, F> {
        base: I,
        f: F,
    }

    impl<I, R, F> ParallelIterator for Map<I, F>
    where
        I: ParallelIterator,
        R: Send,
        F: Fn(I::Item) -> R + Sync + Send,
    {
        type Item = R;
        fn drive(self) -> Vec<R> {
            parallel_map(self.base.drive(), self.f)
        }
    }

    /// Index-pairing adaptor.
    pub struct Enumerate<I> {
        base: I,
    }

    impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
        type Item = (usize, I::Item);
        fn drive(self) -> Vec<(usize, I::Item)> {
            self.base.drive().into_iter().enumerate().collect()
        }
    }
}

pub mod slice {
    use crate::iter::ParallelIterator;

    /// Parallel counterpart of mutable slice splitting.
    pub trait ParallelSliceMut<T: Send> {
        /// Parallel counterpart of `chunks_mut`.
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

    /// Parallel iterator over disjoint mutable chunks.
    pub struct ParChunksMut<'a, T> {
        slice: &'a mut [T],
        chunk_size: usize,
    }

    impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
        type Item = &'a mut [T];
        fn drive(self) -> Vec<&'a mut [T]> {
            self.slice.chunks_mut(self.chunk_size).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_enumerate_for_each() {
        let mut v = vec![0usize; 12];
        v.as_mut_slice()
            .par_chunks_mut(3)
            .enumerate()
            .for_each(|(j, chunk)| {
                for c in chunk.iter_mut() {
                    *c = j;
                }
            });
        assert_eq!(v, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn thread_count_is_read_once() {
        let n = crate::current_num_threads();
        assert!(n >= 1);
        // Asking the OS costs microseconds a call (19 µs where this was
        // written, 190 ms for these 10 000); a kept value costs a load.
        // Best of five, so one preemption cannot fail it.
        let best = (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                for _ in 0..10_000 {
                    assert_eq!(std::hint::black_box(crate::current_num_threads()), n);
                }
                t.elapsed()
            })
            .min()
            .expect("five rounds");
        assert!(best.as_millis() < 10, "10 000 calls took {best:?}");
    }

    #[test]
    fn empty_and_single_item() {
        let v: Vec<i32> = Vec::new();
        let out: Vec<i32> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7];
        let out: Vec<i32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }
}
