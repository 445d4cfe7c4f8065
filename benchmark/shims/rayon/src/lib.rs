//! Serial stand-in for rayon: every `par_*` call returns the matching std
//! iterator and `join` runs its closures one after the other, so sections
//! written for a thread pool run on the calling thread, in order.

/// Runs `a`, then `b`, on the calling thread.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

pub mod prelude {
    pub trait IntoParallelIterator: IntoIterator + Sized {
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }
    impl<I: IntoIterator> IntoParallelIterator for I {}

    pub trait IntoParallelRefIterator<'a> {
        type Iter: Iterator;
        fn par_iter(&'a self) -> Self::Iter;
    }
    impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
    where
        &'a C: IntoIterator,
    {
        type Iter = <&'a C as IntoIterator>::IntoIter;
        fn par_iter(&'a self) -> Self::Iter {
            self.into_iter()
        }
    }

    pub trait IntoParallelRefMutIterator<'a> {
        type Iter: Iterator;
        fn par_iter_mut(&'a mut self) -> Self::Iter;
    }
    impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
    where
        &'a mut C: IntoIterator,
    {
        type Iter = <&'a mut C as IntoIterator>::IntoIter;
        fn par_iter_mut(&'a mut self) -> Self::Iter {
            self.into_iter()
        }
    }

    pub trait ParallelSlice<T> {
        fn par_chunks(&self, size: usize) -> std::slice::Chunks<'_, T>;
    }
    impl<T> ParallelSlice<T> for [T] {
        fn par_chunks(&self, size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(size)
        }
    }

    pub trait ParallelSliceMut<T> {
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T>;
    }
    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(size)
        }
    }

    /// The rayon adaptors that std's `Iterator` lacks.
    pub trait ParallelIterator: Iterator + Sized {
        fn flat_map_iter<U, F>(self, f: F) -> std::iter::FlatMap<Self, U, F>
        where
            U: IntoIterator,
            F: FnMut(Self::Item) -> U,
        {
            self.flat_map(f)
        }
    }
    impl<I: Iterator> ParallelIterator for I {}
}
