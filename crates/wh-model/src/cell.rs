//! Race-checked interior mutability, mirroring loom's `UnsafeCell` API.
//!
//! Every access inside a model run is stamped with the accessor's vector
//! clock and checked against prior accesses: a read or write that is not
//! ordered (happens-before) after every concurrent write — or a write
//! concurrent with an unsynchronized read — fails the execution as a data
//! race. Because `Relaxed` atomics create no happens-before edge, a value
//! published through a `Relaxed` store and dereferenced after a `Relaxed`
//! load is flagged even though the sequentially consistent interleaving
//! reads the "right" value.

use crate::exec::current;

/// Model counterpart of [`std::cell::UnsafeCell`] with dynamic race checks.
#[derive(Debug, Default)]
pub struct UnsafeCell<T> {
    inner: std::cell::UnsafeCell<T>,
}

// Model-only types: tests share cells across model threads on purpose; the
// race detector (not the type system) enforces exclusion. Not for
// production use — `wh-kernel`'s sync shim only maps onto this under the
// `model` feature.
// SAFETY: moving the cell moves its `T`, which is `Send`.
unsafe impl<T: Send> Send for UnsafeCell<T> {}
// SAFETY: `&self` only hands out raw pointers, whose use is the caller's
// `unsafe` obligation; a model run reports each access to the race detector.
unsafe impl<T: Send> Sync for UnsafeCell<T> {}

impl<T> UnsafeCell<T> {
    /// Wrap a value.
    pub const fn new(v: T) -> Self {
        UnsafeCell {
            inner: std::cell::UnsafeCell::new(v),
        }
    }

    fn addr(&self) -> usize {
        self.inner.get() as usize
    }

    /// Immutable access: `f` gets the raw pointer; dereferencing it is the
    /// caller's `unsafe` obligation, checked dynamically under the model.
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        if let Some((exec, me)) = current() {
            exec.yield_point(me);
            exec.cell_access(me, self.addr(), false, "read");
        }
        f(self.inner.get())
    }

    /// Mutable access; same contract as [`UnsafeCell::with`].
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        if let Some((exec, me)) = current() {
            exec.yield_point(me);
            exec.cell_access(me, self.addr(), true, "write");
        }
        f(self.inner.get())
    }

    /// Unwrap the value (exclusive, no check needed).
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Exclusive access (no check needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}
