//! Model replacements for `std::sync` primitives.
//!
//! Each type wraps its `std` counterpart and mirrors its API (including
//! poisoning), adding a scheduling point before every operation when the
//! calling thread runs inside [`crate::model`]. Outside a model run they
//! behave exactly like the `std` types, so code compiled against the
//! `wh-kernel` shim keeps working even if the `model` feature leaks into a
//! production build through feature unification.
//!
//! Blocking is cooperative: bookkeeping in the execution state decides who
//! owns a lock, so the inner `std` lock is only ever taken uncontended.
//! Addresses identify sync objects, so a `Mutex`/`RwLock`/atomic must not
//! move (e.g. out of its `Arc`) during a model run.

// These are the instrumented primitives the checker controls; impossible-
// state panics here abort the explored schedule, which is exactly the
// checker's failure-reporting channel.
#![expect(clippy::expect_used, reason = "checker failure channel")]
#![expect(clippy::unreachable, reason = "checker failure channel")]
// lint: allow-file(atomic-protocol) — Ordering idents in this file
// classify the *caller's* ordering argument (is_acquire/is_release
// matches); the real accesses delegate to std with the caller's choice.
use crate::exec::current;
use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

/// Atomic types with scheduling points and happens-before edges.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    fn is_acquire(order: Ordering) -> bool {
        matches!(
            order,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    fn is_release(order: Ordering) -> bool {
        matches!(
            order,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    macro_rules! model_atomic {
        ($name:ident, $std:ident, $ty:ty) => {
            /// Model counterpart of the same-named `std::sync::atomic` type.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                /// Create a new atomic.
                pub const fn new(v: $ty) -> Self {
                    $name {
                        inner: std::sync::atomic::$std::new(v),
                    }
                }

                fn addr(&self) -> usize {
                    std::ptr::from_ref(self) as usize
                }

                fn edge(&self, acquire: bool, release: bool) {
                    if let Some((exec, me)) = super::current() {
                        exec.atomic_op(me, self.addr(), acquire, release);
                    }
                }

                fn point(&self) {
                    if let Some((exec, me)) = super::current() {
                        exec.yield_point(me);
                    }
                }

                /// Atomic load.
                pub fn load(&self, order: Ordering) -> $ty {
                    self.point();
                    let v = self.inner.load(order);
                    self.edge(is_acquire(order), false);
                    v
                }

                /// Atomic store.
                pub fn store(&self, v: $ty, order: Ordering) {
                    self.point();
                    self.inner.store(v, order);
                    self.edge(false, is_release(order));
                }

                /// Atomic add; returns the previous value.
                pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                    self.point();
                    let r = self.inner.fetch_add(v, order);
                    self.edge(is_acquire(order), is_release(order));
                    r
                }

                /// Atomic subtract; returns the previous value.
                pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                    self.point();
                    let r = self.inner.fetch_sub(v, order);
                    self.edge(is_acquire(order), is_release(order));
                    r
                }

                /// Atomic maximum; returns the previous value.
                pub fn fetch_max(&self, v: $ty, order: Ordering) -> $ty {
                    self.point();
                    let r = self.inner.fetch_max(v, order);
                    self.edge(is_acquire(order), is_release(order));
                    r
                }

                /// Atomic swap; returns the previous value.
                pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                    self.point();
                    let r = self.inner.swap(v, order);
                    self.edge(is_acquire(order), is_release(order));
                    r
                }

                /// Atomic compare-exchange.
                ///
                /// # Errors
                ///
                /// Returns the actual value when it differed from `cur`.
                pub fn compare_exchange(
                    &self,
                    cur: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.point();
                    let r = self.inner.compare_exchange(cur, new, success, failure);
                    match r {
                        Ok(_) => self.edge(is_acquire(success), is_release(success)),
                        Err(_) => self.edge(is_acquire(failure), false),
                    }
                    r
                }

                /// Exclusive-access read (no scheduling point needed).
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.inner.get_mut()
                }

                /// Unwrap the value.
                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }
            }
        };
    }

    model_atomic!(AtomicU32, AtomicU32, u32);
    model_atomic!(AtomicU64, AtomicU64, u64);
    model_atomic!(AtomicUsize, AtomicUsize, usize);

    /// Model counterpart of `std::sync::atomic::AtomicBool`.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Create a new atomic flag.
        pub const fn new(v: bool) -> Self {
            AtomicBool {
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        fn addr(&self) -> usize {
            std::ptr::from_ref(self) as usize
        }

        fn hooks(&self, acquire: bool, release: bool) {
            if let Some((exec, me)) = current_reexport() {
                exec.atomic_op(me, self.addr(), acquire, release);
            }
        }

        fn point(&self) {
            if let Some((exec, me)) = current_reexport() {
                exec.yield_point(me);
            }
        }

        /// Atomic load.
        pub fn load(&self, order: Ordering) -> bool {
            self.point();
            let v = self.inner.load(order);
            self.hooks(is_acquire(order), false);
            v
        }

        /// Atomic store.
        pub fn store(&self, v: bool, order: Ordering) {
            self.point();
            self.inner.store(v, order);
            self.hooks(false, is_release(order));
        }

        /// Atomic swap; returns the previous value.
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            self.point();
            let r = self.inner.swap(v, order);
            self.hooks(is_acquire(order), is_release(order));
            r
        }

        /// Atomic compare-exchange.
        ///
        /// # Errors
        ///
        /// Returns the actual value when it differed from `cur`.
        pub fn compare_exchange(
            &self,
            cur: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            self.point();
            let r = self.inner.compare_exchange(cur, new, success, failure);
            match r {
                Ok(_) => self.hooks(is_acquire(success), is_release(success)),
                Err(_) => self.hooks(is_acquire(failure), false),
            }
            r
        }
    }

    fn current_reexport() -> Option<(std::sync::Arc<crate::exec::Execution>, usize)> {
        super::current()
    }
}

/// Mutual exclusion with cooperative model scheduling; mirrors
/// [`std::sync::Mutex`] including poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // Dropped before the model bookkeeping releases the lock (no other
    // thread runs in between; the scheduler serializes execution).
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(std::sync::Arc<crate::exec::Execution>, usize, usize)>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(v: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(v),
        }
    }

    fn addr(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Acquire, parking cooperatively under the model scheduler.
    ///
    /// # Errors
    ///
    /// Propagates poisoning exactly like [`std::sync::Mutex::lock`].
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match current() {
            Some((exec, me)) => {
                exec.yield_point(me);
                exec.mutex_lock(me, self.addr());
                let model = Some((exec, me, self.addr()));
                match self.inner.try_lock() {
                    Ok(g) => Ok(MutexGuard {
                        inner: Some(g),
                        model,
                    }),
                    Err(TryLockError::Poisoned(p)) => Err(PoisonError::new(MutexGuard {
                        inner: Some(p.into_inner()),
                        model,
                    })),
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("wh-model: bookkeeping granted a held mutex")
                    }
                }
            }
            None => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            },
        }
    }

    /// Non-blocking acquire.
    ///
    /// # Errors
    ///
    /// [`TryLockError::WouldBlock`] when held; poisoning as in `std`.
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        match current() {
            Some((exec, me)) => {
                exec.yield_point(me);
                if !exec.mutex_try_lock(me, self.addr()) {
                    return Err(TryLockError::WouldBlock);
                }
                let model = Some((exec, me, self.addr()));
                match self.inner.try_lock() {
                    Ok(g) => Ok(MutexGuard {
                        inner: Some(g),
                        model,
                    }),
                    Err(TryLockError::Poisoned(p)) => {
                        Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                            inner: Some(p.into_inner()),
                            model,
                        })))
                    }
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("wh-model: bookkeeping granted a held mutex")
                    }
                }
            }
            None => match self.inner.try_lock() {
                Ok(g) => Ok(MutexGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(TryLockError::Poisoned(p)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                        inner: Some(p.into_inner()),
                        model: None,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            },
        }
    }

    /// Exclusive access without locking.
    ///
    /// # Errors
    ///
    /// Propagates poisoning.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }

    /// Unwrap the value.
    ///
    /// # Errors
    ///
    /// Propagates poisoning.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard still held")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard still held")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((exec, me, addr)) = self.model.take() {
            exec.mutex_unlock(me, addr);
            // Post-release scheduling point, skipped mid-unwind: a
            // panicking thread must not park.
            if !std::thread::panicking() {
                exec.yield_point(me);
            }
        }
    }
}

/// Reader-writer lock with cooperative model scheduling; mirrors
/// [`std::sync::RwLock`] including poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    model: Option<(std::sync::Arc<crate::exec::Execution>, usize, usize)>,
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    model: Option<(std::sync::Arc<crate::exec::Execution>, usize, usize)>,
}

impl<T> RwLock<T> {
    /// Create a new lock.
    pub const fn new(v: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(v),
        }
    }

    fn addr(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Acquire shared.
    ///
    /// # Errors
    ///
    /// Propagates poisoning.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        match current() {
            Some((exec, me)) => {
                exec.yield_point(me);
                exec.rw_lock(me, self.addr(), false);
                let model = Some((exec, me, self.addr()));
                match self.inner.try_read() {
                    Ok(g) => Ok(RwLockReadGuard {
                        inner: Some(g),
                        model,
                    }),
                    Err(TryLockError::Poisoned(p)) => Err(PoisonError::new(RwLockReadGuard {
                        inner: Some(p.into_inner()),
                        model,
                    })),
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("wh-model: bookkeeping granted a held rwlock")
                    }
                }
            }
            None => match self.inner.read() {
                Ok(g) => Ok(RwLockReadGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(RwLockReadGuard {
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            },
        }
    }

    /// Acquire exclusive.
    ///
    /// # Errors
    ///
    /// Propagates poisoning.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        match current() {
            Some((exec, me)) => {
                exec.yield_point(me);
                exec.rw_lock(me, self.addr(), true);
                let model = Some((exec, me, self.addr()));
                match self.inner.try_write() {
                    Ok(g) => Ok(RwLockWriteGuard {
                        inner: Some(g),
                        model,
                    }),
                    Err(TryLockError::Poisoned(p)) => Err(PoisonError::new(RwLockWriteGuard {
                        inner: Some(p.into_inner()),
                        model,
                    })),
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("wh-model: bookkeeping granted a held rwlock")
                    }
                }
            }
            None => match self.inner.write() {
                Ok(g) => Ok(RwLockWriteGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            },
        }
    }

    /// Non-blocking shared acquire.
    ///
    /// # Errors
    ///
    /// [`TryLockError::WouldBlock`] when writer-held; poisoning as in `std`.
    pub fn try_read(&self) -> TryLockResult<RwLockReadGuard<'_, T>> {
        match current() {
            Some((exec, me)) => {
                exec.yield_point(me);
                if !exec.rw_try_lock(me, self.addr(), false) {
                    return Err(TryLockError::WouldBlock);
                }
                let model = Some((exec, me, self.addr()));
                match self.inner.try_read() {
                    Ok(g) => Ok(RwLockReadGuard {
                        inner: Some(g),
                        model,
                    }),
                    Err(TryLockError::Poisoned(p)) => {
                        Err(TryLockError::Poisoned(PoisonError::new(RwLockReadGuard {
                            inner: Some(p.into_inner()),
                            model,
                        })))
                    }
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("wh-model: bookkeeping granted a held rwlock")
                    }
                }
            }
            None => match self.inner.try_read() {
                Ok(g) => Ok(RwLockReadGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(TryLockError::Poisoned(p)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(RwLockReadGuard {
                        inner: Some(p.into_inner()),
                        model: None,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            },
        }
    }

    /// Non-blocking exclusive acquire.
    ///
    /// # Errors
    ///
    /// [`TryLockError::WouldBlock`] when held; poisoning as in `std`.
    pub fn try_write(&self) -> TryLockResult<RwLockWriteGuard<'_, T>> {
        match current() {
            Some((exec, me)) => {
                exec.yield_point(me);
                if !exec.rw_try_lock(me, self.addr(), true) {
                    return Err(TryLockError::WouldBlock);
                }
                let model = Some((exec, me, self.addr()));
                match self.inner.try_write() {
                    Ok(g) => Ok(RwLockWriteGuard {
                        inner: Some(g),
                        model,
                    }),
                    Err(TryLockError::Poisoned(p)) => {
                        Err(TryLockError::Poisoned(PoisonError::new(RwLockWriteGuard {
                            inner: Some(p.into_inner()),
                            model,
                        })))
                    }
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("wh-model: bookkeeping granted a held rwlock")
                    }
                }
            }
            None => match self.inner.try_write() {
                Ok(g) => Ok(RwLockWriteGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(TryLockError::Poisoned(p)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(RwLockWriteGuard {
                        inner: Some(p.into_inner()),
                        model: None,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            },
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard still held")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((exec, me, addr)) = self.model.take() {
            exec.rw_unlock(me, addr, false);
            if !std::thread::panicking() {
                exec.yield_point(me);
            }
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard still held")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard still held")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((exec, me, addr)) = self.model.take() {
            exec.rw_unlock(me, addr, true);
            if !std::thread::panicking() {
                exec.yield_point(me);
            }
        }
    }
}
