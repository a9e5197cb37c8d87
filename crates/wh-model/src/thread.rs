//! Model replacement for `std::thread` spawn/join.
//!
//! Inside a model run, spawned threads are real OS threads registered with
//! the cooperative scheduler: the child does not start until scheduled, and
//! `join` is a blocking scheduler operation that establishes the
//! happens-before edge from everything the child did. Outside a model run
//! these delegate straight to `std::thread`.

// join() on an already-joined std handle is a caller bug in the checker
// harness itself; aborting is the contract.
#![expect(clippy::expect_used, reason = "a second join is a harness bug")]
use crate::exec::{current, Execution};
use std::sync::{Arc, Mutex, PoisonError};

enum Inner<T> {
    Model {
        exec: Arc<Execution>,
        tid: usize,
        os: Option<std::thread::JoinHandle<()>>,
        slot: Arc<Mutex<Option<T>>>,
    },
    Std(Option<std::thread::JoinHandle<T>>),
}

/// Handle to a spawned model (or plain) thread.
pub struct JoinHandle<T> {
    inner: Inner<T>,
}

/// Spawn a thread. Under the model this is itself a scheduling point, so
/// interleavings where the child runs immediately are explored.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match current() {
        Some((exec, me)) => {
            let tid = exec.register_spawn(me);
            let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
            let out = Arc::clone(&slot);
            let e2 = Arc::clone(&exec);
            let os = std::thread::spawn(move || {
                Execution::thread_main(&e2, tid, move || {
                    let r = f();
                    *out.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                });
            });
            exec.yield_point(me);
            JoinHandle {
                inner: Inner::Model {
                    exec,
                    tid,
                    os: Some(os),
                    slot,
                },
            }
        }
        None => JoinHandle {
            inner: Inner::Std(Some(std::thread::spawn(f))),
        },
    }
}

/// Scheduling point with no other effect (a place the scheduler may switch).
pub fn yield_now() {
    match current() {
        Some((exec, me)) => exec.yield_point(me),
        None => std::thread::yield_now(),
    }
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and return its result.
    ///
    /// # Errors
    ///
    /// Returns the panic payload surrogate if the thread panicked, like
    /// [`std::thread::JoinHandle::join`].
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            Inner::Model {
                exec,
                tid,
                mut os,
                slot,
            } => {
                if let Some((_, me)) = current() {
                    exec.join_wait(me, tid);
                }
                if let Some(os) = os.take() {
                    // The model thread already Finished in bookkeeping; the
                    // OS thread is exiting, so this cannot stall the model.
                    let _ = os.join();
                }
                match slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
                    Some(v) => Ok(v),
                    None => Err(Box::new("model thread panicked".to_string())
                        as Box<dyn std::any::Any + Send>),
                }
            }
            Inner::Std(mut h) => h.take().expect("join consumes the handle").join(),
        }
    }
}
