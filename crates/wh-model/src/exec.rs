//! The exploration engine: one [`Execution`] per explored interleaving.
//!
//! Model threads are real OS threads, but at most one executes at a time:
//! every synchronization operation first calls [`Execution::yield_point`],
//! which records a scheduling decision (which runnable thread goes next)
//! and parks the caller until it is granted execution again. Replaying a
//! recorded decision prefix and taking default choices past it makes each
//! execution deterministic; [`next_prefix`] backtracks depth-first to the
//! last decision with an untried alternative within the preemption budget.

use crate::clock::VClock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Sentinel panic payload: "this execution already failed, unwind quietly".
pub(crate) struct Abort;

#[expect(clippy::panic, reason = "the checker unwinds failed executions")]
fn panic_abort() -> ! {
    std::panic::panic_any(Abort)
}

/// Install (once, process-wide) a panic hook that silences [`Abort`]
/// unwinds — every parked thread of a failed execution exits through one —
/// while delegating real panics to the previous hook.
fn install_quiet_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Abort>().is_none() {
                prev(info);
            }
        }));
    });
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedLock(usize),
    BlockedRw(usize),
    BlockedJoin(usize),
    Finished,
}

/// One recorded scheduling decision.
#[derive(Debug, Clone)]
pub(crate) struct Choice {
    /// Candidate threads in canonical order (current-thread first when it
    /// is still runnable, then ascending) — the DFS alternative set.
    order: Vec<usize>,
    /// Index into `order` actually taken.
    index: usize,
    /// The thread that was executing when the decision was made.
    running_before: usize,
    /// Whether `running_before` was itself still runnable (so choosing any
    /// other thread counts against the preemption budget).
    running_was_enabled: bool,
    /// Preemptions spent before this decision.
    preemptions_before: usize,
}

impl Choice {
    pub(crate) fn chosen(&self) -> usize {
        self.order[self.index]
    }
}

#[derive(Default)]
struct MutexBook {
    held: bool,
}

#[derive(Default)]
struct RwBook {
    writer: bool,
    readers: usize,
}

#[derive(Default)]
struct CellBook {
    /// Per-thread own-clock stamp of that thread's last write.
    writes: VClock,
    /// Per-thread own-clock stamp of that thread's last read.
    reads: VClock,
}

struct ExecState {
    running: Option<usize>,
    threads: Vec<Status>,
    finished: usize,
    trace: Vec<Choice>,
    prefix: Vec<usize>,
    preemptions: usize,
    mutexes: HashMap<usize, MutexBook>,
    rwlocks: HashMap<usize, RwBook>,
    /// Release clocks of sync objects (mutexes, rwlocks, atomics), keyed by
    /// object address.
    objclocks: HashMap<usize, VClock>,
    cells: HashMap<usize, CellBook>,
    clocks: Vec<VClock>,
    failure: Option<String>,
}

pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The calling thread's model context, if it is a model thread.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

impl Execution {
    pub(crate) fn new(prefix: Vec<usize>) -> Arc<Self> {
        let mut clock0 = VClock::new();
        clock0.bump(0);
        Arc::new(Execution {
            state: Mutex::new(ExecState {
                running: Some(0),
                threads: vec![Status::Runnable],
                finished: 0,
                trace: Vec::new(),
                prefix,
                preemptions: 0,
                mutexes: HashMap::new(),
                rwlocks: HashMap::new(),
                objclocks: HashMap::new(),
                cells: HashMap::new(),
                clocks: vec![clock0],
                failure: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Run one execution of the model closure to completion (all model
    /// threads finished or the execution failed).
    pub(crate) fn run<F>(exec: &Arc<Self>, f: Arc<F>)
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_quiet_hook();
        let e = Arc::clone(exec);
        let root = std::thread::spawn(move || {
            let body = {
                let f = Arc::clone(&f);
                move || f()
            };
            Self::thread_main(&e, 0, body);
        });
        // The root OS thread exits only after tid 0 finished; remaining
        // model threads wind down via the scheduler.
        let _ = root.join();
        let mut st = exec.locked();
        while st.finished < st.threads.len() {
            st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The body wrapper every model OS thread runs. The body does not start
    /// until the scheduler grants this tid execution — a freshly spawned OS
    /// thread must not race the (still running) spawner.
    pub(crate) fn thread_main<F: FnOnce()>(exec: &Arc<Self>, tid: usize, body: F) {
        CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(exec), tid)));
        let e = Arc::clone(exec);
        let result = catch_unwind(AssertUnwindSafe(move || {
            e.wait_scheduled(tid);
            body();
        }));
        CTX.with(|c| *c.borrow_mut() = None);
        match result {
            Ok(()) => exec.finish(tid),
            Err(payload) => {
                if payload.downcast_ref::<Abort>().is_some() {
                    exec.finish_quiet(tid);
                } else {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "model thread panicked".to_string());
                    exec.record_failure(tid, msg);
                }
            }
        }
    }

    /// Extract the recorded trace and failure after [`Execution::run`].
    pub(crate) fn into_outcome(self: Arc<Self>) -> (Vec<Choice>, Option<String>) {
        let mut st = self.locked();
        (std::mem::take(&mut st.trace), st.failure.take())
    }

    fn locked(&self) -> MutexGuard<'_, ExecState> {
        // A model-thread panic unwinds through scheduler calls by design;
        // the bookkeeping is never left mid-mutation.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a scheduling decision among the runnable threads and return
    /// the chosen thread, or `None` when nothing is runnable.
    fn pick(st: &mut ExecState, me: usize) -> Option<usize> {
        let enabled: Vec<usize> = (0..st.threads.len())
            .filter(|&t| st.threads[t] == Status::Runnable)
            .collect();
        if enabled.is_empty() {
            return None;
        }
        let me_enabled = enabled.contains(&me);
        let mut order = Vec::with_capacity(enabled.len());
        if me_enabled {
            order.push(me);
        }
        order.extend(enabled.iter().copied().filter(|&t| t != me));
        let depth = st.trace.len();
        let index = if depth < st.prefix.len() {
            let i = st.prefix[depth];
            if i >= order.len() {
                st.failure.get_or_insert_with(|| {
                    "nondeterministic model: replay diverged (the closure must \
                     be deterministic given the schedule)"
                        .to_string()
                });
                return None;
            }
            i
        } else {
            0
        };
        let chosen = order[index];
        st.trace.push(Choice {
            order,
            index,
            running_before: me,
            running_was_enabled: me_enabled,
            preemptions_before: st.preemptions,
        });
        if chosen != me && me_enabled {
            st.preemptions += 1;
        }
        Some(chosen)
    }

    /// Schedule away from `me` (optionally marking it blocked) and return
    /// once `me` is granted execution again.
    fn reschedule(&self, me: usize, blocked: Option<Status>) {
        let mut st = self.locked();
        if st.failure.is_some() {
            drop(st);
            panic_abort();
        }
        if let Some(s) = blocked {
            st.threads[me] = s;
        }
        match Self::pick(&mut st, me) {
            Some(next) => {
                st.running = Some(next);
                if next == me {
                    return;
                }
                self.cv.notify_all();
            }
            None => {
                // `me` just blocked and nothing else can run.
                let report = self.deadlock_report(&st);
                st.failure.get_or_insert(report);
                drop(st);
                self.cv.notify_all();
                panic_abort();
            }
        }
        loop {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            if st.failure.is_some() {
                drop(st);
                panic_abort();
            }
            if st.running == Some(me) {
                return;
            }
        }
    }

    fn deadlock_report(&self, st: &ExecState) -> String {
        let blocked: Vec<String> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s, Status::Finished))
            .map(|(t, s)| format!("thread {t} {s:?}"))
            .collect();
        format!("deadlock: no runnable thread ({})", blocked.join(", "))
    }

    /// A plain scheduling point: every visible operation calls this first.
    pub(crate) fn yield_point(&self, me: usize) {
        self.reschedule(me, None);
    }

    /// Park until the scheduler grants `me` execution (thread startup).
    fn wait_scheduled(&self, me: usize) {
        let mut st = self.locked();
        loop {
            if st.failure.is_some() {
                drop(st);
                panic_abort();
            }
            if st.running == Some(me) {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn finish(&self, me: usize) {
        let mut st = self.locked();
        if st.failure.is_some() {
            drop(st);
            self.finish_quiet(me);
            return;
        }
        st.threads[me] = Status::Finished;
        st.finished += 1;
        Self::wake_blocked(&mut st, |s| s == Status::BlockedJoin(me));
        match Self::pick(&mut st, me) {
            Some(next) => {
                st.running = Some(next);
            }
            None => {
                st.running = None;
                if st.finished < st.threads.len() {
                    let report = self.deadlock_report(&st);
                    st.failure.get_or_insert(report);
                }
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Mark `me` finished without scheduling (abort teardown path).
    fn finish_quiet(&self, me: usize) {
        let mut st = self.locked();
        if st.threads[me] != Status::Finished {
            st.threads[me] = Status::Finished;
            st.finished += 1;
        }
        drop(st);
        self.cv.notify_all();
    }

    fn record_failure(&self, me: usize, msg: String) {
        let mut st = self.locked();
        st.failure.get_or_insert(msg);
        if st.threads[me] != Status::Finished {
            st.threads[me] = Status::Finished;
            st.finished += 1;
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Fail the current execution with `msg` (race detector verdicts).
    fn fail_from(&self, me: usize, msg: String) -> ! {
        let mut st = self.locked();
        st.failure.get_or_insert(msg);
        drop(st);
        self.cv.notify_all();
        let _ = me;
        panic_abort();
    }

    // ---- threads ----------------------------------------------------

    /// Register a child thread spawned by `parent`; returns its tid.
    pub(crate) fn register_spawn(&self, parent: usize) -> usize {
        let mut st = self.locked();
        let tid = st.threads.len();
        st.threads.push(Status::Runnable);
        let mut child = st.clocks[parent].clone();
        child.bump(tid);
        st.clocks.push(child);
        st.clocks[parent].bump(parent);
        tid
    }

    /// Park until `target` finishes, then absorb its clock.
    pub(crate) fn join_wait(&self, me: usize, target: usize) {
        loop {
            {
                let mut st = self.locked();
                if st.failure.is_some() {
                    drop(st);
                    panic_abort();
                }
                if st.threads[target] == Status::Finished {
                    let tc = st.clocks[target].clone();
                    st.clocks[me].join(&tc);
                    return;
                }
            }
            self.reschedule(me, Some(Status::BlockedJoin(target)));
        }
    }

    /// Wake threads matching `pred` (bookkeeping already updated).
    fn wake_blocked(st: &mut ExecState, pred: impl Fn(Status) -> bool) {
        for s in &mut st.threads {
            if pred(*s) {
                *s = Status::Runnable;
            }
        }
    }

    // ---- mutexes -----------------------------------------------------

    /// Blocking mutex acquire (bookkeeping only; the caller then takes the
    /// uncontended inner `std` lock).
    pub(crate) fn mutex_lock(&self, me: usize, addr: usize) {
        loop {
            {
                let mut st = self.locked();
                if st.failure.is_some() {
                    drop(st);
                    panic_abort();
                }
                if !st.mutexes.entry(addr).or_default().held {
                    st.mutexes.entry(addr).or_default().held = true;
                    Self::clock_acquire(&mut st, me, addr);
                    return;
                }
            }
            self.reschedule(me, Some(Status::BlockedLock(addr)));
        }
    }

    /// Non-blocking acquire; `true` when the lock was free.
    pub(crate) fn mutex_try_lock(&self, me: usize, addr: usize) -> bool {
        let mut st = self.locked();
        if st.mutexes.entry(addr).or_default().held {
            return false;
        }
        st.mutexes.entry(addr).or_default().held = true;
        Self::clock_acquire(&mut st, me, addr);
        true
    }

    pub(crate) fn mutex_unlock(&self, me: usize, addr: usize) {
        let mut st = self.locked();
        st.mutexes.entry(addr).or_default().held = false;
        Self::clock_release(&mut st, me, addr);
        Self::wake_blocked(&mut st, |s| s == Status::BlockedLock(addr));
        drop(st);
        self.cv.notify_all();
    }

    // ---- rwlocks -----------------------------------------------------

    pub(crate) fn rw_lock(&self, me: usize, addr: usize, write: bool) {
        loop {
            {
                let mut st = self.locked();
                if st.failure.is_some() {
                    drop(st);
                    panic_abort();
                }
                let book = st.rwlocks.entry(addr).or_default();
                let free = if write {
                    !book.writer && book.readers == 0
                } else {
                    !book.writer
                };
                if free {
                    if write {
                        book.writer = true;
                    } else {
                        book.readers += 1;
                    }
                    Self::clock_acquire(&mut st, me, addr);
                    return;
                }
            }
            self.reschedule(me, Some(Status::BlockedRw(addr)));
        }
    }

    pub(crate) fn rw_try_lock(&self, me: usize, addr: usize, write: bool) -> bool {
        let mut st = self.locked();
        let book = st.rwlocks.entry(addr).or_default();
        let free = if write {
            !book.writer && book.readers == 0
        } else {
            !book.writer
        };
        if !free {
            return false;
        }
        if write {
            book.writer = true;
        } else {
            book.readers += 1;
        }
        Self::clock_acquire(&mut st, me, addr);
        true
    }

    pub(crate) fn rw_unlock(&self, me: usize, addr: usize, write: bool) {
        let mut st = self.locked();
        let book = st.rwlocks.entry(addr).or_default();
        if write {
            book.writer = false;
        } else {
            book.readers = book.readers.saturating_sub(1);
        }
        Self::clock_release(&mut st, me, addr);
        Self::wake_blocked(&mut st, |s| s == Status::BlockedRw(addr));
        drop(st);
        self.cv.notify_all();
    }

    // ---- clocks ------------------------------------------------------

    fn clock_acquire(st: &mut ExecState, me: usize, addr: usize) {
        let oc = st.objclocks.entry(addr).or_default().clone();
        st.clocks[me].join(&oc);
    }

    fn clock_release(st: &mut ExecState, me: usize, addr: usize) {
        let tc = st.clocks[me].clone();
        st.objclocks.entry(addr).or_default().join(&tc);
        st.clocks[me].bump(me);
    }

    /// Happens-before edges for an atomic op: `Relaxed` passes neither
    /// flag, so it creates no edge and the race detector treats data
    /// published across it as unsynchronized.
    pub(crate) fn atomic_op(&self, me: usize, addr: usize, acquire: bool, release: bool) {
        let mut st = self.locked();
        if acquire {
            Self::clock_acquire(&mut st, me, addr);
        }
        if release {
            Self::clock_release(&mut st, me, addr);
        }
    }

    // ---- cells -------------------------------------------------------

    /// Vector-clock race check for an `UnsafeCell` access.
    pub(crate) fn cell_access(&self, me: usize, addr: usize, write: bool, what: &str) {
        let mut st = self.locked();
        let tc = st.clocks[me].clone();
        let own = tc.get(me);
        let book = st.cells.entry(addr).or_default();
        if !book.writes.le(&tc) {
            let msg = format!(
                "data race: {what} of UnsafeCell not ordered after a \
                 concurrent write (no happens-before edge; Relaxed atomics \
                 do not synchronize)"
            );
            drop(st);
            self.fail_from(me, msg);
        }
        if write && !book.reads.le(&tc) {
            let msg = "data race: write to UnsafeCell concurrent with an \
                       unsynchronized read"
                .to_string();
            drop(st);
            self.fail_from(me, msg);
        }
        if write {
            book.writes.record(me, own);
        } else {
            book.reads.record(me, own);
        }
    }
}

/// Depth-first backtracking: the deepest decision with an untried
/// alternative whose preemption cost stays within budget, or `None` when
/// the space is exhausted.
pub(crate) fn next_prefix(trace: &[Choice], max_preemptions: usize) -> Option<Vec<usize>> {
    for i in (0..trace.len()).rev() {
        let c = &trace[i];
        for j in c.index + 1..c.order.len() {
            let cost = usize::from(c.running_was_enabled && c.order[j] != c.running_before);
            if c.preemptions_before + cost <= max_preemptions {
                let mut prefix: Vec<usize> = trace[..i].iter().map(|c| c.index).collect();
                prefix.push(j);
                return Some(prefix);
            }
        }
    }
    None
}
