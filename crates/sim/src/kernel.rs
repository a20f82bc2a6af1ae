//! The simulation kernel: a virtual clock plus cooperative scheduling of
//! simulated threads.
//!
//! # Model
//!
//! Simulated threads are stackful coroutines (`coro.rs`) on the OS
//! thread that created the [`Sim`], so **exactly one simulated thread
//! executes at a time**. A thread runs until it blocks — on
//! [`Sim::sleep`], on a [`SimSemaphore`](crate::SimSemaphore) wait, or on a
//! [`SimHandle::join`] — at which point the earliest pending event on the
//! virtual clock fires and wakes its owner. Virtual time therefore advances
//! in jumps, and a complete "three hundred second" experiment executes in
//! milliseconds of wall-clock time, fully deterministically.
//!
//! All wakeups are mediated by the event queue: waking a thread always means
//! scheduling an event (possibly at the current instant), never handing off
//! directly. This is what serializes execution and makes runs reproducible.
//!
//! # The wake-order contract
//!
//! * Events fire in `(at, seq)` order; `seq` is assigned at `schedule`, so
//!   among equal instants the wake scheduled first fires first.
//! * Exactly one simulated thread is runnable. A thread that blocks gives
//!   that up (`runnable` drops to 0, which is why `park` has nothing to wait
//!   for before it dispatches) and fires the next event itself; if that
//!   event is its own — a lone sleeper — it just carries on.
//! * A wake is *decided* under the kernel lock and *delivered* after it is
//!   released: `dispatch_one` picks the event and sets its waiter's
//!   `woken`; the caller drops the guard, then switches stacks to the
//!   owner — a register swap, no system call, and nobody wakes into a held
//!   mutex. A coroutine resumes only when switched to, so no wake is
//!   spurious; an event whose waiter is already woken is stale: skipped.
//! * A deadlock — a thread blocks or finishes and no event is left to fire
//!   — switches to the root, which panics with "simulation deadlock". A
//!   hang is therefore always a bug, never a stuck simulation.
//! * [`Sim::run_parallel`]'s caller is the last worker of its own fan-out:
//!   its `yield_now` takes the `(now, seq)` slot the last worker's start
//!   event had (whichever worker starts *k*-th claims task *k*, so which
//!   thread that is does not matter). It is also still the fan-out's joiner.
//!   The joiner waits on one worker at a time, in index order, the caller's
//!   own share last; a worker that finishes while the joiner waits on it
//!   schedules the joiner's wake, and the joiner, when that event *fires*,
//!   moves on to the next unfinished worker. The caller may be busy in a
//!   task just then, so `dispatch_one` takes that step for it and keeps
//!   going; only the wake that finds every worker finished resumes the
//!   caller — in the slot a thread-per-worker fan-out resumes it in.
//!
//! # What running on one OS thread asks of the code it runs
//!
//! * A `Sim` is driven from the OS thread that created it; a wait on any
//!   other panics before it touches the kernel state.
//! * Unwinding never crosses a switch: each coroutine's entry has its own
//!   `catch_unwind`, and a panic that escapes it aborts.
//! * No `Drop` blocks in virtual time: std's panic count is per OS thread,
//!   so a drop that switched while unwinding would make the next coroutine
//!   look like it is panicking. None does today.
//! * A stack overflow in a simulated thread is a plain SIGSEGV on its
//!   guard page, not Rust's "has overflowed its stack" message, and a
//!   backtrace from one ends at the coroutine's trampoline.

use std::any::Any;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use crate::coro::{Context, Coroutines};
use crate::time::SimTime;

/// A waiting simulated thread: the coroutine to switch to and the flag
/// that releases it. The flag is only written while holding the kernel
/// lock.
pub(crate) struct Waiter {
    ctx: Context,
    woken: AtomicBool,
    /// For a fan-out's joiner, the join slots it waits on in order and how
    /// many it has moved past; empty for every other waiter.
    fan: Vec<usize>,
    passed: AtomicUsize,
}

impl Waiter {
    /// A waiter for the calling thread.
    pub(crate) fn new(state: &SimState) -> Arc<Waiter> {
        Waiter::of(state.coros.current(), Vec::new())
    }

    fn of(ctx: Context, fan: Vec<usize>) -> Arc<Waiter> {
        Arc::new(Waiter {
            ctx,
            woken: AtomicBool::new(false),
            fan,
            passed: AtomicUsize::new(0),
        })
    }
}

/// What a simulated thread ended with: its boxed result, or its panic.
type Outcome = thread::Result<Box<dyn Any + Send>>;

/// Completion state of a spawned simulated thread (or of a fan-out
/// caller's own share).
enum JoinState {
    Running {
        waiter: Option<Arc<Waiter>>,
    },
    Finished(Outcome),
    /// No handle will ask: a thread that finishes into this recycles the
    /// slot instead of storing its result. Also what a free slot holds.
    Detached,
}

pub(crate) struct SemState {
    pub(crate) permits: usize,
    pub(crate) queue: std::collections::VecDeque<Arc<Waiter>>,
}

pub(crate) struct SimState {
    pub(crate) now: SimTime,
    seq: u64,
    /// Number of simulated threads currently eligible to run. With
    /// event-mediated wakeups this is always 0 or 1; kept as a counter for
    /// clarity and debug assertions.
    runnable: usize,
    /// Spawned simulated threads that have not finished (excluding root).
    live: usize,
    /// Scheduled wakeups on the virtual clock, keyed by `(at, seq)`.
    events: BTreeMap<(SimTime, u64), Arc<Waiter>>,
    joins: Vec<JoinState>,
    /// Slots in `joins` that were joined or abandoned, available for reuse.
    free_joins: Vec<usize>,
    pub(crate) sems: Vec<SemState>,
    /// Slots in `sems` whose semaphore was dropped, available for reuse.
    pub(crate) free_sems: Vec<usize>,
    /// The running coroutine and the root's. Their stacks are pooled per
    /// OS thread, not per Sim (`coro.rs`).
    coros: Coroutines,
}

impl SimState {
    /// Fires the earliest pending event, advancing the clock, and returns
    /// the waiter it woke for the caller to switch to once it has released
    /// the lock — or `None` if nothing is left to fire: a deadlock, which
    /// the root raises (see [`Sim::park`]). Must only be called when no
    /// simulated thread is runnable.
    fn dispatch_one(&mut self) -> Option<Arc<Waiter>> {
        debug_assert_eq!(self.runnable, 0, "dispatch while a thread is runnable");
        loop {
            let ((at, _), waiter) = self.events.pop_first()?;
            // A waiter woken through another path (a timed semaphore wait
            // whose permit arrived before its deadline, or vice versa)
            // leaves its other event behind; discard such stale events
            // without advancing the clock.
            if waiter.woken.load(Ordering::Relaxed) {
                continue;
            }
            debug_assert!(at >= self.now, "event scheduled in the past");
            self.now = at;
            // A fan-out joiner with a worker still running waits on that
            // one next; its caller is not resumed (see the module doc).
            if self.join_next(&waiter) {
                continue;
            }
            waiter.woken.store(true, Ordering::Release);
            self.runnable += 1;
            return Some(waiter);
        }
    }

    /// Fires the next event and names the coroutine to run: its waiter's,
    /// or on a deadlock the root's.
    fn next_context(&mut self) -> Context {
        match self.dispatch_one() {
            Some(waiter) => waiter.ctx,
            None => self.coros.root(),
        }
    }

    fn deadlock(&self) -> ! {
        panic!(
            "simulation deadlock at t={}: no runnable threads and no pending \
             events ({} spawned threads still live; check for semaphore waits \
             that can never be released)",
            self.now, self.live
        )
    }

    /// Registers fan-out joiner `w` on the next of its workers still
    /// running; false if there is none (always, for an ordinary waiter).
    fn join_next(&mut self, w: &Arc<Waiter>) -> bool {
        let from = w.passed.load(Ordering::Relaxed);
        let running = |&i: &usize| matches!(self.joins[w.fan[i]], JoinState::Running { .. });
        let Some(i) = (from..w.fan.len()).find(running) else {
            return false;
        };
        w.passed.store(i + 1, Ordering::Relaxed);
        self.joins[w.fan[i]] = JoinState::Running {
            waiter: Some(w.clone()),
        };
        true
    }

    /// Schedules `waiter` to wake at time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, waiter: Arc<Waiter>) {
        self.seq += 1;
        self.events.insert((at, self.seq), waiter);
    }

    /// Claims a join slot in the `Running` state.
    fn alloc_join(&mut self) -> usize {
        let slot = self.free_joins.pop().unwrap_or_else(|| {
            self.joins.push(JoinState::Detached);
            self.joins.len() - 1
        });
        self.joins[slot] = JoinState::Running { waiter: None };
        slot
    }

    /// Returns `slot` to the free list, handing back what it held. Drop
    /// that only after releasing the kernel lock: a result may own sim
    /// objects whose own `Drop` takes it.
    fn free_join(&mut self, slot: usize) -> JoinState {
        self.free_joins.push(slot);
        std::mem::replace(&mut self.joins[slot], JoinState::Detached)
    }

    /// Records that the thread owning `slot` finished, scheduling its
    /// joiner's wake if one waits. Returns the result nobody will ask for
    /// (see [`SimState::free_join`]) when the handle is already gone.
    fn finish(&mut self, slot: usize, result: Outcome) -> Option<JoinState> {
        match std::mem::replace(&mut self.joins[slot], JoinState::Finished(result)) {
            JoinState::Running { waiter } => {
                if let Some(w) = waiter {
                    let at = self.now;
                    self.schedule(at, w);
                }
                None
            }
            JoinState::Detached => Some(self.free_join(slot)),
            JoinState::Finished(_) => unreachable!("thread finished twice"),
        }
    }
}

struct SimInner {
    state: Mutex<SimState>,
}

/// Handle to a simulation instance.
///
/// Cloning is cheap; all clones refer to the same virtual clock. Create one
/// with [`Sim::new`] on the thread that will drive the experiment (the *root
/// thread*), and start additional simulated threads with [`Sim::spawn`].
/// Only the root thread and spawned threads may call kernel methods.
///
/// # Examples
///
/// ```
/// use cloudprov_sim::Sim;
/// use std::time::Duration;
///
/// let sim = Sim::new();
/// let h = sim.spawn({
///     let sim = sim.clone();
///     move || {
///         sim.sleep(Duration::from_secs(5));
///         42
///     }
/// });
/// assert_eq!(h.join(), 42);
/// assert_eq!(sim.now().as_secs_f64(), 5.0);
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Arc<SimInner>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim").field("now", &self.now()).finish()
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates a new simulation and registers the calling thread as its root
    /// simulated thread.
    pub fn new() -> Sim {
        Sim {
            inner: Arc::new(SimInner {
                state: Mutex::new(SimState {
                    now: SimTime::ZERO,
                    seq: 0,
                    runnable: 1, // the root thread
                    live: 0,
                    events: BTreeMap::new(),
                    joins: Vec::new(),
                    free_joins: Vec::new(),
                    sems: Vec::new(),
                    free_sems: Vec::new(),
                    coros: Coroutines::new(),
                }),
            }),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, SimState> {
        self.inner.state.lock()
    }

    /// Suspends the running thread, `guard` being this Sim's lock, until
    /// `waiter` is woken. The caller must currently be runnable; on return
    /// the thread is runnable again.
    pub(crate) fn park(&self, mut guard: MutexGuard<'_, SimState>, waiter: &Waiter) {
        guard.runnable -= 1;
        let next = guard.next_context();
        // Whoever wakes us increments `runnable` on our behalf.
        let switch = guard.coros.hand_off(next);
        drop(guard);
        if let Some(switch) = switch {
            switch.run();
        }
        // Nothing switches to a waiter it has not woken, except to the
        // root on a deadlock.
        if !waiter.woken.load(Ordering::Acquire) {
            self.lock().deadlock();
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.lock().now
    }

    /// Suspends the calling simulated thread for `d` of virtual time.
    ///
    /// Other simulated threads run while this one sleeps; if none are
    /// runnable the clock jumps forward.
    pub fn sleep(&self, d: Duration) {
        let mut guard = self.lock();
        let waiter = Waiter::new(&guard);
        let at = guard.now + d;
        guard.schedule(at, waiter.clone());
        self.park(guard, &waiter);
    }

    /// Yields to any other simulated thread scheduled at the current
    /// instant. Equivalent to `sleep(Duration::ZERO)`.
    pub fn yield_now(&self) {
        self.sleep(Duration::ZERO);
    }

    /// Starts a new simulated thread running `f`.
    ///
    /// The thread begins executing at the current virtual instant, once the
    /// spawner blocks. Panics inside `f` are captured and re-raised from
    /// [`SimHandle::join`].
    pub fn spawn<T, F>(&self, f: F) -> SimHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let sim = self.clone();
        let mut guard = self.lock();
        let slot = guard.alloc_join();
        // Runs once the start event makes it runnable, when every other
        // simulated thread has blocked.
        let ctx = guard.coros.spawn(Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            let mut guard = sim.lock();
            guard.live -= 1;
            guard.runnable -= 1;
            let orphan = guard.finish(slot, result.map(|v| Box::new(v) as _));
            let next = guard.next_context();
            let last = guard.coros.exit(next);
            drop(guard);
            drop(orphan);
            last
        }));
        guard.live += 1;
        let at = guard.now;
        guard.schedule(at, Waiter::of(ctx, Vec::new()));
        drop(guard);
        SimHandle {
            sim: self.clone(),
            slot,
            _marker: PhantomData,
        }
    }

    /// Runs `tasks` on up to `concurrency` simulated workers and returns
    /// their results in task order. The caller is one of the workers.
    ///
    /// This models a client opening `concurrency` parallel connections, as
    /// the paper's uploader tool does, and is the building block for every
    /// "upload in parallel" step in the protocols.
    pub fn run_parallel<T, F>(&self, concurrency: usize, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        assert!(concurrency > 0, "concurrency must be at least 1");
        let workers = concurrency.min(tasks.len().max(1));
        let fan = FanOut::new(tasks);
        let spawn_worker = |_| {
            let fan = fan.clone();
            self.spawn(move || fan.work())
        };
        let handles: Vec<SimHandle<()>> = (1..workers).map(spawn_worker).collect();
        // The caller is the last worker and the joiner (module doc): it
        // starts in the last worker's slot and finishes as a thread would.
        let mut guard = self.lock();
        let own = guard.alloc_join();
        let slots = handles.iter().map(|h| h.slot).chain([own]).collect();
        let joiner = Waiter::of(guard.coros.current(), slots);
        guard.join_next(&joiner);
        drop(guard);
        self.yield_now();
        let result = panic::catch_unwind(AssertUnwindSafe(|| fan.work()));
        let mut guard = self.lock();
        guard.finish(own, Ok(Box::new(())));
        self.park(guard, &joiner);
        // (A unit result: nothing whose drop needs the lock released.)
        self.lock().free_join(own);
        // Everyone has finished: these only collect, and re-raise a
        // worker's panic in index order — the caller's own last.
        for h in handles {
            h.join();
        }
        if let Err(p) = result {
            panic::resume_unwind(p);
        }
        fan.into_results()
    }
}

/// One fan-out's shared state: each worker claims the next unclaimed task
/// until none is left.
struct FanOut<T, F> {
    tasks: Mutex<Vec<Option<F>>>,
    next: AtomicUsize,
    results: Mutex<Vec<Option<T>>>,
}

impl<T: Send + 'static, F: FnOnce() -> T + Send + 'static> FanOut<T, F> {
    fn new(tasks: Vec<F>) -> Arc<Self> {
        Arc::new(FanOut {
            results: Mutex::new(tasks.iter().map(|_| None).collect()),
            tasks: Mutex::new(tasks.into_iter().map(Some).collect()),
            next: AtomicUsize::new(0),
        })
    }

    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = self.tasks.lock().get_mut(i).map(Option::take) else {
                break;
            };
            let r = task.expect("task taken twice")();
            self.results.lock()[i] = Some(r);
        }
    }

    fn into_results(self: Arc<Self>) -> Vec<T> {
        let fan = Arc::try_unwrap(self).unwrap_or_else(|_| panic!("worker leaked its fan-out"));
        let results = fan.results.into_inner().into_iter();
        results.map(|r| r.expect("task did not run")).collect()
    }
}

/// Owned handle to a spawned simulated thread. Join it to retrieve the
/// thread's result in virtual time; dropping it detaches the thread.
pub struct SimHandle<T> {
    sim: Sim,
    /// `usize::MAX` once joined.
    slot: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for SimHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHandle")
            .field("slot", &self.slot)
            .finish()
    }
}

impl<T: Send + 'static> SimHandle<T> {
    /// Blocks (in virtual time) until the thread finishes, returning its
    /// result.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from the joined thread.
    pub fn join(mut self) -> T {
        let mut guard = self.sim.lock();
        if let JoinState::Running { .. } = guard.joins[self.slot] {
            let w = Waiter::new(&guard);
            guard.joins[self.slot] = JoinState::Running {
                waiter: Some(w.clone()),
            };
            self.sim.park(guard, &w);
            guard = self.sim.lock();
        }
        let done = guard.free_join(std::mem::replace(&mut self.slot, usize::MAX));
        drop(guard);
        match done {
            JoinState::Finished(Ok(v)) => *v.downcast::<T>().expect("join result type mismatch"),
            JoinState::Finished(Err(p)) => panic::resume_unwind(p),
            _ => unreachable!("woken before thread finished"),
        }
    }

    /// Returns true if the thread has finished (without blocking).
    pub fn is_finished(&self) -> bool {
        !matches!(self.sim.lock().joins[self.slot], JoinState::Running { .. })
    }
}

impl<T> Drop for SimHandle<T> {
    fn drop(&mut self) {
        if self.slot == usize::MAX {
            return;
        }
        let mut guard = self.sim.lock();
        let orphan = match guard.joins[self.slot] {
            // Still running: the finishing thread recycles the slot.
            JoinState::Running { .. } => {
                std::mem::replace(&mut guard.joins[self.slot], JoinState::Detached)
            }
            _ => guard.free_join(self.slot),
        };
        drop(guard);
        drop(orphan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSemaphore;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_clock_only() {
        let sim = Sim::new();
        let wall = std::time::Instant::now();
        sim.sleep(Duration::from_secs(3600));
        assert_eq!(sim.now().as_secs_f64(), 3600.0);
        assert!(wall.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn spawned_thread_runs_concurrently_in_virtual_time() {
        let sim = Sim::new();
        let h = sim.spawn({
            let sim = sim.clone();
            move || {
                sim.sleep(Duration::from_secs(10));
                sim.now()
            }
        });
        sim.sleep(Duration::from_secs(4));
        assert_eq!(sim.now().as_secs_f64(), 4.0);
        let child_done = h.join();
        assert_eq!(child_done.as_secs_f64(), 10.0);
        // Parallel, not additive: total is max(10, 4), not 14.
        assert_eq!(sim.now().as_secs_f64(), 10.0);
    }

    #[test]
    fn join_returns_value_immediately_if_finished() {
        let sim = Sim::new();
        let h = sim.spawn(|| 7usize);
        sim.sleep(Duration::from_millis(1));
        assert!(h.is_finished());
        assert_eq!(h.join(), 7);
    }

    #[test]
    fn join_propagates_panics() {
        let sim = Sim::new();
        let h = sim.spawn(|| -> () { panic!("boom in sim thread") });
        let err = panic::catch_unwind(AssertUnwindSafe(|| h.join())).unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str panic>");
        assert!(msg.contains("boom"));
    }

    #[test]
    fn many_sleepers_wake_in_order() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in (1..=5).rev() {
            let sim2 = sim.clone();
            let order = order.clone();
            handles.push(sim.spawn(move || {
                sim2.sleep(Duration::from_secs(i as u64));
                order.lock().push(i);
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(*order.lock(), vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now().as_secs_f64(), 5.0);
    }

    #[test]
    fn run_parallel_overlaps_latencies() {
        let sim = Sim::new();
        let tasks: Vec<_> = (0..10)
            .map(|_| {
                let sim = sim.clone();
                move || {
                    sim.sleep(Duration::from_secs(1));
                    sim.now().as_secs_f64()
                }
            })
            .collect();
        let out = sim.run_parallel(5, tasks);
        assert_eq!(out.len(), 10);
        // 10 one-second tasks over 5 workers: two waves.
        assert_eq!(sim.now().as_secs_f64(), 2.0);
    }

    #[test]
    fn run_parallel_preserves_task_order_of_results() {
        let sim = Sim::new();
        let tasks: Vec<_> = (0..20).map(|i| move || i * 2).collect();
        let out = sim.run_parallel(4, tasks);
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_spawns_work() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let h = sim.spawn(move || {
            let inner = sim2.spawn({
                let sim3 = sim2.clone();
                move || {
                    sim3.sleep(Duration::from_millis(500));
                    1u32
                }
            });
            inner.join() + 1
        });
        assert_eq!(h.join(), 2);
        assert_eq!(sim.now().as_secs_f64(), 0.5);
    }

    #[test]
    fn yield_now_lets_same_instant_events_run() {
        let sim = Sim::new();
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = flag.clone();
        let _h = sim.spawn(move || flag2.store(true, Ordering::Relaxed));
        sim.yield_now();
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    #[should_panic(expected = "simulation deadlock at t=0.000000s: no runnable threads")]
    fn deadlock_panics_with_its_message_instead_of_hanging() {
        let sim = Sim::new();
        let never = SimSemaphore::new(&sim, 0);
        // Unwinding must not free a semaphore that still has its waiter.
        std::mem::forget(never.clone());
        never.acquire().forget();
    }

    #[test]
    #[should_panic(expected = "simulation deadlock at t=0.000000s: no runnable threads")]
    fn a_deadlock_found_by_a_finishing_thread_panics_on_the_root() {
        let sim = Sim::new();
        let never = SimSemaphore::new(&sim, 0);
        std::mem::forget(never.clone());
        let _finishes = sim.spawn(|| 1u8);
        never.acquire().forget();
    }

    #[test]
    #[should_panic(expected = "simulation deadlock at t=1.000000s: no runnable threads")]
    fn a_deadlock_found_by_a_waiting_thread_panics_on_the_root() {
        let sim = Sim::new();
        let never = SimSemaphore::new(&sim, 0);
        std::mem::forget(never.clone());
        let waits = sim.spawn({
            let sim = sim.clone();
            move || {
                sim.sleep(Duration::from_secs(1));
                never.acquire().forget();
            }
        });
        waits.join();
    }

    #[test]
    fn a_sim_is_driven_only_from_the_os_thread_that_created_it() {
        let sim = Sim::new();
        let elsewhere = sim.clone();
        let err = std::thread::spawn(move || elsewhere.sleep(Duration::from_secs(1)))
            .join()
            .expect_err("sleeping on another OS thread must panic");
        assert_eq!(
            err.downcast_ref::<&str>(),
            Some(&"a Sim is driven from the OS thread that created it")
        );
        // It panicked before touching the clock or the event queue.
        sim.sleep(Duration::from_secs(2));
        assert_eq!(sim.now().as_secs_f64(), 2.0);
    }

    #[test]
    fn joined_and_dropped_handles_recycle_their_slot() {
        let sim = Sim::new();
        for i in 0..5_000 {
            assert_eq!(sim.spawn(move || i).join(), i);
        }
        // Dropped while running (not even started): the thread finishes
        // detached and frees the slot, and its result, itself.
        let peak_live = 50;
        for i in 0..5_000 {
            drop(sim.spawn(move || vec![i; 4]));
            if (i + 1) % peak_live == 0 {
                sim.yield_now();
            }
        }
        // Dropped after finishing: the handle frees it.
        let done = sim.spawn(|| 7u8);
        sim.yield_now();
        assert!(done.is_finished());
        drop(done);
        let guard = sim.lock();
        assert!(
            guard.joins.len() <= peak_live,
            "{} slots for at most {peak_live} live threads",
            guard.joins.len()
        );
        assert_eq!(guard.free_joins.len(), guard.joins.len(), "a slot leaked");
    }

    #[test]
    fn an_abandoned_result_is_dropped_outside_the_kernel_lock() {
        // The last handle to a semaphore takes the kernel lock to free its
        // slot, so whoever drops an unjoined result must not be holding it.
        let sim = Sim::new();
        let sem_in = |sim: &Sim| {
            let sim = sim.clone();
            move || SimSemaphore::new(&sim, 1)
        };
        drop(sim.spawn(sem_in(&sim))); // the finishing thread drops it
        sim.yield_now();
        let finished = sim.spawn(sem_in(&sim));
        sim.yield_now();
        drop(finished); // the handle drops it
        let guard = sim.lock();
        assert_eq!(
            guard.free_sems.len(),
            guard.sems.len(),
            "a semaphore survived"
        );
    }

    // ---- the fan-out against its thread-per-worker reference ----

    /// `run_parallel` as it was before the caller became a worker: every
    /// worker a spawned thread, joined in index order.
    fn run_parallel_spawning<T, F>(sim: &Sim, concurrency: usize, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        assert!(concurrency > 0, "concurrency must be at least 1");
        let workers = concurrency.min(tasks.len().max(1));
        let fan = FanOut::new(tasks);
        let spawn_worker = |_| {
            let fan = fan.clone();
            sim.spawn(move || fan.work())
        };
        let handles: Vec<SimHandle<()>> = (0..workers).map(spawn_worker).collect();
        for h in handles {
            h.join();
        }
        fan.into_results()
    }

    type Task = Box<dyn FnOnce() -> usize + Send>;
    type Fan = fn(&Sim, usize, Vec<Task>) -> Vec<usize>;
    const CALLER_WORKS: Fan = |sim, concurrency, tasks| sim.run_parallel(concurrency, tasks);
    const ALL_SPAWNED: Fan = run_parallel_spawning;

    /// One step of an actor's script: `(kind, arg)`, see [`World::act`].
    type Step = (u8, u8);
    /// `(sim.now(), "actor step")` in the order it happened.
    type Log = Vec<(SimTime, String)>;

    fn ms(n: u8) -> Duration {
        Duration::from_millis(u64::from(n))
    }

    #[derive(Clone)]
    struct World {
        sim: Sim,
        sem: SimSemaphore,
        log: Arc<Mutex<Log>>,
        fan: Fan,
    }

    impl World {
        fn new(permits: usize, fan: Fan) -> World {
            let sim = Sim::new();
            let sem = SimSemaphore::new(&sim, permits);
            let log = Arc::default();
            World { sim, sem, log, fan }
        }

        fn note(&self, actor: &str, what: &str) {
            let entry = (self.sim.now(), format!("{actor} {what}"));
            self.log.lock().push(entry);
        }

        /// Runs `steps` as `actor`, noting each. Every instant is a whole
        /// millisecond, so actors keep landing on one another's.
        fn act(&self, actor: &str, steps: &[Step], nest: bool) {
            for (i, &(kind, arg)) in steps.iter().enumerate() {
                match kind {
                    0 => self.sim.yield_now(),
                    1 => self.sim.sleep(ms(1)),
                    2 => self.sim.sleep(ms(arg)),
                    3 => {
                        let _held = self.sem.acquire();
                        self.note(actor, "acquired");
                        self.sim.sleep(ms(arg % 3));
                    }
                    4 => {
                        let got = self.sem.acquire_timeout(ms(arg % 3));
                        self.note(actor, if got.is_some() { "got it" } else { "timed out" });
                        if got.is_some() {
                            self.sim.sleep(ms(1));
                        }
                    }
                    _ if nest => {
                        let tasks = (0..arg % 4)
                            .map(|j| {
                                self.task(format!("{actor}.{j}"), vec![((arg + j) % 5, j)], false)
                            })
                            .collect();
                        (self.fan)(&self.sim, 1 + usize::from(arg / 4), tasks);
                    }
                    _ => self.sim.sleep(ms(1)),
                }
                self.note(actor, &format!("step {i}"));
            }
        }

        fn task(&self, actor: String, steps: Vec<Step>, nest: bool) -> Task {
            let world = self.clone();
            Box::new(move || {
                world.act(&actor, &steps, nest);
                steps.len()
            })
        }
    }

    struct Program {
        permits: usize,
        concurrency: usize,
        tasks: Vec<Vec<Step>>,
        bystanders: Vec<Vec<Step>>,
    }

    /// Plays `program` with `fan` as its fan-out (nested ones too) and
    /// returns everything an observer could tell the two fan-outs apart by.
    fn play(program: &Program, fan: Fan) -> (Log, SimTime, Vec<usize>) {
        let world = World::new(program.permits, fan);
        let bystanders: Vec<SimHandle<()>> = (program.bystanders.iter().enumerate())
            .map(|(b, steps)| {
                let (world, steps) = (world.clone(), steps.clone());
                (world.sim.clone()).spawn(move || world.act(&format!("b{b}"), &steps, true))
            })
            .collect();
        let tasks = (program.tasks.iter().enumerate())
            .map(|(t, steps)| world.task(format!("t{t}"), steps.clone(), true))
            .collect();
        let results = fan(&world.sim, program.concurrency, tasks);
        world.note("caller", "resumed");
        world.sim.yield_now();
        world.note("caller", "yielded");
        for b in bystanders {
            b.join();
        }
        world.note("caller", "done");
        let log = world.log.lock().clone();
        (log, world.sim.now(), results)
    }

    fn assert_fans_agree(program: &Program) -> Log {
        let ours = play(program, CALLER_WORKS);
        assert_eq!(ours, play(program, ALL_SPAWNED));
        ours.0
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// No observer — task, bystander at the same instants, or the
        /// caller afterwards — can tell the caller-works fan-out from the
        /// spawn-every-worker one.
        #[test]
        fn fan_out_matches_the_spawning_reference(
            permits in 1usize..3,
            concurrency in 1usize..6,
            tasks in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u8..12), 0..5), 0..9),
            bystanders in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u8..12), 0..6), 0..4),
        ) {
            let program = Program { permits, concurrency, tasks, bystanders };
            prop_assert_eq!(play(&program, CALLER_WORKS), play(&program, ALL_SPAWNED));
        }
    }

    #[test]
    fn degenerate_fan_outs_take_the_reference_slots_without_a_thread() {
        let bystanders = vec![vec![(0, 0), (1, 0), (0, 0)], vec![(1, 0), (0, 0)]];
        for (concurrency, tasks) in [
            (3, vec![]),                                         // nothing to run
            (3, vec![vec![(1, 0), (0, 0)]]),                     // one task
            (1, vec![vec![(1, 0)], vec![(0, 0)], vec![(2, 2)]]), // one worker
        ] {
            let program = Program {
                permits: 1,
                concurrency,
                tasks,
                bystanders: bystanders.clone(),
            };
            assert_fans_agree(&program);
            let world = World::new(1, CALLER_WORKS);
            let tasks = (program.tasks.iter().cloned())
                .map(|steps| world.task("t".into(), steps, false))
                .collect();
            (world.fan)(&world.sim, concurrency, tasks);
            // The one join slot is the caller's own share.
            assert_eq!(world.sim.lock().joins.len(), 1, "a thread was spawned");
        }
    }

    #[test]
    fn the_caller_resumes_in_the_joiner_slot_not_a_later_one() {
        // t0 finishes first and schedules the joiner's wake; the caller's
        // own task (t1) then hands b0 a permit at the same instant. The
        // joiner's wake was scheduled first, so the caller resumes first —
        // which it would not, had it merely yielded after its own share.
        let log = assert_fans_agree(&Program {
            permits: 1,
            concurrency: 2,
            tasks: vec![vec![(2, 2)], vec![(3, 2)]],
            bystanders: vec![vec![(1, 0), (3, 0)]],
        });
        let at = |what: &str| log.iter().position(|(_, w)| w == what).expect(what);
        assert!(at("caller resumed") < at("b0 acquired"), "{log:?}");
        // And with three workers: t0 finishes, then the caller's t2, then
        // t1 wakes b0 — all at 2 ms, all before the joiner's wake fires.
        let log = assert_fans_agree(&Program {
            permits: 1,
            concurrency: 3,
            tasks: vec![vec![(2, 2)], vec![(1, 0), (3, 1)], vec![(2, 2)]],
            bystanders: vec![vec![(2, 2), (3, 0)]],
        });
        let at = |what: &str| log.iter().position(|(_, w)| w == what).expect(what);
        assert!(at("caller resumed") < at("b0 acquired"), "{log:?}");
    }

    #[test]
    fn a_permit_and_a_deadline_on_one_instant_leave_no_ghost() {
        // The holder releases at 2 ms, the waiter's deadline is 2 ms.
        for deadline_first in [false, true] {
            let run = |fan: Fan| {
                let world = World::new(1, fan);
                let holder = world.clone();
                let waiter = world.clone();
                let tasks: Vec<Task> = vec![
                    Box::new(move || {
                        let held = holder.sem.acquire();
                        if deadline_first {
                            // Two hops: the last is scheduled at 1 ms,
                            // after the deadline was.
                            holder.sim.sleep(ms(1));
                            holder.sim.sleep(ms(1));
                        } else {
                            holder.sim.sleep(ms(2));
                        }
                        drop(held);
                        holder.note("holder", "released");
                        0
                    }),
                    Box::new(move || {
                        let got = waiter.sem.acquire_timeout(ms(2));
                        waiter.note("waiter", if got.is_some() { "got it" } else { "timed out" });
                        usize::from(got.is_some())
                    }),
                ];
                let got = fan(&world.sim, 2, tasks)[1];
                // The loser's event is stale: sleeping past it wakes no
                // ghost, and the permit is back exactly once.
                world.sim.sleep(ms(10));
                assert_eq!(world.sem.available(), 1);
                let log = world.log.lock().clone();
                (got, log, world.sim.now())
            };
            let ours = run(CALLER_WORKS);
            assert_eq!(ours, run(ALL_SPAWNED));
            assert_eq!(ours.0, usize::from(!deadline_first));
            assert_eq!(ours.2.as_micros(), 12_000);
        }
    }

    #[test]
    fn a_panicking_task_surfaces_from_the_fan_out_like_the_reference() {
        // (panicking tasks, the message the fan-out must re-raise): the
        // caller runs t2, and an earlier worker's panic beats its own.
        for (panicking, expected) in [
            (vec![0usize, 2], "boom t0"),
            (vec![2], "boom t2"),
            (vec![1], "boom t1"),
        ] {
            let run = |fan: Fan| {
                let world = World::new(1, fan);
                let tasks: Vec<Task> = (0..6usize)
                    .map(|t| {
                        let (world, panics) = (world.clone(), panicking.contains(&t));
                        Box::new(move || {
                            world.act(&format!("t{t}"), &[(1, 0), (3, 1)], false);
                            if panics {
                                panic!("boom t{t}");
                            }
                            t
                        }) as Task
                    })
                    .collect();
                let sim = world.sim.clone();
                let panic = panic::catch_unwind(AssertUnwindSafe(|| fan(&sim, 3, tasks)))
                    .expect_err("the fan-out must re-raise");
                // The reference leaves the other workers running detached;
                // ours has waited for them. Either way every task runs.
                world.sim.sleep(ms(50));
                let log = world.log.lock().clone();
                (panic.downcast_ref::<String>().cloned(), log)
            };
            let ours = run(CALLER_WORKS);
            assert_eq!(ours, run(ALL_SPAWNED));
            assert_eq!(ours.0.as_deref(), Some(expected));
            assert_eq!(
                ours.1.iter().filter(|(_, w)| w.ends_with("step 1")).count(),
                6
            );
        }
    }
}
