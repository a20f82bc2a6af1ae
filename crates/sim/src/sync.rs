//! Virtual-time synchronization primitives.
//!
//! [`SimSemaphore`] is the workhorse: it models a bounded resource — in this
//! repository, the server-side concurrency cap of a cloud service (the paper
//! observes SimpleDB plateauing around 40 concurrent requests while S3 and
//! SQS keep scaling past 150). Threads that exceed the cap queue in FIFO
//! order and wake in virtual time as permits free up.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crate::kernel::{SemState, Sim, Waiter};

/// A counting semaphore whose waits consume virtual time, not wall time.
///
/// Cloning yields another handle to the same semaphore.
///
/// # Examples
///
/// ```
/// use cloudprov_sim::{Sim, SimSemaphore};
/// use std::time::Duration;
///
/// let sim = Sim::new();
/// let server = SimSemaphore::new(&sim, 2); // a server with 2 request slots
/// let tasks: Vec<_> = (0..4)
///     .map(|_| {
///         let sim = sim.clone();
///         let server = server.clone();
///         move || {
///             let _slot = server.acquire();
///             sim.sleep(Duration::from_secs(1)); // service time
///         }
///     })
///     .collect();
/// sim.run_parallel(4, tasks);
/// // 4 one-second requests through 2 slots: two waves.
/// assert_eq!(sim.now().as_secs_f64(), 2.0);
/// ```
#[derive(Clone)]
pub struct SimSemaphore {
    slot: Arc<SemSlot>,
}

/// Owns one slot in the kernel's semaphore table; when the last handle
/// drops, the slot returns to a free list for reuse, so short-lived
/// semaphores (per-operation signals, barriers) don't grow the table
/// for the simulation's lifetime.
struct SemSlot {
    sim: Sim,
    idx: usize,
}

impl Drop for SemSlot {
    fn drop(&mut self) {
        let mut guard = self.sim.lock();
        let state = &mut guard.sems[self.idx];
        debug_assert!(
            state.queue.is_empty(),
            "semaphore dropped with parked waiters"
        );
        state.permits = 0;
        state.queue.clear();
        guard.free_sems.push(self.idx);
    }
}

impl std::fmt::Debug for SimSemaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSemaphore")
            .field("idx", &self.slot.idx)
            .field("available", &self.available())
            .finish()
    }
}

impl SimSemaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(sim: &Sim, permits: usize) -> SimSemaphore {
        let mut guard = sim.lock();
        let idx = match guard.free_sems.pop() {
            Some(idx) => {
                guard.sems[idx] = SemState {
                    permits,
                    queue: VecDeque::new(),
                };
                idx
            }
            None => {
                guard.sems.push(SemState {
                    permits,
                    queue: VecDeque::new(),
                });
                guard.sems.len() - 1
            }
        };
        drop(guard);
        SimSemaphore {
            slot: Arc::new(SemSlot {
                sim: sim.clone(),
                idx,
            }),
        }
    }

    /// Acquires one permit, blocking in virtual time until one is free.
    /// The permit is released when the returned guard drops.
    pub fn acquire(&self) -> SemPermit<'_> {
        let mut guard = self.slot.sim.lock();
        if guard.sems[self.slot.idx].permits > 0 {
            guard.sems[self.slot.idx].permits -= 1;
        } else {
            let w = Waiter::new(&guard);
            guard.sems[self.slot.idx].queue.push_back(w.clone());
            self.slot.sim.park(guard, &w);
        }
        SemPermit { sem: self }
    }

    /// Takes one permit if one is immediately available, without blocking
    /// or advancing virtual time.
    pub fn try_acquire(&self) -> Option<SemPermit<'_>> {
        let mut guard = self.slot.sim.lock();
        if guard.sems[self.slot.idx].permits > 0 {
            guard.sems[self.slot.idx].permits -= 1;
            Some(SemPermit { sem: self })
        } else {
            None
        }
    }

    /// Acquires one permit, giving up after `timeout` of virtual time.
    ///
    /// Returns `None` if the deadline fires first. This is the waiting
    /// half of a signal with a polling fallback: a consumer parks on the
    /// signal but is guaranteed to wake within `timeout` even if every
    /// producer-side notification is lost.
    pub fn acquire_timeout(&self, timeout: Duration) -> Option<SemPermit<'_>> {
        let mut guard = self.slot.sim.lock();
        if guard.sems[self.slot.idx].permits > 0 {
            guard.sems[self.slot.idx].permits -= 1;
            return Some(SemPermit { sem: self });
        }
        let w = Waiter::new(&guard);
        guard.sems[self.slot.idx].queue.push_back(w.clone());
        let at = guard.now + timeout;
        guard.schedule(at, w.clone());
        self.slot.sim.park(guard, &w);
        // Woken either by the deadline event or by a release() that popped
        // us off the queue and handed us a permit. Which one happened is
        // visible in the queue: still queued means the deadline fired.
        // (The loser's event is discarded as stale by the dispatcher.)
        let mut guard = self.slot.sim.lock();
        let queue = &mut guard.sems[self.slot.idx].queue;
        if let Some(pos) = queue.iter().position(|q| Arc::ptr_eq(q, &w)) {
            queue.remove(pos);
            None
        } else {
            Some(SemPermit { sem: self })
        }
    }

    /// Number of currently available permits (0 while waiters queue).
    pub fn available(&self) -> usize {
        self.slot.sim.lock().sems[self.slot.idx].permits
    }

    /// True if `other` is a handle to the same underlying semaphore.
    pub fn same(&self, other: &SimSemaphore) -> bool {
        Arc::ptr_eq(&self.slot, &other.slot)
    }

    /// Adds one permit without having acquired one first, waking the
    /// longest waiter if any. Together with [`SemPermit::forget`] this
    /// turns the semaphore into a producer/consumer signal: producers
    /// `release()`, consumers `acquire().forget()`.
    pub fn release(&self) {
        self.release_one();
    }

    fn release_one(&self) {
        let mut guard = self.slot.sim.lock();
        if let Some(w) = guard.sems[self.slot.idx].queue.pop_front() {
            // Hand the permit straight to the longest waiter; it wakes via
            // the event queue so execution stays serialized.
            let at = guard.now;
            guard.schedule(at, w);
        } else {
            guard.sems[self.slot.idx].permits += 1;
        }
    }
}

/// RAII permit returned by [`SimSemaphore::acquire`].
#[derive(Debug)]
pub struct SemPermit<'a> {
    sem: &'a SimSemaphore,
}

impl SemPermit<'_> {
    /// Consumes the permit without returning it to the semaphore. This
    /// is how a consumer *takes* one signal produced by
    /// [`SimSemaphore::release`].
    pub fn forget(self) {
        std::mem::forget(self);
    }
}

impl Drop for SemPermit<'_> {
    fn drop(&mut self) {
        self.sem.release_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn uncontended_acquire_is_instant() {
        let sim = Sim::new();
        let sem = SimSemaphore::new(&sim, 3);
        let _a = sem.acquire();
        let _b = sem.acquire();
        assert_eq!(sim.now().as_micros(), 0);
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn permits_restore_on_drop() {
        let sim = Sim::new();
        let sem = SimSemaphore::new(&sim, 1);
        {
            let _p = sem.acquire();
            assert_eq!(sem.available(), 0);
        }
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn contention_serializes_in_virtual_time() {
        let sim = Sim::new();
        let sem = SimSemaphore::new(&sim, 1);
        let tasks: Vec<_> = (0..3)
            .map(|_| {
                let sim = sim.clone();
                let sem = sem.clone();
                move || {
                    let _p = sem.acquire();
                    sim.sleep(Duration::from_secs(2));
                }
            })
            .collect();
        sim.run_parallel(3, tasks);
        assert_eq!(sim.now().as_secs_f64(), 6.0);
    }

    #[test]
    fn capacity_n_gives_n_way_parallelism() {
        let sim = Sim::new();
        let sem = SimSemaphore::new(&sim, 40);
        let tasks: Vec<_> = (0..120)
            .map(|_| {
                let sim = sim.clone();
                let sem = sem.clone();
                move || {
                    let _p = sem.acquire();
                    sim.sleep(Duration::from_secs(1));
                }
            })
            .collect();
        sim.run_parallel(120, tasks);
        assert_eq!(sim.now().as_secs_f64(), 3.0);
    }

    #[test]
    fn dropped_semaphores_recycle_their_slot() {
        let sim = Sim::new();
        let baseline = {
            let s = SimSemaphore::new(&sim, 1);
            s.slot.idx
        };
        // Thousands of short-lived semaphores must not grow the table.
        for _ in 0..5_000 {
            let s = SimSemaphore::new(&sim, 0);
            s.release();
            s.acquire().forget();
        }
        let s = SimSemaphore::new(&sim, 1);
        assert!(
            s.slot.idx <= baseline + 1,
            "slot {} not recycled (baseline {baseline})",
            s.slot.idx
        );
    }

    #[test]
    fn release_and_forget_make_a_signal() {
        let sim = Sim::new();
        let signal = SimSemaphore::new(&sim, 0);
        let consumer = {
            let signal = signal.clone();
            sim.spawn(move || {
                for _ in 0..3 {
                    signal.acquire().forget();
                }
            })
        };
        for _ in 0..3 {
            signal.release();
            sim.sleep(Duration::from_millis(1));
        }
        consumer.join();
        assert_eq!(signal.available(), 0, "forget must not return permits");
    }

    #[test]
    fn try_acquire_takes_only_available_permits() {
        let sim = Sim::new();
        let sem = SimSemaphore::new(&sim, 1);
        let p = sem.try_acquire().expect("permit available");
        p.forget();
        assert!(sem.try_acquire().is_none());
        assert_eq!(sim.now().as_micros(), 0);
    }

    #[test]
    fn acquire_timeout_expires_in_virtual_time() {
        let sim = Sim::new();
        let sem = SimSemaphore::new(&sim, 0);
        assert!(sem.acquire_timeout(Duration::from_secs(3)).is_none());
        assert_eq!(sim.now().as_secs_f64(), 3.0);
        // The queue must be clean after a timeout: a later release banks
        // a permit instead of waking a ghost.
        sem.release();
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn acquire_timeout_wakes_on_release_before_deadline() {
        let sim = Sim::new();
        let sem = SimSemaphore::new(&sim, 0);
        let producer = sim.spawn({
            let sim = sim.clone();
            let sem = sem.clone();
            move || {
                sim.sleep(Duration::from_secs(1));
                sem.release();
            }
        });
        let got = sem.acquire_timeout(Duration::from_secs(60));
        assert_eq!(sim.now().as_secs_f64(), 1.0);
        got.expect("woken by release, not deadline").forget();
        producer.join();
        // The abandoned deadline event must not fire later: sleeping past
        // it neither wakes anyone twice nor stalls the clock.
        sim.sleep(Duration::from_secs(120));
        assert_eq!(sim.now().as_secs_f64(), 121.0);
    }

    #[test]
    fn acquire_timeout_with_banked_permit_is_instant() {
        let sim = Sim::new();
        let sem = SimSemaphore::new(&sim, 0);
        sem.release();
        let got = sem.acquire_timeout(Duration::from_secs(30));
        got.expect("banked permit").forget();
        assert_eq!(sim.now().as_micros(), 0);
    }

    #[test]
    fn fifo_wakeup_order() {
        let sim = Sim::new();
        let sem = SimSemaphore::new(&sim, 1);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                let sim = sim.clone();
                let sem = sem.clone();
                let order = order.clone();
                let counter = counter.clone();
                move || {
                    // Stagger arrival so queue order is well-defined.
                    sim.sleep(Duration::from_millis(i as u64));
                    counter.fetch_add(1, Ordering::Relaxed);
                    let _p = sem.acquire();
                    order.lock().push(i);
                    sim.sleep(Duration::from_millis(100));
                }
            })
            .collect();
        sim.run_parallel(4, tasks);
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }
}
