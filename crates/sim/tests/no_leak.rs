//! A dropped `Sim` gives back every byte it allocated: join slots, pooled
//! stacks' bookkeeping, fan-out state and each spawned thread's boxed body.
//! A finished simulated thread that leaves one allocation behind grows a
//! long run by that much per spawn, which peak RSS only shows much later.

//!
//! Only the test's own OS thread is counted. A `Sim` runs every simulated
//! thread on the OS thread that created it, so that is every byte the
//! worlds allocate; the harness's other threads, which allocate and free
//! their own bookkeeping while the test runs, are left out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use cloudprov_sim::Sim;

/// The system allocator, counting the bytes each OS thread has allocated
/// and not freed.
struct Counting;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed. A `const`
    /// initializer and no destructor: the allocator may touch it at any
    /// time, even while the thread is being torn down.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    // Past teardown the slot is gone; nothing is measured then.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes successful calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn one_world() {
    let sim = Sim::new();
    for i in 0..5_000u64 {
        assert_eq!(sim.spawn(move || i).join(), i);
    }
    for i in 0..5_000u64 {
        drop(sim.spawn(move || vec![i; 4]));
        if i % 50 == 49 {
            sim.yield_now();
        }
    }
    let tasks: Vec<_> = (0..200u64)
        .map(|i| {
            let sim = sim.clone();
            move || {
                sim.sleep(Duration::from_millis(i % 7));
                i
            }
        })
        .collect();
    assert_eq!(sim.run_parallel(16, tasks), (0..200).collect::<Vec<_>>());
}

#[test]
fn a_dropped_sim_returns_every_byte_it_allocated() {
    let baseline = live_bytes();
    for world in 0..10 {
        one_world();
        let live = live_bytes();
        assert_eq!(
            live, baseline,
            "world {world}: {live} bytes live after the Sim dropped, {baseline} before the first"
        );
    }
}
