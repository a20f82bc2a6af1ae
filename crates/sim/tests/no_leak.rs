//! A dropped `Sim` gives back every byte it allocated: join slots, pooled
//! stacks' bookkeeping, fan-out state and each spawned thread's boxed body.
//! A finished simulated thread that leaves one allocation behind grows a
//! long run by that much per spawn, which peak RSS only shows much later.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use cloudprov_sim::Sim;

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes successful calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
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
    let baseline = LIVE.load(Ordering::Relaxed);
    for world in 0..10 {
        one_world();
        let live = LIVE.load(Ordering::Relaxed);
        assert_eq!(
            live, baseline,
            "world {world}: {live} bytes live after the Sim dropped, {baseline} before the first"
        );
    }
}
