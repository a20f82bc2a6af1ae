//! Simulated threads' stacks belong to the OS thread, not to a `Sim`: a
//! finished one is pooled for every later world on the thread, and the
//! pool is unmapped when the thread exits. A world that mapped its own
//! stacks and unmapped them on drop paid an `mmap`, an `mprotect` and a
//! `munmap` per live thread, which commit-burst once spent a tenth of its
//! host time on.
//!
//! A stack is seen from inside: the address of a local in a simulated
//! thread lies in that thread's stack, and `/proc/self/maps` says whether
//! it is still mapped. The checks read process-wide state (the mappings
//! and the resident set), so they run one at a time.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use cloudprov_sim::Sim;

/// Held by each check: another one's worlds would move what it reads.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Takes the turn; a check that failed holding it leaves nothing to heal.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

const PAGE: usize = 4096;

/// Runs `n` simulated threads live at once, each calling `probe` and
/// sleeping once, and returns where in its stack each one's `probe` ran.
fn world(n: usize, probe: fn() -> usize) -> BTreeSet<usize> {
    let sim = Sim::new();
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let s = sim.clone();
            sim.spawn(move || {
                let at = probe();
                s.sleep(Duration::from_millis(1));
                at
            })
        })
        .collect();
    let at: BTreeSet<usize> = handles.into_iter().map(|h| h.join()).collect();
    assert_eq!(at.len(), n, "each live thread has a stack of its own");
    at
}

/// The address of a local: a point in the running thread's stack.
#[inline(never)]
fn shallow() -> usize {
    let local = 0u8;
    black_box(&local) as *const u8 as usize
}

/// Runs 256 KiB deep on the running thread's stack, touching every page.
#[inline(never)]
fn deep() -> usize {
    let frame = [1u8; 256 << 10];
    black_box(&frame).as_ptr() as usize
}

/// The address ranges `/proc/self/maps` lists.
fn mappings() -> Vec<(usize, usize)> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    maps.lines()
        .map(|line| {
            let range = line.split(' ').next().expect("an address range");
            let (lo, hi) = range.split_once('-').expect("lo-hi");
            let hex = |s| usize::from_str_radix(s, 16).expect("hex address");
            (hex(lo), hex(hi))
        })
        .collect()
}

fn mapped(at: usize, maps: &[(usize, usize)]) -> bool {
    maps.iter().any(|&(lo, hi)| (lo..hi).contains(&at))
}

/// Resident bytes of the whole process.
fn resident() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: usize = statm
        .split(' ')
        .nth(1)
        .expect("resident")
        .parse()
        .expect("a count");
    pages * PAGE
}

#[test]
fn a_second_world_with_the_same_peak_maps_no_new_stack() {
    let _one = one_at_a_time();
    let first = world(64, shallow);
    let maps = mappings();
    assert!(
        first.iter().all(|&at| mapped(at, &maps)),
        "a dropped Sim unmapped the stacks its OS thread pooled"
    );
    // A stack mapped anew could not sit where a still-mapped one does.
    let second = world(64, shallow);
    assert_eq!(
        second, first,
        "the second world ran on the first one's stacks"
    );
}

#[test]
fn an_exited_os_thread_leaves_none_of_its_stacks_mapped() {
    let _one = one_at_a_time();
    let stacks = thread::spawn(|| world(64, shallow)).join().unwrap();
    let maps = mappings();
    let left = stacks.iter().filter(|&&at| mapped(at, &maps)).count();
    assert_eq!(left, 0, "{left} of 64 stacks outlived their OS thread");
}

#[test]
fn a_pooled_stack_keeps_only_its_top_pages_however_deep_it_ran() {
    let _one = one_at_a_time();
    // Pool 64 stacks first, so that only how deep they run differs.
    world(64, shallow);
    let before = resident();
    world(64, deep);
    let after = resident();
    // Untrimmed, the 64 pooled stacks would keep 16 MiB resident.
    assert!(
        after <= before + (1 << 20),
        "resident set grew {} KiB after 64 threads ran 256 KiB deep",
        (after.saturating_sub(before)) >> 10
    );
}
