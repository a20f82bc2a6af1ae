//! Stackful coroutines, which simulated threads run as: each on a mapped
//! stack of its own, all on the OS thread that created their `Sim`. A
//! hand-off swaps callee-saved registers and the stack pointer, with no
//! system call. Finished stacks go to a pool that belongs to the OS
//! thread, not to a `Sim`: every later world on that thread spawns from
//! it, so a fresh `Sim` maps no stack its thread already had and a dropped
//! one unmaps none. The pool is unmapped when the OS thread exits. All of
//! the crate's `unsafe` code is in this module.
//!
//! x86_64 Linux only: the switch is SysV assembly and the stacks come from
//! `mmap`. An OS-thread fallback would be a second scheduler to keep
//! bit-identical with this one.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("cloudprov-sim switches stacks with x86_64 SysV assembly on Linux mmap'd stacks");

use std::arch::naked_asm;
use std::cell::Cell;
use std::ffi::c_void;
use std::ptr::{self, NonNull};
use std::thread::{self, ThreadId};

/// What std gives a spawned thread, which simulated threads used to be.
const STACK_SIZE: usize = 2 << 20;
const PAGE: usize = 4096;
/// A new Linux thread's MXCSR (low half) and x87 control word.
const CONTROL_WORDS: usize = 0x037F_0000_1F80;
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
/// MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK.
const MAP_FLAGS: i32 = 0x02 | 0x20 | 0x4000 | 0x2_0000;
const MADV_DONTNEED: i32 = 4;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// Where a coroutine's stack pointer is kept while it is suspended — a
/// heap cell for the root, the context word under its stack's [`link`]
/// word for any other — and 0 while it runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Context(NonNull<usize>);

// SAFETY: a `Context` is an address, dereferenced only by `spawn` (on a
// stack the caller just took from the pool) and by `Switch::run`, which
// runs on the Sim's owner thread alone: every switch follows a wait, and a
// wait names its waiter through `Coroutines::current`, which checks.
unsafe impl Send for Context {}
// SAFETY: as for `Send`; sharing a `Context` only copies the address.
unsafe impl Sync for Context {}

/// A coroutine's body. It returns its last switch, which `entry` makes.
pub(crate) type Body = Box<dyn FnOnce() -> Switch>;

/// One Sim's coroutines: the running one and the root. Their stacks come
/// from, and go back to, the owner thread's [`Pool`].
pub(crate) struct Coroutines {
    owner: ThreadId,
    root: Context,
    current: Context,
}

/// One OS thread's finished stacks, which any `Sim` on that thread spawns
/// from: `STACK_SIZE` mappings whose lowest page is a guard. A list
/// threaded through each stack's [`link`] word, so pooling allocates
/// nothing; its length is the peak number of simulated threads live at
/// once on the thread.
struct Pool {
    /// The base of the last stack pushed, or 0.
    head: Cell<usize>,
}

impl Pool {
    fn pop(&self) -> Option<usize> {
        let base = self.head.get();
        if base == 0 {
            return None;
        }
        // SAFETY: a pooled stack's link word, written by `push`, in a top
        // page that stays mapped and that `entry` never trims.
        self.head.set(unsafe { link(base).read() });
        Some(base)
    }

    fn push(&self, base: usize) {
        // SAFETY: the link word of a mapped stack whose coroutine has
        // finished; its last switch writes only the context word below.
        unsafe { link(base).write(self.head.get()) };
        self.head.set(base);
    }
}

impl Drop for Pool {
    /// Runs as the OS thread exits; a spawn after it maps (see `spawn`).
    fn drop(&mut self) {
        while let Some(base) = self.pop() {
            // SAFETY: a pooled mapping that no coroutine runs on any more.
            unsafe { munmap(base as *mut c_void, STACK_SIZE) };
        }
    }
}

thread_local! {
    /// This OS thread's id, read without `thread::current()`'s refcount.
    static THREAD: ThreadId = thread::current().id();
    /// This OS thread's stack pool. `const`: no lazy initializer; its
    /// destructor unmaps the pool when the thread exits.
    static POOL: Pool = const { Pool { head: Cell::new(0) } };
}

impl Coroutines {
    /// Makes the calling OS thread's own stack the root.
    pub(crate) fn new() -> Coroutines {
        let root = Context(NonNull::from(Box::leak(Box::new(0usize))));
        let owner = THREAD.with(|id| *id);
        Coroutines {
            owner,
            root,
            current: root,
        }
    }

    pub(crate) fn root(&self) -> Context {
        self.root
    }

    /// The running coroutine, for a waiter to name. Panics off the OS
    /// thread that created the Sim, where a switch would resume a
    /// coroutine on the wrong thread.
    pub(crate) fn current(&self) -> Context {
        let here = THREAD.with(|id| *id);
        assert!(
            here == self.owner,
            "a Sim is driven from the OS thread that created it"
        );
        self.current
    }

    /// A suspended coroutine that runs `body` on a pooled stack once
    /// switched to.
    pub(crate) fn spawn(&mut self, body: Body) -> Context {
        // Past the pool's teardown, as the OS thread exits, a spawn maps.
        let pooled = POOL.try_with(Pool::pop).ok().flatten();
        let base = pooled.unwrap_or_else(map_stack);
        let top = (base + STACK_SIZE - 16) as *mut usize;
        let body = Box::into_raw(Box::new(body));
        // What `switch_stacks` pops: control words, r15, r14, r13, r12 (the
        // body), rbx, rbp, then `trampoline` to return into — 16-aligned
        // under the context word, so that the trampoline's call is aligned.
        let ret = trampoline as *const () as usize;
        let frame = [CONTROL_WORDS, 0, 0, 0, body as usize, 0, 0, ret];
        // SAFETY: the eight words under `top`, and `top`, lie in a mapped
        // stack that no coroutine runs on; all are word-aligned.
        unsafe {
            let sp = top.sub(frame.len());
            sp.cast::<[usize; 8]>().write(frame);
            top.write(sp as usize);
            Context(NonNull::new_unchecked(top))
        }
    }

    /// Makes `to` the running coroutine: the switch to make once the kernel
    /// lock is released, or none if `to` runs already.
    pub(crate) fn hand_off(&mut self, to: Context) -> Option<Switch> {
        let from = std::mem::replace(&mut self.current, to);
        (from != to).then_some(Switch { from, to })
    }

    /// Retires the running coroutine, which has finished: its stack goes
    /// back to the pool, and `to` runs once `entry` makes the switch.
    /// Past the pool's teardown the stack stays mapped: it cannot be
    /// unmapped while it still runs.
    pub(crate) fn exit(&mut self, to: Context) -> Switch {
        assert!(self.current != self.root, "the root cannot exit");
        let base = stack_base(self.current);
        let _ = POOL.try_with(|pool| pool.push(base));
        self.hand_off(to).expect("a finished coroutine was woken")
    }
}

impl Drop for Coroutines {
    fn drop(&mut self) {
        // SAFETY: `new` leaked this box; with the Sim gone nothing switches.
        drop(unsafe { Box::from_raw(self.root.0.as_ptr()) });
    }
}

fn map_stack() -> usize {
    // SAFETY: a fresh anonymous mapping; no existing memory is affected.
    let base = unsafe {
        mmap(
            ptr::null_mut(),
            STACK_SIZE,
            PROT_READ_WRITE,
            MAP_FLAGS,
            -1,
            0,
        )
    };
    assert!(
        base as isize != -1,
        "failed to map a simulated thread's stack"
    );
    // SAFETY: the lowest page of the mapping just made, which nothing uses.
    let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
    assert_eq!(rc, 0, "failed to guard a simulated thread's stack");
    base as usize
}

/// The word above a stack's context word, which holds the next pooled
/// stack's base while the stack is pooled.
fn link(base: usize) -> *mut usize {
    (base + STACK_SIZE - 8) as *mut usize
}

/// The base address of the stack whose context word is `ctx`.
fn stack_base(ctx: Context) -> usize {
    ctx.0.as_ptr() as usize + 16 - STACK_SIZE
}

/// A hand-off decided under the kernel lock.
#[must_use]
pub(crate) struct Switch {
    from: Context,
    to: Context,
}

impl Switch {
    /// Suspends `from`, the running coroutine, and resumes `to`; returns
    /// when something switches back.
    pub(crate) fn run(self) {
        // SAFETY: `to` is the root's cell or a stack's context word, alive
        // as long as the Sim; only this thread touches it (see `Context`).
        let sp = unsafe { self.to.0.as_ptr().replace(0) };
        assert_ne!(sp, 0, "switch to a coroutine that is not suspended");
        // SAFETY: a nonzero context holds a frame that `switch_stacks`
        // saved or `spawn` laid out, not resumed since; `from` is writable.
        unsafe { switch_stacks(self.from.0.as_ptr(), sp) }
    }
}

/// Pushes the callee-saved registers, MXCSR and x87 control word, stores
/// the stack pointer in `*save`, loads `sp` and pops the same off it.
///
/// # Safety
///
/// `save` must be writable and `sp` a frame saved by this function (or laid
/// out by `Coroutines::spawn`) that has not been resumed since.
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(save: *mut usize, sp: usize) {
    naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "sub rsp, 8; stmxcsr dword ptr [rsp]; fnstcw word ptr [rsp + 4]",
        "mov [rdi], rsp; mov rsp, rsi",
        "ldmxcsr dword ptr [rsp]; fldcw word ptr [rsp + 4]; add rsp, 8",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "ret",
    )
}

/// Where a new coroutine's first switch returns: calls `entry` with the
/// body `spawn` left in r12.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    naked_asm!("mov rdi, r12", "call {entry}", "ud2", entry = sym entry)
}

/// A coroutine's outermost frame. `extern "C"`: a panic that escapes the
/// body aborts instead of unwinding off the stack.
extern "C" fn entry(body: *mut Body) -> ! {
    // SAFETY: `spawn` leaked this box for this one call.
    let last = unsafe { Box::from_raw(body) }();
    // Drop the pages below this frame, as glibc does for an exiting
    // thread's cached stack, so that a pooled stack holds only its top
    // pages however deep it once ran. The page under this one stays:
    // `madvise` and the last switch run in it.
    let lo = stack_base(last.from) + PAGE;
    let keep = (ptr::addr_of!(last) as usize & !(PAGE - 1)) - PAGE;
    if keep > lo {
        // SAFETY: `lo..keep` is this stack's, below every live frame.
        unsafe { madvise(lo as *mut c_void, keep - lo, MADV_DONTNEED) };
    }
    last.run();
    unreachable!("a finished coroutine was resumed")
}
