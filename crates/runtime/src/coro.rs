//! Stackful coroutines for the SPMD executor.
//!
//! Each simulated processor of a [`crate::Machine`] runs as a
//! [`Coro`]: a callee-saved-register context plus a dedicated, guard-paged
//! stack. A worker thread enters the coroutine with [`Coro::resume`]; the
//! coroutine leaves either by finishing or by calling
//! [`Yielder::suspend`] at a blocking point (a mailbox wait, a cooperative
//! yield), which switches straight back to whichever worker resumed it.
//! Suspended coroutines are plain data — they can be resumed later by a
//! *different* worker thread (work stealing), because every live register
//! is parked on the coroutine's own stack and the scheduler's queue locks
//! establish the cross-thread happens-before for the handoff.
//!
//! The context switch is ~10 instructions of inline assembly (save
//! callee-saved registers, swap stack pointers, restore): no syscall, no
//! kernel scheduler, no 8 MiB thread stack. That is what lets P = 4096
//! simulated processors multiplex onto `num_cpus` OS threads.
//!
//! Platform support: Linux on x86_64 and aarch64 (the System V / AAPCS64
//! callee-saved sets, and mmap'd stacks with a guard page). Any other
//! target is a compile error.
//!
//! Safety contract (the same one every stackful-fiber library has): a
//! coroutine may migrate between OS threads at suspension points, so SPMD
//! closures must not hold non-`Send` values (`Rc`, thread-bound locks,
//! raw TLS references) across a blocking `recv`/barrier. All repo
//! workloads move plain data. Stack overflow hits the `PROT_NONE` guard
//! page and faults loudly instead of corrupting a neighbour; size the
//! stack with `FX_STACK_KB` if a kernel genuinely recurses deeply.
//!
//! Stacks outlive their coroutines: a finished coroutine's stack goes back
//! to one process-wide free list, keyed by size, and the next coroutine of
//! that size takes it, guard page and all. After the first run of a size,
//! starting a processor makes no system call.

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!("fx-runtime's coroutines run on Linux x86-64 and aarch64 only");

use parking_lot::Mutex;

use crate::clock::debug_counters;

/// Why a coroutine handed control back to its resumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum YieldKind {
    /// Parked on an empty mailbox lane; resume only after a wake.
    Blocked,
    /// Cooperative yield (e.g. a `probe` poll loop); re-enqueue at the
    /// back of the run queue.
    Yielded,
    /// The entry closure returned; never resume again.
    Done,
}

/// A coroutine entry closure (the per-processor SPMD harness).
pub(crate) type Entry<'a> = Box<dyn FnOnce(&Yielder) + Send + 'a>;

/// Heap-pinned switch state shared between a [`Coro`] and the code
/// running on its stack. The box gives it a stable address: raw pointers
/// into it live in the coroutine's seeded registers and in the
/// [`Yielder`] handed to the entry closure.
pub(crate) struct CoroInner {
    /// Stack pointer of the suspended coroutine (valid while suspended).
    coro_sp: usize,
    /// Stack pointer of the worker that resumed it (valid while running).
    resume_sp: usize,
    /// Set by the coroutine immediately before each switch-out.
    yielded: YieldKind,
    /// The entry closure, taken on first entry. Type-erased to `'static`;
    /// `Coro::new_scoped` documents the real lifetime obligation.
    entry: Option<Entry<'static>>,
}

/// The suspension handle passed to a coroutine's entry closure. `Copy`:
/// it is two words of pointer into the pinned [`CoroInner`].
#[derive(Clone, Copy)]
pub(crate) struct Yielder {
    inner: *mut CoroInner,
}

impl Yielder {
    /// Switch back to the worker that resumed this coroutine, reporting
    /// `kind`. Returns when some worker resumes the coroutine again
    /// (possibly a different OS thread).
    #[inline]
    pub(crate) fn suspend(&self, kind: YieldKind) {
        unsafe {
            (*self.inner).yielded = kind;
            fx_coro_switch(&mut (*self.inner).coro_sp, (*self.inner).resume_sp);
        }
    }
}

/// One stackful coroutine: switch state plus its guard-paged stack
/// (`None` only while the coroutine is being dropped).
pub(crate) struct Coro {
    inner: Box<CoroInner>,
    stack: Option<Stack>,
}

// SAFETY: a suspended coroutine is inert data (registers parked on its own
// stack, entry closure is `Send`); the scheduler's state machine
// guarantees at most one thread resumes it at a time, and its queue locks
// provide the acquire/release ordering for the migration handoff. User
// closures must not hold non-`Send` locals across suspension points (see
// the module docs) — the same contract as every stackful-fiber runtime.
unsafe impl Send for Coro {}

impl Coro {
    /// Create a coroutine that will run `entry` on its own `stack_bytes`
    /// stack when first resumed.
    ///
    /// # Safety
    ///
    /// `entry`'s lifetime is erased. The caller must guarantee the
    /// coroutine is dropped (and, if it ever ran, has finished or will
    /// never be resumed again) before anything `entry` borrows goes out
    /// of scope. The executor upholds this by joining all workers
    /// and dropping every `Coro` before `run` returns.
    pub(crate) unsafe fn new_scoped(stack_bytes: usize, entry: Entry<'_>) -> Coro {
        let entry: Entry<'static> = std::mem::transmute(entry);
        let stack = Stack::take(stack_bytes);
        let mut inner = Box::new(CoroInner {
            coro_sp: 0,
            resume_sp: 0,
            yielded: YieldKind::Yielded,
            entry: Some(entry),
        });
        inner.coro_sp = seed_stack(stack.top(), &mut *inner as *mut CoroInner);
        Coro { inner, stack: Some(stack) }
    }

    /// Run the coroutine until it suspends or finishes. Must not be
    /// called again after it reported [`YieldKind::Done`].
    pub(crate) fn resume(&mut self) -> YieldKind {
        debug_assert!(
            self.inner.yielded != YieldKind::Done,
            "resumed a finished coroutine"
        );
        unsafe {
            fx_coro_switch(&mut self.inner.resume_sp, self.inner.coro_sp);
        }
        self.inner.yielded
    }
}

impl Drop for Coro {
    /// A finished coroutine's stack holds no live frame, so it goes back to
    /// the free list; one dropped mid-run (a teardown after a scheduler
    /// panic) is unmapped, as it always was.
    fn drop(&mut self) {
        if let Some(stack) = self.stack.take().filter(|_| self.inner.yielded == YieldKind::Done) {
            stack.recycle();
        }
    }
}

/// Aborts the process if dropped: placed around the entry closure so a
/// panic that somehow escapes its internal `catch_unwind` can never
/// unwind into the hand-built trampoline frame (undefined behaviour).
struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        eprintln!("fatal: panic escaped a coroutine entry; aborting");
        std::process::abort();
    }
}

/// First Rust frame on a fresh coroutine stack, reached via the assembly
/// trampoline. Runs the entry closure, reports `Done`, and switches back
/// to the resumer forever.
#[no_mangle]
unsafe extern "C" fn fx_coro_entry_rust(task: *mut CoroInner) -> ! {
    {
        let inner = &mut *task;
        let f = inner.entry.take().expect("coroutine entered twice");
        let yielder = Yielder { inner: task };
        let guard = AbortOnUnwind;
        f(&yielder);
        std::mem::forget(guard);
        inner.yielded = YieldKind::Done;
        fx_coro_switch(&mut inner.coro_sp, inner.resume_sp);
    }
    // A finished coroutine must never be resumed.
    std::process::abort();
}

// ---------------------------------------------------------------------------
// Context switch: save callee-saved registers on the current stack, store
// the stack pointer through `save`, load `to` as the new stack pointer,
// restore, return. The counterpart state for a *new* coroutine is seeded
// by `seed_stack` so the first "restore" lands in the trampoline with the
// CoroInner pointer in a callee-saved register.
// ---------------------------------------------------------------------------

extern "C" {
    fn fx_coro_switch(save: *mut usize, to: usize);
    fn fx_coro_tramp();
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
core::arch::global_asm!(
    r#"
    .text
    .globl fx_coro_switch
    .p2align 4
    .type fx_coro_switch, @function
fx_coro_switch:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    mov qword ptr [rdi], rsp
    mov rsp, rsi
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret
    .size fx_coro_switch, . - fx_coro_switch

    .globl fx_coro_tramp
    .p2align 4
    .type fx_coro_tramp, @function
fx_coro_tramp:
    mov rdi, r12
    jmp fx_coro_entry_rust
    .size fx_coro_tramp, . - fx_coro_tramp
    "#
);

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
core::arch::global_asm!(
    r#"
    .text
    .globl fx_coro_switch
    .p2align 2
    .type fx_coro_switch, %function
fx_coro_switch:
    sub sp, sp, #160
    stp x19, x20, [sp, #0]
    stp x21, x22, [sp, #16]
    stp x23, x24, [sp, #32]
    stp x25, x26, [sp, #48]
    stp x27, x28, [sp, #64]
    stp x29, x30, [sp, #80]
    stp d8,  d9,  [sp, #96]
    stp d10, d11, [sp, #112]
    stp d12, d13, [sp, #128]
    stp d14, d15, [sp, #144]
    mov x9, sp
    str x9, [x0]
    mov sp, x1
    ldp x19, x20, [sp, #0]
    ldp x21, x22, [sp, #16]
    ldp x23, x24, [sp, #32]
    ldp x25, x26, [sp, #48]
    ldp x27, x28, [sp, #64]
    ldp x29, x30, [sp, #80]
    ldp d8,  d9,  [sp, #96]
    ldp d10, d11, [sp, #112]
    ldp d12, d13, [sp, #128]
    ldp d14, d15, [sp, #144]
    add sp, sp, #160
    ret
    .size fx_coro_switch, . - fx_coro_switch

    .globl fx_coro_tramp
    .p2align 2
    .type fx_coro_tramp, %function
fx_coro_tramp:
    mov x0, x19
    b fx_coro_entry_rust
    .size fx_coro_tramp, . - fx_coro_tramp
    "#
);

/// Build the initial saved-register frame on a fresh stack so the first
/// `fx_coro_switch` into it "returns" into the trampoline with the
/// `CoroInner` pointer in a callee-saved register. Returns the seeded
/// stack pointer.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn seed_stack(top: *mut u8, task: *mut CoroInner) -> usize {
    debug_assert_eq!(top as usize % 16, 0, "stack top must be 16-aligned");
    // Frame layout read by the restore half of fx_coro_switch
    // (S = seeded sp): [S]=r15 [S+8]=r14 [S+16]=r13 [S+24]=r12(task)
    // [S+32]=rbx [S+40]=rbp [S+48]=return address (trampoline) [S+56]=0.
    // After the pops and `ret`, rsp = top-8, i.e. ≡ 8 (mod 16) — the
    // System V alignment a function expects on entry.
    let s = (top as *mut usize).sub(8);
    for i in 0..8 {
        s.add(i).write(0);
    }
    s.add(3).write(task as usize); // r12
    s.add(6).write(fx_coro_tramp as *const () as usize); // ret target
    s as usize
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn seed_stack(top: *mut u8, task: *mut CoroInner) -> usize {
    debug_assert_eq!(top as usize % 16, 0, "stack top must be 16-aligned");
    // Frame layout read by the restore half of fx_coro_switch
    // (S = seeded sp, 160 bytes): x19 at [S], x30 (the `ret` target) at
    // [S+88]; everything else zero. After the loads, sp = top (16-aligned,
    // as AAPCS64 requires on entry).
    let s = (top as *mut usize).sub(20);
    for i in 0..20 {
        s.add(i).write(0);
    }
    s.write(task as usize); // x19
    s.add(11).write(fx_coro_tramp as *const () as usize); // x30
    s as usize
}

// ---------------------------------------------------------------------------
// Stacks: an anonymous mmap with a PROT_NONE guard page at the low end, so
// overflow faults instead of silently corrupting adjacent memory. Pages
// are committed lazily by the kernel, so P = 4096 stacks cost virtual
// address space, not resident memory. A stack is mapped once and then
// recycled through `IDLE`.
// ---------------------------------------------------------------------------

/// Idle stacks, grouped by total length. A run's coroutines take from
/// here and its finished ones give back, so only a run larger than every
/// earlier one of its stack size maps anything.
static IDLE: Mutex<Vec<(usize, Vec<Stack>)>> = Mutex::new(Vec::new());

/// At most this many idle stacks, all sizes together (twice a P = 4096
/// run); beyond it a returned stack is unmapped.
const IDLE_CAP: usize = 8192;

struct Stack {
    base: *mut u8,
    len: usize,
}

// SAFETY: the stack (`base`, `len`) is an owned allocation. A live one's
// contents are covered by the owning `Coro`'s `Send` contract; an idle
// one in `IDLE` belonged to a finished coroutine and holds no live frame.
unsafe impl Send for Stack {}

mod sys {
    use std::ffi::c_void;
    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x2;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const SC_PAGESIZE: i32 = 30;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }
}

/// Host page size (for guard-page placement and stack rounding).
fn page_size() -> usize {
    let ps = unsafe { sys::sysconf(sys::SC_PAGESIZE) };
    if ps > 0 {
        ps as usize
    } else {
        4096
    }
}

impl Stack {
    /// A stack of at least `usable_bytes`: an idle one of that size if
    /// there is one, else a fresh mapping.
    fn take(usable_bytes: usize) -> Stack {
        let page = page_size();
        let usable = usable_bytes.div_ceil(page).max(4) * page;
        let len = usable + page; // + guard page at the low end
        let idle = IDLE.lock().iter_mut().find(|(l, _)| *l == len).and_then(|(_, free)| free.pop());
        idle.unwrap_or_else(|| Stack::map(len, page))
    }

    /// Hand a stack whose coroutine finished to the next coroutine of its
    /// size (unmapped instead when [`IDLE_CAP`] stacks are idle already).
    fn recycle(self) {
        let mut idle = IDLE.lock();
        if idle.iter().map(|(_, free)| free.len()).sum::<usize>() >= IDLE_CAP {
            drop(idle);
            return; // `self` drops here, unmapped outside the lock
        }
        match idle.iter_mut().find(|(l, _)| *l == self.len) {
            Some((_, free)) => free.push(self),
            None => idle.push((self.len, vec![self])),
        }
    }

    /// Map `total` bytes, the lowest `page` of them a guard.
    fn map(total: usize, page: usize) -> Stack {
        debug_counters::bump(&debug_counters::STACK_MAPS);
        unsafe {
            let p = sys::mmap(
                std::ptr::null_mut(),
                total,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            );
            assert!(p as isize != -1, "mmap of a {total}-byte coroutine stack failed (out of address space?)");
            let rc = sys::mprotect(p, page, sys::PROT_NONE);
            assert_eq!(rc, 0, "mprotect(guard page) failed");
            Stack { base: p as *mut u8, len: total }
        }
    }

    /// One past the highest usable byte, 16-aligned (mmap returns
    /// page-aligned regions; page sizes are multiples of 16).
    fn top(&self) -> *mut u8 {
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        unsafe {
            sys::munmap(self.base as *mut std::ffi::c_void, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coroutine_runs_to_completion() {
        let mut hit = false;
        {
            let hit_ref = &mut hit;
            let mut c = unsafe {
                Coro::new_scoped(64 * 1024, Box::new(move |_y: &Yielder| *hit_ref = true))
            };
            assert_eq!(c.resume(), YieldKind::Done);
        }
        assert!(hit);
    }

    #[test]
    fn suspend_and_resume_roundtrip() {
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let out2 = std::sync::Arc::clone(&out);
        let mut c = unsafe {
            Coro::new_scoped(
                64 * 1024,
                Box::new(move |y: &Yielder| {
                    out2.lock().unwrap().push(1);
                    y.suspend(YieldKind::Yielded);
                    out2.lock().unwrap().push(2);
                    y.suspend(YieldKind::Blocked);
                    out2.lock().unwrap().push(3);
                }),
            )
        };
        assert_eq!(c.resume(), YieldKind::Yielded);
        out.lock().unwrap().push(10);
        assert_eq!(c.resume(), YieldKind::Blocked);
        out.lock().unwrap().push(20);
        assert_eq!(c.resume(), YieldKind::Done);
        assert_eq!(*out.lock().unwrap(), vec![1, 10, 2, 20, 3]);
    }

    #[test]
    fn resume_from_another_thread() {
        // Suspend on one thread, resume on another: the migration the
        // work-stealing pool performs.
        let mut c = unsafe {
            Coro::new_scoped(
                64 * 1024,
                Box::new(move |y: &Yielder| {
                    let local = 41u64; // lives across the migration
                    y.suspend(YieldKind::Yielded);
                    assert_eq!(local + 1, 42);
                }),
            )
        };
        assert_eq!(c.resume(), YieldKind::Yielded);
        let h = std::thread::spawn(move || {
            assert_eq!(c.resume(), YieldKind::Done);
        });
        h.join().unwrap();
    }

    #[test]
    fn deep_call_stacks_fit() {
        fn recurse(n: usize) -> usize {
            let pad = [n; 8]; // keep frames non-trivial
            if n == 0 {
                pad[0]
            } else {
                recurse(n - 1) + 1
            }
        }
        let mut c = unsafe {
            Coro::new_scoped(
                256 * 1024,
                Box::new(move |_y: &Yielder| {
                    assert_eq!(recurse(500), 500);
                }),
            )
        };
        assert_eq!(c.resume(), YieldKind::Done);
    }

    #[test]
    fn a_finished_coroutine_hands_its_stack_to_the_next_one() {
        const SIZE: usize = 72 * 1024; // no other test maps this size
        let idle = || {
            let len = SIZE + page_size();
            IDLE.lock().iter().find(|(l, _)| *l == len).map_or(0, |(_, free)| free.len())
        };
        let base = |c: &Coro| c.stack.as_ref().expect("a live coroutine has its stack").base;
        let mut a = unsafe { Coro::new_scoped(SIZE, Box::new(|_: &Yielder| ())) };
        let first = base(&a);
        assert_eq!(a.resume(), YieldKind::Done);
        drop(a);
        assert_eq!(idle(), 1);
        let mut b = unsafe { Coro::new_scoped(SIZE, Box::new(|y: &Yielder| y.suspend(YieldKind::Yielded))) };
        assert_eq!((base(&b), idle()), (first, 0), "the finished stack was taken, guard page and all");
        assert_eq!(b.resume(), YieldKind::Yielded);
        drop(b);
        assert_eq!(idle(), 0, "a stack with live frames is unmapped, not recycled");
    }

    #[test]
    fn many_coroutines_interleave() {
        let n = 64;
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut coros: Vec<Coro> = (0..n)
            .map(|_| {
                let c = std::sync::Arc::clone(&counter);
                unsafe {
                    Coro::new_scoped(
                        64 * 1024,
                        Box::new(move |y: &Yielder| {
                            for _ in 0..3 {
                                c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                y.suspend(YieldKind::Yielded);
                            }
                        }),
                    )
                }
            })
            .collect();
        let mut done = 0;
        while done < n {
            done = 0;
            for c in &mut coros {
                // Finished coroutines are skipped via their recorded state.
                if c.inner.yielded != YieldKind::Done {
                    c.resume();
                }
                if c.inner.yielded == YieldKind::Done {
                    done += 1;
                }
            }
        }
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), n * 3);
    }
}
