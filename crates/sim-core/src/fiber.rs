//! Stackful coroutine carriers for the event-driven kernel.
//!
//! In [`ExecMode::Event`](crate::ExecMode::Event) every simulated process
//! runs as a *fiber*: an `mmap`'d stack plus a saved register context,
//! multiplexed onto the single kernel OS thread. The kernel switches into a
//! fiber exactly where it used to grant a condvar, and the fiber switches
//! back exactly where it used to park — the scheduling decisions, and hence
//! every `(virtual time, admission sequence)` pair, are bit-identical to the
//! legacy one-OS-thread-per-process mode. What changes is the cost: a fiber
//! switch is a register save/restore (~tens of nanoseconds) instead of two
//! condvar round-trips through the OS scheduler, and the OS thread count is
//! bounded (the kernel thread) independent of rank count.
//!
//! The context switch saves the System V callee-saved registers on the
//! suspending stack and swaps `rsp`; it is x86_64-only (the only target this
//! workspace builds for). On other architectures the kernel silently falls
//! back to thread carriers.
//!
//! # Stacks
//!
//! A fiber's stack is an anonymous private no-reserve mapping with one
//! `PROT_NONE` guard page below it ([`Stack`]). The host commits a page only
//! when the fiber first runs that deep, so a spawned-but-parked rank costs
//! one touched page rather than its whole budget, nothing is zero-filled at
//! spawn, and running off the end of the stack faults on the guard page
//! (SIGSEGV, deterministically) instead of scribbling over the heap.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

/// Saved register context of a suspended fiber (or of the kernel carrier
/// while a fiber runs). Everything lives on the suspended stack; only the
/// stack pointer needs to be remembered.
#[repr(C)]
pub(crate) struct FiberCtx {
    rsp: *mut u8,
}

impl FiberCtx {
    fn null() -> Self {
        FiberCtx {
            rsp: ptr::null_mut(),
        }
    }
}

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".text",
    ".balign 16",
    // fn sim_core_fiber_switch(from: *mut FiberCtx, to: *const FiberCtx)
    //
    // Saves the callee-saved registers on the current stack, stores rsp into
    // `from`, loads rsp from `to`, restores the registers and returns on the
    // new stack. Caller-saved registers are dead across any call, so a plain
    // `call` into this function is a complete context switch.
    ".globl sim_core_fiber_switch",
    "sim_core_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, [rsi]",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    // First-switch trampoline: a fresh fiber stack is initialized so that
    // the restore sequence above leaves the entry argument in r12 and the
    // entry function in r13, then `ret`s here.
    ".globl sim_core_fiber_start",
    "sim_core_fiber_start:",
    "mov rdi, r12",
    "jmp r13",
);

#[cfg(target_arch = "x86_64")]
extern "C" {
    fn sim_core_fiber_switch(from: *mut FiberCtx, to: *const FiberCtx);
    fn sim_core_fiber_start();
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn sim_core_fiber_switch(_from: *mut FiberCtx, _to: *const FiberCtx) {
    unreachable!("fiber carriers are x86_64-only; ExecMode::Event falls back to threads");
}

/// The slice of the POSIX memory-mapping interface fiber stacks need,
/// declared here so the workspace keeps zero dependencies. Constants are the
/// Linux x86_64 values — the same gate as the switch asm above.
#[cfg(target_arch = "x86_64")]
mod sys {
    use std::ffi::c_void;

    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_NORESERVE: i32 = 0x4000;
    pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;
    /// The x86_64 base page size.
    pub const PAGE: usize = 4096;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// An owned fiber stack: `[guard page | usable bytes]`, low to high. The
/// stack grows down from the top of the usable part, so overflowing it
/// lands on the guard page and faults.
struct Stack {
    /// Start of the mapping, i.e. of the guard page.
    base: *mut u8,
    /// Whole mapping: guard page plus usable bytes.
    len: usize,
}

#[cfg(target_arch = "x86_64")]
impl Stack {
    /// Map a stack with at least `usable` writable bytes (rounded up to whole
    /// pages). Panics if the host refuses the mapping.
    fn new(usable: usize) -> Stack {
        let len = usable.next_multiple_of(sys::PAGE) + sys::PAGE;
        // SAFETY: a fresh anonymous mapping at a kernel-chosen address
        // aliases nothing; the result is checked before use.
        let base = unsafe {
            sys::mmap(
                ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            base != sys::MAP_FAILED,
            "mmap of a {len}-byte fiber stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the first page of the mapping above.
        let rc = unsafe { sys::mprotect(base, sys::PAGE, sys::PROT_NONE) };
        assert!(
            rc == 0,
            "mprotect of a fiber-stack guard page failed: {}",
            std::io::Error::last_os_error()
        );
        Stack {
            base: base.cast(),
            len,
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `new` created; the owning fiber is
        // finished or was never started, so no live frame is on it. A
        // failure only leaks address space, and Drop must not panic.
        unsafe { sys::munmap(self.base.cast(), self.len) };
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl Stack {
    fn new(_usable: usize) -> Stack {
        unreachable!("fiber carriers are x86_64-only; ExecMode::Event falls back to threads");
    }
}

impl Stack {
    /// One past the highest usable byte (page-aligned, hence 16-aligned).
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.len)
    }
}

/// True when this build can run fiber carriers.
pub(crate) fn supported() -> bool {
    cfg!(target_arch = "x86_64")
}

thread_local! {
    /// While a fiber runs, points at the kernel-side context it must switch
    /// back into when it yields. Set by [`Fiber::switch_into`], read by
    /// [`switch_to_kernel`]. One cell suffices because exactly one fiber
    /// runs per OS thread at a time.
    static CARRIER: std::cell::Cell<*mut FiberCtx> = const { std::cell::Cell::new(ptr::null_mut()) };
}

pub(crate) struct FiberData {
    /// The process body plus all kernel bookkeeping (status transition to
    /// Done, live count, panic capture). Taken on first entry.
    body: Option<Box<dyn FnOnce() + Send>>,
    /// The fiber's own saved context; the entry function switches back
    /// through it when the body finishes.
    ctx: FiberCtx,
}

/// One stackful coroutine: an owned stack and a saved context. Boxed inside
/// the kernel's process table so its address is stable while frames on its
/// stack hold pointers into it.
///
/// SAFETY of `Send`: the saved context is raw stack memory. The fiber only
/// ever *runs* on whichever thread calls `Sim::run`, one at a time, and the
/// body it carries is itself `Send`; moving the suspended state between
/// threads is therefore sound (same contract as a parked OS thread's stack).
pub(crate) struct Fiber {
    data: Box<FiberData>,
    /// Owned stack mapping; kept alive as long as the fiber may run.
    _stack: Stack,
    /// The kernel has switched into this fiber at least once.
    pub(crate) started: bool,
    /// The body has returned (or unwound); the fiber must never be resumed.
    pub(crate) finished: bool,
}

unsafe impl Send for Fiber {}

unsafe extern "C" fn fiber_entry(data: *mut FiberData) -> ! {
    {
        let data = &mut *data;
        let body = data.body.take().expect("fiber entered twice");
        // The body is the thread-spawn closure verbatim: it already
        // catch_unwinds user code and records Done/panic in kernel state.
        // A second guard here keeps any panic from unwinding off the
        // fiber stack into the trampoline (which has no landing pad).
        let _ = catch_unwind(AssertUnwindSafe(body));
    }
    // Body finished: return control to the kernel for good.
    switch_to_kernel(&mut (*data).ctx);
    // Resuming a finished fiber is a kernel bug.
    unreachable!("finished fiber resumed");
}

/// Switch from a running fiber back to the kernel carrier, saving the fiber's
/// context into `own`. Returns when the kernel next resumes the fiber.
pub(crate) fn switch_to_kernel(own: &mut FiberCtx) {
    let carrier = CARRIER.with(|c| c.get());
    debug_assert!(!carrier.is_null(), "switch_to_kernel outside a fiber");
    unsafe { sim_core_fiber_switch(own, carrier) };
}

/// Switch from a process context (a fiber) back to the kernel via a raw
/// pointer to its [`FiberData`]. Used by the kernel's yield path.
pub(crate) fn yield_from(data: *mut FiberData) {
    unsafe { switch_to_kernel(&mut (*data).ctx) };
}

impl Fiber {
    /// Create a suspended fiber that will run `body` on its own `stack_size`-
    /// byte stack when first switched into.
    pub(crate) fn new(stack_size: usize, body: Box<dyn FnOnce() + Send>) -> Fiber {
        assert!(supported(), "fiber carriers are x86_64-only");
        let stack = Stack::new(stack_size.max(16 * 1024));
        let mut data = Box::new(FiberData {
            body: Some(body),
            ctx: FiberCtx::null(),
        });
        // SAFETY: the eight slots written lie in the top 64 bytes of the
        // stack's usable (writable, >= 16 KiB) part, and its top is
        // page-aligned, so every `u64` store is aligned and in bounds.
        unsafe {
            // Layout (high to low): fake return slot, trampoline return
            // address, then the six callee-saved register slots the restore
            // sequence pops (rbp, rbx, r12=arg, r13=entry, r14, r15).
            let slots = stack.top() as *mut u64;
            *slots.sub(1) = 0; // fake caller return address
            *slots.sub(2) = sim_core_fiber_start as *const () as u64;
            *slots.sub(3) = 0; // rbp
            *slots.sub(4) = 0; // rbx
            *slots.sub(5) = &mut *data as *mut FiberData as u64; // r12 -> rdi
            *slots.sub(6) = fiber_entry as *const () as u64; // r13 -> jmp target
            *slots.sub(7) = 0; // r14
            *slots.sub(8) = 0; // r15
            data.ctx.rsp = slots.sub(8) as *mut u8;
        }
        Fiber {
            data,
            _stack: stack,
            started: false,
            finished: false,
        }
    }

    /// Raw pointer to this fiber's context data (stable: behind a Box).
    pub(crate) fn data_ptr(&mut self) -> *mut FiberData {
        &mut *self.data as *mut FiberData
    }

    /// Resume the fiber on the calling (kernel) thread until it yields back.
    ///
    /// # Safety
    /// Must only be called by the kernel run loop, with no kernel locks held,
    /// and never on a finished fiber.
    pub(crate) unsafe fn switch_into(data: *mut FiberData) {
        let mut carrier = FiberCtx::null();
        let prev = CARRIER.with(|c| c.replace(&mut carrier as *mut FiberCtx));
        sim_core_fiber_switch(&mut carrier, &(*data).ctx);
        CARRIER.with(|c| c.set(prev));
    }
}
