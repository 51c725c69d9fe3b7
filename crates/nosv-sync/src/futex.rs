//! The futex shim behind [`crate::hint::futex_wait`] /
//! [`crate::hint::futex_wake`]: the blocking primitive of [`crate::IdleGate`].
//!
//! Three bodies share the two signatures: the raw `futex(2)` syscall on
//! Linux (this file), a yield loop under Miri and on every other target
//! (this file), and `nosv-check`'s block/wake under the `model` feature
//! (selected in `hint`, where timeouts are ignored so a lost wakeup shows
//! up as a deadlock rather than a delay).
//!
//! The futex is *shared* (no `FUTEX_PRIVATE_FLAG`): the kernel keys it by
//! the backing page, so waiter and waker may be different processes — or
//! one process holding two mappings of a segment.

pub use imp::{futex_wait, futex_wake};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
))]
mod imp {
    use std::os::raw::c_long;
    use std::time::Duration;

    use crate::hint::AtomicU32;

    // Declared directly (the workspace has no external crates).
    #[cfg(target_arch = "x86_64")]
    const SYS_FUTEX: c_long = 202;
    #[cfg(target_arch = "aarch64")]
    const SYS_FUTEX: c_long = 98;
    const FUTEX_WAIT: i32 = 0;
    const FUTEX_WAKE: i32 = 1;

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
    }

    /// `futex(FUTEX_WAIT)`: blocks the calling thread while
    /// `*word == expected`, until a [`futex_wake`] on the same word, the
    /// `timeout` (if any), or a spurious return — callers re-check their
    /// predicate either way. The compare-and-block is atomic with respect
    /// to wakes, which is what makes "bump the word, then wake" lossless.
    pub fn futex_wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) {
        let ts = timeout.map(|t| Timespec {
            tv_sec: i64::try_from(t.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(t.subsec_nanos()),
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `word` is a live, aligned 32-bit futex word for the whole
        // call, and `ts_ptr` is null or points at `ts`, which outlives it.
        // Every outcome (woken, EAGAIN, EINTR, ETIMEDOUT) is a valid return.
        unsafe {
            syscall(SYS_FUTEX, word.as_ptr(), FUTEX_WAIT, expected, ts_ptr);
        }
    }

    /// `futex(FUTEX_WAKE)`: wakes one thread blocked in [`futex_wait`] on
    /// `word` (`all == false`) or every one. A wake with no waiter is lost.
    pub fn futex_wake(word: &AtomicU32, all: bool) {
        let n: i32 = if all { i32::MAX } else { 1 };
        // SAFETY: `word` is a live, aligned 32-bit futex word; FUTEX_WAKE
        // only uses its address as the wait-queue key.
        unsafe {
            syscall(SYS_FUTEX, word.as_ptr(), FUTEX_WAKE, n);
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
mod imp {
    use std::time::{Duration, Instant};

    use crate::hint::{thread, AtomicU32, Ordering};

    /// Portable `futex_wait` (Miri, other targets): a yield loop on the
    /// word, bounded by `timeout`.
    pub fn futex_wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) {
        let deadline = timeout.map(|t| Instant::now() + t);
        while word.load(Ordering::SeqCst) == expected && deadline.is_none_or(|d| Instant::now() < d)
        {
            thread::yield_now();
        }
    }

    /// Portable `futex_wake`: the yield loop polls the word itself, so
    /// there is nobody to wake.
    pub fn futex_wake(_word: &AtomicU32, _all: bool) {}
}
