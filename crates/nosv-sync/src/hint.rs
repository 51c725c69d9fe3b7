//! The sync facade every protocol in this crate (and `nosv-shmem`) is
//! written against.
//!
//! In a normal build this module is a zero-cost re-export of
//! `std::sync::atomic` plus the crate's own [`Mutex`]/[`Condvar`] facade,
//! `std::thread` and the [`futex_wait`]/[`futex_wake`] pair (the raw
//! syscall on Linux, a yield loop under Miri and elsewhere) — the types
//! are *the same types*, so release codegen is bit-identical to using
//! `std` directly.
//!
//! With the `model` feature enabled, the same names resolve to the
//! `nosv-check` model checker's shims instead: every atomic operation,
//! mutex acquisition, condvar or futex wait, spawn and yield becomes a
//! preemption point of a deterministic schedule explorer (see the
//! `nosv-check` crate docs). The model types are `#[repr(transparent)]` wrappers over the real
//! atomics, so the layout of `#[repr(C)]` segment-resident structs is
//! unchanged, and outside an active exploration every operation falls
//! through to the real one — enabling the feature never changes what
//! correct code *does*, only what the checker can observe.
//!
//! Rules for code in this crate and `nosv-shmem` (enforced by `nosv-lint`):
//! atomics, `fence`, `spin_loop`, `yield_now` and thread spawns in protocol
//! code come from this module, never from `std` directly.

/// Memory orderings are always the real `std` orderings; the model checker
/// records them but explores sequentially consistent interleavings.
pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "model"))]
mod imp {
    pub use crate::mutex::{Condvar, Mutex, MutexGuard};
    pub use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

    /// Thread shims: `spawn`, `yield_now`, `JoinHandle`.
    pub mod thread {
        pub use std::thread::{spawn, yield_now, JoinHandle};
    }

    /// Spin-loop hint (`std::hint::spin_loop`).
    #[inline(always)]
    pub fn spin_loop() {
        std::hint::spin_loop();
    }
}

#[cfg(feature = "model")]
mod imp {
    pub use nosv_check::thread;
    pub use nosv_check::thread::spin_loop;
    pub use nosv_check::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard,
    };
}

pub use imp::*;

/// Whether this build routes the facade through the model checker (the
/// `model` feature). Suites that run both ways use it to pick between an
/// explored schedule and a plain threaded run.
pub const MODEL: bool = cfg!(feature = "model");

#[cfg(not(feature = "model"))]
pub use crate::futex::{futex_wait, futex_wake};
#[cfg(feature = "model")]
pub use nosv_check::{futex_wait, futex_wake};

/// A named crash point: the protocol-step counterpart of the atomic shims
/// above, marking every instruction boundary at which a *participant may
/// die* (SIGKILL, OOM-kill, power loss) leaving shared state half-written.
///
/// In a normal build this compiles to nothing. With the `chaos` feature the
/// process consults `NOSV_CRASH_POINT` once: if the variable names this
/// point, reaching it aborts the process on the spot — no unwinding, no
/// destructors, exactly like a kill — so a fault-injection harness can fork
/// a real participant, steer it onto one enumerated point and assert the
/// survivors repair everything the corpse left behind.
///
/// `NOSV_CRASH_POINT=<name>` aborts on the first hit of `<name>`;
/// `NOSV_CRASH_POINT=<name>:<n>` arms the abort on the `n`-th hit (1-based),
/// letting a harness crash e.g. the third ring push rather than the first.
///
/// Naming convention: `<protocol>.<operation>.<step>` — e.g.
/// `ring.push.reserved` is "the submit-ring push has claimed its slot index
/// but not yet published the sequence number". `nosv-lint` enforces that
/// every name used in the protocol crates appears in at least one chaos or
/// model test fixture.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub fn crash_point(_name: &'static str) {}

/// Chaos-build implementation of [`crash_point`] — see the no-op twin above
/// for the contract and the `NOSV_CRASH_POINT` protocol.
#[cfg(feature = "chaos")]
pub fn crash_point(name: &'static str) {
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::OnceLock;

    /// Parsed `NOSV_CRASH_POINT` value: the armed point name and the hit
    /// count (1-based) on which to abort.
    static ARMED: OnceLock<Option<(String, u64)>> = OnceLock::new();
    /// Hits of the armed point so far (only the armed name is counted).
    static HITS: StdAtomicU64 = StdAtomicU64::new(0);

    let armed = ARMED.get_or_init(|| {
        let raw = std::env::var("NOSV_CRASH_POINT").ok()?;
        let (point, nth) = match raw.rsplit_once(':') {
            Some((p, n)) => match n.parse::<u64>() {
                Ok(n) if n > 0 => (p.to_string(), n),
                // A suffix that is not a positive count is part of the name.
                _ => (raw.clone(), 1),
            },
            None => (raw.clone(), 1),
        };
        Some((point, nth))
    });
    if let Some((point, nth)) = armed {
        if point == name && HITS.fetch_add(1, Ordering::Relaxed) + 1 == *nth {
            // Mirror a real participant death: no unwinding, no Drop, no
            // exit handlers — the survivors must cope with raw abandonment.
            std::process::abort();
        }
    }
}
