//! Synchronization primitives used by the nOS-V runtime reproduction.
//!
//! The centerpiece is the [`DtLock`] (Delegation Ticket Lock), the lock the
//! paper's shared scheduler is built on (§3.4, citing Álvarez et al.,
//! PPoPP'21 "Advanced Synchronization Techniques for Task-Based Runtime
//! Systems"). A `DtLock` is a FIFO ticket lock in which the current holder
//! may *serve* waiting threads directly — depositing a value into their wait
//! slot so they return without ever entering the critical section. In the
//! nOS-V scheduler, a worker that wins the lock becomes a temporary *server*
//! that assigns ready tasks to the CPUs of all waiting workers, which both
//! removes contention on the scheduler state and lets the server apply a
//! node-wide policy with a consistent view.
//!
//! The crate also provides the building blocks the rest of the workspace
//! reuses:
//!
//! * [`RawSpinMutex`] — a plain-old-data spinlock suitable for placement
//!   inside a shared-memory segment (no host pointers, fixed layout).
//! * [`IdleGate`] — an event-counted gate for idle threads: two words over
//!   a shared futex, wait-free notification when nobody sleeps, and no
//!   lost wakeups without a periodic-poll timeout. Plain-old-data like
//!   [`RawSpinMutex`], so waiter and waker may be different processes;
//!   [`CpuGates`] builds the runtime's per-CPU submit→wake path on it.
//! * [`Backoff`] — bounded exponential backoff helper.
//! * [`Padded`] — cache-line padding wrapper to avoid false sharing.
//! * [`Mutex`] / [`Condvar`] — an ergonomic facade over `std::sync` (guard
//!   from `lock()` directly, `wait(&mut guard)`) used by the host-side
//!   runtime code across the workspace.
//! * [`SplitMix64`] — the workspace's deterministic pseudo-random source
//!   (simulator seeding, property-test input generation).
//!
//! All primitives are implemented from scratch on `std::sync::atomic` with
//! explicit memory orderings; see the per-module documentation for the
//! protocols and their correctness arguments.

#![warn(missing_docs)]

mod backoff;
mod cpu_gates;
mod dtlock;
#[cfg(not(feature = "model"))]
mod futex;
pub mod hint;
mod idle_gate;
mod mutex;
mod padded;
mod raw;
mod splitmix;

pub use backoff::Backoff;
pub use cpu_gates::{CpuGateBlock, CpuGates, GATE_MAX_CPUS};
pub use dtlock::{Acquired, DtGuard, DtLock};
pub use idle_gate::IdleGate;
pub use mutex::{Condvar, Mutex, MutexGuard};
pub use padded::Padded;
pub use raw::RawSpinMutex;
pub use splitmix::SplitMix64;
