//! Deterministic concurrency model checker for the nOS-V reproduction.
//!
//! `nosv-check` is the engine behind the `nosv_sync::hint` facade: when the
//! `model` feature of `nosv-sync` is enabled, every atomic operation, mutex
//! acquisition, condvar wait and thread spawn in the migrated protocols
//! routes through this crate, which serializes the program onto **virtual
//! threads** and explores thread interleavings one schedule at a time.
//!
//! # How it works
//!
//! Real OS threads back each virtual thread, but a baton-passing scheduler
//! guarantees that **exactly one virtual thread executes at any instant**:
//! every shim operation is a *preemption point* where the running thread
//! consults the active [`Strategy`], possibly hands the baton to another
//! runnable thread, and blocks on its private condition variable until the
//! baton returns. Execution is therefore a deterministic function of the
//! decision sequence, independent of the OS scheduler, and any failing
//! schedule can be replayed exactly from its seed.
//!
//! Three exploration strategies are built in:
//!
//! * [`Strategy::Dfs`] — exhaustive depth-first enumeration of all
//!   interleavings. Complete, but only tractable for small, bounded tests.
//! * [`Strategy::Random`] — uniformly random scheduling decisions from a
//!   per-schedule seed derived from the base seed and the schedule index.
//! * [`Strategy::Pct`] — PCT-style randomized priorities: each thread gets a
//!   random static priority and `depth - 1` random change points demote the
//!   running thread, giving probabilistic bug-depth guarantees.
//!
//! Blocking is modeled, not simulated: a virtual thread that waits on a
//! model [`Mutex`]/[`Condvar`]/[`futex_wait`] or joins another thread is descheduled until
//! an event makes it runnable again. If every live thread is blocked, the
//! checker reports a **deadlock** — which is how lost-wakeup bugs surface.
//! Runaway schedules (livelock, unbounded spinning) are cut off by
//! [`Config::max_steps`].
//!
//! # Replaying failures
//!
//! On failure the checker prints the base seed and the failing schedule
//! index. Re-running the same test with `NOSV_CHECK_SEED=<seed>` and
//! `NOSV_CHECK_SCHEDULE=<index>` (see [`Config::from_env`]) replays exactly
//! that schedule. DFS explorations ignore the seed: they are deterministic
//! end to end, so simply re-running reproduces the failure.
//!
//! This crate has no dependencies (the repo builds without crates.io) and
//! does not model weak memory: exploration is over sequentially consistent
//! interleavings, in the tradition of systematic concurrency testing tools.

#![warn(missing_docs)]

mod rng;
mod sched;
pub mod sync;
pub mod thread;

pub use sched::{explore, model, Config, Failure, Report, Strategy};
pub use sync::{
    fence, futex_wait, futex_wake, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex,
    MutexGuard,
};
