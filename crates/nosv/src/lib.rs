//! # nOS-V: system-wide task scheduling for application co-execution
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! lightweight tasking library in which *one* runtime instance — whose state
//! lives in a shared-memory segment — schedules tasks from *several*
//! applications over the node's cores, so that at any time there is exactly
//! one runnable worker thread per core regardless of how many applications
//! are attached (paper §2–§3).
//!
//! ## The model
//!
//! * Applications attach to a [`Runtime`] as *logical processes*
//!   ([`ProcessContext`]) — in-process attachments over a
//!   position-independent segment. With
//!   [`RuntimeBuilder::segment_name`], the segment is additionally backed
//!   by a named OS shared-memory object and *foreign OS processes*
//!   co-execute for real: they map the same segment with
//!   [`Runtime::join`] and submit data-described tasks as a
//!   [`GuestProcess`] (see `nosv-shmem` and `DESIGN.md`).
//! * A process creates tasks ([`ProcessContext::create_task`] ≈
//!   `nosv_create`), submits them ([`TaskHandle::submit`] ≈ `nosv_submit`),
//!   may pause from inside a task body ([`pause`] ≈ `nosv_pause`) and
//!   destroys them ([`TaskHandle::destroy`] ≈ `nosv_destroy`).
//! * The shared scheduler is centralized behind a
//!   [`nosv_sync::DtLock`]: whichever worker wins the lock serves ready
//!   tasks to every waiting CPU with a node-wide view. The policy
//!   (implemented in [`policy`] and shared with the discrete-event
//!   simulator) prefers giving a CPU tasks from the process it already
//!   runs, bounded by a configurable time *quantum*, and honours
//!   per-process priorities, per-task priorities, and per-task CPU/NUMA
//!   [`Affinity`] (strict or best-effort) — §3.4.
//! * Tasks always execute on a worker thread *of their creating process*;
//!   assigning a core a task from another process performs a thread
//!   handoff, and pausing blocks the task's thread while the core picks up
//!   other work — §3.3.
//!
//! ## Quick start
//!
//! The public API is builder-first and error-first: runtimes are
//! configured through [`Runtime::builder`], every fallible operation
//! returns [`Result`], and [`prelude`] brings the whole working set into
//! scope with one import.
//!
//! ```
//! use nosv::prelude::*;
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), NosvError> {
//! let rt = Runtime::builder().cpus(2).build()?;
//! let app = rt.attach("demo")?;
//! let ran = Arc::new(AtomicU32::new(0));
//! let task = {
//!     let ran = Arc::clone(&ran);
//!     app.build_task(
//!         TaskBuilder::new().run(move |_ctx| { ran.fetch_add(1, Ordering::Relaxed); }),
//!     )?
//! };
//! task.submit()?;
//! task.wait()?;
//! assert_eq!(ran.load(Ordering::Relaxed), 1);
//! task.destroy();
//! drop(app);
//! rt.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builder;
mod config;
mod error;
pub mod ipc;
pub mod obs;
mod queue;
mod runtime;
mod scheduler;
mod stats;
mod task;
#[doc(hidden)]
pub mod testing;
mod worker;

/// The node-wide scheduling policy (paper §3.4), re-exported from
/// [`nosv_core::policy`].
///
/// The decision logic itself lives in the backend-agnostic `nosv-core`
/// crate so the live runtime and the `simnode` simulator consume the
/// *same* code; `nosv::policy` remains as a compatibility path (existing
/// `use nosv::policy::…` imports keep working).
pub use nosv_core::policy;

pub use builder::RuntimeBuilder;
pub use config::{DEFAULT_SUBMIT_LANES, DEFAULT_SUBMIT_RING_CAP};
pub use error::NosvError;
pub use ipc::GuestProcess;
pub use nosv_core::DEFAULT_QUANTUM_NS;
pub use obs::{
    AsciiTimelineSink, ChromeTraceSink, CounterKind, MemorySink, ObsEvent, ObsKind, TraceSink,
};
pub use policy::{QuantumPolicy, SchedPolicy};
pub use runtime::{ProcessContext, Runtime};
pub use stats::RuntimeStats;
pub use task::{
    Affinity, BatchHandle, TaskBatch, TaskBuilder, TaskCtx, TaskHandle, TaskId, TaskState,
};
pub use worker::{pause, yield_now};

/// One-import working set for the builder-first API.
///
/// ```
/// use nosv::prelude::*;
///
/// let rt = Runtime::builder().cpus(1).build().expect("valid");
/// rt.shutdown();
/// ```
pub mod prelude {
    pub use crate::obs::{
        AsciiTimelineSink, ChromeTraceSink, CounterKind, MemorySink, ObsEvent, ObsKind, TraceSink,
    };
    pub use crate::policy::{QuantumPolicy, SchedPolicy};
    pub use crate::{
        pause, yield_now, Affinity, BatchHandle, GuestProcess, NosvError, ProcessContext, Runtime,
        RuntimeBuilder, RuntimeStats, TaskBatch, TaskBuilder, TaskCtx, TaskHandle, TaskId,
        TaskState,
    };
}
