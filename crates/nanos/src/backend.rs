//! Execution backends: standalone Nanos6-style pool vs. nOS-V delegation.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use nosv::{ProcessContext, TaskBuilder, TaskHandle};
use nosv_sync::{Condvar, Mutex};

/// Where ready tasks execute.
///
/// * [`Backend::standalone`] — the runtime owns worker threads and a
///   process-local priority scheduler (the unmodified-Nanos6 baseline).
/// * [`Backend::nosv`] — ready tasks are created and submitted through an
///   attached nOS-V process; scheduling, CPU management and co-execution
///   are nOS-V's job (the adapted runtime of paper §4).
pub struct Backend {
    pub(crate) kind: BackendKind,
}

pub(crate) enum BackendKind {
    Standalone { threads: usize },
    Nosv { app: Arc<ProcessContext> },
}

impl Backend {
    /// A standalone pool with `threads` workers.
    pub fn standalone(threads: usize) -> Backend {
        assert!(threads > 0, "standalone backend needs at least one thread");
        Backend {
            kind: BackendKind::Standalone { threads },
        }
    }

    /// Delegate scheduling to an attached nOS-V process.
    pub fn nosv(app: ProcessContext) -> Backend {
        Backend {
            kind: BackendKind::Nosv { app: Arc::new(app) },
        }
    }
}

/// A ready-to-run job dispatched to a backend.
pub(crate) struct ReadyJob {
    pub body: Box<dyn FnOnce() + Send + 'static>,
    pub on_done: Box<dyn FnOnce() + Send + 'static>,
    pub priority: i32,
    pub affinity: nosv::Affinity,
}

pub(crate) enum BackendImpl {
    Standalone(StandalonePool),
    Nosv(NosvBridge),
}

impl BackendImpl {
    pub(crate) fn build(backend: Backend) -> BackendImpl {
        match backend.kind {
            BackendKind::Standalone { threads } => {
                BackendImpl::Standalone(StandalonePool::start(threads))
            }
            BackendKind::Nosv { app } => BackendImpl::Nosv(NosvBridge {
                app,
                handles: Mutex::new(Vec::new()),
            }),
        }
    }

    pub(crate) fn dispatch(&self, job: ReadyJob) {
        match self {
            BackendImpl::Standalone(pool) => pool.push(job),
            BackendImpl::Nosv(bridge) => bridge.submit(job),
        }
    }

    /// Reclaims completed-task resources (nOS-V task descriptors).
    pub(crate) fn reap(&self) {
        if let BackendImpl::Nosv(bridge) = self {
            bridge.reap();
        }
    }

    pub(crate) fn shutdown(&self) {
        match self {
            BackendImpl::Standalone(pool) => pool.shutdown(),
            BackendImpl::Nosv(bridge) => bridge.reap(),
        }
    }
}

// ---- standalone pool -------------------------------------------------------

struct PoolItem {
    priority: i32,
    seq: u64,
    job: Option<ReadyJob>,
}

impl PartialEq for PoolItem {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for PoolItem {}
impl PartialOrd for PoolItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PoolItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first; FIFO (lower seq) within equal
        // priority.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct PoolShared {
    queue: Mutex<BinaryHeap<PoolItem>>,
    cv: Condvar,
    stop: AtomicBool,
    seq: AtomicU64,
}

/// The unmodified-Nanos6 stand-in: a process-local thread pool with a
/// priority queue and futex-style idle blocking.
pub(crate) struct StandalonePool {
    shared: Arc<PoolShared>,
    joins: Mutex<Vec<JoinHandle<()>>>,
}

impl StandalonePool {
    fn start(threads: usize) -> StandalonePool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        let joins = (0..threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nanos-worker-{i}"))
                    .spawn(move || Self::worker(sh))
                    .expect("spawn nanos worker")
            })
            .collect();
        StandalonePool {
            shared,
            joins: Mutex::new(joins),
        }
    }

    fn worker(shared: Arc<PoolShared>) {
        loop {
            let job = {
                let mut q = shared.queue.lock();
                loop {
                    if let Some(mut item) = q.pop() {
                        break item.job.take().expect("job taken twice");
                    }
                    if shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    shared.cv.wait(&mut q);
                }
            };
            (job.body)();
            (job.on_done)();
        }
    }

    fn push(&self, job: ReadyJob) {
        let mut q = self.shared.queue.lock();
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        q.push(PoolItem {
            priority: job.priority,
            seq,
            job: Some(job),
        });
        drop(q);
        self.shared.cv.notify_one();
    }

    fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        {
            let _q = self.shared.queue.lock();
            self.shared.cv.notify_all();
        }
        for j in std::mem::take(&mut *self.joins.lock()) {
            let _ = j.join();
        }
    }
}

// ---- nOS-V bridge ----------------------------------------------------------

/// The adapted-runtime shape (§4): every ready task becomes a nOS-V task of
/// this runtime's process; nOS-V owns scheduling and the CPUs.
pub(crate) struct NosvBridge {
    app: Arc<ProcessContext>,
    /// Completed handles awaiting `nosv_destroy` (reaped at taskwait).
    handles: Mutex<Vec<TaskHandle>>,
}

impl NosvBridge {
    fn submit(&self, job: ReadyJob) {
        let body = job.body;
        let handle = self
            .app
            .build_task(
                TaskBuilder::new()
                    .priority(job.priority)
                    .affinity(job.affinity)
                    .run(move |_ctx| body())
                    .on_completed(job.on_done),
            )
            .unwrap_or_else(|e| panic!("nOS-V rejected a nanos task: {e}"));
        handle
            .submit()
            .unwrap_or_else(|e| panic!("nOS-V rejected a nanos task submission: {e}"));
        self.handles.lock().push(handle);
    }

    fn reap(&self) {
        let mut handles = self.handles.lock();
        // Destroy every completed task descriptor; keep the rest.
        let pending: Vec<TaskHandle> = handles
            .drain(..)
            .filter_map(|h| {
                if h.state() == nosv::TaskState::Completed {
                    h.destroy();
                    None
                } else {
                    Some(h)
                }
            })
            .collect();
        *handles = pending;
    }
}
