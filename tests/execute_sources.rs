//! One execution path for every kind of task: a handle-owned task, a
//! batch member and a guest kernel all go through the same worker
//! prologue/epilogue, so for each of them a *panicking* body must
//!
//! * be recorded as `TaskFailed` then `End`,
//! * bump `tasks_executed` and `task_panics` exactly once, **before** the
//!   completion notification fires, and
//! * leave the runtime consistent the instant that notification releases a
//!   waiter: a `shutdown()` issued right then must not trip the "tasks
//!   still pending" assert.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use nosv_repro::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Source {
    Handle,
    BatchMember,
    GuestKernel,
}

const KERNEL: u64 = 3;

fn seg_name() -> String {
    format!("nosv-exec-sources-{}", std::process::id())
}

/// Runs one panicking body from `source`, blocks on that source's
/// completion notification, and returns the stats read the moment it
/// fired plus the failed task's lifecycle event names.
fn panic_once(source: Source) -> (RuntimeStats, Vec<&'static str>) {
    let sink = Arc::new(MemorySink::new());
    let mut builder = Runtime::builder().cpus(1).sink(sink.clone());
    if matches!(source, Source::GuestKernel) {
        builder = builder
            .segment_name(seg_name())
            .reclaim_tick(Duration::from_millis(1));
    }
    let rt = builder.build().expect("valid config");
    let app = rt.attach("sources").expect("attach");

    let at_notification = match source {
        Source::Handle => {
            // The user's completion callback is the earliest notification
            // a handle task fires (the handle signal follows it).
            let (tx, rx) = mpsc::channel();
            let t = app
                .build_task(
                    TaskBuilder::new()
                        .run(|_| panic!("handle body"))
                        .on_completed(move || tx.send(()).unwrap()),
                )
                .expect("build");
            t.submit().expect("submit");
            rx.recv().expect("completion callback never ran");
            let stats = rt.stats();
            rt.shutdown();
            assert_eq!(t.wait(), Err(NosvError::TaskPanicked));
            t.destroy();
            stats
        }
        Source::BatchMember => {
            let h = app
                .submit_all(TaskBatch::new(1).run(|_| panic!("batch body")))
                .expect("submit_all");
            assert_eq!(h.wait(), Err(NosvError::TaskPanicked));
            let stats = rt.stats();
            rt.shutdown();
            stats
        }
        Source::GuestKernel => {
            rt.register_kernel(KERNEL, |_| panic!("guest kernel"));
            let guest = Runtime::join(&seg_name()).expect("in-process join");
            guest.submit(KERNEL, 0).expect("guest submit");
            // A guest has no failure channel: its task simply completes.
            guest
                .wait_idle(Duration::from_secs(30))
                .expect("guest task never completed");
            let stats = rt.stats();
            // Guest tasks hold no pending-count entry; leave first so the
            // detach does not wait out a reactor that shutdown has joined.
            guest.detach().expect("guest detach");
            rt.shutdown();
            stats
        }
    };
    drop(app);

    let kinds = sink
        .take_sorted()
        .iter()
        .filter(|e| e.kind.is_exec() || matches!(e.kind, ObsKind::TaskFailed))
        .map(|e| e.kind.name())
        .collect();
    (at_notification, kinds)
}

#[test]
fn a_panicking_body_completes_identically_from_every_source() {
    for source in [Source::Handle, Source::BatchMember, Source::GuestKernel] {
        if matches!(source, Source::GuestKernel) && !nosv_repro::nosv_shmem::os_backing_available()
        {
            eprintln!("skipping {source:?}: no OS shared-memory backing here");
            continue;
        }
        let (stats, kinds) = panic_once(source);
        assert_eq!(stats.tasks_executed, 1, "{source:?}: tasks_executed");
        assert_eq!(stats.task_panics, 1, "{source:?}: task_panics");
        assert_eq!(kinds, ["start", "task_failed", "end"], "{source:?}");
    }
}
