//! A single task is a batch of one: `TaskHandle::submit` and a one-member
//! `submit_all` enter the scheduler through the same door, so on the same
//! runtime state they must take the same path (direct / ring / locked
//! counter deltas) and leave the same record (`Submit`, `Start`, `End`).
//!
//! Two states, both forced rather than slept for:
//!
//! * **parked** — a 1-CPU runtime whose only worker has armed its claim
//!   slot and holds the standby role (`standby_elections` reaching 1 says
//!   so: the election happens after the arm, on the way into the sleep);
//! * **saturated** — the only CPU is inside a task body that blocks until
//!   released, so no CPU is armed and the submission must queue.

use std::sync::mpsc;
use std::sync::Arc;

use nosv_repro::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Door {
    Handle,
    BatchOfOne,
}

/// `(direct, ring, locked)` submission-path counters.
fn paths(s: &RuntimeStats) -> (u64, u64, u64) {
    (s.direct_dispatches, s.ring_submits, s.locked_submits)
}

/// Submits one empty task through `door` on a fresh 1-CPU runtime in the
/// requested state; returns the path-counter deltas of that submission and
/// the lifecycle event names its task produced, in order.
fn submit_one(door: Door, saturated: bool) -> ((u64, u64, u64), Vec<&'static str>) {
    let sink = Arc::new(MemorySink::new());
    let rt = Runtime::builder()
        .cpus(1)
        .sink(sink.clone())
        .build()
        .expect("valid config");
    let app = rt.attach("equiv").expect("attach");

    let mut blocker = None;
    if saturated {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let t = app.spawn(move |_| {
            started_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        started_rx.recv().expect("blocker never started");
        blocker = Some((t, release_tx));
    } else {
        while rt.stats().standby_elections == 0 {
            std::thread::yield_now();
        }
    }

    let before = paths(&rt.stats());
    let finish: Box<dyn FnOnce()> = match door {
        Door::Handle => {
            let t = app.create_task(|_| {});
            t.submit().expect("submit");
            Box::new(move || {
                t.wait().unwrap();
                t.destroy();
            })
        }
        Door::BatchOfOne => {
            let h = app
                .submit_all(TaskBatch::new(1).run(|_| {}))
                .expect("submit_all");
            Box::new(move || h.wait().unwrap())
        }
    };
    let after = paths(&rt.stats());
    let delta = (after.0 - before.0, after.1 - before.1, after.2 - before.2);

    let blocker_id = blocker.map(|(t, release)| {
        release.send(()).unwrap();
        t.wait().unwrap();
        let id = t.id();
        t.destroy();
        id
    });
    finish();
    drop(app);
    rt.shutdown();

    let kinds = sink
        .take_sorted()
        .iter()
        .filter(|e| Some(e.task) != blocker_id && !matches!(e.kind, ObsKind::Counter { .. }))
        .map(|e| e.kind.name())
        .collect();
    (delta, kinds)
}

#[test]
fn one_handle_task_and_a_batch_of_one_are_the_same_submission() {
    for (saturated, expected) in [(false, (1, 0, 0)), (true, (0, 1, 0))] {
        let (handle_paths, handle_kinds) = submit_one(Door::Handle, saturated);
        let (batch_paths, batch_kinds) = submit_one(Door::BatchOfOne, saturated);
        assert_eq!(
            handle_paths, batch_paths,
            "saturated={saturated}: (direct, ring, locked) deltas differ"
        );
        assert_eq!(
            handle_paths, expected,
            "saturated={saturated}: the forced state did not force the path"
        );
        assert_eq!(handle_kinds, batch_kinds, "saturated={saturated}");
        assert_eq!(handle_kinds, ["submit", "start", "end"]);
    }
}
