//! Composition suite: the cross-process round trip as one protocol.
//!
//! `nosv-check` proves each primitive alone (ring, claim table, gates,
//! registry); the bugs that mattered lived *between* them — a wake lost
//! between a counter bump and a park, a waiter asleep on a finished job.
//! This suite runs the four roles of a guest round trip against each
//! other over the real types and the real functions:
//!
//! * **submitter** — a guest's [`GuestPort`]: claim pass → ring publish →
//!   `wake_for`;
//! * **workers** — the pull loop's skeleton: hungry-bracketed
//!   [`Scheduler::get_task`], `chain_wake`, [`Scheduler::park_idle`]
//!   (`prepare_wait` → arm → `has_ready` → wait → disarm);
//! * **completer** — the worker that ran a task: `add_completed`, which
//!   ends by notifying the guest's slot gate;
//! * **waiter** — `wait_on_slot`, the helper behind
//!   [`crate::GuestProcess::wait_idle`].
//!
//! Invariants, per schedule: every task executes exactly once; the waiter
//! returns (a worker parked on ready work, or a waiter asleep with every
//! task complete, leaves all threads blocked — the checker reports the
//! deadlock); nothing is left ready.
//!
//! Under `--features nosv-shmem/model` the schedules are explored by
//! `nosv-check` (futex timeouts ignored, so a lost wakeup cannot hide
//! behind the waiter's probe period):
//!
//! ```text
//! cargo test -p nosv --features nosv-shmem/model --lib compose
//! ```
//!
//! A default build runs the same scenario on plain threads, repeatedly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv_check::{explore, Config, Strategy};
use nosv_shmem::{JoinState, ProcessId};
use nosv_sync::hint::{self, AtomicBool, AtomicU64};

use super::testutil::*;
use crate::ipc::wait_on_slot;
use crate::stats::Counters;

const CPUS: usize = 2;
const TASKS: u64 = 3;

struct World {
    seg: ShmSegment,
    sched: Scheduler,
    port: GuestPort,
    me: ProcessId,
    stop: AtomicBool,
    /// Executions per task id.
    ran: [AtomicU64; TASKS as usize],
}

fn world() -> Arc<World> {
    let (seg, sched) = setup(CPUS, 0, 1_000_000);
    // The geometry block a named-segment host publishes for its guests.
    let meta: Shoff<GuestMeta> = seg
        .alloc_zeroed(std::mem::size_of::<GuestMeta>(), 0)
        .expect("segment fits")
        .cast();
    // SAFETY: freshly allocated, zero-valid, never freed.
    let meta = unsafe { seg.sref(meta) };
    sched.publish(meta);
    let port = GuestPort::open(&seg, meta).expect("published geometry is in range");
    // The join handshake, both halves.
    let me = seg.attach_guest().expect("registry has room");
    sched.register_proc(me.slot, me.pid);
    assert!(seg.set_join_state(me, JoinState::Requested, JoinState::Active));
    Arc::new(World {
        seg,
        sched,
        port,
        me,
        stop: AtomicBool::new(false),
        ran: Default::default(),
    })
}

fn worker(w: &World, cpu: usize) {
    let counters = Counters::default();
    let complete = |task: ReadyTask| {
        w.ran[id_of(&w.seg, task) as usize].fetch_add(1, Ordering::SeqCst);
        w.seg.add_completed(w.me, 1);
    };
    let stop = || w.stop.load(Ordering::SeqCst);
    while !stop() {
        w.sched.begin_fetch();
        let fetched = w.sched.get_task(cpu, 0, &counters, &obs());
        w.sched.end_fetch();
        match fetched {
            Some(task) => {
                w.sched.chain_wake();
                complete(task);
            }
            None => match w.sched.park_idle(cpu, stop) {
                Some(task) => complete(task),
                // Going round again empty-handed (a spurious wake, or a
                // ready count running ahead of its ring push): say so, or
                // a priority scheduler that favours this thread never
                // lets the submitter finish the push.
                None => hint::thread::yield_now(),
            },
        }
    }
}

fn submitter(w: &World) {
    let slot = w.me.slot as usize;
    for id in 0..TASKS {
        let task = mk_task(&w.seg, id, w.me.slot, w.me.pid, 0, Affinity::None);
        assert!(
            w.port.claim(task) || w.port.publish(0, slot, 0, task),
            "a {TASKS}-task stream cannot fill a lane"
        );
        w.seg.add_submitted(w.me, 1);
    }
}

fn round_trip() {
    let w = world();
    let workers: Vec<_> = (0..CPUS)
        .map(|cpu| {
            let w = Arc::clone(&w);
            hint::thread::spawn(move || worker(&w, cpu))
        })
        .collect();
    let producer = {
        let w = Arc::clone(&w);
        hint::thread::spawn(move || submitter(&w))
    };
    // The waiter: this process is its own (live) host for the pid probe.
    let deadline = Instant::now() + Duration::from_secs(120);
    let host = u64::from(std::process::id());
    wait_on_slot(&w.seg, w.me, host, deadline, || {
        let view = w.seg.slot_view(w.me.slot).expect("slot stays claimed");
        (view.completed >= TASKS).then_some(())
    })
    .expect("a live host and a far deadline");
    producer.join().expect("submitter panicked");
    w.stop.store(true, Ordering::SeqCst);
    w.sched.gates().notify_all();
    for worker in workers {
        worker.join().expect("worker panicked");
    }
    for (id, ran) in w.ran.iter().enumerate() {
        assert_eq!(ran.load(Ordering::SeqCst), 1, "task {id} executions");
    }
    assert!(!w.sched.has_ready(), "ready count leaked");
}

/// Explores `round_trip` under `strategy` and returns (schedules run,
/// distinct among them) — or, without the model feature, runs it on plain
/// threads, where the OS picks the interleavings.
fn run(strategy: Strategy) -> Option<(usize, usize)> {
    if !hint::MODEL {
        for _ in 0..200 {
            round_trip();
        }
        return None;
    }
    let report = explore(Config::from_env(strategy), round_trip).assert_ok();
    eprintln!(
        "compose {strategy:?}: {} schedules ({} distinct)",
        report.schedules, report.distinct_schedules
    );
    Some((report.schedules, report.distinct_schedules))
}

#[test]
fn compose_round_trip_random() {
    if let Some((schedules, distinct)) = run(Strategy::Random { schedules: 400 }) {
        // The scenario must be big enough that sampling is not re-running
        // the same few interleavings.
        assert!(
            distinct * 10 >= schedules * 9,
            "only {distinct} of {schedules} schedules distinct"
        );
    }
}

/// Priority schedules reach the deep orderings uniform sampling rarely
/// does: one role running far ahead of the others.
#[test]
fn compose_round_trip_pct() {
    if hint::MODEL {
        run(Strategy::Pct {
            schedules: 400,
            depth: 3,
        });
    }
}
