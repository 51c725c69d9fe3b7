//! The cross-process wake path is a data path of its own, not a service
//! of the reactor: a guest wakes the worker its task needs, and the
//! worker's completion wakes the guest — both through futex gates in the
//! segment. The host here sweeps only every 250 ms, so anything that
//! still waited for a reactor tick (the join ack, a round trip, the
//! detach) would blow the bounds below by orders of magnitude.
//!
//! The guest is an in-process `Runtime::join`, as in `execute_sources.rs`:
//! a second mapping of the same segment, which is all the gates need to
//! be shared across (the child-process twin is
//! `crates/nosv/tests/cross_process.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv_repro::prelude::*;

const KERNEL: u64 = 5;
const ROUND_TRIPS: u64 = 200;
const TICK: Duration = Duration::from_millis(250);

#[test]
fn round_trips_join_and_detach_do_not_wait_for_the_reactor_tick() {
    if !nosv_repro::nosv_shmem::os_backing_available() {
        eprintln!("skipping: no OS shared-memory backing here");
        return;
    }
    let name = format!("nosv-guest-roundtrip-{}", std::process::id());
    let rt = Runtime::builder()
        .cpus(1)
        .segment_name(name.as_str())
        .reclaim_tick(TICK)
        .build()
        .expect("valid config");
    let sum = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&sum);
    rt.register_kernel(KERNEL, move |arg| {
        s.fetch_add(arg, Ordering::Relaxed);
    });
    let app = rt.attach("host").expect("attach");

    let t = Instant::now();
    let guest = Runtime::join(&name).expect("in-process join");
    let join = t.elapsed();

    // Nothing pending: the answer is in the slot, no sleep involved. A
    // sleeping wait would take a probe period (2 ms) at the least; the
    // best of a few calls keeps a preempted one from failing the test.
    let idle = (0..5)
        .map(|_| {
            let t = Instant::now();
            guest.wait_idle(Duration::from_secs(30)).expect("idle");
            t.elapsed()
        })
        .min()
        .expect("five samples");
    assert!(
        idle < Duration::from_millis(1),
        "wait_idle on an idle guest took {idle:?}"
    );

    let t = Instant::now();
    for i in 1..=ROUND_TRIPS {
        guest.submit(KERNEL, i).expect("submit");
        guest.wait_idle(Duration::from_secs(30)).expect("wait_idle");
        // wait_idle returning means the kernel ran, and its effects are
        // visible (the completion count is a Release/Acquire edge).
        assert_eq!(sum.load(Ordering::Relaxed), i * (i + 1) / 2);
    }
    let trips = t.elapsed();
    assert_eq!(guest.pending(), 0);

    let t = Instant::now();
    guest.detach().expect("detach");
    let detach = t.elapsed();

    let stats = rt.stats();
    drop(app);
    rt.shutdown();

    assert_eq!(stats.tasks_executed, ROUND_TRIPS);
    assert!(
        trips < Duration::from_secs(1),
        "{ROUND_TRIPS} serial round trips took {trips:?} against a {TICK:?} reactor tick"
    );
    // The handshakes ring the reactor's doorbell instead of waiting for
    // its next sweep (which is most of a tick away: the reactor swept
    // when it started, a moment before the join).
    assert!(join < TICK / 2, "join took {join:?}");
    assert!(detach < TICK / 2, "detach took {detach:?}");
}
