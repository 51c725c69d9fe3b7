//! Isolated timings of each layer's public calls: one call (or the
//! smallest round trip that leaves the structure as it found it) in a
//! loop on one thread, with nothing else running. They say what a layer
//! costs alone; the in-situ timings of the traced workloads say what it
//! costs in place.
//!
//! A layer is a module of the workspace; the metric names carry it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nanos::{Backend, NanosRuntime, Region};
use nosv::prelude::*;
use nosv::testing::LiveDriver;
use nosv_core::{HeapStore, QuantumPolicy as CorePolicy, SchedCore, ShardedCore};
use nosv_shmem::{ClaimTable, LaneRing, SegmentConfig, ShmSegment, SubmitRing};
use nosv_sync::{Acquired, CpuGates, DtLock};

use crate::common::usable_parallelism;
use crate::stats;
use crate::workloads::{build_runtime, guest};

/// The slab's size class a task descriptor falls in. The allocator rounds
/// every request up to its class and the class alone sets the cost, so
/// the timings ask for the class, not for `size_of::<nosv::TaskDesc>()`
/// (private to `nosv`; thirteen words today): only a descriptor that
/// outgrows 128 bytes makes this stale.
const TASK_DESC_BYTES: usize = nosv_shmem::SIZE_CLASSES[1];
const BATCH: usize = 256;

/// One isolated measurement, or why the host cannot make it.
pub type Layer = (&'static str, Result<f64, String>);

/// How long each timed loop runs.
#[derive(Clone, Copy)]
pub struct Budget {
    per_metric: Duration,
    /// Repetitions of the millisecond-scale operations (segment and
    /// runtime life cycle, park/wake round trips).
    slow_reps: usize,
}

impl Budget {
    pub fn new(quick: bool) -> Budget {
        if quick {
            Budget {
                per_metric: Duration::from_millis(4),
                slow_reps: 3,
            }
        } else {
            Budget {
                per_metric: Duration::from_millis(60),
                slow_reps: 9,
            }
        }
    }
}

/// Nanoseconds per call of `op`: the median over five equal chunks of a
/// loop sized to the budget, so a preemption spoils one chunk, not the
/// figure. `per_call` is how many operations one call of `op` performs.
fn ns_per_op(budget: &Budget, per_call: usize, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut probe = 0u64;
    while probe < 16 || t0.elapsed() < budget.per_metric / 10 {
        op();
        probe += 1;
    }
    let per_call_ns = t0.elapsed().as_nanos() as f64 / probe as f64;
    let chunk = ((budget.per_metric.as_nanos() as f64 / 5.0 / per_call_ns.max(1.0)) as u64).max(4);
    let chunks: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..chunk {
                op();
            }
            t.elapsed().as_nanos() as f64 / (chunk as f64 * per_call as f64)
        })
        .collect();
    stats::median(&chunks)
}

/// Median of `reps` timings of `op`, ms.
fn median_ms(reps: usize, mut op: impl FnMut() -> Duration) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| op().as_secs_f64() * 1e3).collect();
    stats::median(&times)
}

fn segment(cpus: usize) -> ShmSegment {
    ShmSegment::create(SegmentConfig {
        size: 32 * 1024 * 1024,
        max_cpus: cpus,
    })
}

/// A zeroed `T` in the segment, as the runtime lays its rings out.
///
/// # Safety
///
/// The all-zero bit pattern must be a valid `T`.
unsafe fn in_segment<T>(seg: &ShmSegment) -> &T {
    let off = seg
        .alloc_zeroed(std::mem::size_of::<T>(), 0)
        .expect("fresh segment has room");
    // SAFETY: freshly allocated for a `T`, zeroed (valid by the caller's
    // promise) and in bounds; the reference lives no longer than `seg`.
    unsafe { seg.sref(off.cast()) }
}

/// Every isolated measurement.
pub fn measure(quick: bool) -> Vec<Layer> {
    let budget = Budget::new(quick);
    let mut out = Vec::new();
    slab_and_segment(&budget, &mut out);
    rings(&budget, &mut out);
    claim_and_gates(&budget, &mut out);
    dtlock(&budget, &mut out);
    sched_core(&budget, &mut out);
    live_scheduler(&budget, &mut out);
    runtime_calls(&budget, &mut out);
    out
}

fn slab_and_segment(budget: &Budget, out: &mut Vec<Layer>) {
    let seg = segment(2);
    out.push((
        "slab.alloc_free_ns",
        Ok(ns_per_op(budget, 1, || {
            let off = seg.alloc_zeroed(TASK_DESC_BYTES, 0).expect("room");
            seg.free_t(off, 0);
        })),
    ));
    // Allocated through CPU 0's magazine, freed through CPU 1's: what a
    // worker freeing a producer's descriptor does.
    out.push((
        "slab.cross_cpu_free_ns",
        Ok(ns_per_op(budget, 1, || {
            let off = seg.alloc_zeroed(TASK_DESC_BYTES, 0).expect("room");
            seg.free_t(off, 1);
        })),
    ));
    out.push((
        "segment.create_ms",
        Ok(median_ms(budget.slow_reps, || {
            let t = Instant::now();
            let seg = segment(2);
            let d = t.elapsed();
            drop(seg);
            d
        })),
    ));
    if let Err(reason) = guest::require_os_backing() {
        out.push(("segment.create_named_ms", Err(reason.clone())));
        out.push(("segment.attach_named_ms", Err(reason)));
        return;
    }
    let config = SegmentConfig {
        size: 32 * 1024 * 1024,
        max_cpus: 2,
    };
    let mut create = Vec::new();
    let mut attach = Vec::new();
    let mut failure = None;
    for _ in 0..budget.slow_reps {
        let name = guest::segment_name();
        let t = Instant::now();
        let made = ShmSegment::create_named(&name, config, 0);
        create.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let attached = ShmSegment::attach_named(&name);
        attach.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(e) = made.err().or(attached.err()) {
            failure = Some(format!("named segment: {e}"));
            break;
        }
    }
    let result = |times: &[f64]| match &failure {
        Some(reason) => Err(reason.clone()),
        None => Ok(stats::median(times)),
    };
    out.push(("segment.create_named_ms", result(&create)));
    out.push(("segment.attach_named_ms", result(&attach)));
}

fn rings(budget: &Budget, out: &mut Vec<Layer>) {
    let seg = segment(2);
    // SAFETY: `SubmitRing` is `repr(C)`, all-atomic and documented as
    // valid when zeroed (zeroed = uninitialised).
    let ring: &SubmitRing = unsafe { in_segment(&seg) };
    ring.init(&seg, 1024).expect("room");
    // Push and pop are timed apart: fill half the ring, then empty it.
    const HALF: usize = 512;
    let (mut push_ns, mut pop_ns) = (Vec::new(), Vec::new());
    let rounds = (budget.per_metric.as_micros() as usize / 20).max(8);
    for _ in 0..rounds {
        let t = Instant::now();
        for v in 0..HALF as u64 {
            std::hint::black_box(ring.push(&seg, 8 + v));
        }
        push_ns.push(t.elapsed().as_nanos() as f64 / HALF as f64);
        let t = Instant::now();
        for _ in 0..HALF {
            std::hint::black_box(ring.pop(&seg));
        }
        pop_ns.push(t.elapsed().as_nanos() as f64 / HALF as f64);
    }
    out.push(("ring.push_ns", Ok(stats::median(&push_ns))));
    out.push(("ring.pop_ns", Ok(stats::median(&pop_ns))));

    let values: Vec<u64> = (0..BATCH as u64).map(|v| 8 + v).collect();
    let mut push_n_ns = Vec::new();
    for _ in 0..rounds {
        let t = Instant::now();
        let pushed = ring.push_n(&seg, &values);
        push_n_ns.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        assert_eq!(pushed, BATCH, "an empty 1024-slot ring takes 256 entries");
        while ring.pop(&seg).is_some() {}
    }
    out.push(("ring.push_n_ns_per_entry", Ok(stats::median(&push_n_ns))));

    // SAFETY: `LaneRing` is `repr(C)`, all-atomic and documented as valid
    // when zeroed (zero lanes).
    let lanes: &LaneRing = unsafe { in_segment(&seg) };
    lanes
        .init(&seg, nosv::DEFAULT_SUBMIT_LANES, 1024)
        .expect("room");
    let mut lane_push_ns = Vec::new();
    for _ in 0..rounds {
        let t = Instant::now();
        for v in 0..HALF as u64 {
            std::hint::black_box(lanes.push(&seg, 0, 8 + v));
        }
        lane_push_ns.push(t.elapsed().as_nanos() as f64 / HALF as f64);
        while lanes.lane(0).pop(&seg).is_some() {}
    }
    out.push(("ring.lane_push_ns", Ok(stats::median(&lane_push_ns))));
    out.push((
        "ring.take_dirty_ns",
        Ok(ns_per_op(budget, 1, || {
            std::hint::black_box(lanes.take_dirty());
        })),
    ));
}

fn claim_and_gates(budget: &Budget, out: &mut Vec<Layer>) {
    // SAFETY: `ClaimTable` is `repr(C)`, all-atomic and valid when zeroed
    // (it lives in a freshly truncated segment in the runtime).
    let table: Box<ClaimTable> = unsafe { Box::new(std::mem::zeroed()) };
    out.push((
        "claim.arm_claim_disarm_ns",
        Ok(ns_per_op(budget, 1, || {
            table.arm(0);
            std::hint::black_box(table.try_claim(0, 64));
            std::hint::black_box(table.disarm(0));
        })),
    ));

    let gates = CpuGates::new(2);
    out.push((
        "cpu_gates.notify_nosleeper_ns",
        Ok(ns_per_op(budget, 1, || gates.notify(0))),
    ));

    // notify → parked thread running. The waiter parks (its standby spin
    // is long over after a millisecond); the notifier stamps the time just
    // before `notify`, the waiter just after `wait` returns.
    let gates = CpuGates::new(1);
    let origin = Instant::now();
    let parked = AtomicBool::new(false);
    let woke_at = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let gone = AtomicBool::new(false);
    let mut wake_us = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let key = gates.prepare_wait(0);
                parked.store(true, Ordering::Release);
                gates.wait(0, key);
                woke_at.store(origin.elapsed().as_nanos() as u64, Ordering::Release);
            }
            gone.store(true, Ordering::Release);
        });
        for _ in 0..budget.slow_reps * 8 {
            while !parked.swap(false, Ordering::AcqRel) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(1));
            woke_at.store(0, Ordering::Release);
            let sent = origin.elapsed().as_nanos() as u64;
            gates.notify(0);
            let woke = loop {
                match woke_at.load(Ordering::Acquire) {
                    0 => std::hint::spin_loop(),
                    t => break t,
                }
            };
            wake_us.push(woke.saturating_sub(sent) as f64 / 1e3);
        }
        // The waiter may be parked again or about to be: notify until it
        // has seen `stop`.
        stop.store(true, Ordering::Release);
        while !gone.load(Ordering::Acquire) {
            gates.notify(0);
            std::thread::yield_now();
        }
    });
    out.push(("cpu_gates.park_wake_p50_us", Ok(stats::median(&wake_us))));
}

fn dtlock(budget: &Budget, out: &mut Vec<Layer>) {
    let lock: DtLock<u64, u64> = DtLock::new(0, 8);
    out.push((
        "dtlock.acquire_release_ns",
        Ok(ns_per_op(budget, 1, || match lock.acquire(0) {
            Acquired::Holder(mut guard) => *guard += 1,
            Acquired::Served(_) => unreachable!("nobody else holds the lock"),
        })),
    ));

    if usable_parallelism() < 2 {
        out.push((
            "dtlock.delegated_serve_ns",
            Err(
                "needs a holder and a waiter running at once; the host has one hardware thread"
                    .to_string(),
            ),
        ));
        return;
    }
    // The holder takes the lock, lets one waiter queue up behind it, and
    // times serving it.
    let lock: DtLock<u64, u64> = DtLock::new(0, 8);
    let rounds = (budget.per_metric.as_micros() as usize / 4).max(16);
    let go = AtomicU64::new(0);
    let mut serve_ns = Vec::with_capacity(rounds);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 1..=rounds as u64 {
                while go.load(Ordering::Acquire) < round {
                    std::hint::spin_loop();
                }
                // Served by the holder, or (if it gave up on us) holder
                // ourselves; either way the round is over.
                drop(lock.acquire(round));
            }
        });
        for round in 1..=rounds as u64 {
            let Acquired::Holder(mut guard) = lock.acquire(0) else {
                unreachable!("the waiter only acquires while we hold the lock");
            };
            go.store(round, Ordering::Release);
            while guard.next_waiter_meta().is_none() {
                std::hint::spin_loop();
            }
            let t = Instant::now();
            let served = guard.serve_next(round);
            serve_ns.push(t.elapsed().as_nanos() as f64);
            assert!(served.is_ok(), "a published waiter is served");
        }
    });
    out.push(("dtlock.delegated_serve_ns", Ok(stats::median(&serve_ns))));
}

fn sched_core(budget: &Budget, out: &mut Vec<Layer>) {
    let policy = CorePolicy::new(nosv::DEFAULT_QUANTUM_NS);
    for (name, procs) in [
        ("sched.route_pick_ns", 1u32),
        ("sched.route_pick_4proc_ns", 4),
    ] {
        let mut core = SchedCore::new(2, 2, 8);
        let mut store: HeapStore<u64> = HeapStore::new(2, 1, 8);
        for slot in 0..procs {
            core.register_proc(slot as usize, 100 + slot as u64);
        }
        let mut next = 0u32;
        let mut now = 0u64;
        out.push((
            name,
            Ok(ns_per_op(budget, 1, || {
                let slot = next % procs;
                next = next.wrapping_add(1);
                now += 1_000;
                let task = store.insert(slot, 100 + slot as u64, 0, Affinity::None, 0);
                core.route(&mut store, task);
                let pick = core
                    .pick(&mut store, &policy, 0, now)
                    .expect("one is ready");
                store.remove(pick.task);
            })),
        ));
    }

    let mut core = SchedCore::new(2, 2, 8);
    let mut store: HeapStore<u64> = HeapStore::new(2, 1, 8);
    core.register_proc(0, 100);
    let mut batch_ns = Vec::new();
    let rounds = (budget.per_metric.as_micros() as usize / 20).max(8);
    for _ in 0..rounds {
        let tasks: Vec<_> = (0..BATCH)
            .map(|_| store.insert(0, 100, 0, Affinity::None, 0))
            .collect();
        let t = Instant::now();
        core.enqueue_batch(&mut store, &tasks);
        batch_ns.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        while let Some(pick) = core.pick(&mut store, &policy, 0, 0) {
            store.remove(pick.task);
        }
    }
    out.push((
        "sched.enqueue_batch_ns_per_task",
        Ok(stats::median(&batch_ns)),
    ));

    // Two shards of two CPUs; everything is routed to shard 0 and picked
    // by a CPU of shard 1, so every pick is a cross-shard steal.
    let mut sharded = ShardedCore::new(4, 2, 8, 2);
    let mut store: HeapStore<u64> = HeapStore::new(4, 2, 8);
    sharded.register_proc(0, 100);
    const ROUND: usize = 64;
    let mut steal_ns = Vec::new();
    for _ in 0..rounds {
        for _ in 0..ROUND {
            let task = store.insert(0, 100, 0, Affinity::None, 0);
            sharded.route(&mut store, task, 0);
        }
        let t = Instant::now();
        let mut picked = Vec::with_capacity(ROUND);
        while let Some(pick) = sharded.pick(&mut store, &policy, 2, 0) {
            picked.push(pick.task);
        }
        steal_ns.push(t.elapsed().as_nanos() as f64 / ROUND as f64);
        assert_eq!(
            picked.len(),
            ROUND,
            "shard 1's CPU stole all of shard 0's tasks"
        );
        for task in picked {
            store.remove(task);
        }
    }
    out.push(("sharded.steal_ns", Ok(stats::median(&steal_ns))));
}

/// The live scheduler in place — descriptor in the segment, lane ring,
/// drain, pick — from one thread, through `LiveDriver`.
fn live_scheduler(budget: &Budget, out: &mut Vec<Layer>) {
    // The driver never frees descriptors and its segment holds 16 MiB of
    // them, so each chunk gets a fresh driver and stays well inside it.
    const PER_DRIVER: u64 = 40_000;
    let chunks = if budget.slow_reps < 5 { 1 } else { 5 };
    let driver = || {
        let d = LiveDriver::new(
            2,
            2,
            nosv::DEFAULT_QUANTUM_NS,
            nosv::DEFAULT_SUBMIT_RING_CAP,
            0,
        );
        d.register(0, 100);
        d
    };
    let single: Vec<f64> = (0..chunks)
        .map(|_| {
            let d = driver();
            let t = Instant::now();
            for id in 0..PER_DRIVER {
                d.submit(id, 0, 100, 0, Affinity::None, 0);
                std::hint::black_box(d.pop(0, id));
            }
            t.elapsed().as_nanos() as f64 / PER_DRIVER as f64
        })
        .collect();
    out.push(("scheduler.submit_pop_ns", Ok(stats::median(&single))));

    let batched: Vec<f64> = (0..chunks)
        .map(|_| {
            let d = driver();
            let ids: Vec<u64> = (0..BATCH as u64).collect();
            let rounds = PER_DRIVER / BATCH as u64;
            let t = Instant::now();
            for round in 0..rounds {
                d.submit_batch(&ids, 0, 100, 0, Affinity::None, 0);
                while d.pop(0, round).is_some() {}
            }
            t.elapsed().as_nanos() as f64 / (rounds * BATCH as u64) as f64
        })
        .collect();
    out.push((
        "scheduler.submit_batch_pop_ns_per_task",
        Ok(stats::median(&batched)),
    ));
}

fn runtime_calls(budget: &Budget, out: &mut Vec<Layer>) {
    let cpus = usable_parallelism().saturating_sub(1).max(1);
    let (mut build, mut attach, mut shutdown) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..budget.slow_reps {
        let t = Instant::now();
        let rt = build_runtime(cpus, None).expect("default runtime builds");
        build.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let app = rt.attach("layers").expect("attach");
        attach.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        drop(app);
        rt.shutdown();
        shutdown.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("runtime.build_ms", Ok(stats::median(&build))));
    out.push(("runtime.attach_ms", Ok(stats::median(&attach))));
    out.push(("runtime.shutdown_ms", Ok(stats::median(&shutdown))));

    let rt = build_runtime(cpus, None).expect("default runtime builds");
    let app = rt.attach("layers").expect("attach");
    out.push((
        "task.create_destroy_ns",
        Ok(ns_per_op(budget, 1, || {
            app.build_task(TaskBuilder::new().run(|_| {}))
                .expect("descriptor")
                .destroy();
        })),
    ));

    // nanos on the nOS-V backend: an empty task chained on one region.
    let nr = NanosRuntime::new(Backend::nosv(app));
    let region = Region::logical(1, 0);
    let rounds = (budget.per_metric.as_micros() as usize / 400).max(3);
    let spawn_ns: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                nr.task().inout(region).body(|| {}).spawn();
            }
            let ns = t.elapsed().as_nanos() as f64 / BATCH as f64;
            nr.taskwait();
            ns
        })
        .collect();
    out.push(("nanos.spawn_ns", Ok(stats::median(&spawn_ns))));
    nr.shutdown();
    rt.shutdown();
}
