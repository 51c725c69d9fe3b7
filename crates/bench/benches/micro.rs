//! Microbenchmarks and design-choice ablations (criterion-free harness).
//!
//! * `dtlock` — the Delegation Ticket Lock against `std::sync::Mutex`
//!   (§3.4's "state-of-the-art performance" claim for the scheduler lock).
//! * `shmem_alloc` — the in-segment SLAB allocator against the system
//!   allocator (§3.5's "competitive with other memory allocators").
//! * `quantum` — scheduler ablation: context-switch count as a function of
//!   the process quantum (the §3.4 fairness/locality trade-off).
//!
//! Run with: `cargo bench -p bench --bench micro`

use std::sync::Arc;
use std::time::Instant;

use nosv_shmem::{SegmentConfig, ShmSegment};
use nosv_sync::{Acquired, DtLock};

/// Times `op` over enough iterations for a stable per-op estimate and
/// prints nanoseconds per operation.
fn report(name: &str, mut op: impl FnMut()) {
    // Warm up, then scale the iteration count to ~50 ms of work.
    let t0 = Instant::now();
    let mut probe = 0u64;
    while t0.elapsed().as_millis() < 5 {
        op();
        probe += 1;
    }
    let per_op = t0.elapsed().as_nanos() as f64 / probe as f64;
    let iters = ((50_000_000.0 / per_op.max(1.0)) as u64).clamp(10, 10_000_000);
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    println!("  {name:<28} {ns:>12.1} ns/op   ({iters} iters)");
}

/// Times a closure that runs `iters` operations across its own threads.
fn report_threaded(name: &str, iters: u64, run: impl Fn(u64) -> std::time::Duration) {
    let elapsed = run(iters);
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("  {name:<28} {ns:>12.1} ns/op   ({iters} iters x threads)");
}

fn bench_locks() {
    println!("\n-- dtlock: scheduler-lock candidates --");

    // Uncontended acquire/release round-trips.
    let dt: DtLock<u64, u64> = DtLock::new(0, 8);
    report("dtlock_uncontended", || match dt.acquire(0) {
        Acquired::Holder(mut guard) => {
            *guard += 1;
        }
        Acquired::Served(_) => unreachable!(),
    });

    let mutex = std::sync::Mutex::new(0u64);
    report("std_mutex_uncontended", || {
        *mutex.lock().unwrap() += 1;
    });

    // Contended: 3 threads hammer a shared counter through the DtLock.
    report_threaded("dtlock_contended_3t", 200_000, |iters| {
        let lock: Arc<DtLock<u64, u64>> = Arc::new(DtLock::new(0, 8));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let lock = Arc::clone(&lock);
                s.spawn(move || {
                    for _ in 0..iters {
                        match lock.acquire(0) {
                            Acquired::Holder(mut g) => *g += 1,
                            Acquired::Served(_) => {}
                        }
                    }
                });
            }
        });
        start.elapsed()
    });
}

fn bench_shmem_alloc() {
    println!("\n-- shmem_alloc: SLAB vs system allocator --");
    let seg = ShmSegment::create(SegmentConfig {
        size: 32 * 1024 * 1024,
        max_cpus: 4,
    });
    for size in [64usize, 512, 4096] {
        report(&format!("slab_{size}"), || {
            let off = seg.alloc(size, 0).expect("space");
            seg.free(off, 0);
        });
        report(&format!("system_{size}"), || {
            let v = vec![0u8; size];
            std::hint::black_box(&v);
        });
    }
}

fn bench_quantum_ablation() {
    use simnode::{AffinityMode, NodeSpec, RuntimeMode, SimOptions};
    use workloads::{benchmark, Benchmark};

    let node = NodeSpec::amd_rome();
    let apps = vec![
        benchmark(Benchmark::Hpccg, 0.02),
        benchmark(Benchmark::Nbody, 0.02),
    ];
    println!("\n-- ablation: process quantum vs cross-app switches (co-execution) --");
    for quantum_ms in [1u64, 5, 20, 100] {
        let r = simnode::run_simulation(
            &node,
            &apps,
            &RuntimeMode::Nosv {
                quantum_ns: quantum_ms * 1_000_000,
                affinity: AffinityMode::Ignore,
            },
            &SimOptions::default(),
        );
        println!(
            "   quantum {quantum_ms:>4} ms: makespan {:.3} s, cross-app switches {}, quantum switches {}",
            r.makespan_ns as f64 / 1e9,
            r.stats.cross_app_switches,
            r.stats.quantum_switches
        );
    }
    // One configuration timed as a wall-clock measurement.
    let t0 = Instant::now();
    let r = simnode::run_simulation(
        &node,
        &apps,
        &RuntimeMode::Nosv {
            quantum_ns: 20_000_000,
            affinity: AffinityMode::Ignore,
        },
        &SimOptions::default(),
    );
    println!(
        "   nosv_sim_quantum20ms: simulated {:.3} s in {:.1} ms wall",
        r.makespan_ns as f64 / 1e9,
        t0.elapsed().as_secs_f64() * 1e3
    );
}

fn main() {
    println!("== microbenchmarks ==");
    bench_locks();
    bench_shmem_alloc();
    bench_quantum_ablation();
}
