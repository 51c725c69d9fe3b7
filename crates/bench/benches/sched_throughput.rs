//! Scheduler submit+dispatch throughput over the lock-free submission
//! rings (§3.4).
//!
//! Each configuration `cpus × procs × producers` runs the full lifecycle
//! (`create` + `submit` + execute + `destroy`) from `producers` concurrent
//! submitter threads per process until a time budget elapses, and reports
//! completed tasks per second. The *many-producer* configuration (the one
//! CI's regression guard reads) is the 8-CPU × 4-process corner — the
//! paper's co-execution scenario.
//!
//! The pre-ring design, in which every `submit` took the `DtLock` itself,
//! can no longer be built; what it sustained in the many-producer
//! configuration when it last could (PR 9's host) is kept as the literal
//! [`LOCKED_BASELINE_FROZEN`], so the record still says what the rings
//! bought (7x there).
//!
//! Writes `BENCH_sched.json` (override with `BENCH_SCHED_OUT`) so the perf
//! trajectory is recorded run over run. See the README's "Benchmarks"
//! notes for the field reference.
//!
//! Run with: `cargo bench -p bench --bench sched_throughput`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv::prelude::*;

/// One measured configuration.
#[derive(Clone, Copy)]
struct Config {
    cpus: usize,
    procs: usize,
    /// Submitter threads per process.
    producers: usize,
    /// The configuration CI's regression guard reads.
    many_producer: bool,
}

/// Many-producer tasks/sec of the deleted every-submit-takes-the-`DtLock`
/// mode, as last measured (PR 9's host). A historical constant, not a
/// measurement of this run.
const LOCKED_BASELINE_FROZEN: u64 = 177_246;

/// Tasks/sec of the full submit+dispatch lifecycle under `cfg`.
fn throughput(cfg: &Config, budget: Duration) -> f64 {
    let rt = Arc::new(
        Runtime::builder()
            .cpus(cfg.cpus)
            .build()
            .expect("valid config"),
    );
    let apps: Vec<Arc<ProcessContext>> = (0..cfg.procs)
        .map(|i| Arc::new(rt.attach(&format!("bench{i}")).expect("attach")))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));

    let t0 = Instant::now();
    let submitters: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            (0..cfg.producers).map(|_| {
                let app = Arc::clone(app);
                let stop = Arc::clone(&stop);
                let completed = Arc::clone(&completed);
                std::thread::spawn(move || {
                    // Sliding submission window: reap the oldest handle
                    // once the window fills, so the submitter stays hot on
                    // the submission path while outstanding descriptors
                    // stay bounded.
                    const WINDOW: usize = 64;
                    let mut handles = std::collections::VecDeque::with_capacity(WINDOW);
                    while !stop.load(Ordering::Relaxed) {
                        let t = app.create_task(|_| {});
                        t.submit().expect("submit");
                        handles.push_back(t);
                        if handles.len() >= WINDOW {
                            let t = handles.pop_front().unwrap();
                            t.wait().unwrap();
                            t.destroy();
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    for t in handles {
                        t.wait().unwrap();
                        t.destroy();
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
        })
        .collect();
    while t0.elapsed() < budget {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    for s in submitters {
        s.join().expect("submitter panicked");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let done = completed.load(Ordering::Relaxed);
    drop(apps);
    rt.shutdown();
    done as f64 / elapsed
}

fn main() {
    println!("== sched_throughput: submit+dispatch tasks/sec ==");
    let budget = Duration::from_millis(
        std::env::var("BENCH_SCHED_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1000),
    );

    // The ISSUE grid: 1/2/4/8 CPUs × {1, 4} processes, one submitter
    // thread per process. The 4-process rows are multi-producer (four
    // threads hammering `submit` concurrently); the *many-producer
    // configuration* is the 8-CPU × 4-process corner — the paper's
    // co-execution scenario, and the point where every fetch convoys on
    // the one DtLock.
    let configs = [
        Config {
            cpus: 1,
            procs: 1,
            producers: 1,
            many_producer: false,
        },
        Config {
            cpus: 2,
            procs: 1,
            producers: 1,
            many_producer: false,
        },
        Config {
            cpus: 4,
            procs: 1,
            producers: 1,
            many_producer: false,
        },
        Config {
            cpus: 8,
            procs: 1,
            producers: 1,
            many_producer: false,
        },
        Config {
            cpus: 1,
            procs: 4,
            producers: 1,
            many_producer: false,
        },
        Config {
            cpus: 2,
            procs: 4,
            producers: 1,
            many_producer: false,
        },
        Config {
            cpus: 4,
            procs: 4,
            producers: 1,
            many_producer: false,
        },
        Config {
            cpus: 8,
            procs: 4,
            producers: 1,
            many_producer: true,
        },
    ];

    // A single sample per configuration is a lottery on a shared host;
    // the median of `reps` samples is what gets reported.
    let reps: usize = std::env::var("BENCH_SCHED_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };

    let mut rows = Vec::new();
    for cfg in &configs {
        let ring = median((0..reps).map(|_| throughput(cfg, budget)).collect());
        let tag = if cfg.many_producer {
            "  <- many-producer (CI guard)"
        } else {
            ""
        };
        println!(
            "  cpus={} procs={} producers={}:  ring {:>9.0}/s{}",
            cfg.cpus, cfg.procs, cfg.producers, ring, tag
        );
        rows.push((cfg, ring));
    }

    let out = std::env::var("BENCH_SCHED_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json").to_string()
    });
    let mut json = String::from(
        "{\n  \"bench\": \"sched_throughput\",\n  \"unit\": \"tasks_per_sec\",\n  \"configs\": [\n",
    );
    for (i, (cfg, ring)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"cpus\": {}, \"procs\": {}, \"producers\": {}, \"many_producer\": {}, \
             \"ring\": {:.0}}}{}\n",
            cfg.cpus,
            cfg.procs,
            cfg.producers,
            cfg.many_producer,
            ring,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"locked_baseline_frozen\": {LOCKED_BASELINE_FROZEN}\n}}\n"
    ));
    match std::fs::write(&out, &json) {
        Ok(()) => println!("  wrote {out}"),
        Err(e) => eprintln!("  failed to write {out}: {e}"),
    }
}
