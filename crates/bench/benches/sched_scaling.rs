//! Scheduling throughput vs core count: does adding CPUs add capacity?
//!
//! The centralized delegation-lock scheduler *inverted* with scale: the
//! throughput record taken before the fixes below showed 1 CPU × 1
//! producer at 1.21M tasks/s collapsing to 445k at 8 CPUs — every pick
//! funnelled through one lock hold, every submission woke another
//! contender. This bench
//! pins the fixes (idle-CPU direct dispatch + hungry-gated wakes +
//! per-NUMA sharded scheduling cores, then per-producer ring lanes +
//! batch submission + the sticky standby election) to numbers:
//!
//! * tasks/s over 1/2/4/8 CPUs, single-producer (one submitter thread —
//!   the serial-submission case direct dispatch targets) and
//!   many-producer (4 and 8 submitter threads hammering one process);
//! * shards *off* (`sched_shards(1)`, the original single-lock core) vs
//!   shards *on* (2 CPUs per NUMA node, one shard per node);
//! * per-task submission (`create_task` + `submit`, sliding window) vs
//!   batched submission (`TaskBatch`/`submit_all`, 256 tasks per call —
//!   one ring reservation, one ready add, one wake per batch).
//!
//! Acceptance bars, evaluated on the default configuration and recorded
//! in `BENCH_scaling.json` (override path with `BENCH_SCALING_OUT`):
//!
//! * 8-CPU single-producer throughput ≥ **2x** the 445k tasks/s the
//!   pre-fix record measured for that corner;
//! * 8-CPU many-producer **batched** throughput ≥ **3M tasks/s** — the
//!   headline of the lane/batch PR (the per-task path ceilinged ≈ 1.2M);
//! * single-producer throughput monotone-or-flat (within 10%) along the
//!   whole 1 → 2 → 4 → 8 CPU chain (the 2–4 CPU dip was standby-election
//!   thrash; the sticky election removes it);
//! * sharded ≥ **0.95x** unsharded at 8 CPUs × 4 producers (sticky
//!   per-producer shard routing removed the rr-cursor scattering that
//!   made sharding a regression for many producers);
//! * standby re-elections bounded: ≤ 5% of tasks executed on the 8-CPU
//!   single-producer run.
//!
//! Run with: `cargo bench -p bench --bench sched_scaling`

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv::prelude::*;

/// The 8-CPU single-producer tasks/s this bench's 2x bar is anchored
/// to: 444 688 tasks/s, the 8-CPU × 1-producer figure of the throughput
/// record taken before direct dispatch and sharding landed (the same
/// sliding-window harness as `Mode::Single`).
const PRE_FIX_8CPU_RECORD: f64 = 444_688.0;

/// The lane/batch PR's headline bar: 8-CPU many-producer batched
/// submission throughput (tasks/s).
const BATCHED_BAR: f64 = 3_000_000.0;

/// Tasks per `TaskBatch` in batched mode (the largest size the
/// submit-stress grid exercises; amortizes ring sequencing, claim scans,
/// ready adds and wakes over 256 tasks).
const BATCH: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `create_task` + `submit` per task, sliding 64-handle window.
    Single,
    /// `submit_all` of 256-task batches, sliding 4-batch window.
    Batched,
}

#[derive(Clone, Copy)]
struct Config {
    cpus: usize,
    /// Submitter threads (all on one process).
    producers: usize,
    /// `false` = `sched_shards(1)` (single-lock core);
    /// `true` = 2 CPUs per NUMA node, one shard per node.
    sharded: bool,
    mode: Mode,
}

/// Process-wide (voluntary, involuntary) context-switch totals summed
/// over all live threads — a debug aid for the verbose mode (Linux only;
/// zeros elsewhere). Exited threads' switches are not counted.
fn ctxt_switches() -> (u64, u64) {
    let (mut vol, mut invol) = (0u64, 0u64);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    for t in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(t.path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if let Some(v) = line.strip_prefix("voluntary_ctxt_switches:") {
                vol += v.trim().parse::<u64>().unwrap_or(0);
            } else if let Some(v) = line.strip_prefix("nonvoluntary_ctxt_switches:") {
                invol += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    (vol, invol)
}

/// Tasks/sec of the full lifecycle (create+submit+execute+destroy in
/// `Single` mode; batch build+submit_all+execute+latch in `Batched`),
/// plus the run's final counters.
fn throughput(cfg: &Config, budget: Duration) -> (f64, RuntimeStats) {
    let mut builder = Runtime::builder().cpus(cfg.cpus);
    builder = if cfg.sharded {
        builder.numa(2.min(cfg.cpus)) // one shard per 2-CPU node
    } else {
        builder.sched_shards(1)
    };
    let rt = Arc::new(builder.build().expect("valid config"));
    let app = Arc::new(rt.attach("scaling").expect("attach"));
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));

    let t0 = Instant::now();
    let submitters: Vec<_> = (0..cfg.producers)
        .map(|_| {
            let app = Arc::clone(&app);
            let stop = Arc::clone(&stop);
            let completed = Arc::clone(&completed);
            let mode = cfg.mode;
            std::thread::spawn(move || match mode {
                Mode::Single => {
                    // Sliding submission window (the harness the
                    // pre-fix record was taken with, so they compare).
                    const WINDOW: usize = 64;
                    let mut handles = VecDeque::with_capacity(WINDOW);
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
                }
                Mode::Batched => {
                    // Sliding batch window: 4 × 256 in flight keeps the
                    // workers fed without unbounded descriptor growth.
                    const WINDOW: usize = 4;
                    let mut handles: VecDeque<BatchHandle> = VecDeque::with_capacity(WINDOW);
                    while !stop.load(Ordering::Relaxed) {
                        let h = app
                            .submit_all(TaskBatch::new(BATCH).run(|_| {}))
                            .expect("submit_all");
                        handles.push_back(h);
                        if handles.len() >= WINDOW {
                            handles.pop_front().unwrap().wait().unwrap();
                            completed.fetch_add(BATCH as u64, Ordering::Relaxed);
                        }
                    }
                    for h in handles {
                        h.wait().unwrap();
                        completed.fetch_add(BATCH as u64, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    let switches0 = ctxt_switches();
    while t0.elapsed() < budget {
        std::thread::sleep(Duration::from_millis(5));
    }
    let switches1 = ctxt_switches();
    stop.store(true, Ordering::Relaxed);
    for s in submitters {
        s.join().expect("submitter panicked");
    }
    if std::env::var("BENCH_SCALING_VERBOSE").is_ok() {
        println!(
            "    ctxt switches over the budget window: voluntary {} involuntary {}",
            switches1.0.saturating_sub(switches0.0),
            switches1.1.saturating_sub(switches0.1),
        );
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let done = completed.load(Ordering::Relaxed);
    drop(app);
    let stats = rt.stats();
    rt.shutdown();
    (done as f64 / elapsed, stats)
}

fn main() {
    println!("== sched_scaling: tasks/sec vs CPUs, shards on/off, single vs batched ==");
    let budget = Duration::from_millis(
        std::env::var("BENCH_SCALING_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(800),
    );
    let reps: usize = std::env::var("BENCH_SCALING_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let median = |mut v: Vec<(f64, RuntimeStats)>| -> (f64, RuntimeStats) {
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        v.swap_remove(v.len() / 2)
    };

    // Debug aid: BENCH_SCALING_FILTER="single cpus=2 producers=1 shards=off"
    // runs only the rows whose printed label contains every
    // whitespace-separated token (the summary/bars are skipped).
    let filter = std::env::var("BENCH_SCALING_FILTER").ok();

    let mut rows: Vec<(Config, f64, RuntimeStats)> = Vec::new();
    for &mode in &[Mode::Single, Mode::Batched] {
        for &producers in &[1usize, 4, 8] {
            for &sharded in &[false, true] {
                for &cpus in &[1usize, 2, 4, 8] {
                    let cfg = Config {
                        cpus,
                        producers,
                        sharded,
                        mode,
                    };
                    if let Some(f) = &filter {
                        let label = format!(
                            "mode={} cpus={cpus} producers={producers} shards={}",
                            if mode == Mode::Batched {
                                "batched"
                            } else {
                                "single"
                            },
                            if sharded { "on" } else { "off" },
                        );
                        if !f.split_whitespace().all(|tok| label.contains(tok)) {
                            continue;
                        }
                    }
                    let samples: Vec<(f64, RuntimeStats)> =
                        (0..reps).map(|_| throughput(&cfg, budget)).collect();
                    let (rate, stats) = median(samples);
                    println!(
                        "  mode={} cpus={cpus} producers={producers} shards={}:  {rate:>9.0} tasks/s  (elections {}, handoffs {}, direct {})",
                        if mode == Mode::Batched { "batched" } else { "single " },
                        if sharded { "on " } else { "off" },
                        stats.standby_elections,
                        stats.cross_process_handoffs,
                        stats.direct_dispatches,
                    );
                    if std::env::var("BENCH_SCALING_VERBOSE").is_ok() {
                        println!("    {stats:?}");
                    }
                    rows.push((cfg, rate, stats));
                }
            }
        }
    }

    if filter.is_some() {
        println!("  (filtered run: summary, bars and record skipped)");
        return;
    }

    let row_of = |cpus: usize,
                  producers: usize,
                  sharded: bool,
                  mode: Mode|
     -> &(Config, f64, RuntimeStats) {
        rows.iter()
            .find(|(c, _, _)| {
                c.cpus == cpus && c.producers == producers && c.sharded == sharded && c.mode == mode
            })
            .expect("config measured")
    };
    let rate_of = |cpus: usize, producers: usize, sharded: bool, mode: Mode| {
        row_of(cpus, producers, sharded, mode).1
    };

    // The single-producer bars run on the shards-off column: that is the
    // pre-fix topology (one NUMA node, one lock), so the delta is the
    // direct-dispatch/wake/lane work, not a topology change.
    let single = [1usize, 2, 4, 8].map(|c| rate_of(c, 1, false, Mode::Single));
    let [single_1, single_2, single_4, single_8] = single;
    let speedup = single_8 / PRE_FIX_8CPU_RECORD;
    let meets_2x = speedup >= 2.0;
    // Monotone-or-flat (within 10%) along the whole chain: the 2–4 CPU
    // dip was standby-election thrash, fixed by the sticky election.
    let monotone_chain = single.windows(2).all(|w| w[1] >= 0.9 * w[0]);
    let monotone = single_8 >= 0.9 * single_4;
    println!("  8-CPU single-producer: {single_8:.0}/s = {speedup:.2}x the pre-fix 445k record (bar: >= 2x) -> {meets_2x}");
    println!(
        "  1 -> 2 -> 4 -> 8 CPUs single-producer: {single_1:.0} -> {single_2:.0} -> {single_4:.0} -> {single_8:.0} tasks/s, monotone-or-flat(10%) -> {monotone_chain}"
    );

    // The lane/batch headline: many-producer batched submission at 8
    // CPUs (best of the 4- and 8-producer columns — both are "many").
    let batched_many_8 =
        rate_of(8, 4, false, Mode::Batched).max(rate_of(8, 8, false, Mode::Batched));
    let meets_3m = batched_many_8 >= BATCHED_BAR;
    println!(
        "  8-CPU many-producer batched: {batched_many_8:.0}/s (bar: >= {BATCHED_BAR:.0}) -> {meets_3m}"
    );

    // Sticky shard routing: sharding must no longer cost many-producer
    // throughput.
    let unsharded_84 = rate_of(8, 4, false, Mode::Single);
    let sharded_84 = rate_of(8, 4, true, Mode::Single);
    let sharded_ratio = sharded_84 / unsharded_84;
    let sharded_ok = sharded_ratio >= 0.95;
    println!(
        "  8 CPUs x 4 producers: sharded {sharded_84:.0}/s vs unsharded {unsharded_84:.0}/s = {sharded_ratio:.3}x (bar: >= 0.95x) -> {sharded_ok}"
    );

    // Sticky standby election: re-elections must be rare on a serial
    // stream (re-electing per task was the 2–4 CPU dip).
    let stats_8 = &row_of(8, 1, false, Mode::Single).2;
    let elections_per_task = if stats_8.tasks_executed > 0 {
        stats_8.standby_elections as f64 / stats_8.tasks_executed as f64
    } else {
        0.0
    };
    let elections_ok = elections_per_task <= 0.05;
    println!(
        "  8-CPU single-producer standby elections: {} over {} tasks = {elections_per_task:.4}/task (bar: <= 0.05) -> {elections_ok}",
        stats_8.standby_elections, stats_8.tasks_executed
    );

    if !meets_2x || !monotone_chain || !meets_3m || !sharded_ok || !elections_ok {
        println!("  WARNING: scaling below the acceptance bars");
    }

    let out = std::env::var("BENCH_SCALING_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json").to_string()
    });
    let mut json = String::from(
        "{\n  \"bench\": \"sched_scaling\",\n  \"unit\": \"tasks_per_sec\",\n  \"configs\": [\n",
    );
    for (i, (cfg, rate, _)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"cpus\": {}, \"producers\": {}, \"sharded\": {}, \"tasks_per_s\": {:.0}}}{}\n",
            if cfg.mode == Mode::Batched { "batched" } else { "single" },
            cfg.cpus,
            cfg.producers,
            cfg.sharded,
            rate,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"single_producer_8cpu\": {single_8:.0},\n  \
         \"pre_fix_8cpu_record\": {PRE_FIX_8CPU_RECORD:.0},\n  \
         \"speedup_vs_record\": {speedup:.3},\n  \
         \"meets_2x_bar\": {meets_2x},\n  \
         \"single_producer_1cpu\": {single_1:.0},\n  \
         \"single_producer_2cpu\": {single_2:.0},\n  \
         \"single_producer_4cpu\": {single_4:.0},\n  \
         \"monotone_4_to_8\": {monotone},\n  \
         \"monotone_1_2_4_8\": {monotone_chain},\n  \
         \"many_producer_batched_8cpu\": {batched_many_8:.0},\n  \
         \"meets_3m_batched_bar\": {meets_3m},\n  \
         \"sharded_ratio_8cpu_4prod\": {sharded_ratio:.3},\n  \
         \"sharded_meets_095\": {sharded_ok},\n  \
         \"standby_elections_per_task_8cpu\": {elections_per_task:.4},\n  \
         \"standby_elections_bounded\": {elections_ok}\n}}\n"
    ));
    match std::fs::write(&out, &json) {
        Ok(()) => println!("  wrote {out}"),
        Err(e) => eprintln!("  failed to write {out}: {e}"),
    }
}
