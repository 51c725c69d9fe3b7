//! `paced_direct`: an open loop at a fixed 20 000 tasks/s with 20 µs spin
//! bodies (about 40 % of one core). The runtime is idle between arrivals,
//! so every task takes the path the saturated workloads never do: arm →
//! claim-slot direct dispatch → standby/gate wake.
//!
//! Each task is timed from when it was *due*, not from when the generator
//! got round to submitting it, so a stall counts against every task it
//! delayed. How late the generator itself ran is reported alongside.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use nosv::prelude::*;
use nosv_sync::SplitMix64;

use crate::common::{
    check_counts, peak_rss, rate_metrics, runtime_cpus, window_note, windows_of, BodyAcc, Outcome,
    PhaseClock, Plan, RunOpts, Window, WorkloadEnv, BODY_ACC,
};
use crate::probe::{NoProbe, Probe};
use crate::stats::{percentile_sorted, Summary};
use crate::sys::{self, Usage};
use crate::workloads::{setup_live, stats_delta};

/// Offered rate, tasks/s.
pub const RATE: u64 = 20_000;
const PERIOD_NS: u64 = 1_000_000_000 / RATE;
const BODY_SPIN: Duration = Duration::from_micros(20);
/// A window is disturbed when the generator ran this late in it.
const DISTURBED_NS: u32 = 1_000_000;
/// More tasks in flight than this (a second's worth) means the runtime
/// cannot keep up with the offered rate: the run fails instead of
/// queueing without bound.
const BACKLOG_LIMIT: usize = RATE as usize;

/// What the bodies write and the generator reads afterwards. Leaked once
/// per section so bodies hold a plain reference, not a counted one whose
/// cache line generator and worker would fight over.
struct Shared {
    origin: Instant,
    /// Start latency of task k (due → body start), ns + 1; 0 = never ran.
    start_latency: Box<[AtomicU32]>,
}

/// What one open-loop section did.
pub struct PacedResult {
    pub windows: Vec<Window>,
    /// Per window: start latencies (ns, sorted) of the tasks due in it.
    pub latencies: Vec<Vec<u32>>,
    /// Per window: how late each submission started (ns, sorted).
    pub lateness: Vec<Vec<u32>>,
    /// Per window: CPU time of the generator thread, ns.
    pub generator_cpu_ns: Vec<u64>,
    pub submitted: u64,
    pub errors: u64,
    pub expected_sum: u64,
    pub overloaded: bool,
}

impl PacedResult {
    pub fn gen_late_p99_us(&self) -> f64 {
        let mut all: Vec<u32> = self.lateness.iter().flatten().copied().collect();
        all.sort_unstable();
        percentile_sorted(&all, 99.0) as f64 / 1e3
    }

    pub fn disturbed_windows(&self) -> usize {
        self.lateness
            .iter()
            .filter(|w| w.last().is_some_and(|&max| max > DISTURBED_NS))
            .count()
    }

    /// p-th percentile of start latency per window, µs.
    pub fn latency_us(&self, p: f64) -> Vec<f64> {
        self.latencies
            .iter()
            .map(|w| percentile_sorted(w, p) as f64 / 1e3)
            .collect()
    }
}

pub fn open_loop<P: Probe>(
    app: &ProcessContext,
    seed: u64,
    plan: &Plan,
    probe: &mut P,
) -> PacedResult {
    let total_s = (plan.warmup + plan.window * plan.windows as u32).as_secs_f64();
    // Room for every task the section can offer, with slack for the
    // final iteration.
    let capacity = (total_s * RATE as f64) as usize + RATE as usize;
    let shared: &'static Shared = Box::leak(Box::new(Shared {
        origin: Instant::now(),
        start_latency: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
    }));
    let now_ns = || shared.origin.elapsed().as_nanos() as u64;

    let mut rng = SplitMix64::new(seed);
    let mut clock = PhaseClock::start(plan);
    let mut inflight: VecDeque<(u64, TaskHandle)> = VecDeque::new();
    let (mut submitted, mut done, mut errors, mut expected_sum) = (0u64, 0u64, 0u64, 0u64);
    let mut overloaded = false;
    // Per mark: tasks submitted so far and the generator thread's usage.
    let mut mark_index: Vec<(u64, Usage)> = Vec::new();
    let mut late_ns: Vec<u32> = Vec::with_capacity(capacity);
    let mut k = 0u64;
    while (k as usize) < capacity {
        let due = k * PERIOD_NS;
        // Reap completed tasks while waiting for the next due time; an
        // open loop never blocks on the runtime.
        loop {
            while let Some((s, task)) = inflight.pop_front() {
                if task.state() == TaskState::Completed {
                    probe.time("runtime.destroy", s, || task.destroy());
                    probe.retire(s);
                    done += 1;
                } else {
                    inflight.push_front((s, task));
                    break;
                }
            }
            if now_ns() >= due {
                break;
            }
            std::hint::spin_loop();
        }
        let marks_before = clock.marks.len();
        let go_on = clock.tick(done, probe);
        if clock.marks.len() != marks_before {
            mark_index.push((k, sys::thread_usage()));
        }
        if !go_on {
            break;
        }
        if inflight.len() > BACKLOG_LIMIT {
            overloaded = true;
            break;
        }
        late_ns.push((now_ns() - due).min(u32::MAX as u64) as u32);
        let input = rng.next_u64() & BodyAcc::INPUT_MASK;
        let built = probe.time("runtime.create_task", k, || {
            app.build_task(
                TaskBuilder::new()
                    .metadata(k | input << 40)
                    .run(move |ctx| {
                        let started = shared.origin.elapsed();
                        let k = ctx.metadata() & 0xffff_ffff;
                        let latency = (started.as_nanos() as u64).saturating_sub(k * PERIOD_NS);
                        shared.start_latency[k as usize].store(
                            latency.min(u32::MAX as u64 - 1) as u32 + 1,
                            Ordering::Relaxed,
                        );
                        BODY_ACC.add(ctx.metadata() >> 40);
                        while shared.origin.elapsed() < started + BODY_SPIN {
                            std::hint::spin_loop();
                        }
                    }),
            )
        });
        match built {
            Ok(task) => match probe.time("runtime.submit", k, || task.submit()) {
                Ok(()) => {
                    submitted += 1;
                    expected_sum += input;
                    inflight.push_back((k, task));
                }
                Err(_) => {
                    errors += 1;
                    task.destroy();
                }
            },
            Err(_) => errors += 1,
        }
        k += 1;
    }
    // Tasks still in flight after the last window are drained unmeasured.
    for (s, task) in inflight {
        if probe.time("runtime.wait", s, || task.wait()).is_err() {
            errors += 1;
        }
        task.destroy();
        probe.retire(s);
    }

    let windows = windows_of(&clock.marks);
    let per_window = |values: &dyn Fn(usize) -> u32| -> Vec<Vec<u32>> {
        mark_index
            .windows(2)
            .map(|m| {
                let mut v: Vec<u32> = (m[0].0 as usize..m[1].0 as usize).map(values).collect();
                v.sort_unstable();
                v
            })
            .collect()
    };
    PacedResult {
        latencies: per_window(&|i| {
            // A task that never ran reads as the longest latency.
            shared.start_latency[i]
                .load(Ordering::Relaxed)
                .wrapping_sub(1)
        }),
        lateness: per_window(&|i| late_ns[i]),
        generator_cpu_ns: mark_index
            .windows(2)
            .map(|m| m[1].1.since(&m[0].1).cpu_ns)
            .collect(),
        windows,
        submitted,
        errors,
        expected_sum,
        overloaded,
    }
}

/// One section on `rt`: the open loop plus its output checks.
pub struct Section {
    pub result: PacedResult,
    pub stats: RuntimeStats,
    pub failed: u64,
    pub notes: Vec<String>,
}

pub fn checked_section<P: Probe>(
    rt: &Runtime,
    app: &ProcessContext,
    seed: u64,
    plan: &Plan,
    probe: &mut P,
) -> Section {
    let (bodies0, sum0) = BODY_ACC.read();
    let stats0 = rt.stats();
    let result = open_loop(app, seed, plan, probe);
    let (bodies1, sum1) = BODY_ACC.read();
    let stats = stats_delta(&rt.stats(), &stats0);
    let (miss, note) = check_counts(
        result.submitted,
        bodies1 - bodies0,
        stats.tasks_executed,
        sum1.wrapping_sub(sum0),
        result.expected_sum,
    );
    let mut failed = result.errors + miss;
    let mut notes = vec![note];

    // Achieved rate must equal the offered rate: an open loop that
    // completes fewer tasks than it was due to submit is queueing.
    let measured_s: f64 = result.windows.iter().map(|w| w.wall_s).sum();
    let completed: u64 = result.windows.iter().map(|w| w.tasks).sum();
    let offered = measured_s * RATE as f64;
    // Tolerated: 1 %, plus the ten milliseconds' worth of tasks that may
    // be in flight or delayed by one stall when the last window closes.
    let tolerated = 0.01 * offered + 0.01 * RATE as f64;
    let achieved_ok = !result.overloaded && completed as f64 >= offered - tolerated;
    if !achieved_ok {
        failed += (offered as u64).saturating_sub(completed).max(1);
    }
    notes.push(format!(
        "generator: offered {RATE} tasks/s, achieved {:.1} tasks/s ({}), gen_late_p99_us {:.1}, \
         disturbed_windows {} of {} (no window dropped or re-run)",
        completed as f64 / measured_s.max(1e-9),
        if achieved_ok { "ok" } else { "BEHIND" },
        result.gen_late_p99_us(),
        result.disturbed_windows(),
        result.windows.len(),
    ));
    // The whole distribution. The 30 µs between a body's end and the next
    // arrival are about as long as a worker's standby spin lasts, so a
    // task either finds the worker spinning and starts in a couple of
    // microseconds or has to wake it and starts in twenty; the median
    // sits between the two modes and moves with their shares.
    let mut all: Vec<u32> = result.latencies.iter().flatten().copied().collect();
    all.sort_unstable();
    if !all.is_empty() {
        let at = |p: f64| percentile_sorted(&all, p) as f64 / 1e3;
        notes.push(format!(
            "start latency over all windows, us: p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} \
             p90 {:.1} p99 {:.1}; direct dispatches {:.3} of submissions",
            at(10.0),
            at(25.0),
            at(50.0),
            at(75.0),
            at(90.0),
            at(99.0),
            stats.direct_dispatches as f64 / stats.tasks_submitted.max(1) as f64,
        ));
    }
    Section {
        result,
        stats,
        failed,
        notes,
    }
}

/// `windows` with the generator thread's busy-wait taken out of the CPU
/// time: what the runtime's own threads (workers and their standby spin,
/// bodies included) spent.
pub fn runtime_side(result: &PacedResult) -> Vec<Window> {
    result
        .windows
        .iter()
        .zip(&result.generator_cpu_ns)
        .map(|(w, &gen)| Window {
            cpu_ns: w.cpu_ns.saturating_sub(gen),
            ..*w
        })
        .collect()
}

/// The untraced run.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let cpus = runtime_cpus(1)?;
    let plan = Plan::new(opts);
    let (setup_s, rt, app) = setup_live(&plan, cpus, None)?;
    let section = checked_section(&rt, &app, opts.seed, &plan, &mut NoProbe);
    drop(app);
    rt.shutdown();

    let result = &section.result;
    let windows = runtime_side(result);
    let mut metrics = vec![("setup_s", setup_s)];
    metrics.extend(rate_metrics(&windows));
    metrics.push(peak_rss(0.0));
    let p50 = Summary::of(&result.latency_us(50.0));
    Ok(Outcome {
        workload: "paced_direct",
        attempted: result.submitted.max(1),
        failed: section.failed,
        metrics,
        section_s: windows.iter().map(|w| w.wall_s).sum(),
        notes: [
            section.notes,
            vec![
                // The traced run lists it as a per-layer metric.
                format!(
                    "not bounded: start_latency_p50_us {:.2} (q1 {:.2}, q3 {:.2}) over windows",
                    p50.median, p50.q1, p50.q3
                ),
                window_note(&windows),
            ],
        ]
        .concat(),
        env: WorkloadEnv {
            cpus,
            generators: 1,
            windows: plan.windows,
            window_s: plan.window.as_secs_f64(),
        },
    })
}
