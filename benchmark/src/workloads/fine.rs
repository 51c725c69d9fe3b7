//! `fine_single` and `fine_batched`: closed-loop fine-grain tasks with
//! empty bodies, one producer, saturated so the workers never park.
//!
//! Both drive the same ring and scheduler layers, differently:
//! `fine_single` pays per task (descriptor, callbacks box, signal, one
//! lane push, one completion signal), `fine_batched` pays per 256-task
//! batch (`push_n`, `enqueue_batch`, at most one wake, worker-side
//! frees). A change that helps one and costs the other shows here.

use std::collections::VecDeque;

use nosv::prelude::*;
use nosv_sync::SplitMix64;

use crate::common::{
    check_counts, peak_rss, rate_metrics, runtime_cpus, window_note, windows_of, BodyAcc, Outcome,
    PhaseClock, Plan, RunOpts, Window, WorkloadEnv, BODY_ACC,
};
use crate::probe::{NoProbe, Probe};
use crate::workloads::{setup_live, stats_delta};

/// Handles in flight in `fine_single`.
const SINGLE_WINDOW: usize = 64;
/// Tasks per batch and batches in flight in `fine_batched`.
pub const BATCH: usize = 256;
const BATCH_WINDOW: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Single,
    Batched,
}

impl Mode {
    pub fn workload(self) -> &'static str {
        match self {
            Mode::Single => "fine_single",
            Mode::Batched => "fine_batched",
        }
    }
}

/// What one closed-loop section did.
pub struct LoopResult {
    pub windows: Vec<Window>,
    /// Tasks handed to the runtime, warm-up and drain included.
    pub submitted: u64,
    /// Tasks whose `build`, `submit` or `wait` returned an error.
    pub errors: u64,
    pub expected_sum: u64,
}

#[derive(Default)]
struct Tally {
    submitted: u64,
    done: u64,
    errors: u64,
    expected_sum: u64,
}

fn retire_task<P: Probe>(probe: &mut P, tally: &mut Tally, seq: u64, task: TaskHandle) {
    match probe.time("runtime.wait", seq, || task.wait()) {
        Ok(()) => tally.done += 1,
        Err(_) => tally.errors += 1,
    }
    probe.time("runtime.destroy", seq, || task.destroy());
    probe.retire(seq);
}

fn retire_batch<P: Probe>(probe: &mut P, tally: &mut Tally, seq: u64, batch: BatchHandle) {
    match probe.time("runtime.batch_wait", seq, || batch.wait()) {
        Ok(()) => tally.done += BATCH as u64,
        Err(_) => tally.errors += BATCH as u64,
    }
    probe.retire(seq);
}

/// The closed loop: submit, and once the in-flight window is full retire
/// the oldest before submitting the next.
pub fn closed_loop<P: Probe>(
    app: &ProcessContext,
    mode: Mode,
    seed: u64,
    plan: &Plan,
    probe: &mut P,
) -> LoopResult {
    let mut rng = SplitMix64::new(seed);
    let mut clock = PhaseClock::start(plan);
    let mut tally = Tally::default();
    let mut seq = 0u64;
    match mode {
        Mode::Single => {
            let mut inflight: VecDeque<(u64, TaskHandle)> = VecDeque::with_capacity(SINGLE_WINDOW);
            loop {
                let input = rng.next_u64() & BodyAcc::INPUT_MASK;
                // The body captures nothing (its input travels in the
                // descriptor's metadata word), so it costs no allocation
                // beyond the runtime's own.
                let built = probe.time("runtime.create_task", seq, || {
                    app.build_task(
                        TaskBuilder::new()
                            .metadata(input)
                            .run(|ctx| BODY_ACC.add(ctx.metadata())),
                    )
                });
                match built {
                    Ok(task) => match probe.time("runtime.submit", seq, || task.submit()) {
                        Ok(()) => {
                            tally.submitted += 1;
                            tally.expected_sum += input;
                            inflight.push_back((seq, task));
                        }
                        Err(_) => {
                            tally.errors += 1;
                            task.destroy();
                        }
                    },
                    Err(_) => tally.errors += 1,
                }
                seq += 1;
                if inflight.len() >= SINGLE_WINDOW {
                    let (s, task) = inflight.pop_front().expect("window is full");
                    retire_task(probe, &mut tally, s, task);
                }
                // One clock read per 64 tasks: well under a nanosecond
                // per task.
                if seq.is_multiple_of(64) && !clock.tick(tally.done, probe) {
                    break;
                }
            }
            for (s, task) in inflight {
                retire_task(probe, &mut tally, s, task);
            }
        }
        Mode::Batched => {
            let mut inflight: VecDeque<(u64, BatchHandle)> = VecDeque::with_capacity(BATCH_WINDOW);
            loop {
                // Member i carries input (base + i) & 0xff.
                let base = rng.next_u64() & 0xffff;
                let batch = TaskBatch::new(BATCH)
                    .metadata(base)
                    .run(|ctx| BODY_ACC.add(ctx.metadata()));
                match probe.time("runtime.submit_all", seq, || app.submit_all(batch)) {
                    Ok(handle) => {
                        tally.submitted += BATCH as u64;
                        tally.expected_sum += (0..BATCH as u64)
                            .map(|i| (base + i) & BodyAcc::INPUT_MASK)
                            .sum::<u64>();
                        inflight.push_back((seq, handle));
                    }
                    Err(_) => tally.errors += BATCH as u64,
                }
                seq += 1;
                if inflight.len() >= BATCH_WINDOW {
                    let (s, handle) = inflight.pop_front().expect("window is full");
                    retire_batch(probe, &mut tally, s, handle);
                }
                if !clock.tick(tally.done, probe) {
                    break;
                }
            }
            for (s, handle) in inflight {
                retire_batch(probe, &mut tally, s, handle);
            }
        }
    }
    LoopResult {
        windows: windows_of(&clock.marks),
        submitted: tally.submitted,
        errors: tally.errors,
        expected_sum: tally.expected_sum,
    }
}

/// One section on `rt`: the closed loop plus its output check.
pub struct Section {
    pub result: LoopResult,
    /// Counter movement over the whole section, warm-up and drain too.
    pub stats: RuntimeStats,
    pub failed: u64,
    pub note: String,
}

pub fn checked_section<P: Probe>(
    rt: &Runtime,
    app: &ProcessContext,
    mode: Mode,
    seed: u64,
    plan: &Plan,
    probe: &mut P,
) -> Section {
    let (bodies0, sum0) = BODY_ACC.read();
    let stats0 = rt.stats();
    let result = closed_loop(app, mode, seed, plan, probe);
    let (bodies1, sum1) = BODY_ACC.read();
    let stats = stats_delta(&rt.stats(), &stats0);
    let (miss, note) = check_counts(
        result.submitted,
        bodies1 - bodies0,
        stats.tasks_executed,
        sum1.wrapping_sub(sum0),
        result.expected_sum,
    );
    Section {
        failed: result.errors + miss,
        note,
        stats,
        result,
    }
}

/// The untraced run.
pub fn run(mode: Mode, opts: &RunOpts) -> Result<Outcome, String> {
    let cpus = runtime_cpus(1)?;
    let plan = Plan::new(opts);
    let (setup_s, rt, app) = setup_live(&plan, cpus, None)?;
    let section = checked_section(&rt, &app, mode, opts.seed, &plan, &mut NoProbe);
    drop(app);
    rt.shutdown();

    let windows = section.result.windows;
    let mut metrics = vec![("setup_s", setup_s)];
    metrics.extend(rate_metrics(&windows));
    metrics.push(peak_rss(0.0));
    Ok(Outcome {
        workload: mode.workload(),
        attempted: section.result.submitted.max(1),
        failed: section.failed,
        metrics,
        section_s: windows.iter().map(|w| w.wall_s).sum(),
        notes: vec![section.note, window_note(&windows)],
        env: WorkloadEnv {
            cpus,
            generators: 1,
            windows: plan.windows,
            window_s: plan.window.as_secs_f64(),
        },
    })
}
