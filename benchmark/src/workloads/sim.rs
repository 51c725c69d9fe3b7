//! `sim_pairwise`: the Fig. 6 experiment — all 28 pairwise combinations of
//! the seven benchmark models under all six strategies on the 64-core
//! AMD-Rome node model, single-threaded.
//!
//! It drives `nosv_core::SchedCore` through `HeapStore` and the `simnode`
//! engine and none of the live runtime, so a `nosv-core` change that helps
//! the live path and slows the simulator (or the reverse) shows here, and
//! nothing outside `nosv-core`/`simnode` should move it. Its simulated
//! results are deterministic per seed: every repetition of a run must
//! reproduce the first one's makespans exactly.

use std::time::Instant;

use simnode::{AppModel, NodeSpec, SimOptions};
use strategies::{pairwise_combos, run_strategy, ComboOutcome, Strategy, StrategyConfig};
use workloads::{all_benchmarks, benchmark};

use crate::common::{
    peak_rss, sleep_out, window_note, Outcome, Plan, RunOpts, Window, WorkloadEnv, MIN_REPS,
};
use crate::probe::{in_repetition, timed, RepTrace};
use crate::span::{SpanId, Tracer};
use crate::stats::{self, Summary};
use crate::sys;

/// Iteration-count scale of the benchmark models: one sweep of the 168
/// simulations takes about a second on the reference host.
const SCALE: f64 = 0.05;
const QUICK_SCALE: f64 = 0.01;

/// Everything a sweep needs; building it is this workload's set-up.
pub struct Setup {
    node: NodeSpec,
    models: Vec<AppModel>,
    combos: Vec<Vec<usize>>,
    cfg: StrategyConfig,
}

impl Setup {
    pub fn new(opts: &RunOpts) -> Setup {
        let scale = if opts.quick { QUICK_SCALE } else { SCALE };
        let models: Vec<AppModel> = all_benchmarks()
            .into_iter()
            .map(|b| benchmark(b, scale))
            .collect();
        Setup {
            node: NodeSpec::amd_rome(),
            combos: pairwise_combos(models.len()),
            models,
            cfg: StrategyConfig {
                sim: SimOptions {
                    seed: opts.seed,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }

    /// Simulations per sweep.
    pub fn simulations(&self) -> u64 {
        (self.combos.len() * Strategy::all().len()) as u64
    }
}

/// One sweep over every combination and strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Makespan per combination per strategy, simulated ns.
    pub makespans: Vec<[u64; 6]>,
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub ctx_switches: u64,
    /// Simulated tasks retired by all simulations.
    pub sim_tasks: u64,
    /// Engine events of the simulations that report statistics (every
    /// strategy but exclusive execution), and their wall time.
    pub events: u64,
    pub events_wall_s: f64,
    /// Simulated tasks of those same simulations.
    pub events_tasks: u64,
    pub cross_app_switches: u64,
    pub quantum_switches: u64,
}

impl Sweep {
    /// Median over the combinations of nOS-V's speedup over exclusive
    /// execution (the paper's §5.2 headline); exact per seed.
    pub fn coexec_speedup(&self) -> f64 {
        let speedups: Vec<f64> = self
            .makespans
            .iter()
            .map(|m| {
                ComboOutcome {
                    combo: Vec::new(),
                    makespans: *m,
                }
                .speedup_vs_exclusive(Strategy::Nosv)
            })
            .collect();
        stats::median(&speedups)
    }
}

pub fn sweep(setup: &Setup, mut trace: Option<RepTrace>) -> Sweep {
    let usage0 = sys::process_usage();
    let t0 = Instant::now();
    let mut out = Sweep {
        makespans: Vec::with_capacity(setup.combos.len()),
        wall_s: 0.0,
        cpu_ns: 0,
        ctx_switches: 0,
        sim_tasks: 0,
        events: 0,
        events_wall_s: 0.0,
        events_tasks: 0,
        cross_app_switches: 0,
        quantum_switches: 0,
    };
    for combo in &setup.combos {
        let apps: Vec<AppModel> = combo.iter().map(|&i| setup.models[i].clone()).collect();
        let tasks: u64 = apps.iter().map(|a| a.task_count() as u64).sum();
        let mut makespans = [0u64; 6];
        for (i, strategy) in Strategy::all().into_iter().enumerate() {
            let t = Instant::now();
            let (makespan, result) = timed(&mut trace, span_name(strategy), || {
                run_strategy(&setup.node, &apps, strategy, &setup.cfg)
            });
            makespans[i] = makespan;
            out.sim_tasks += tasks;
            if let Some(result) = result {
                out.events += result.stats.events;
                out.events_wall_s += t.elapsed().as_secs_f64();
                out.events_tasks += tasks;
                out.cross_app_switches += result.stats.cross_app_switches;
                out.quantum_switches += result.stats.quantum_switches;
            }
        }
        out.makespans.push(makespans);
    }
    let used = sys::process_usage().since(&usage0);
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_ns = used.cpu_ns;
    out.ctx_switches = used.ctx_switches;
    out
}

fn span_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Exclusive => "strategies.exclusive",
        Strategy::OversubscriptionBusy => "strategies.oversubscription_busy",
        Strategy::OversubscriptionIdle => "strategies.oversubscription_idle",
        Strategy::Colocation => "strategies.colocation",
        Strategy::Dlb => "strategies.dlb",
        Strategy::Nosv => "strategies.nosv",
    }
}

/// A run's sweeps, with the determinism check.
pub struct Section {
    pub sweeps: Vec<Sweep>,
    pub started: Instant,
    pub attempted: u64,
    pub failed: u64,
    pub note: String,
}

pub fn checked_section(
    setup: &Setup,
    seconds: f64,
    min_sweeps: usize,
    mut tracer: Option<(&mut Tracer, SpanId)>,
) -> Section {
    let t0 = Instant::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    loop {
        let next = in_repetition(&mut tracer, sweeps.len() as u64, |trace| {
            sweep(setup, trace)
        });
        sweeps.push(next);
        // `min_sweeps` at least (two or more: the determinism check
        // compares them), then as many as fit.
        let last = sweeps.last().expect("just pushed").wall_s;
        if sweeps.len() >= min_sweeps && t0.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let first = &sweeps[0];
    let differing = sweeps
        .iter()
        .filter(|s| s.makespans != first.makespans || s.coexec_speedup() != first.coexec_speedup())
        .count() as u64;
    let attempted = setup.simulations() * sweeps.len() as u64;
    Section {
        note: format!(
            "output check: {} sweeps of {} simulations with one seed; {differing} sweep(s) \
             differ from the first in makespans or coexec_speedup -> {}",
            sweeps.len(),
            setup.simulations(),
            if differing == 0 { "ok" } else { "MISMATCH" }
        ),
        failed: if differing == 0 { 0 } else { attempted },
        attempted,
        sweeps,
        started: t0,
    }
}

/// The untraced run.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let plan = Plan::new(opts);
    // Set-up is cheap here, so repeat it more often than the live
    // workloads do for the same steadiness.
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..plan.setups * 40 {
        let t0 = Instant::now();
        setup = Some(Setup::new(opts));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    if !opts.quick {
        // One discarded warm-up sweep.
        sweep(&setup, None);
    }
    let min_sweeps = if opts.quick { 2 } else { MIN_REPS };
    let section = checked_section(&setup, opts.section_seconds(), min_sweeps, None);
    sleep_out(section.started, opts.section_seconds());
    let section_s = section.started.elapsed().as_secs_f64();

    let sweeps = &section.sweeps;
    let per_sweep =
        |f: &dyn Fn(&Sweep) -> f64| Summary::of(&sweeps.iter().map(f).collect::<Vec<_>>());
    let windows: Vec<Window> = sweeps
        .iter()
        .map(|s| Window {
            tasks: s.sim_tasks,
            wall_s: s.wall_s,
            cpu_ns: s.cpu_ns,
            ctx_switches: s.ctx_switches,
        })
        .collect();
    let events_per_s = per_sweep(&|s| s.events as f64 / s.events_wall_s);
    Ok(Outcome {
        workload: "sim_pairwise",
        attempted: section.attempted,
        failed: section.failed,
        metrics: vec![
            ("setup_s", Summary::of(&setup_times)),
            ("coexec_speedup", per_sweep(&|s| s.coexec_speedup())),
            peak_rss(0.0),
        ],
        section_s,
        notes: vec![
            section.note,
            // The simulator's speed is one thread's and follows the
            // host's; the traced run lists it as a per-layer metric.
            format!(
                "not bounded: sim_events_per_s {:.0} (q1 {:.0}, q3 {:.0})",
                events_per_s.median, events_per_s.q1, events_per_s.q3
            ),
            window_note(&windows),
        ],
        env: WorkloadEnv {
            cpus: 0,
            generators: 1,
            windows: sweeps.len(),
            window_s: sweeps.iter().map(|s| s.wall_s).sum::<f64>() / sweeps.len() as f64,
        },
    })
}
