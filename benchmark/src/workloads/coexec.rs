//! `coexec_kernels`: two real `nanos` applications on the nOS-V backend —
//! a dense, parallel blocked Cholesky and a parallelism-starved heat
//! solver (two row blocks, so a serial chain) — run exclusively one after
//! the other, then co-executed in one runtime with every hardware thread.
//!
//! Tasks are coarse (fractions of a millisecond to milliseconds), so
//! scheduler micro-costs are invisible here by design: a ring, slab or
//! pick optimisation should change nothing, while handoff, quantum and
//! policy changes do show.
//!
//! The application threads sleep in `taskwait` during the timed section,
//! so no generator competes with the runtime and it gets all `W` CPUs.

use std::time::Instant;

use nanos::{Backend, NanosRuntime};
use nosv::prelude::*;
use workloads::kernels::{cholesky, heat, KernelRun};

use crate::common::{
    peak_rss, rate_metrics, sleep_out, usable_parallelism, window_note, Outcome, Plan, RunOpts,
    Window, WorkloadEnv, MIN_REPS,
};
use crate::probe::{in_repetition, timed, RepTrace};
use crate::span::{SpanId, Tracer};
use crate::stats::Summary;
use crate::sys;
use crate::workloads::{setup_live, stats_delta};

/// Problem sizes: Cholesky blocks × block size; heat rows, columns, row
/// blocks, sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub chol_nb: usize,
    pub chol_bs: usize,
    pub heat_rows: usize,
    pub heat_cols: usize,
    pub heat_blocks: usize,
    pub heat_iters: usize,
}

impl Sizes {
    /// One repetition (two exclusive runs and one co-executed) lasts
    /// about a second on the reference host, so a ten-second run holds
    /// enough of them for a steady median.
    pub const FULL: Sizes = Sizes {
        chol_nb: 13,
        chol_bs: 112,
        heat_rows: 1536,
        heat_cols: 1024,
        heat_blocks: 2,
        heat_iters: 55,
    };
    /// The schema pass.
    pub const SMALL: Sizes = Sizes {
        chol_nb: 4,
        chol_bs: 32,
        heat_rows: 128,
        heat_cols: 128,
        heat_blocks: 2,
        heat_iters: 10,
    };
}

/// Reference checksums, computed once outside any timed section.
pub struct Reference {
    pub sizes: Sizes,
    chol: f64,
    heat: f64,
}

impl Reference {
    pub fn new(sizes: Sizes) -> Reference {
        Reference {
            sizes,
            chol: cholesky::reference(sizes.chol_nb, sizes.chol_bs),
            heat: heat::reference(sizes.heat_rows, sizes.heat_cols, sizes.heat_iters),
        }
    }

    /// Whether `run`'s checksum is within 1e-6 (relative) of the
    /// reference of its kernel.
    fn agrees(&self, kernel: Kernel, run: &KernelRun) -> bool {
        let reference = match kernel {
            Kernel::Cholesky => self.chol,
            Kernel::Heat => self.heat,
        };
        let scale = reference.abs().max(run.checksum.abs()).max(1e-12);
        (reference - run.checksum).abs() / scale < 1e-6
    }
}

#[derive(Clone, Copy)]
enum Kernel {
    Cholesky,
    Heat,
}

impl Kernel {
    fn exclusive_span(self) -> &'static str {
        match self {
            Kernel::Cholesky => "nanos.cholesky_exclusive",
            Kernel::Heat => "nanos.heat_exclusive",
        }
    }
}

/// One application from attach to shutdown: the unit whose makespan
/// counts.
fn run_app(rt: &Runtime, kernel: Kernel, sizes: &Sizes) -> Result<(KernelRun, f64), String> {
    let t0 = Instant::now();
    let name = match kernel {
        Kernel::Cholesky => "cholesky",
        Kernel::Heat => "heat",
    };
    let app = rt.attach(name).map_err(|e| format!("attach {name}: {e}"))?;
    let nr = NanosRuntime::new(Backend::nosv(app));
    let out = match kernel {
        Kernel::Cholesky => cholesky::run(&nr, sizes.chol_nb, sizes.chol_bs),
        Kernel::Heat => heat::run(
            &nr,
            sizes.heat_rows,
            sizes.heat_cols,
            sizes.heat_blocks,
            sizes.heat_iters,
        ),
    };
    nr.shutdown();
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// One repetition's measurements.
#[derive(Debug, Clone, Copy)]
pub struct Repetition {
    /// Sum of the two exclusive makespans, s.
    pub exclusive_s: f64,
    /// The co-executed section: both applications' tasks, makespan, CPU.
    pub coexec: Window,
    /// Kernel runs (of four) whose checksum missed the reference.
    pub checksum_misses: u64,
    /// Tasks all four kernel runs spawned.
    pub tasks: u64,
}

/// Exclusive A, exclusive B, then A and B together. `heat_first` (from
/// the seed) sets the order of the exclusive runs and of the two
/// application threads' starts; the kernels' own inputs are fixed.
pub fn repetition(
    rt: &Runtime,
    reference: &Reference,
    heat_first: bool,
    mut trace: Option<RepTrace>,
) -> Result<Repetition, String> {
    let sizes = &reference.sizes;
    let order = if heat_first {
        [Kernel::Heat, Kernel::Cholesky]
    } else {
        [Kernel::Cholesky, Kernel::Heat]
    };
    let mut runs: Vec<(Kernel, KernelRun)> = Vec::with_capacity(4);
    let mut exclusive_s = 0.0;
    for kernel in order {
        let (run, secs) = timed(&mut trace, kernel.exclusive_span(), || {
            run_app(rt, kernel, sizes)
        })?;
        exclusive_s += secs;
        runs.push((kernel, run));
    }

    let usage0 = sys::process_usage();
    let t0 = Instant::now();
    let (first, second) = timed(&mut trace, "nanos.coexec", || {
        std::thread::scope(|s| {
            let a = s.spawn(|| run_app(rt, order[0], sizes));
            let b = s.spawn(|| run_app(rt, order[1], sizes));
            (a.join(), b.join())
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let used = sys::process_usage().since(&usage0);
    for (kernel, joined) in order.into_iter().zip([first, second]) {
        let (run, _) = joined.map_err(|_| "application thread panicked".to_string())??;
        runs.push((kernel, run));
    }
    let coexec_tasks = runs[2].1.tasks + runs[3].1.tasks;
    Ok(Repetition {
        exclusive_s,
        coexec: Window {
            tasks: coexec_tasks,
            wall_s,
            cpu_ns: used.cpu_ns,
            ctx_switches: used.ctx_switches,
        },
        checksum_misses: runs
            .iter()
            .filter(|(kernel, run)| !reference.agrees(*kernel, run))
            .count() as u64,
        tasks: runs.iter().map(|(_, run)| run.tasks).sum(),
    })
}

/// All of a run's repetitions on `rt`, with the output checks.
pub struct Section {
    pub reps: Vec<Repetition>,
    pub stats: RuntimeStats,
    pub started: Instant,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub note: String,
}

pub fn checked_section(
    rt: &Runtime,
    opts: &RunOpts,
    seconds: f64,
    min_reps: usize,
    mut tracer: Option<(&mut Tracer, SpanId)>,
) -> Result<Section, String> {
    // One discarded warm-up repetition at the measured size: spawns the
    // workers and touches the matrices' pages outside the measurement.
    let reference = Reference::new(if opts.quick {
        Sizes::SMALL
    } else {
        Sizes::FULL
    });
    repetition(rt, &reference, false, None)?;

    let stats0 = rt.stats();
    let t0 = Instant::now();
    let mut reps: Vec<Repetition> = Vec::new();
    loop {
        let heat_first = (opts.seed + reps.len() as u64) % 2 == 1;
        let rep_start = Instant::now();
        let rep = in_repetition(&mut tracer, reps.len() as u64, |trace| {
            repetition(rt, &reference, heat_first, trace)
        })?;
        reps.push(rep);
        // `min_reps` at least, then as many as fit.
        let last = rep_start.elapsed().as_secs_f64();
        if reps.len() >= min_reps && t0.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = stats_delta(&rt.stats(), &stats0);

    let tasks: u64 = reps.iter().map(|r| r.tasks).sum();
    let misses: u64 = reps.iter().map(|r| r.checksum_misses).sum();
    let attempted = reps.len() as u64 * 4;
    let counts_ok = stats.tasks_executed == tasks;
    let ok = misses == 0 && counts_ok;
    Ok(Section {
        note: format!(
            "output check: {attempted} kernel runs ({} repetitions, exclusive and co-executed), \
             {misses} checksum(s) off the reference by more than 1e-6; kernels spawned {tasks} \
             tasks, runtime executed {} -> {}",
            reps.len(),
            stats.tasks_executed,
            if ok { "ok" } else { "MISMATCH" }
        ),
        // A lost task or a wrong checksum fails every run of the section.
        failed: if ok { 0 } else { attempted },
        attempted,
        reps,
        stats,
        started: t0,
        wall_s,
    })
}

/// The untraced run.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let cpus = usable_parallelism();
    let plan = Plan::new(opts);
    let (setup_s, rt, app) = setup_live(&plan, cpus, None)?;
    // Each kernel run attaches its own application.
    drop(app);
    let min_reps = if opts.quick { 1 } else { MIN_REPS };
    let section = checked_section(&rt, opts, opts.section_seconds(), min_reps, None)?;
    sleep_out(section.started, opts.section_seconds());
    let section_s = section.started.elapsed().as_secs_f64();
    rt.shutdown();

    let reps = &section.reps;
    let per_rep =
        |f: &dyn Fn(&Repetition) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>());
    let coexec: Vec<Window> = reps.iter().map(|r| r.coexec).collect();
    let [_, cpu_ns_per_task] = rate_metrics(&coexec);
    let makespan_s = per_rep(&|r| r.coexec.wall_s);
    Ok(Outcome {
        workload: "coexec_kernels",
        attempted: section.attempted,
        failed: section.failed,
        metrics: vec![
            ("setup_s", setup_s),
            (
                "coexec_speedup",
                per_rep(&|r| r.exclusive_s / r.coexec.wall_s),
            ),
            peak_rss(0.0),
        ],
        section_s,
        notes: vec![
            section.note,
            // Absolute times of CPU-bound kernels follow the host's speed
            // and hold no bound; the ratio above does. The traced run
            // lists `makespan_s` as a per-layer metric.
            format!(
                "not bounded: co-executed makespan {:.4} s (q1 {:.4}, q3 {:.4}), CPU per task \
                 {:.0} ns (the kernels' arithmetic and the workers' idle spinning)",
                makespan_s.median, makespan_s.q1, makespan_s.q3, cpu_ns_per_task.1.median
            ),
            window_note(&coexec),
        ],
        env: WorkloadEnv {
            cpus,
            generators: 0,
            windows: reps.len(),
            window_s: section.wall_s / reps.len() as f64,
        },
    })
}
