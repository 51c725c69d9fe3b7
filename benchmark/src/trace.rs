//! The traced run: per-layer metrics and one span file per workload.
//!
//! A traced run of a workload does three things: the isolated timings of
//! every layer's public calls (`crate::layers`, the same for every
//! workload); the workload itself untraced and then traced — spans from
//! the generator (`crate::probe`) and a `MemorySink` on the runtime — in
//! short alternating sections; and the bookkeeping that turns counter
//! movements, span durations and sink events into the per-layer metrics.
//! The ratio of the traced to the untraced sections' throughput is
//! `obs.overhead_ratio`. End-to-end metrics never come from here.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use nosv::prelude::*;

use crate::common::{
    runtime_cpus, usable_parallelism, Outcome, Plan, RunOpts, Window, WorkloadEnv,
};
use crate::layers;
use crate::probe::{NoProbe, SpanProbe};
use crate::span::Tracer;
use crate::spec;
use crate::stats::{self, percentile_sorted, Summary};
use crate::workloads::{coexec, fine, guest, paced, setup_live, shutdown, sim};

/// Spans a span file keeps (about 100 bytes each on disk).
const SPAN_CAP: usize = 20_000;

/// Per-layer values gathered so far, and why others are missing.
#[derive(Default)]
struct Gathered {
    values: BTreeMap<&'static str, f64>,
    skips: BTreeMap<&'static str, String>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Gathered {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::per_layer(name).is_some(),
            "unknown layer metric {name}"
        );
        self.values.insert(name, value);
    }

    fn set_opt(&mut self, name: &'static str, value: Option<f64>, why_not: &str) {
        match value {
            Some(v) => self.set(name, v),
            None => {
                self.skips.insert(name, why_not.to_string());
            }
        }
    }

    fn section(&mut self, attempted: u64, failed: u64, note: String) {
        self.attempted += attempted;
        self.failed += failed;
        self.notes.push(note);
    }
}

/// Length of one section of a traced run: short, because a `MemorySink`
/// keeps three events per task.
fn section_plan(opts: &RunOpts, longest: f64) -> Plan {
    let window = if opts.quick {
        0.1
    } else {
        (opts.seconds / 8.0).min(longest)
    };
    Plan {
        warmup: Duration::from_millis(if opts.quick { 20 } else { 100 }),
        window: Duration::from_secs_f64(window),
        windows: 1,
        setups: 1,
    }
}

fn pairs(opts: &RunOpts) -> usize {
    if opts.quick {
        1
    } else {
        3
    }
}

fn tasks_per_s(windows: &[Window]) -> f64 {
    let tasks: u64 = windows.iter().map(|w| w.tasks).sum();
    let wall: f64 = windows.iter().map(|w| w.wall_s).sum();
    tasks as f64 / wall.max(1e-12)
}

/// Counter movements of an untraced section as per-task shares. The
/// counters cover the whole section; the context switches only its
/// measured windows, hence their own task count.
fn counter_shares(g: &mut Gathered, stats: &RuntimeStats, windows: &[Window]) {
    let submitted = stats.tasks_submitted.max(1) as f64;
    let executed = stats.tasks_executed.max(1) as f64;
    g.set(
        "scheduler.direct_dispatch_share",
        stats.direct_dispatches as f64 / submitted,
    );
    g.set(
        "scheduler.ring_submit_share",
        stats.ring_submits as f64 / submitted,
    );
    // A locked submit is the fallback a full lane forces: wasted work.
    g.set(
        "scheduler.locked_submit_share",
        stats.locked_submits as f64 / submitted,
    );
    g.set(
        "scheduler.delegations_per_task",
        stats.delegations_served as f64 / executed,
    );
    g.set(
        "scheduler.shard_steals_per_task",
        stats.shard_steals as f64 / executed,
    );
    g.set(
        "worker.handoffs_per_task",
        stats.cross_process_handoffs as f64 / executed,
    );
    g.set("worker.quantum_switches", stats.quantum_switches as f64);
    g.set(
        "cpu_gates.standby_elections_per_task",
        stats.standby_elections as f64 / executed,
    );
    let ctx: u64 = windows.iter().map(|w| w.ctx_switches).sum();
    let tasks: u64 = windows.iter().map(|w| w.tasks).sum();
    g.set(
        "worker.ctx_switches_per_task",
        ctx as f64 / tasks.max(1) as f64,
    );
}

/// Submit → Start → End per task id out of a sink's events.
fn obs_metrics(g: &mut Gathered, events: &[ObsEvent]) {
    let mut submit: HashMap<u64, u64> = HashMap::new();
    let mut start: HashMap<u64, u64> = HashMap::new();
    let (mut waits, mut runs) = (Vec::new(), Vec::new());
    for ev in events {
        match ev.kind {
            ObsKind::Submit => {
                submit.insert(ev.task.0, ev.t_ns);
            }
            ObsKind::Start { .. } => {
                if let Some(t) = submit.remove(&ev.task.0) {
                    waits.push(ev.t_ns.saturating_sub(t));
                }
                start.insert(ev.task.0, ev.t_ns);
            }
            ObsKind::End => {
                if let Some(t) = start.remove(&ev.task.0) {
                    runs.push(ev.t_ns.saturating_sub(t));
                }
            }
            _ => {}
        }
    }
    waits.sort_unstable();
    runs.sort_unstable();
    let pct = |v: &[u64], p| (!v.is_empty()).then(|| percentile_sorted(v, p) as f64 / 1e3);
    let why = "the sink saw no Submit/Start pair for a task";
    g.set_opt("obs.queue_wait_p50_us", pct(&waits, 50.0), why);
    g.set_opt("obs.queue_wait_p99_us", pct(&waits, 99.0), why);
    g.set_opt(
        "obs.run_p50_us",
        pct(&runs, 50.0),
        "the sink saw no Start/End pair for a task",
    );
    // Where the workload has no due time, a task's start latency is its
    // queue wait.
    g.set_opt("obs.start_latency_p99_us", pct(&waits, 99.0), why);
}

fn call_ns(g: &mut Gathered, tracer: &Tracer, span: &str, metric: &'static str, per_call: f64) {
    g.set_opt(
        metric,
        tracer.median_ns(span).map(|ns| ns / per_call),
        &format!("no `{span}` call was timed"),
    );
}

fn write_spans(
    g: &mut Gathered,
    tracer: &Tracer,
    out_dir: &Path,
    workload: &str,
    seed: u64,
) -> Result<(), String> {
    let path = out_dir.join(format!("trace-{workload}.json"));
    tracer
        .write_json(&path, workload, seed)
        .map_err(|e| format!("span file {}: {e}", path.display()))?;
    g.notes.push(format!(
        "span file: {} (clock overhead {:.0} ns taken off every call timing)",
        path.display(),
        tracer.clock_overhead_ns()
    ));
    Ok(())
}

fn trace_fine(
    mode: fine::Mode,
    opts: &RunOpts,
    out_dir: &Path,
    g: &mut Gathered,
    isolated: &BTreeMap<&'static str, f64>,
) -> Result<WorkloadEnv, String> {
    let cpus = runtime_cpus(1)?;
    let plan = section_plan(opts, 0.25);
    let sink = Arc::new(MemorySink::new());
    let (_, rt_u, app_u) = setup_live(&plan, cpus, None)?;
    let (_, rt_t, app_t) = setup_live(&plan, cpus, Some(sink.clone()))?;
    let mut tracer = Tracer::new(SPAN_CAP);
    let unit = match mode {
        fine::Mode::Single => "task",
        fine::Mode::Batched => "batch",
    };
    let mut probe = SpanProbe::new(&mut tracer, mode.workload(), unit);

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut cpu_per_task = Vec::new();
    let mut events = Vec::new();
    let mut counters = None;
    for pair in 0..pairs(opts) as u64 {
        let u = fine::checked_section(&rt_u, &app_u, mode, opts.seed + pair, &plan, &mut NoProbe);
        untraced.push(tasks_per_s(&u.result.windows));
        cpu_per_task.extend(
            u.result
                .windows
                .iter()
                .map(|w| w.cpu_ns as f64 / w.tasks.max(1) as f64),
        );
        counters.get_or_insert((u.stats, u.result.windows.clone()));
        g.section(u.result.submitted, u.failed, format!("untraced {}", u.note));

        let t = fine::checked_section(&rt_t, &app_t, mode, opts.seed + pair, &plan, &mut probe);
        traced.push(tasks_per_s(&t.result.windows));
        g.section(t.result.submitted, t.failed, format!("traced {}", t.note));
        // Keep the first traced section's events; drop the rest unread.
        let taken = sink.take();
        if events.is_empty() {
            events = taken;
        }
    }
    probe.finish();
    shutdown(rt_u, app_u);
    shutdown(rt_t, app_t);

    g.set(
        "obs.overhead_ratio",
        stats::median(&traced) / stats::median(&untraced),
    );
    let (stats_u, windows_u) = counters.expect("at least one pair");
    counter_shares(g, &stats_u, &windows_u);
    obs_metrics(g, &events);
    match mode {
        fine::Mode::Single => {
            call_ns(g, &tracer, "runtime.submit", "runtime.submit_call_ns", 1.0);
            call_ns(g, &tracer, "runtime.wait", "runtime.wait_call_ns", 1.0);
            call_ns(
                g,
                &tracer,
                "runtime.destroy",
                "runtime.destroy_call_ns",
                1.0,
            );
            // What cannot be called from outside — the execute prologue
            // and epilogue, the completion signal, the handle's share —
            // as the residual that makes the layers sum to the end-to-end
            // figure.
            let cpu = stats::median(&cpu_per_task);
            let create = isolated
                .get("task.create_destroy_ns")
                .copied()
                .unwrap_or(0.0);
            let sched = isolated
                .get("scheduler.submit_pop_ns")
                .copied()
                .unwrap_or(0.0);
            g.set("worker.unattributed_ns", cpu - (create + sched));
            g.notes.push(format!(
                "layer sum: task.create_destroy_ns {create:.1} + scheduler.submit_pop_ns \
                 {sched:.1} + worker.unattributed_ns {:.1} = cpu_ns_per_task {cpu:.1} \
                 (untraced sections of this run)",
                cpu - (create + sched)
            ));
        }
        fine::Mode::Batched => call_ns(
            g,
            &tracer,
            "runtime.submit_all",
            "runtime.submit_all_call_ns_per_task",
            fine::BATCH as f64,
        ),
    }
    write_spans(g, &tracer, out_dir, mode.workload(), opts.seed)?;
    Ok(WorkloadEnv {
        cpus,
        generators: 1,
        windows: pairs(opts) * 2,
        window_s: plan.window.as_secs_f64(),
    })
}

fn trace_paced(opts: &RunOpts, out_dir: &Path, g: &mut Gathered) -> Result<WorkloadEnv, String> {
    let cpus = runtime_cpus(1)?;
    // 20 000 tasks/s make few events, so the sections can be long.
    let plan = section_plan(opts, 2.0);
    let sink = Arc::new(MemorySink::new());
    let (_, rt_u, app_u) = setup_live(&plan, cpus, None)?;
    let (_, rt_t, app_t) = setup_live(&plan, cpus, Some(sink.clone()))?;
    let mut tracer = Tracer::new(SPAN_CAP);
    let mut probe = SpanProbe::new(&mut tracer, "paced_direct", "task");

    let u = paced::checked_section(&rt_u, &app_u, opts.seed, &plan, &mut NoProbe);
    let t = paced::checked_section(&rt_t, &app_t, opts.seed, &plan, &mut probe);
    probe.finish();
    shutdown(rt_u, app_u);
    shutdown(rt_t, app_t);
    for (label, s) in [("untraced", &u), ("traced", &t)] {
        g.section(
            s.result.submitted,
            s.failed,
            format!("{label} {}", s.notes.join("; ")),
        );
    }
    if u.result.windows.is_empty() || t.result.windows.is_empty() {
        return Err("paced_direct: a section closed no window".to_string());
    }

    g.set(
        "obs.overhead_ratio",
        tasks_per_s(&t.result.windows) / tasks_per_s(&u.result.windows),
    );
    counter_shares(g, &u.stats, &u.result.windows);
    obs_metrics(g, &sink.take());
    // Here tasks have a due time: start latency is due → body start, from
    // the untraced section.
    g.set(
        "obs.start_latency_p99_us",
        stats::median(&u.result.latency_us(99.0)),
    );
    g.set(
        "start_latency_p50_us",
        stats::median(&u.result.latency_us(50.0)),
    );
    g.set(
        "start_latency_p90_us",
        stats::median(&u.result.latency_us(90.0)),
    );
    g.set("gen_late_p99_us", u.result.gen_late_p99_us());
    g.set("disturbed_windows", u.result.disturbed_windows() as f64);
    g.set("offered_rate_per_s", paced::RATE as f64);
    call_ns(g, &tracer, "runtime.submit", "runtime.submit_call_ns", 1.0);
    call_ns(
        g,
        &tracer,
        "runtime.destroy",
        "runtime.destroy_call_ns",
        1.0,
    );
    write_spans(g, &tracer, out_dir, "paced_direct", opts.seed)?;
    Ok(WorkloadEnv {
        cpus,
        generators: 1,
        windows: 2,
        window_s: plan.window.as_secs_f64(),
    })
}

fn trace_guest(opts: &RunOpts, out_dir: &Path, g: &mut Gathered) -> Result<WorkloadEnv, String> {
    guest::require_os_backing()?;
    let cpus = runtime_cpus(1)?;
    let plan = section_plan(opts, 0.5);
    let round_trips = if opts.quick { 20 } else { 300 };
    let job = |segment: String, trace_path| guest::ChildJob {
        segment,
        seed: opts.seed,
        plan,
        round_trips,
        round_trip_budget: Duration::from_millis(600),
        trace_path,
    };
    let sink = Arc::new(MemorySink::new());
    let u = guest::checked_section(cpus, |segment| job(segment, None), None)?;
    let span_path = out_dir.join("trace-guest_ipc.json");
    let t = guest::checked_section(
        cpus,
        |segment| job(segment, Some(span_path.clone())),
        Some(sink.clone()),
    )?;
    for (label, s) in [("untraced", &u), ("traced", &t)] {
        g.section(
            s.report.submitted + s.report.rtt_ns.len() as u64,
            s.failed,
            format!("{label} {}", s.note),
        );
    }
    let (wu, wt) = (u.report.windows(), t.report.windows());
    if wu.is_empty() || wt.is_empty() {
        return Err("guest_ipc: a section closed no window".to_string());
    }
    g.set("obs.overhead_ratio", tasks_per_s(&wt) / tasks_per_s(&wu));
    counter_shares(g, &u.stats, &wu);
    obs_metrics(g, &sink.take());
    g.set("ipc.join_ms", u.report.join_ms);
    g.set("ipc.detach_ms", u.report.detach_ms);
    for (span, metric, scale) in [
        ("ipc.submit", "ipc.submit_call_ns", 1.0),
        ("ipc.wait_idle", "ipc.wait_idle_call_us", 1e-3),
    ] {
        let timed = t.report.layers.iter().find(|(name, _, _)| name == span);
        g.set_opt(
            metric,
            timed.map(|(_, ns, _)| ns * scale),
            "the traced child timed no such call",
        );
    }
    g.notes.push(format!(
        "span file: {} (written by the child process, whose calls they are)",
        span_path.display()
    ));
    Ok(WorkloadEnv {
        cpus,
        generators: 1,
        windows: 2,
        window_s: plan.window.as_secs_f64(),
    })
}

fn trace_coexec(opts: &RunOpts, out_dir: &Path, g: &mut Gathered) -> Result<WorkloadEnv, String> {
    let cpus = usable_parallelism();
    let plan = section_plan(opts, 1.0);
    let seconds = opts.section_seconds() / 3.0;
    let sink = Arc::new(MemorySink::new());
    let (_, rt_u, app_u) = setup_live(&plan, cpus, None)?;
    drop(app_u);
    let u = coexec::checked_section(&rt_u, opts, seconds, 1, None)?;
    rt_u.shutdown();
    let (_, rt_t, app_t) = setup_live(&plan, cpus, Some(sink.clone()))?;
    drop(app_t);
    let mut tracer = Tracer::new(SPAN_CAP);
    let root = tracer.open("coexec_kernels", 0, None);
    let t = coexec::checked_section(&rt_t, opts, seconds, 1, Some((&mut tracer, root)))?;
    tracer.close(root);
    rt_t.shutdown();
    for (label, s) in [("untraced", &u), ("traced", &t)] {
        g.section(s.attempted, s.failed, format!("{label} {}", s.note));
    }

    let coexec_windows = |s: &coexec::Section| s.reps.iter().map(|r| r.coexec).collect::<Vec<_>>();
    let (wu, wt) = (coexec_windows(&u), coexec_windows(&t));
    g.set("obs.overhead_ratio", tasks_per_s(&wt) / tasks_per_s(&wu));
    g.set(
        "makespan_s",
        stats::median(&wu.iter().map(|w| w.wall_s).collect::<Vec<_>>()),
    );
    // Counters cover the section's exclusive and co-executed runs alike.
    counter_shares(g, &u.stats, &wu);
    obs_metrics(g, &sink.take());
    write_spans(g, &tracer, out_dir, "coexec_kernels", opts.seed)?;
    Ok(WorkloadEnv {
        cpus,
        generators: 0,
        windows: u.reps.len() + t.reps.len(),
        window_s: u.wall_s / u.reps.len() as f64,
    })
}

fn trace_sim(opts: &RunOpts, out_dir: &Path, g: &mut Gathered) -> Result<WorkloadEnv, String> {
    let setup = sim::Setup::new(opts);
    let seconds = opts.section_seconds() / 3.0;
    let u = sim::checked_section(&setup, seconds, 2, None);
    let mut tracer = Tracer::new(SPAN_CAP);
    let root = tracer.open("sim_pairwise", 0, None);
    let t = sim::checked_section(&setup, seconds, 2, Some((&mut tracer, root)));
    tracer.close(root);
    for (label, s) in [("untraced", &u), ("traced", &t)] {
        g.section(s.attempted, s.failed, format!("{label} {}", s.note));
    }

    let sweeps_per_s =
        |s: &sim::Section| s.sweeps.len() as f64 / s.sweeps.iter().map(|w| w.wall_s).sum::<f64>();
    g.set("obs.overhead_ratio", sweeps_per_s(&t) / sweeps_per_s(&u));
    let per_event: Vec<f64> = u
        .sweeps
        .iter()
        .map(|s| s.events_wall_s * 1e9 / s.events.max(1) as f64)
        .collect();
    g.set("engine.ns_per_event", stats::median(&per_event));
    g.set("sim_events_per_s", 1e9 / stats::median(&per_event));
    // Counts of one sweep; exact per seed.
    let first = &u.sweeps[0];
    g.set(
        "engine.events_per_sim_task",
        first.events as f64 / first.events_tasks.max(1) as f64,
    );
    g.set("engine.cross_app_switches", first.cross_app_switches as f64);
    g.set("engine.quantum_switches", first.quantum_switches as f64);
    write_spans(g, &tracer, out_dir, "sim_pairwise", opts.seed)?;
    Ok(WorkloadEnv {
        cpus: 0,
        generators: 1,
        windows: u.sweeps.len() + t.sweeps.len(),
        window_s: first.wall_s,
    })
}

/// The traced run of `workload`: every per-layer metric by name. A metric
/// the host cannot exercise, or that this workload does not drive, reads
/// 0 and its reason is printed — never a vacuous pass.
pub fn run(workload: &str, opts: &RunOpts, out_dir: &Path) -> Result<Outcome, String> {
    let name = spec::WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let mut g = Gathered::default();
    let mut isolated = BTreeMap::new();
    for (metric, result) in layers::measure(opts.quick) {
        match result {
            Ok(v) => {
                g.set(metric, v);
                isolated.insert(metric, v);
            }
            Err(reason) => {
                g.skips.insert(metric, reason);
            }
        }
    }
    let env = match name {
        "fine_single" => trace_fine(fine::Mode::Single, opts, out_dir, &mut g, &isolated)?,
        "fine_batched" => trace_fine(fine::Mode::Batched, opts, out_dir, &mut g, &isolated)?,
        "paced_direct" => trace_paced(opts, out_dir, &mut g)?,
        "guest_ipc" => trace_guest(opts, out_dir, &mut g)?,
        "coexec_kernels" => trace_coexec(opts, out_dir, &mut g)?,
        _ => trace_sim(opts, out_dir, &mut g)?,
    };

    let mut metrics = Vec::with_capacity(spec::PER_LAYER.len());
    let mut undriven = Vec::new();
    for m in &spec::PER_LAYER {
        match g.values.get(m.name) {
            Some(&v) if v.is_finite() => metrics.push((m.name, Summary::single(v))),
            Some(_) => {
                metrics.push((m.name, Summary::single(0.0)));
                g.failed += 1;
                g.notes.push(format!("{}: not a finite number", m.name));
            }
            None => {
                metrics.push((m.name, Summary::single(0.0)));
                match g.skips.get(m.name) {
                    Some(reason) => g.notes.push(format!("skipped {}: {reason}", m.name)),
                    None => undriven.push(m.name),
                }
            }
        }
    }
    if !undriven.is_empty() {
        g.notes.push(format!(
            "not driven by {name} (read 0 here; see the workload that drives them): {}",
            undriven.join(", ")
        ));
    }
    Ok(Outcome {
        workload: name,
        attempted: g.attempted.max(1),
        failed: g.failed,
        metrics,
        section_s: env.windows as f64 * env.window_s,
        notes: g.notes,
        env,
    })
}
