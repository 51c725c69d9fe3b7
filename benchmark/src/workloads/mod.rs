//! The six workloads. Each has an untraced run (end-to-end metrics) and
//! a traced run (per-layer metrics and a span file, see `crate::trace`).

use std::sync::Arc;
use std::time::Instant;

use nosv::prelude::*;

use crate::common::{Outcome, Plan, RunOpts};
use crate::stats::Summary;

pub mod coexec;
pub mod fine;
pub mod guest;
pub mod paced;
pub mod sim;

/// Runs `workload` untraced.
pub fn run(workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match workload {
        "fine_single" => fine::run(fine::Mode::Single, opts),
        "fine_batched" => fine::run(fine::Mode::Batched, opts),
        "paced_direct" => paced::run(opts),
        "guest_ipc" => guest::run(opts),
        "coexec_kernels" => coexec::run(opts),
        "sim_pairwise" => sim::run(opts),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// A default-built runtime: the sizing rule's CPU count and nothing else
/// tuned (no lanes, shards, direct-dispatch or tick settings), optionally
/// with a trace sink.
pub fn build_runtime(cpus: usize, sink: Option<Arc<dyn TraceSink>>) -> Result<Runtime, String> {
    let mut builder = Runtime::builder().cpus(cpus);
    if let Some(sink) = sink {
        builder = builder.sink(sink);
    }
    builder.build().map_err(|e| format!("runtime build: {e}"))
}

/// Set-up of an in-process workload — build the runtime and attach one
/// application — repeated `plan.setups` times. Returns the timings and
/// the last runtime, which the workload then uses.
pub fn setup_live(
    plan: &Plan,
    cpus: usize,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<(Summary, Runtime, ProcessContext), String> {
    let mut times = Vec::with_capacity(plan.setups);
    let mut last = None;
    for _ in 0..plan.setups {
        if let Some((rt, app)) = last.take() {
            shutdown(rt, app);
        }
        let t0 = Instant::now();
        let rt = build_runtime(cpus, sink.clone())?;
        let app = rt.attach("bench").map_err(|e| format!("attach: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some((rt, app));
    }
    let (rt, app) = last.expect("at least one set-up");
    Ok((Summary::of(&times), rt, app))
}

pub fn shutdown(rt: Runtime, app: ProcessContext) {
    drop(app);
    rt.shutdown();
}

/// `later - earlier` of the counters the benchmark reads.
pub fn stats_delta(later: &RuntimeStats, earlier: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        tasks_executed: later.tasks_executed - earlier.tasks_executed,
        tasks_submitted: later.tasks_submitted - earlier.tasks_submitted,
        delegations_served: later.delegations_served - earlier.delegations_served,
        cross_process_handoffs: later.cross_process_handoffs - earlier.cross_process_handoffs,
        quantum_switches: later.quantum_switches - earlier.quantum_switches,
        ring_submits: later.ring_submits - earlier.ring_submits,
        locked_submits: later.locked_submits - earlier.locked_submits,
        direct_dispatches: later.direct_dispatches - earlier.direct_dispatches,
        shard_steals: later.shard_steals - earlier.shard_steals,
        standby_elections: later.standby_elections - earlier.standby_elections,
        ..*later
    }
}
