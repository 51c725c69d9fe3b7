//! `guest_ipc`: the paper's real deployment. A host runtime over a named
//! OS-shared segment with one registered kernel, and a **child OS
//! process** — this binary re-executed — that joins the segment, submits
//! data-described tasks in a closed loop bounded by 192 pending, then
//! makes serial submit → `wait_idle` round trips.
//!
//! The only workload that exercises `ipc`, the registry handshake and the
//! reactor-driven wake. It refuses to run without an OS-shared backing.
//!
//! The child reports on its standard output, one line per fact; the host
//! reads them as they come, so that it can snapshot its own CPU time at
//! the child's window boundaries.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv::prelude::*;
use nosv_sync::SplitMix64;

use crate::common::{
    check_counts, peak_rss, rate_metrics, runtime_cpus, window_note, BodyAcc, Outcome, PhaseClock,
    Plan, RunOpts, Window, WorkloadEnv, BODY_ACC,
};
use crate::probe::{NoProbe, Probe, SpanProbe};
use crate::span::Tracer;
use crate::stats::{percentile_sorted, Summary};
use crate::sys::{self, Usage};
use crate::workloads::stats_delta;

/// Kernel id host and guest agree on.
const KERNEL: u64 = 1;
/// The closed loop keeps at most this many tasks pending: three quarters
/// of a default submission lane (256 entries). The issue proposed 1024,
/// but a loop allowed to fill the lane spends its time in `submit`'s
/// sleeping backoff while the host's worker, which a guest cannot wake,
/// sleeps until the next reactor tick: it measures the tick (a number the
/// round trips already record) at 0.15–0.19 M tasks/s, with an occasional
/// run at 1.1 M. Below the lane's capacity the worker stays fed and the
/// loop measures the submit and execute paths, steadily.
const PENDING_LIMIT: u64 = 192;
/// The child checks `pending()` once per this many submissions.
const SUBMIT_BURST: u64 = 32;
/// Serial round trips of a full run.
const ROUND_TRIPS: usize = 2000;
const WAIT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// What the host asks of one child.
#[derive(Debug, Clone)]
pub struct ChildJob {
    pub segment: String,
    pub seed: u64,
    /// Zero windows: join, detach, exit (a set-up repetition).
    pub plan: Plan,
    pub round_trips: usize,
    /// Stop the round trips after this long even if fewer were made.
    pub round_trip_budget: Duration,
    /// Traced run: where the child writes its span file.
    pub trace_path: Option<PathBuf>,
}

impl ChildJob {
    fn args(&self) -> Vec<String> {
        vec![
            "guest-child".to_string(),
            self.segment.clone(),
            self.seed.to_string(),
            self.plan.warmup.as_micros().to_string(),
            self.plan.window.as_micros().to_string(),
            self.plan.windows.to_string(),
            self.round_trips.to_string(),
            self.round_trip_budget.as_millis().to_string(),
            self.trace_path
                .as_ref()
                .map_or(String::new(), |p| p.display().to_string()),
        ]
    }

    fn parse(args: &[String]) -> Result<ChildJob, String> {
        let [segment, seed, warmup, window, windows, trips, budget, trace] = args else {
            return Err(format!("guest-child takes 8 arguments, got {}", args.len()));
        };
        let num = |s: &String| s.parse::<u64>().map_err(|e| format!("`{s}`: {e}"));
        Ok(ChildJob {
            segment: segment.clone(),
            seed: num(seed)?,
            plan: Plan {
                warmup: Duration::from_micros(num(warmup)?),
                window: Duration::from_micros(num(window)?),
                windows: num(windows)? as usize,
                setups: 1,
            },
            round_trips: num(trips)? as usize,
            round_trip_budget: Duration::from_millis(num(budget)?),
            trace_path: (!trace.is_empty()).then(|| PathBuf::from(trace)),
        })
    }
}

// ---- the child process -------------------------------------------------

/// Entry point of the re-executed binary (`guest-child …`).
pub fn child_main(args: &[String]) -> Result<(), String> {
    let job = ChildJob::parse(args)?;
    let mut tracer = job.trace_path.as_ref().map(|_| Tracer::new(LOOP_SPANS));
    let result = match tracer.as_mut() {
        Some(tracer) => {
            let mut probe = SpanProbe::new(tracer, "guest_ipc", "task");
            let r = child_body(&job, &mut probe);
            probe.finish();
            r
        }
        None => child_body(&job, &mut NoProbe),
    };
    if let (Some(tracer), Some(path)) = (tracer.as_ref(), job.trace_path.as_ref()) {
        for name in ["ipc.submit", "ipc.wait_idle"] {
            if let Some(ns) = tracer.median_ns(name) {
                println!("layer {name} {ns} {}", tracer.count(name));
            }
        }
        tracer
            .write_json(path, "guest_ipc", job.seed)
            .map_err(|e| format!("span file {}: {e}", path.display()))?;
    }
    result
}

fn child_body<P: Probe>(job: &ChildJob, probe: &mut P) -> Result<(), String> {
    let err = |what: &str, e: NosvError| format!("guest {what}: {e}");
    let t0 = Instant::now();
    let guest = Runtime::join(&job.segment).map_err(|e| err("join", e))?;
    println!("joined {}", t0.elapsed().as_secs_f64() * 1e3);

    if job.plan.windows > 0 {
        let origin = Instant::now();
        let mut rng = SplitMix64::new(job.seed);
        let mut clock = PhaseClock::start(&job.plan);
        let (mut submitted, mut errors, mut expected_sum) = (0u64, 0u64, 0u64);
        'run: loop {
            while guest.pending() > PENDING_LIMIT - SUBMIT_BURST {
                // Poll gently: the slot's counters share cache lines with
                // what the host's workers are updating.
                for _ in 0..64 {
                    std::hint::spin_loop();
                }
            }
            let marks = clock.marks.len();
            let go_on = clock.tick(submitted - guest.pending().min(submitted), probe);
            if clock.marks.len() != marks {
                let m = clock.marks.last().expect("just pushed");
                println!(
                    "mark {} {} {} {}",
                    m.done,
                    (m.at - origin).as_nanos(),
                    m.usage.cpu_ns,
                    m.usage.ctx_switches
                );
            }
            if !go_on {
                break 'run;
            }
            for _ in 0..SUBMIT_BURST {
                let input = rng.next_u64() & BodyAcc::INPUT_MASK;
                match probe.time("ipc.submit", submitted, || guest.submit(KERNEL, input)) {
                    Ok(()) => {
                        probe.retire(submitted);
                        submitted += 1;
                        expected_sum += input;
                    }
                    Err(_) => errors += 1,
                }
            }
        }
        guest
            .wait_idle(WAIT_IDLE_TIMEOUT)
            .map_err(|e| err("wait_idle", e))?;
        println!("sum {submitted} {expected_sum} {errors}");

        // Serial round trips on the now idle runtime.
        probe.raise_span_cap(TRIP_SPANS);
        let budget_end = Instant::now() + job.round_trip_budget;
        let mut rtts = String::new();
        let (mut made, mut trip_sum) = (0usize, 0u64);
        while made < job.round_trips && (made < 20 || Instant::now() < budget_end) {
            let input = rng.next_u64() & BodyAcc::INPUT_MASK;
            let t = Instant::now();
            let unit = TRIP_SEQ_BASE + made as u64 * crate::probe::TRACE_EVERY;
            probe
                .time("ipc.submit_serial", unit, || guest.submit(KERNEL, input))
                .map_err(|e| err("round-trip submit", e))?;
            probe
                .time("ipc.wait_idle", unit, || guest.wait_idle(WAIT_IDLE_TIMEOUT))
                .map_err(|e| err("round-trip wait_idle", e))?;
            rtts.push_str(&format!(" {}", t.elapsed().as_nanos()));
            probe.retire(unit);
            made += 1;
            trip_sum += input;
        }
        println!("trips {trip_sum}");
        println!("rtt{rtts}");
    }

    let t0 = Instant::now();
    guest.detach().map_err(|e| err("detach", e))?;
    println!(
        "detached {} {}",
        t0.elapsed().as_secs_f64() * 1e3,
        sys::peak_rss_mb()
    );
    Ok(())
}

/// Spans the span file keeps for the closed loop, and on top of those
/// for the round trips (which come last and would otherwise find it full).
const LOOP_SPANS: usize = 12_000;
const TRIP_SPANS: usize = 8_000;

/// Round trips are numbered from here, in steps the traced run samples
/// every one of, so their spans do not collide with the closed loop's.
const TRIP_SEQ_BASE: u64 = 1 << 40;

// ---- the host ------------------------------------------------------------

/// A running child, killed and reaped if the host gives up on it.
struct ChildGuard(Option<Child>);

impl ChildGuard {
    fn finish(mut self) -> Result<(), String> {
        let mut child = self.0.take().expect("child present");
        let status = child
            .wait()
            .map_err(|e| format!("waiting for guest: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("guest process failed: {status}"))
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What the host learned from one child.
#[derive(Debug, Default)]
pub struct ChildReport {
    pub join_ms: f64,
    pub detach_ms: f64,
    pub rss_mb: f64,
    /// Child-side marks: (tasks completed, child clock ns, child usage),
    /// each with the host's own usage when the line arrived.
    marks: Vec<(u64, u64, Usage, Usage)>,
    pub submitted: u64,
    pub expected_sum: u64,
    pub errors: u64,
    /// Sum of the inputs the round trips carried.
    pub trip_sum: u64,
    pub rtt_ns: Vec<u64>,
    /// Traced run: (span name, median ns, calls timed).
    pub layers: Vec<(String, f64, usize)>,
}

impl ChildReport {
    /// Windows on the child's clock, with CPU time of both processes.
    pub fn windows(&self) -> Vec<Window> {
        self.marks
            .windows(2)
            .map(|m| {
                let child = m[1].2.since(&m[0].2);
                let host = m[1].3.since(&m[0].3);
                Window {
                    tasks: m[1].0 - m[0].0,
                    wall_s: (m[1].1 - m[0].1) as f64 / 1e9,
                    cpu_ns: child.cpu_ns + host.cpu_ns,
                    ctx_switches: child.ctx_switches + host.ctx_switches,
                }
            })
            .collect()
    }

    pub fn rtt_p50_us(&self) -> Option<f64> {
        let mut sorted = self.rtt_ns.clone();
        sorted.sort_unstable();
        (!sorted.is_empty()).then(|| percentile_sorted(&sorted, 50.0) as f64 / 1e3)
    }
}

/// Spawns the child for `job` and reads its report to the end.
pub fn run_child(job: &ChildJob) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(job.args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning guest process: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let guard = ChildGuard(Some(child));
    let mut report = ChildReport::default();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading guest output: {e}"))?;
        let host_usage = sys::process_usage();
        let mut words = line.split_ascii_whitespace();
        let Some(tag) = words.next() else { continue };
        let nums: Vec<f64> = words.clone().filter_map(|w| w.parse().ok()).collect();
        let bad = || format!("malformed guest line `{line}`");
        match (tag, nums.as_slice()) {
            ("joined", [ms]) => report.join_ms = *ms,
            ("mark", [done, t_ns, cpu_ns, ctx]) => report.marks.push((
                *done as u64,
                *t_ns as u64,
                Usage {
                    cpu_ns: *cpu_ns as u64,
                    ctx_switches: *ctx as u64,
                },
                host_usage,
            )),
            ("sum", [submitted, sum, errors]) => {
                report.submitted = *submitted as u64;
                report.expected_sum = *sum as u64;
                report.errors = *errors as u64;
            }
            ("trips", [sum]) => report.trip_sum = *sum as u64,
            ("rtt", values) => report.rtt_ns = values.iter().map(|v| *v as u64).collect(),
            ("detached", [ms, rss]) => {
                report.detach_ms = *ms;
                report.rss_mb = *rss;
            }
            ("layer", [median, count]) => {
                let name = words.next().ok_or_else(bad)?.to_string();
                report.layers.push((name, *median, *count as usize));
            }
            _ => return Err(bad()),
        }
    }
    guard.finish()?;
    Ok(report)
}

static SEGMENT_SEQ: AtomicU32 = AtomicU32::new(0);

/// A segment name no other run uses.
pub fn segment_name() -> String {
    format!(
        "nosv-bench-{}-{}",
        std::process::id(),
        SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Builds the host side: a named-segment runtime with the kernel
/// registered and one application attached (attaching starts the workers
/// that run the guest's tasks).
pub fn build_host(
    cpus: usize,
    segment: &str,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<(Runtime, ProcessContext), String> {
    let mut builder = Runtime::builder().cpus(cpus).segment_name(segment);
    if let Some(sink) = sink {
        builder = builder.sink(sink);
    }
    let rt = builder.build().map_err(|e| format!("host build: {e}"))?;
    rt.register_kernel(KERNEL, |arg| BODY_ACC.add(arg));
    let app = rt.attach("host").map_err(|e| format!("host attach: {e}"))?;
    Ok((rt, app))
}

pub fn require_os_backing() -> Result<(), String> {
    if nosv_shmem::os_backing_available() {
        Ok(())
    } else {
        Err(
            "guest_ipc needs an OS-shared segment backing (memfd or shm_open) \
             and this environment has none"
                .to_string(),
        )
    }
}

/// The time the round trips may take, and the plan of what is left.
pub fn split_plan(opts: &RunOpts) -> (Plan, usize, Duration) {
    if opts.quick {
        return (Plan::new(opts), 20, Duration::from_millis(200));
    }
    let budget = (opts.seconds * 0.2).min(2.5);
    let loop_opts = RunOpts {
        seconds: opts.seconds - budget,
        ..*opts
    };
    (
        Plan::new(&loop_opts),
        ROUND_TRIPS,
        Duration::from_secs_f64(budget),
    )
}

/// One full host + child section on a fresh named runtime, output checks
/// included.
pub struct Section {
    pub report: ChildReport,
    pub stats: RuntimeStats,
    /// Host build + attach, s (the child's join comes on top).
    pub host_setup_s: f64,
    pub failed: u64,
    pub note: String,
}

pub fn checked_section(
    cpus: usize,
    job_for: impl FnOnce(String) -> ChildJob,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<Section, String> {
    let segment = segment_name();
    let t0 = Instant::now();
    let (rt, app) = build_host(cpus, &segment, sink)?;
    let host_setup_s = t0.elapsed().as_secs_f64();
    let (bodies0, sum0) = BODY_ACC.read();
    let stats0 = rt.stats();
    let report = run_child(&job_for(segment));
    let (bodies1, sum1) = BODY_ACC.read();
    let stats = stats_delta(&rt.stats(), &stats0);
    drop(app);
    rt.shutdown();
    let report = report?;
    let trips = report.rtt_ns.len() as u64;
    let attempted = report.submitted + trips;
    let (miss, note) = check_counts(
        attempted,
        bodies1 - bodies0,
        stats.tasks_executed,
        sum1.wrapping_sub(sum0),
        report.expected_sum + report.trip_sum,
    );
    Ok(Section {
        failed: report.errors + miss,
        note: format!("guest kernel-sum {note}"),
        report,
        stats,
        host_setup_s,
    })
}

/// The untraced run.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    require_os_backing()?;
    let cpus = runtime_cpus(1)?;
    let (plan, round_trips, round_trip_budget) = split_plan(opts);

    // Set-up repetitions: host build + attach, plus a child that only
    // joins and leaves. The last repetition is the measured run itself.
    let mut setups = Vec::with_capacity(plan.setups);
    for _ in 1..plan.setups {
        let section = checked_section(
            cpus,
            |segment| ChildJob {
                segment,
                seed: opts.seed,
                plan: Plan { windows: 0, ..plan },
                round_trips: 0,
                round_trip_budget: Duration::ZERO,
                trace_path: None,
            },
            None,
        )?;
        setups.push(section.host_setup_s + section.report.join_ms / 1e3);
    }
    let section = checked_section(
        cpus,
        |segment| ChildJob {
            segment,
            seed: opts.seed,
            plan,
            round_trips,
            round_trip_budget,
            trace_path: None,
        },
        None,
    )?;
    setups.push(section.host_setup_s + section.report.join_ms / 1e3);

    let windows = section.report.windows();
    if windows.is_empty() {
        return Err("guest_ipc: the child reported no complete window".to_string());
    }
    let rtt = section
        .report
        .rtt_p50_us()
        .ok_or("guest_ipc: the child made no round trip")?;
    let mut metrics = vec![("setup_s", Summary::of(&setups))];
    metrics.extend(rate_metrics(&windows));
    metrics.push(("guest_rtt_p50_us", Summary::single(rtt)));
    metrics.push(peak_rss(section.report.rss_mb));
    Ok(Outcome {
        workload: "guest_ipc",
        attempted: (section.report.submitted + section.report.rtt_ns.len() as u64).max(1),
        failed: section.failed,
        metrics,
        section_s: windows.iter().map(|w| w.wall_s).sum(),
        notes: vec![
            section.note,
            window_note(&windows),
            format!(
                "guest: a child OS process over an OS-shared segment; {} serial round trips, \
                 join {:.3} ms, detach {:.3} ms",
                section.report.rtt_ns.len(),
                section.report.join_ms,
                section.report.detach_ms
            ),
        ],
        env: WorkloadEnv {
            cpus,
            generators: 1,
            windows: plan.windows,
            window_s: plan.window.as_secs_f64(),
        },
    })
}
