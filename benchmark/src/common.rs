//! What every workload shares: the sizing rule, the window plan, the
//! result of a run and the body-side accumulator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::probe::Probe;
use crate::stats::Summary;
use crate::sys::{self, Usage};

/// Options of one run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured section, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a span file. Otherwise the
    /// end-to-end metrics.
    pub trace: bool,
    /// Schema pass: one 200 ms window, no claim about the numbers.
    pub quick: bool,
}

impl RunOpts {
    /// Length of the measured section of a repetition workload: `seconds`,
    /// or next to nothing in the schema pass.
    pub fn section_seconds(&self) -> f64 {
        if self.quick {
            0.2
        } else {
            self.seconds
        }
    }
}

/// Hardware threads the benchmark sizes itself to: what the host offers,
/// capped at 8.
pub fn usable_parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
}

/// The sizing rule: the runtime gets the hardware threads the generators
/// leave, so runnable threads never exceed the host's and the numbers
/// measure the runtime, not the kernel's scheduler. Refuses a host on
/// which even one runtime CPU would share a hardware thread with a
/// generator.
pub fn runtime_cpus(generators: usize) -> Result<usize, String> {
    let w = usable_parallelism();
    let cpus = w.saturating_sub(generators).max(1);
    if cpus + generators > w {
        return Err(format!(
            "{generators} generator thread(s) + {cpus} runtime CPU(s) exceed the host's \
             {w} hardware thread(s); the benchmark refuses to measure an oversubscribed run"
        ));
    }
    Ok(cpus)
}

/// How a run's measured section is cut up.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Discarded: fills caches, spawns workers, finishes lazy set-up.
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
}

impl Plan {
    pub fn new(opts: &RunOpts) -> Plan {
        if opts.quick {
            return Plan {
                warmup: Duration::from_millis(50),
                window: Duration::from_millis(200),
                windows: 1,
                setups: 1,
            };
        }
        // At least five windows, of two seconds when the run is long
        // enough for that.
        let windows = ((opts.seconds / 2.0).floor() as usize).max(5);
        Plan {
            warmup: Duration::from_millis(500),
            window: Duration::from_secs_f64(opts.seconds / windows as f64),
            windows,
            setups: 9,
        }
    }
}

/// Repetitions a repetition-shaped workload (`coexec_kernels`,
/// `sim_pairwise`) measures at least, however short `--seconds` is: a
/// median and quartiles over fewer say little.
pub const MIN_REPS: usize = 5;

/// Sleeps until `seconds` after `start`. A repetition workload stops when
/// no further repetition fits and sleeps out the rest, so that every run
/// measures for the same length whatever the repetitions' own.
pub fn sleep_out(start: Instant, seconds: f64) {
    let left = Duration::from_secs_f64(seconds).saturating_sub(start.elapsed());
    std::thread::sleep(left);
}

/// Sizing of one workload, for the environment block.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadEnv {
    pub cpus: usize,
    pub generators: usize,
    pub windows: usize,
    pub window_s: f64,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    /// Operations attempted (tasks submitted, kernel runs, simulations).
    pub attempted: u64,
    /// Operations that failed; an output-check miss fails them all.
    pub failed: u64,
    /// The metrics this workload measures: of an untraced run the
    /// end-to-end metrics that apply to it, of a traced run every
    /// per-layer metric.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Wall length of the measured section, s. Steady by construction
    /// (windows are cut by the clock; a repetition workload sleeps out
    /// what is left of `--seconds`), so it can stand in, in the driver's
    /// result object, for the metrics the workload does not measure.
    pub section_s: f64,
    /// Human-readable lines: output checks, generator honesty, skip
    /// reasons of layer metrics the host or the workload cannot exercise.
    pub notes: Vec<String>,
    pub env: WorkloadEnv,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Progress marks of a measured section: one at the end of warm-up, one
/// at the end of each window. A window is the difference of two marks.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    /// Units of work completed so far.
    pub done: u64,
    pub usage: Usage,
}

/// One measured window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub tasks: u64,
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub ctx_switches: u64,
}

pub fn windows_of(marks: &[Mark]) -> Vec<Window> {
    marks
        .windows(2)
        .map(|w| {
            let used = w[1].usage.since(&w[0].usage);
            Window {
                tasks: w[1].done - w[0].done,
                wall_s: (w[1].at - w[0].at).as_secs_f64(),
                cpu_ns: used.cpu_ns,
                ctx_switches: used.ctx_switches,
            }
        })
        .collect()
}

/// Paces a generator loop through warm-up and windows: `tick` is called
/// once per iteration and says when the measured section is over.
pub struct PhaseClock {
    plan: Plan,
    next: Instant,
    pub marks: Vec<Mark>,
}

impl PhaseClock {
    pub fn start(plan: &Plan) -> PhaseClock {
        PhaseClock {
            plan: *plan,
            next: Instant::now() + plan.warmup,
            marks: Vec::with_capacity(plan.windows + 1),
        }
    }

    /// Records a mark if a boundary passed (telling `probe`, which opens
    /// the next window's span); `false` once the last window closed.
    pub fn tick(&mut self, done: u64, probe: &mut impl Probe) -> bool {
        let now = Instant::now();
        if now < self.next {
            return true;
        }
        probe.boundary(self.marks.len());
        self.marks.push(Mark {
            at: now,
            done,
            usage: sys::process_usage(),
        });
        self.next = now + self.plan.window;
        self.marks.len() <= self.plan.windows
    }
}

/// Median over `windows` of `f`.
pub fn per_window(windows: &[Window], f: impl Fn(&Window) -> f64) -> Summary {
    Summary::of(&windows.iter().map(f).collect::<Vec<_>>())
}

/// `tasks_per_s` and `cpu_ns_per_task` of a windowed workload.
pub fn rate_metrics(windows: &[Window]) -> [(&'static str, Summary); 2] {
    [
        (
            "tasks_per_s",
            per_window(windows, |w| w.tasks as f64 / w.wall_s),
        ),
        (
            "cpu_ns_per_task",
            per_window(windows, |w| w.cpu_ns as f64 / w.tasks.max(1) as f64),
        ),
    ]
}

/// `peak_rss_mb`: this process's high-water mark plus `extra_mb` (a guest
/// process's). The mark never falls, which is why every workload runs in
/// a process of its own (`cli::run_in_child`).
pub fn peak_rss(extra_mb: f64) -> (&'static str, Summary) {
    (
        "peak_rss_mb",
        Summary::single(sys::peak_rss_mb() + extra_mb),
    )
}

/// Every window's throughput, in order: medians hide a drift or a second
/// mode, this line shows it.
pub fn window_note(windows: &[Window]) -> String {
    let rates: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.0}", w.tasks as f64 / w.wall_s))
        .collect();
    format!("tasks per second by window: {}", rates.join(" "))
}

/// The accumulator every task body adds to: the low 40 bits count bodies
/// run, the high 24 sum (modulo 2^24, the carry falls off the top) the
/// 8-bit input each task carries in its metadata word. A `static`, so the
/// body closure captures nothing and costs no allocation; on its own
/// cache lines, so the worker's writes disturb nothing the generator
/// touches.
#[repr(align(128))]
pub struct BodyAcc(AtomicU64);

pub static BODY_ACC: BodyAcc = BodyAcc(AtomicU64::new(0));

impl BodyAcc {
    const SUM_SHIFT: u32 = 40;
    /// Sums are compared modulo this.
    pub const SUM_MODULUS: u64 = 1 << (64 - Self::SUM_SHIFT);
    /// Largest input a task may carry.
    pub const INPUT_MASK: u64 = 0xff;

    #[inline]
    pub fn add(&self, input: u64) {
        self.0.fetch_add(
            1 | (input & Self::INPUT_MASK) << Self::SUM_SHIFT,
            Ordering::Relaxed,
        );
    }

    /// (bodies run, sum of their inputs modulo `SUM_MODULUS`) since the
    /// program started. 2^40 bodies fit; the longest run the command line
    /// accepts makes fewer than 2^31.
    pub fn read(&self) -> (u64, u64) {
        let v = self.0.load(Ordering::Acquire);
        (v & ((1 << Self::SUM_SHIFT) - 1), v >> Self::SUM_SHIFT)
    }
}

/// The output check shared by the live fine-grain workloads: bodies run,
/// tasks submitted and the runtime's own count must agree, and the bodies
/// must have seen the inputs the generator made. Returns the failures to
/// charge (all of `attempted` on any miss) and a line for the notes.
pub fn check_counts(
    attempted: u64,
    bodies: u64,
    executed: u64,
    sum: u64,
    expected_sum: u64,
) -> (u64, String) {
    let (sum, expected_sum) = (
        sum % BodyAcc::SUM_MODULUS,
        expected_sum % BodyAcc::SUM_MODULUS,
    );
    let ok = bodies == attempted && executed == attempted && sum == expected_sum;
    let line = format!(
        "output check: submitted {attempted}, bodies run {bodies}, runtime executed {executed}, \
         input sum {sum} (expected {expected_sum}, both modulo 2^24) -> {}",
        if ok { "ok" } else { "MISMATCH" }
    );
    (if ok { 0 } else { attempted.max(1) }, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_overflowing_input_sum_leaves_the_body_count_alone() {
        // One short of wrapping the 24-bit sum.
        let acc = BodyAcc(AtomicU64::new(
            (BodyAcc::SUM_MODULUS - 1) << BodyAcc::SUM_SHIFT,
        ));
        acc.add(0xff);
        acc.add(0x1ff); // only the low eight bits are an input
        assert_eq!(acc.read(), (2, 0xff + 0xff - 1));
        let (miss, _) = check_counts(2, 2, 2, 0xff + 0xff - 1, BodyAcc::SUM_MODULUS + 0x1fd);
        assert_eq!(miss, 0);
        let (miss, _) = check_counts(2, 2, 2, 7, 8);
        assert_eq!(miss, 2);
    }
}
