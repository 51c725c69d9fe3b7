//! What the benchmark prints: the environment block, one line per
//! metric, and the machine-readable last line.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::common::{usable_parallelism, Outcome, RunOpts, WorkloadEnv};
use crate::json::{self, Value};
use crate::spec;
use crate::stats::Summary;

/// Where and how a result was measured; printed with every output.
#[derive(Debug, Clone)]
pub struct Env {
    pub available_parallelism: usize,
    /// Hardware threads the sizing rule uses (the above, capped at 8).
    pub w: usize,
    pub seed: u64,
    pub seconds: f64,
    pub mode: &'static str,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    // git may look for a repository in the checkout (the benchmark's
    // directory and its parent) and no further up.
    let ceiling = manifest_dir.ancestors().nth(2).unwrap_or(manifest_dir);
    Command::new(program)
        .args(args)
        .current_dir(manifest_dir)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

impl Env {
    pub fn capture(opts: &RunOpts) -> Env {
        Env {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            w: usable_parallelism(),
            seed: opts.seed,
            seconds: opts.seconds,
            mode: match (opts.trace, opts.quick) {
                (false, false) => "untraced",
                (true, false) => "traced",
                (false, true) => "untraced, quick (schema pass: the numbers mean nothing)",
                (true, true) => "traced, quick (schema pass: the numbers mean nothing)",
            },
            rustc: command_line("rustc", &["-V"]),
            // A checkout that is not a git repository reads "unknown".
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    pub fn print(&self) {
        println!("== environment ==");
        println!(
            "  available_parallelism {}  W {}  seed {}  seconds {}  mode {}",
            self.available_parallelism, self.w, self.seed, self.seconds, self.mode
        );
        println!("  rustc {}  commit {}", self.rustc, self.commit);
    }

    fn json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"W\": {}, \"seed\": {}, \"seconds\": {}, \
             \"mode\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.available_parallelism,
            self.w,
            self.seed,
            json::number(self.seconds),
            json::quote(self.mode),
            json::quote(&self.rustc),
            json::quote(&self.commit)
        )
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::end_to_end(name)
        .or_else(|| spec::per_layer(name))
        .map_or("", |m| m.unit)
}

/// The human-readable block of one workload's result.
pub fn print_outcome(o: &Outcome) {
    println!("== {} ==", o.workload);
    println!(
        "  cpus {}  generators {}  windows {}  window_s {:.3}",
        o.env.cpus, o.env.generators, o.env.windows, o.env.window_s
    );
    for (name, s) in &o.metrics {
        let unit = unit_of(name);
        if s.n > 1 {
            println!(
                "  {name:<40} {:>16.4} {unit:<6} (q1 {:.4}, q3 {:.4}, n {})",
                s.median, s.q1, s.q3, s.n
            );
        } else {
            println!("  {name:<40} {:>16.4} {unit}", s.median);
        }
    }
    println!(
        "  {:<40} {:>16.6} ({} failed of {} attempted)",
        "failed_fraction",
        o.failed_fraction(),
        o.failed,
        o.attempted
    );
    for note in &o.notes {
        println!("  note: {note}");
    }
}

fn metric_value(value: f64, failed: &mut u64) -> String {
    if value.is_finite() {
        json::number(value)
    } else {
        // JSON has no NaN; a value that is not a number is a failure.
        *failed += 1;
        "0".to_string()
    }
}

/// Members of a JSON object, one per metric: value and unit, with
/// quartiles and sample count when the summary has them.
fn metrics_json(metrics: &[(&str, Option<Summary>, f64)], failed: &mut u64) -> String {
    let mut out = String::new();
    for (i, (name, summary, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}",
            if i == 0 { "" } else { ", " },
            json::quote(name),
            metric_value(*value, failed),
            json::quote(unit_of(name))
        );
        if let Some(s) = summary {
            let _ = write!(
                out,
                ", \"q1\": {}, \"q3\": {}, \"n\": {}",
                metric_value(s.q1, failed),
                metric_value(s.q3, failed),
                s.n
            );
        }
        out.push('}');
    }
    out
}

/// What stands in the driver's result object for an end-to-end metric the
/// workload does not measure. The driver's schema wants every metric from
/// every workload, none of them 0 and no time the same on every run; a
/// reading of the workload's own noise would make that noise count
/// against a metric it has nothing to do with. So a time reads the length
/// of the run's measured section — which the clock fixes, to a
/// ten-thousandth — in the metric's unit, a rate its inverse, and anything
/// else 1. `run` and `check-repeat` never show or compare a placeholder.
fn placeholder(unit: &str, section_s: f64) -> f64 {
    match unit {
        "s" => section_s,
        "us" => section_s * 1e6,
        "ns" => section_s * 1e9,
        "1/s" => 1.0 / section_s,
        _ => 1.0,
    }
}

/// The last line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` (name → value and unit) — every end-to-end
/// metric of an untraced run, every per-layer metric of a traced one.
/// Also returns the names that are placeholders.
pub fn driver_line(o: &Outcome, trace: bool) -> (String, Vec<&'static str>) {
    let measured = |name: &str| o.metrics.iter().find(|(n, _)| *n == name).map(|(_, s)| s);
    let mut placeholders = Vec::new();
    let listed = if trace {
        &spec::PER_LAYER[..]
    } else {
        &spec::END_TO_END[..]
    };
    let metrics: Vec<(&str, Option<Summary>, f64)> = listed
        .iter()
        .map(|m| match measured(m.name) {
            Some(s) => (m.name, None, s.median),
            None => {
                placeholders.push(m.name);
                (m.name, None, placeholder(m.unit, o.section_s))
            }
        })
        .collect();
    let mut failed = o.failed;
    let metrics = metrics_json(&metrics, &mut failed);
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        failed == 0,
        o.attempted.max(1),
        failed
    );
    (line, placeholders)
}

/// One workload's result as a JSON object: what a suite's last line holds
/// per workload, and what a workload's own process hands back to the
/// suite that started it (`outcome_from_json`).
pub fn outcome_json(o: &Outcome) -> String {
    let mut failed = o.failed;
    let metrics: Vec<(&str, Option<Summary>, f64)> = o
        .metrics
        .iter()
        .map(|(name, s)| (*name, Some(*s), s.median))
        .collect();
    let metrics = metrics_json(&metrics, &mut failed);
    format!(
        "{{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failed_fraction\": {}, \"cpus\": {}, \"generators\": {}, \"windows\": {}, \
         \"window_s\": {}, \"section_s\": {}, \"metrics\": {{{metrics}}}}}",
        json::quote(o.workload),
        failed == 0,
        o.attempted,
        failed,
        json::number(failed as f64 / o.attempted.max(1) as f64),
        o.env.cpus,
        o.env.generators,
        o.env.windows,
        json::number(o.env.window_s),
        json::number(o.section_s),
    )
}

/// Reads `outcome_json`'s object back. The notes stay behind: the process
/// that ran the workload has printed them.
pub fn outcome_from_json(v: &Value) -> Result<Outcome, String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("a workload's result lacks `{key}`"))
    };
    let name = v.get("workload").and_then(Value::as_str).unwrap_or("");
    let workload = spec::WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("a workload's result names `{name}`"))?;
    let members = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("a workload's result lacks `metrics`")?;
    let mut metrics = Vec::with_capacity(members.len());
    for (name, m) in members {
        let spec = spec::end_to_end(name)
            .or_else(|| spec::per_layer(name))
            .ok_or_else(|| format!("unknown metric `{name}`"))?;
        let field = |key: &str| {
            m.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric `{name}` lacks `{key}`"))
        };
        metrics.push((
            spec.name,
            Summary {
                median: field("value")?,
                q1: field("q1")?,
                q3: field("q3")?,
                n: field("n")? as usize,
            },
        ));
    }
    Ok(Outcome {
        workload,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
        section_s: num("section_s")?,
        notes: Vec::new(),
        env: WorkloadEnv {
            cpus: num("cpus")? as usize,
            generators: num("generators")? as usize,
            windows: num("windows")? as usize,
            window_s: num("window_s")?,
        },
    })
}

/// The last line of a suite (`run`, `trace`): the environment and every
/// workload's result with quartiles and sample counts.
pub fn suite_line(env: &Env, outcomes: &[Outcome]) -> String {
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| format!("{}: {}", json::quote(o.workload), outcome_json(o)))
        .collect();
    format!(
        "{{\"env\": {}, \"workloads\": {{{}}}}}",
        env.json(),
        workloads.join(", ")
    )
}
