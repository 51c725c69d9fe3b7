//! Command line.
//!
//! ```text
//! nosv-benchmark run          [--seed N] [--seconds S] [--workload W] [--quick]
//! nosv-benchmark trace        [--seed N] [--seconds S] [--workload W] [--quick]
//! nosv-benchmark check-repeat [--seed N] [--seconds S]
//! nosv-benchmark --workload W --seed N --seconds S --trace 0|1     (the driver's form)
//! ```
//!
//! `run` is the untraced suite (end-to-end metrics), `trace` the traced
//! one (per-layer metrics, span files). The driver's form runs one
//! workload and prints the contract's result object as its last line.
//!
//! A suite runs every workload in a process of its own (this binary
//! re-executed as `workload-child`), as the driver does: peak memory is a
//! high-water mark of the process, and allocator and runtime state left
//! by one workload must not reach the next one's numbers.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::common::{Outcome, RunOpts};
use crate::json;
use crate::report::{self, Env};
use crate::spec;
use crate::sys;
use crate::trace;
use crate::workloads::{self, guest};

const USAGE: &str = "usage: nosv-benchmark [run | trace | check-repeat] \
[--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]";

struct Args {
    command: Option<String>,
    workload: Option<String>,
    opts: RunOpts,
    rest: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        opts: RunOpts {
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            quick: false,
        },
        rest: Vec::new(),
    };
    let mut it = argv.iter();
    if let Some(first) = argv.first().filter(|a| !a.starts_with("--")) {
        args.command = Some(first.clone());
        it.next();
        if first == "guest-child" {
            args.rest = it.cloned().collect();
            return Ok(args);
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.opts.quick = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(w) = &args.workload {
        if !spec::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}`; the workloads are {}",
                spec::WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

/// `benchmark/out`: span files, and the temporary directory of the named
/// segments' link files — the benchmark writes nowhere else.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
    if opts.trace {
        trace::run(workload, opts, &out_dir())
    } else {
        workloads::run(workload, opts)
    }
}

/// Runs `workload` in a process of its own and reads its result back.
/// The child prints the workload's block as it goes; its last line, the
/// result as JSON, is kept from the output.
fn run_in_child(workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["workload-child", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if opts.quick {
        command.arg("--quick");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("starting {workload}'s process: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut last: Option<String> = None;
    let mut read_error = None;
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) => {
                if let Some(previous) = last.replace(line) {
                    println!("{previous}");
                }
            }
            Err(e) => {
                read_error = Some(format!("reading {workload}'s output: {e}"));
                break;
            }
        }
    }
    // Reap the child whatever happened to its output.
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {workload}'s process: {e}"))?;
    if let Some(e) = read_error {
        return Err(e);
    }
    // Status 1 is a failed output check: the result still comes back.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{workload}'s process failed: {status}"));
    }
    let last = last.ok_or_else(|| format!("{workload}'s process printed nothing"))?;
    let value = json::parse(&last).map_err(|e| format!("{workload}'s result: {e}"))?;
    report::outcome_from_json(&value)
}

/// Runs the selected workloads, each printing its block as it goes.
fn run_suite(only: Option<&str>, opts: &RunOpts) -> Result<Vec<Outcome>, String> {
    spec::WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == **w))
        .map(|w| run_in_child(w, opts))
        .collect()
}

fn all_correct(outcomes: &[Outcome]) -> ExitCode {
    if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("nosv-benchmark: an output check failed (failed_fraction > 0)");
        ExitCode::from(1)
    }
}

/// Runs the untraced suite twice on this build and compares every
/// (metric, workload) pair a workload measures against the metric's
/// bound. The simulator's `coexec_speedup` and its `engine.*` counts must
/// repeat exactly.
fn check_repeat(opts: &RunOpts) -> Result<ExitCode, String> {
    let untraced = RunOpts {
        trace: false,
        ..*opts
    };
    println!("== check-repeat: first set ==");
    let first = run_suite(None, &untraced)?;
    println!("== check-repeat: second set ==");
    let second = run_suite(None, &untraced)?;

    let mut disagreements = 0;
    println!("== check-repeat: comparison ==");
    println!(
        "  {:<16} {:<24} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for ((name, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
            let bound = spec::end_to_end(name)
                .and_then(|m| m.bound)
                .ok_or_else(|| format!("{name} has no bound"))?;
            let ratio = vb.median / va.median;
            let exact = a.workload == "sim_pairwise" && *name == "coexec_speedup";
            let agrees = if exact {
                va.median == vb.median
            } else {
                (ratio - 1.0).abs() <= bound
            };
            println!(
                "  {:<16} {:<24} {:>16.4} {:>16.4} {:>8.4} {:>6} {}",
                a.workload,
                name,
                va.median,
                vb.median,
                ratio,
                if exact {
                    "exact".to_string()
                } else {
                    bound.to_string()
                },
                if agrees { "" } else { "DISAGREES" }
            );
            disagreements += usize::from(!agrees);
        }
    }

    let traced = RunOpts {
        trace: true,
        ..*opts
    };
    let engine = |o: &Outcome| -> Vec<(&'static str, f64)> {
        o.metrics
            .iter()
            .filter(|(n, _)| n.starts_with("engine.") && *n != "engine.ns_per_event")
            .map(|(n, s)| (*n, s.median))
            .collect()
    };
    let (ta, tb) = (
        engine(&run_in_child("sim_pairwise", &traced)?),
        engine(&run_in_child("sim_pairwise", &traced)?),
    );
    for ((name, va), (_, vb)) in ta.iter().zip(&tb) {
        let agrees = va == vb;
        println!(
            "  {:<16} {:<24} {:>16.4} {:>16.4} {:>8} {:>6} {}",
            "sim_pairwise",
            name,
            va,
            vb,
            "",
            "exact",
            if agrees { "" } else { "DISAGREES" }
        );
        disagreements += usize::from(!agrees);
    }

    let correct = first.iter().chain(&second).all(Outcome::correct);
    if disagreements == 0 && correct {
        println!("check-repeat: both sets agree within every bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "check-repeat: {disagreements} pair(s) disagree by more than their bound{}",
            if correct {
                ""
            } else {
                "; an output check failed"
            }
        );
        Ok(ExitCode::from(1))
    }
}

pub fn main() -> ExitCode {
    sys::pin_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nosv-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.command.as_deref() == Some("guest-child") {
        return match guest::child_main(&args.rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("nosv-benchmark guest: {e}");
                ExitCode::from(1)
            }
        };
    }

    // Named segments publish a link file in the temporary directory; keep
    // it inside the benchmark's own output directory. Set before any
    // thread exists, and inherited by the guest child.
    let tmp = out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("nosv-benchmark: {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);

    let mut opts = args.opts;
    let result = match args.command.as_deref() {
        // The driver's form: one workload, the contract's last line.
        None => {
            let Some(workload) = args.workload.as_deref() else {
                eprintln!("nosv-benchmark: --workload is required\n{USAGE}");
                return ExitCode::from(2);
            };
            Env::capture(&opts).print();
            run_one(workload, &opts).map(|outcome| {
                report::print_outcome(&outcome);
                let (line, placeholders) = report::driver_line(&outcome, opts.trace);
                if !placeholders.is_empty() {
                    println!(
                        "  note: {workload} does not measure {}; the driver's schema wants \
                         every metric from every workload, so the result object carries \
                         placeholders for them: the length of the measured section \
                         ({:.4} s) for a time, its inverse for a rate, 1 otherwise \
                         (see README.md, \"Placeholders\")",
                        placeholders.join(", "),
                        outcome.section_s
                    );
                }
                println!("{line}");
                all_correct(&[outcome])
            })
        }
        // One workload of a suite, in the process the suite started for it.
        Some("workload-child") => {
            let Some(workload) = args.workload.as_deref() else {
                eprintln!("nosv-benchmark: workload-child needs --workload");
                return ExitCode::from(2);
            };
            run_one(workload, &opts).map(|outcome| {
                report::print_outcome(&outcome);
                println!("{}", report::outcome_json(&outcome));
                all_correct(&[outcome])
            })
        }
        Some(command @ ("run" | "trace")) => {
            opts.trace = command == "trace";
            let env = Env::capture(&opts);
            env.print();
            run_suite(args.workload.as_deref(), &opts).map(|outcomes| {
                println!("{}", report::suite_line(&env, &outcomes));
                all_correct(&outcomes)
            })
        }
        Some("check-repeat") => {
            Env::capture(&opts).print();
            check_repeat(&opts)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("nosv-benchmark: {e}");
        ExitCode::from(2)
    })
}
