//! Holds `BENCHMARK.json` and the benchmark's output together: a quick
//! pass (one 200 ms window per workload, no claim about the numbers) must
//! name exactly the workloads and metrics the file lists.

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

use nosv_benchmark::json::{self, Value};
use nosv_benchmark::spec;

const BIN: &str = env!("CARGO_BIN_EXE_nosv-benchmark");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(
        text.len() <= 64 * 1024,
        "BENCHMARK.json is larger than 64 KiB"
    );
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// The `name`s of the objects in list `key`, each with exactly `keys`.
fn names(doc: &Value, key: &str, keys: &[&str]) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` list"))
        .iter()
        .map(|entry| {
            let members: Vec<&str> = entry
                .as_obj()
                .expect("entries are objects")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(members, keys, "keys of a `{key}` entry");
            entry
                .get("name")
                .and_then(Value::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One benchmark process at a time: the tests of this file run on
/// parallel threads, and two benchmarks sharing the host's hardware
/// threads would break the sizing rule each relies on.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs the benchmark and parses the last line of its standard output.
fn last_line(args: &[&str]) -> Value {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "`{}` exited with {}:\n{stdout}\n{}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("some output");
    json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

fn metric_names(result: &Value) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has a value"
            );
            assert!(
                m.get("unit").and_then(Value::as_str).is_some(),
                "{name} has a unit"
            );
            name.clone()
        })
        .collect()
}

#[test]
fn benchmark_json_is_within_the_contract_and_matches_the_code() {
    let doc = benchmark_json();
    let top: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        top,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = names(&doc, "workloads", &["name", "why"]);
    let end_to_end = names(&doc, "end_to_end", &["name", "unit", "better", "bound"]);
    let per_layer = names(&doc, "per_layer", &["name", "unit", "better"]);
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    assert!(
        all.iter().all(|n| valid_name(n)),
        "a name is outside [A-Za-z0-9_.-]"
    );
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "a name is used twice"
    );
    assert!(end_to_end.iter().any(|n| n == "setup_s"));

    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(spec::RUN_SECONDS as f64)
    );
    assert_eq!(workloads, spec::WORKLOADS);
    for (listed, coded) in [
        (doc.get("end_to_end").unwrap(), &spec::END_TO_END[..]),
        (doc.get("per_layer").unwrap(), &spec::PER_LAYER[..]),
    ] {
        let listed = listed.as_arr().unwrap();
        assert_eq!(listed.len(), coded.len());
        for (l, c) in listed.iter().zip(coded) {
            assert_eq!(l.get("name").and_then(Value::as_str), Some(c.name));
            assert_eq!(
                l.get("unit").and_then(Value::as_str),
                Some(c.unit),
                "{}",
                c.name
            );
            assert_eq!(
                l.get("better").and_then(Value::as_str),
                Some(c.better),
                "{}",
                c.name
            );
            let bound = l
                .get("bound")
                .map(|b| b.as_f64().expect("a bound is a number"));
            assert_eq!(bound, c.bound, "{}", c.name);
            if let Some(bound) = bound {
                // The issue's cap; set-up time alone takes the contract's
                // (it is told to carry the largest bound).
                let cap = if c.name == "setup_s" { 0.25 } else { 0.10 };
                assert!(bound > 0.0 && bound <= cap, "{}: bound {bound}", c.name);
            }
        }
    }
    for w in doc.get("workloads").unwrap().as_arr().unwrap() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {:?}",
            w.get("name")
        );
    }
}

#[test]
fn quick_suites_name_exactly_the_listed_workloads_and_metrics() {
    let doc = benchmark_json();
    let workloads = names(&doc, "workloads", &["name", "why"]);
    for (command, list) in [("run", "end_to_end"), ("trace", "per_layer")] {
        let expected = names(
            &doc,
            list,
            if list == "end_to_end" {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            },
        );
        let suite = last_line(&[command, "--quick", "--seed", "7"]);
        let env = suite.get("env").expect("an environment block");
        for key in [
            "available_parallelism",
            "W",
            "seed",
            "seconds",
            "rustc",
            "commit",
        ] {
            assert!(env.get(key).is_some(), "environment block lacks {key}");
        }
        let results = suite
            .get("workloads")
            .and_then(Value::as_obj)
            .expect("workloads");
        let ran: Vec<&str> = results.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            ran, workloads,
            "`{command}` ran other workloads than listed"
        );
        let mut reported: Vec<String> = Vec::new();
        for (workload, result) in results {
            let names = metric_names(result);
            if command == "trace" {
                assert_eq!(names, expected, "{command} {workload}");
            } else {
                // A workload reports the end-to-end metrics that apply to
                // it, these three always.
                for always in ["setup_s", "peak_rss_mb"] {
                    assert!(
                        names.iter().any(|n| n == always),
                        "{workload} lacks {always}"
                    );
                }
                assert!(
                    names.iter().all(|n| expected.contains(n)),
                    "{workload} reports an unlisted metric: {names:?}"
                );
            }
            reported.extend(names);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(
                result.get("failed_fraction").and_then(Value::as_f64),
                Some(0.0)
            );
            for key in ["cpus", "generators", "windows", "window_s"] {
                assert!(result.get(key).is_some(), "{workload} lacks {key}");
            }
        }
        // Every listed metric is some workload's own.
        for name in &expected {
            assert!(reported.contains(name), "no workload reports {name}");
        }
    }
}

#[test]
fn the_drivers_form_prints_the_contracts_result_object() {
    let doc = benchmark_json();
    let workloads = names(&doc, "workloads", &["name", "why"]);
    // Untraced, every workload: the metrics a workload does not measure
    // are there too, as placeholders, and none reads 0.
    let runs = workloads
        .iter()
        .map(|w| (w.as_str(), "0"))
        .chain([("fine_batched", "1")]);
    for (workload, trace) in runs {
        let (list, keys) = if trace == "0" {
            ("end_to_end", &["name", "unit", "better", "bound"][..])
        } else {
            ("per_layer", &["name", "unit", "better"][..])
        };
        let result = last_line(&[
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        let members: Vec<&str> = result
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(members, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert_eq!(metric_names(&result), names(&doc, list, keys), "{workload}");
        if trace == "0" {
            for (name, m) in result.get("metrics").and_then(Value::as_obj).unwrap() {
                let value = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(value > 0.0, "{workload}: {name} reads {value}");
            }
        }
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seed"],
        &["frobnicate"],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
