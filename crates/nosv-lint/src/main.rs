//! CLI driver for [`nosv_lint`]: `cargo run -p nosv-lint [paths…]`.
//!
//! With no arguments, lints the protocol crates (`nosv-sync`, `nosv-shmem`,
//! `nosv-check`) with the per-file rules AND checks crash-point coverage
//! (every `crash_point("…")` in the protocol sources — including the
//! runtime crate's IPC and scheduler paths — must appear in a chaos or
//! model test fixture) AND that every public function in the workspace
//! sources is named somewhere besides its declaration. With arguments,
//! lints exactly those files/directories with the per-file rules. With
//! `coverage <src>… --fixtures <dir>…` or `pub-fns <src>… --refs <dir>…`,
//! runs only that cross-file rule over explicit roots (used by the
//! self-test fixtures). Exits non-zero when any violation is found.

use std::path::PathBuf;
use std::process::ExitCode;

fn crates_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("nosv-lint lives under crates/")
        .to_path_buf()
}

fn repo_dir() -> PathBuf {
    crates_dir()
        .parent()
        .expect("crates/ lives in the repo root")
        .to_path_buf()
}

fn default_roots() -> Vec<PathBuf> {
    ["nosv-sync", "nosv-shmem", "nosv-check"]
        .iter()
        .map(|c| crates_dir().join(c).join("src"))
        .collect()
}

/// Sources scanned for `crash_point("…")` names: the protocol crates plus
/// the runtime crate (its IPC join and guest-submit paths carry points the
/// kill matrix must cover).
fn coverage_src_roots() -> Vec<PathBuf> {
    ["nosv-sync", "nosv-shmem", "nosv"]
        .iter()
        .map(|c| crates_dir().join(c).join("src"))
        .collect()
}

/// Where coverage may live: each crate's integration-test directory (the
/// chaos kill matrix in `nosv/tests/chaos.rs`, the model suites in
/// `nosv-sync/tests` and `nosv-shmem/tests`).
fn coverage_fixture_roots() -> Vec<PathBuf> {
    ["nosv-sync", "nosv-shmem", "nosv"]
        .iter()
        .map(|c| crates_dir().join(c).join("tests"))
        .collect()
}

/// Where public functions are declared: every crate's `src/` and the
/// umbrella facade's.
fn pub_fn_src_roots() -> std::io::Result<Vec<PathBuf>> {
    let mut roots = vec![repo_dir().join("src")];
    for entry in std::fs::read_dir(crates_dir())? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            roots.push(src);
        }
    }
    Ok(roots)
}

/// Where a public function may be named: all Rust sources of the
/// workspace, its examples and tests, and the benchmark package.
fn pub_fn_ref_roots() -> Vec<PathBuf> {
    let dirs = [
        "crates",
        "src",
        "examples",
        "tests",
        "benchmark/src",
        "benchmark/tests",
    ];
    dirs.iter().map(|d| repo_dir().join(d)).collect()
}

fn report(violations: Vec<nosv_lint::Violation>) -> ExitCode {
    if violations.is_empty() {
        eprintln!("nosv-lint: clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        eprintln!("nosv-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<PathBuf> = std::env::args_os().skip(1).map(PathBuf::from).collect();
    // `<command> <roots>… <flag> <roots>…` → the two root lists.
    let split = |flag: &str| {
        let rest = &args[1..];
        let at = rest
            .iter()
            .position(|a| a.as_os_str() == flag)
            .unwrap_or(rest.len());
        (&rest[..at], rest.get(at + 1..).unwrap_or(&[]))
    };
    let command = args.first().and_then(|a| a.to_str());
    let result = if command == Some("coverage") {
        let (src, fixtures) = split("--fixtures");
        nosv_lint::lint_crash_point_coverage(src, fixtures)
    } else if command == Some("pub-fns") {
        let (src, refs) = split("--refs");
        nosv_lint::lint_unreferenced_pub_fns(src, refs)
    } else if args.is_empty() {
        nosv_lint::lint_paths(&default_roots()).and_then(|mut v| {
            v.extend(nosv_lint::lint_crash_point_coverage(
                &coverage_src_roots(),
                &coverage_fixture_roots(),
            )?);
            v.extend(nosv_lint::lint_unreferenced_pub_fns(
                &pub_fn_src_roots()?,
                &pub_fn_ref_roots(),
            )?);
            Ok(v)
        })
    } else {
        nosv_lint::lint_paths(&args)
    };
    match result {
        Ok(violations) => report(violations),
        Err(e) => {
            eprintln!("nosv-lint: error: {e}");
            ExitCode::FAILURE
        }
    }
}
