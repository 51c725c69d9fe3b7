//! End-to-end tests for the `nosv-lint` binary: each seeded fixture must
//! fail with its rule tag, the clean fixture must pass, and — the real
//! acceptance gate — the committed tree must lint clean in default mode.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_lint(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nosv-lint"))
        .args(args)
        .output()
        .expect("nosv-lint binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn seeded_repr_violation_fails() {
    let out = run_lint(&[&fixture("bad_repr.rs")]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("[repr-layout]"), "{}", stdout(&out));
}

#[test]
fn seeded_field_violations_fail() {
    let out = run_lint(&[&fixture("bad_fields.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    // One per offending field: raw pointer, Vec, usize.
    assert_eq!(text.matches("[segment-field]").count(), 3, "{text}");
}

#[test]
fn seeded_safety_violations_fail() {
    let out = run_lint(&[&fixture("bad_safety.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    // One per unjustified site: unsafe impl, unsafe fn, unsafe block.
    assert_eq!(text.matches("[missing-safety]").count(), 3, "{text}");
}

#[test]
fn seeded_ordering_violation_fails() {
    let out = run_lint(&[&fixture("bad_ordering.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("[implicit-ordering]"), "{text}");
}

#[test]
fn clean_fixture_passes() {
    let out = run_lint(&[&fixture("clean.rs")]);
    assert!(out.status.success(), "{}", stdout(&out));
}

#[test]
fn uncovered_crash_point_fails() {
    let out = run_lint(&[
        Path::new("coverage"),
        &fixture("chaos_src"),
        Path::new("--fixtures"),
        &fixture("chaos_cover_partial"),
    ]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("[uncovered-crash-point]"), "{text}");
    assert!(text.contains("demo.push.published"), "{text}");
    // The covered point is not reported.
    assert!(!text.contains("demo.push.reserved"), "{text}");
}

#[test]
fn fully_covered_crash_points_pass() {
    let out = run_lint(&[
        Path::new("coverage"),
        &fixture("chaos_src"),
        Path::new("--fixtures"),
        &fixture("chaos_cover_full"),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
}

#[test]
fn unreferenced_pub_fn_fails() {
    let dir = fixture("pub_fns_bad");
    let out = run_lint(&[Path::new("pub-fns"), &dir, Path::new("--refs"), &dir]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(text.matches("[unreferenced-pub-fn]").count(), 1, "{text}");
    assert!(text.contains("`fixture_orphan`"), "{text}");
}

#[test]
fn referenced_pub_fns_pass() {
    let dir = fixture("pub_fns_clean");
    let out = run_lint(&[Path::new("pub-fns"), &dir, Path::new("--refs"), &dir]);
    assert!(out.status.success(), "{}", stdout(&out));
}

/// Default mode runs the per-file rules, crash-point coverage and the
/// public-function rule over the real tree: every `crash_point("…")` in
/// the protocol and runtime sources must be exercised by the chaos kill
/// matrix or a model suite, and every `pub fn` must have a user.
#[test]
fn committed_tree_is_clean() {
    let out = run_lint(&[]);
    assert!(out.status.success(), "{}", stdout(&out));
}
