//! Project-specific source lints for the nOS-V reproduction.
//!
//! `nosv-lint` is a dependency-free, text-level scanner that enforces the
//! invariants the compiler cannot see but the cross-process design relies
//! on (run it with `cargo run -p nosv-lint`; CI runs it as a blocking job):
//!
//! 1. **Segment-resident layout** ([`Rule::ReprLayout`]): the types that
//!    live inside shared-memory segments (`SubmitRing`, `ClaimTable`,
//!    `IdleGate`, `ProcSlot`, the allocator headers, …) must be `#[repr(C)]` (or
//!    `#[repr(transparent)]`), otherwise their layout is not stable across
//!    the processes mapping the segment.
//! 2. **Segment-field purity** ([`Rule::SegmentField`]): fields of any
//!    `#[repr(C)]` struct must not smuggle host-specific state into the
//!    segment — no raw pointers, references, `Box`/`Vec`/`String`, and no
//!    `usize`/`isize` (pointer-width types are not offsets; offsets are
//!    `Shoff`/`AtomicShoff`, whose wrappers in `offset.rs` are exempt).
//! 3. **`unsafe` justification** ([`Rule::MissingSafety`]): every `unsafe`
//!    block and `unsafe impl` carries a `// SAFETY:` comment, and every
//!    `unsafe fn` documents its contract (`/// # Safety` or a `// SAFETY:`
//!    comment).
//! 4. **Explicit atomic orderings** ([`Rule::ImplicitOrdering`]): every
//!    atomic operation names an `Ordering::…` at the call site, or
//!    transparently forwards a parameter named `order`/`ordering`/
//!    `success`/`failure` — no defaults smuggled through helper wrappers.
//! 5. **Crash-point coverage** ([`Rule::UncoveredCrashPoint`], cross-file,
//!    see [`lint_crash_point_coverage`]): every named
//!    `crash_point("…")` in the protocol sources must appear in at least
//!    one chaos or model test fixture — a crash point nobody kills a
//!    participant at is an untested claim about recoverability.
//!
//! The scanner is deliberately line-oriented and conservative: it
//! understands doc/line comments, `#[cfg(test)] mod` regions (exempt from
//! the layout rules, not from the `unsafe`/ordering rules) and multi-line
//! call argument lists, and nothing else. That is enough for this
//! workspace's house style, and it keeps the tool auditable.

use std::fmt;
use std::path::{Path, PathBuf};

/// Which lint rule a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A known segment-resident type is missing `#[repr(C)]`.
    ReprLayout,
    /// A `#[repr(C)]` struct field has a host-specific type.
    SegmentField,
    /// An `unsafe` site without a `// SAFETY:` / `/// # Safety` comment.
    MissingSafety,
    /// An atomic operation without an explicit `Ordering`.
    ImplicitOrdering,
    /// A named crash point no chaos/model test fixture exercises.
    UncoveredCrashPoint,
}

impl Rule {
    /// Short kebab-case tag used in the report.
    pub fn tag(self) -> &'static str {
        match self {
            Rule::ReprLayout => "repr-layout",
            Rule::SegmentField => "segment-field",
            Rule::MissingSafety => "missing-safety",
            Rule::ImplicitOrdering => "implicit-ordering",
            Rule::UncoveredCrashPoint => "uncovered-crash-point",
        }
    }
}

/// One finding: file, 1-based line, rule and message.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule class.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.tag(),
            self.message
        )
    }
}

/// Types that live inside shared-memory segments and therefore must have
/// an explicitly specified layout (`repr(C)` or `repr(transparent)`).
pub const SEGMENT_RESIDENT_TYPES: &[&str] = &[
    "SubmitRing",
    "RingSlot",
    "ClaimTable",
    "IdleGate",
    "CpuGateBlock",
    "ProcSlot",
    "Header",
    "SlabGlobal",
    "ChunkHdr",
    "Magazine",
    "Shoff",
    "AtomicShoff",
];

/// Identifiers accepted as a transparently forwarded ordering parameter.
const ORDERING_PARAMS: &[&str] = &["order", "ordering", "success", "failure"];

/// Atomic operations that take an `Ordering` argument.
const ATOMIC_OPS: &[&str] = &[
    ".load(",
    ".store(",
    ".swap(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_or(",
    ".fetch_and(",
    ".fetch_xor(",
    ".fetch_max(",
    ".fetch_min(",
    ".fetch_update(",
    "fence(",
];

/// Field-type fragments that must never appear in a segment-resident
/// struct (host pointers, host containers, pointer-width integers).
const FORBIDDEN_FIELD_TOKENS: &[&str] = &["*const", "*mut", "&", "Box<", "Vec<", "String"];

/// Lints one source string. `file` is used for reporting and scoping
/// (`offset.rs` is exempt from [`Rule::SegmentField`]).
pub fn lint_source(file: &Path, src: &str) -> Vec<Violation> {
    let lines: Vec<&str> = src.lines().collect();
    let in_tests = test_region_mask(&lines);
    let mut out = Vec::new();
    check_unsafe_sites(file, &lines, &mut out);
    check_atomic_orderings(file, &lines, &mut out);
    check_struct_layout(file, &lines, &in_tests, &mut out);
    out
}

/// Lints every `.rs` file under `paths` (files or directories, recursed).
pub fn lint_paths(paths: &[PathBuf]) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for p in paths {
        collect_rs_files(p, &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let src = std::fs::read_to_string(&f)?;
        out.extend(lint_source(&f, &src));
    }
    Ok(out)
}

/// Extracts the names of `crash_point("…")` call sites from one source
/// string as `(1-based line, name)` pairs. Comment lines are skipped, so
/// prose *about* a crash point (and the facade's own docs) never counts
/// as declaring one.
pub fn crash_point_names(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        let code = split_comment(line).0;
        let mut from = 0;
        while let Some(pos) = code[from..].find("crash_point(\"") {
            let start = from + pos + "crash_point(\"".len();
            let Some(len) = code[start..].find('"') else {
                break;
            };
            out.push((i + 1, code[start..start + len].to_string()));
            from = start + len;
        }
    }
    out
}

/// Cross-file rule [`Rule::UncoveredCrashPoint`]: every crash point named
/// in the sources under `src_roots` must appear — as a plain string — in
/// at least one `.rs` file under `fixture_roots` (the chaos kill matrix
/// and the model suites). The fixture match is textual on purpose: a
/// kill-matrix array entry, a model-test fixture, or a fixture comment
/// tying a scenario to its point all count, and all of them break loudly
/// when the point is renamed.
pub fn lint_crash_point_coverage(
    src_roots: &[PathBuf],
    fixture_roots: &[PathBuf],
) -> std::io::Result<Vec<Violation>> {
    let mut src_files = Vec::new();
    for r in src_roots {
        collect_rs_files(r, &mut src_files)?;
    }
    src_files.sort();
    let mut fixture_files = Vec::new();
    for r in fixture_roots {
        collect_rs_files(r, &mut fixture_files)?;
    }
    let mut corpus = String::new();
    for f in &fixture_files {
        corpus.push_str(&std::fs::read_to_string(f)?);
        corpus.push('\n');
    }
    let mut out = Vec::new();
    for f in src_files {
        let src = std::fs::read_to_string(&f)?;
        for (line, name) in crash_point_names(&src) {
            if !corpus.contains(&name) {
                out.push(Violation {
                    file: f.clone(),
                    line,
                    rule: Rule::UncoveredCrashPoint,
                    message: format!(
                        "crash point `{name}` appears in no chaos or model test fixture"
                    ),
                });
            }
        }
    }
    Ok(out)
}

fn collect_rs_files(p: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let meta = std::fs::metadata(p)?;
    if meta.is_dir() {
        for entry in std::fs::read_dir(p)? {
            collect_rs_files(&entry?.path(), out)?;
        }
    } else if p.extension().is_some_and(|e| e == "rs") {
        out.push(p.to_path_buf());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Line helpers
// ---------------------------------------------------------------------------

/// Splits a line into (code, comment): everything before / after the first
/// `//` that is not inside a string literal.
fn split_comment(line: &str) -> (&str, &str) {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut escaped = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if escaped {
            escaped = false;
        } else if in_str {
            match b {
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => in_str = true,
                b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                    return (&line[..i], &line[i..]);
                }
                _ => {}
            }
        }
        i += 1;
    }
    (line, "")
}

/// True when the line is nothing but a comment (`//`, `///`, `//!`).
fn is_comment_line(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// True when the line is an attribute (possibly the start of a multi-line
/// one — treated as "skippable prefix" when walking up to find comments).
fn is_attr_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("#[") || t.starts_with("#![")
}

/// Whether `hay` contains `needle` as a whole word (neither neighbor is an
/// identifier character).
fn contains_word(hay: &str, needle: &str) -> bool {
    find_word(hay, needle, 0).is_some()
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Finds `needle` at a word boundary in `hay`, starting at byte `from`.
fn find_word(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(hay.as_bytes()[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= hay.len() || !is_ident_char(hay.as_bytes()[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + needle.len().max(1);
    }
    None
}

/// Marks lines inside `#[cfg(test)] mod …` regions.
fn test_region_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim_start();
        let is_test_cfg =
            (t.starts_with("#[cfg(test)") || t.starts_with("#[cfg(all(test")) && t.contains("]");
        if is_test_cfg {
            // Find the `mod … {` this attribute decorates (skipping further
            // attributes and comments), then mask until its brace closes.
            let mut j = i + 1;
            while j < lines.len() && (is_attr_line(lines[j]) || is_comment_line(lines[j])) {
                j += 1;
            }
            if j < lines.len() && contains_word(split_comment(lines[j]).0, "mod") {
                let mut depth = 0i64;
                for (k, l) in lines.iter().enumerate().take(lines.len()).skip(j) {
                    mask[k] = true;
                    let code = split_comment(l).0;
                    depth += code.matches('{').count() as i64;
                    depth -= code.matches('}').count() as i64;
                    if depth == 0 && (code.contains('{') || code.contains('}')) {
                        i = k;
                        break;
                    }
                    if depth == 0 && code.contains(';') {
                        // `mod tests;` — nothing inline to mask.
                        i = k;
                        break;
                    }
                }
            }
        }
        i += 1;
    }
    mask
}

/// Walks upward from `line` over comments, attributes and — so one
/// `// SAFETY:` comment can cover the idiomatic consecutive
/// `unsafe impl Send`/`Sync` pair — other `unsafe impl` lines, returning
/// true if any comment/attribute line contains one of `needles`.
fn preceding_block_contains(lines: &[&str], line: usize, needles: &[&str]) -> bool {
    let mut i = line;
    while i > 0 {
        i -= 1;
        let l = lines[i];
        if is_comment_line(l) || is_attr_line(l) {
            if needles.iter().any(|n| l.contains(n)) {
                return true;
            }
        } else if !split_comment(l).0.contains("unsafe impl") {
            break;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: unsafe sites need SAFETY comments
// ---------------------------------------------------------------------------

fn check_unsafe_sites(file: &Path, lines: &[&str], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        let (code, comment) = split_comment(line);
        let Some(pos) = find_word(code, "unsafe", 0) else {
            continue;
        };
        let after = code[pos + "unsafe".len()..].trim_start();
        if after.starts_with("impl") {
            if !preceding_block_contains(lines, i, &["SAFETY:"]) {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: Rule::MissingSafety,
                    message: "`unsafe impl` without a `// SAFETY:` comment".into(),
                });
            }
        } else if after.starts_with("fn") {
            if !preceding_block_contains(lines, i, &["# Safety", "SAFETY:"]) {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: Rule::MissingSafety,
                    message:
                        "`unsafe fn` without a `/// # Safety` contract (or `// SAFETY:` comment)"
                            .into(),
                });
            }
        } else {
            // An unsafe block (possibly mid-expression).
            let justified =
                comment.contains("SAFETY:") || preceding_block_contains(lines, i, &["SAFETY:"]);
            if !justified {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: Rule::MissingSafety,
                    message: "`unsafe` block without a `// SAFETY:` comment".into(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: atomics name their Ordering
// ---------------------------------------------------------------------------

fn check_atomic_orderings(file: &Path, lines: &[&str], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        let code = split_comment(line).0;
        for op in ATOMIC_OPS {
            let mut from = 0;
            while let Some(pos) = code[from..].find(op) {
                let at = from + pos;
                from = at + op.len();
                // `fence(` must be a standalone call, not e.g. `off_fence(`.
                if !op.starts_with('.') {
                    let before = &code[..at];
                    if before.as_bytes().last().is_some_and(|&b| is_ident_char(b)) {
                        continue;
                    }
                }
                let args = call_args(lines, i, at + op.len() - 1);
                let explicit = args.contains("Ordering::")
                    || ORDERING_PARAMS.iter().any(|p| contains_word(&args, p));
                if !explicit {
                    out.push(Violation {
                        file: file.to_path_buf(),
                        line: i + 1,
                        rule: Rule::ImplicitOrdering,
                        message: format!(
                            "atomic `{}…)` without an explicit `Ordering`",
                            op.trim_start_matches('.')
                        ),
                    });
                }
            }
        }
    }
}

/// Returns the argument text of a call whose opening paren is at byte
/// `open` of `lines[line]`, balancing parens across up to 12 lines.
fn call_args(lines: &[&str], line: usize, open: usize) -> String {
    let mut args = String::new();
    let mut depth = 0i64;
    for (li, l) in lines.iter().enumerate().skip(line).take(12) {
        let code = split_comment(l).0;
        let start = if li == line { open } else { 0 };
        for c in code[start.min(code.len())..].chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return args;
                    }
                }
                _ => {}
            }
            if depth >= 1 {
                args.push(c);
            }
        }
        args.push(' ');
    }
    args
}

// ---------------------------------------------------------------------------
// Rule: segment-resident struct layout and field purity
// ---------------------------------------------------------------------------

fn check_struct_layout(file: &Path, lines: &[&str], in_tests: &[bool], out: &mut Vec<Violation>) {
    let field_purity_exempt = file.file_name().is_some_and(|f| f == "offset.rs");
    let mut attrs: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if in_tests[i] {
            attrs.clear();
            i += 1;
            continue;
        }
        if is_attr_line(line) || is_comment_line(line) {
            if is_attr_line(line) {
                attrs.push(line);
            }
            i += 1;
            continue;
        }
        let code = split_comment(line).0;
        let Some(kw) = find_word(code, "struct", 0) else {
            attrs.clear();
            i += 1;
            continue;
        };
        let name: String = code[kw + "struct".len()..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let has_repr_c = attrs.iter().any(|a| a.contains("repr(C"));
        let has_repr_transparent = attrs.iter().any(|a| a.contains("repr(transparent"));
        if SEGMENT_RESIDENT_TYPES.contains(&name.as_str()) && !has_repr_c && !has_repr_transparent {
            out.push(Violation {
                file: file.to_path_buf(),
                line: i + 1,
                rule: Rule::ReprLayout,
                message: format!(
                    "segment-resident type `{name}` must be `#[repr(C)]` \
                     (or `#[repr(transparent)]`)"
                ),
            });
        }
        if has_repr_c && !field_purity_exempt {
            i = check_struct_fields(file, lines, i, &name, out);
        }
        attrs.clear();
        i += 1;
    }
}

/// Scans the body of the struct declared at `decl` for forbidden field
/// types; returns the line index of the closing brace (or `decl` for
/// bodyless declarations).
fn check_struct_fields(
    file: &Path,
    lines: &[&str],
    decl: usize,
    name: &str,
    out: &mut Vec<Violation>,
) -> usize {
    // Tuple structs / unit structs on one line.
    let decl_code = split_comment(lines[decl]).0;
    if decl_code.contains(';') && !decl_code.contains('{') {
        check_field_type(file, decl, name, decl_code, out);
        return decl;
    }
    let mut depth = 0i64;
    for (i, l) in lines.iter().enumerate().skip(decl) {
        let code = split_comment(l).0;
        depth += code.matches('{').count() as i64;
        depth -= code.matches('}').count() as i64;
        if i > decl && depth == 1 && !is_attr_line(l) {
            // A (possibly partial) field line: examine the type side.
            if let Some(colon) = code.find(':') {
                check_field_type(file, i, name, &code[colon + 1..], out);
            }
        }
        if depth == 0 && code.contains('}') {
            return i;
        }
    }
    lines.len() - 1
}

fn check_field_type(file: &Path, line: usize, name: &str, ty: &str, out: &mut Vec<Violation>) {
    for tok in FORBIDDEN_FIELD_TOKENS {
        if ty.contains(tok) {
            out.push(Violation {
                file: file.to_path_buf(),
                line: line + 1,
                rule: Rule::SegmentField,
                message: format!(
                    "`#[repr(C)]` struct `{name}` field contains host-specific `{tok}`"
                ),
            });
        }
    }
    for tok in ["usize", "isize"] {
        if contains_word(ty, tok) {
            out.push(Violation {
                file: file.to_path_buf(),
                line: line + 1,
                rule: Rule::SegmentField,
                message: format!(
                    "`#[repr(C)]` struct `{name}` field uses pointer-width `{tok}`; \
                     segment offsets are `Shoff`/`AtomicShoff`"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Violation> {
        lint_source(Path::new("test.rs"), src)
    }

    fn tags(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule.tag()).collect()
    }

    #[test]
    fn clean_source_passes() {
        let v = lint(
            "// SAFETY: test fixture.\n\
             unsafe impl Send for X {}\n\
             fn f(a: &AtomicU64) -> u64 {\n\
                 a.load(Ordering::Acquire)\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_safety_on_block_impl_and_fn() {
        let v = lint(
            "unsafe impl Sync for X {}\n\
             fn f() { unsafe { g() } }\n\
             pub unsafe fn g() {}\n",
        );
        assert_eq!(
            tags(&v),
            vec!["missing-safety", "missing-safety", "missing-safety"]
        );
    }

    #[test]
    fn safety_comment_variants_accepted() {
        let v = lint(
            "// SAFETY: a.\n\
             unsafe impl Sync for X {}\n\
             fn f() {\n\
                 // SAFETY: b.\n\
                 unsafe { g() }\n\
                 let x = unsafe { h() }; // SAFETY: c.\n\
             }\n\
             /// Does things.\n\
             ///\n\
             /// # Safety\n\
             ///\n\
             /// Caller checks.\n\
             #[inline]\n\
             pub unsafe fn g() {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn implicit_ordering_flagged_explicit_and_forwarded_pass() {
        let v = lint(
            "fn f(a: &AtomicU64, order: Ordering) {\n\
                 a.load(SOME_CONST);\n\
                 a.store(1, Ordering::Release);\n\
                 a.fetch_add(1, order);\n\
                 fence(Ordering::SeqCst);\n\
                 a.compare_exchange(0, 1, success, failure).ok();\n\
             }\n",
        );
        assert_eq!(tags(&v), vec!["implicit-ordering"]);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn multiline_call_arguments_are_balanced() {
        let v = lint(
            "fn f(a: &AtomicU64) {\n\
                 a.compare_exchange(\n\
                     0,\n\
                     compute(x, y),\n\
                     Ordering::AcqRel,\n\
                     Ordering::Acquire,\n\
                 ).ok();\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn segment_type_requires_repr() {
        let v = lint("pub struct SubmitRing {\n    head: u64,\n}\n");
        assert_eq!(tags(&v), vec!["repr-layout"]);
        let v = lint("#[repr(C)]\npub struct SubmitRing {\n    head: u64,\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn repr_c_fields_must_be_position_independent() {
        let v = lint(
            "#[repr(C)]\n\
             struct Evil {\n\
                 p: *mut u8,\n\
                 v: Vec<u8>,\n\
                 n: usize,\n\
                 ok: AtomicU64,\n\
             }\n",
        );
        assert_eq!(
            tags(&v),
            vec!["segment-field", "segment-field", "segment-field"]
        );
    }

    #[test]
    fn test_modules_are_exempt_from_layout_rules() {
        let v = lint(
            "#[cfg(test)]\n\
             mod tests {\n\
                 pub struct SubmitRing {\n\
                     p: *mut u8,\n\
                 }\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crash_point_names_extracts_calls_not_prose() {
        let names = crash_point_names(
            "// The `ring.push.reserved` point is documented here.\n\
             fn push() {\n\
                 crash_point(\"ring.push.reserved\");\n\
                 crash_point(\"ring.lane.unmarked\"); // after the mark\n\
             }\n\
             /// crash_point(\"doc.example.ignored\")\n",
        );
        assert_eq!(
            names,
            vec![
                (3, "ring.push.reserved".to_string()),
                (4, "ring.lane.unmarked".to_string()),
            ]
        );
    }

    #[test]
    fn non_atomic_identifiers_do_not_trip_word_matching() {
        // `UnsafeCell` is not the keyword; `off_fence(` is not `fence(`.
        let v = lint("fn f(c: &UnsafeCell<u8>) { off_fence(1); }\n");
        assert!(v.is_empty(), "{v:?}");
    }
}
