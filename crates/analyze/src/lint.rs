//! The workspace invariant linter.
//!
//! Seven rules, each encoding a MobiCore-specific invariant that
//! `rustc`/`clippy` cannot express:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-wall-clock-in-sim` | `crates/sim` — including the event engine's wake/burst paths in `sim.rs` and the `fleet.rs` scheduler — is deterministic virtual time; `Instant::now`/`SystemTime` are banned outside tests (escape: `// wall-clock:` with a reason) |
//! | `serve-no-panic-paths` | `crates/serve` protocol/session code must not `unwrap`/`expect`/`panic!` — a malformed frame must never kill a worker (escape: `// infallible:` with a proof) |
//! | `relaxed-needs-justification` | every `Ordering::Relaxed` outside tests carries a `// relaxed:` comment saying why the weak ordering is sound |
//! | `crate-lint-headers` | every crate root pins `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` |
//! | `next-tick-equivalence-coverage` | every `fn next_tick_us` wake-time implementation is registered here and exercised by the engine-equivalence suite |
//! | `doc-cargo-targets` | every `cargo run\|test\|bench` command in the docs, CI and verify recipe names a package and `--bin`/`--test`/`--bench`/`--example` target that exists ([`crate::cargo_targets`]) |
//! | `unused-dependency` | every `[dependencies]`/`[dev-dependencies]` entry of a workspace member appears as `ident::` or `use ident` in that package's `.rs` files ([`crate::cargo_targets`]) |
//!
//! Escape annotations go on the offending line or the line directly
//! above. The linter runs in tier-1 (`tests/static_analysis.rs`) and
//! via the `mobicore-analyze lint` CLI; both fail on any finding, so
//! removing a justification or adding an unannotated panic path breaks
//! the build.
//!
//! Scope: `src/` trees of the workspace root and every crate under
//! `crates/` — integration `tests/` directories are test code and
//! exempt by construction, as are `#[cfg(test)]` regions inside `src`.

use crate::source::{self, SourceView};
use std::fmt;
use std::path::Path;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule identifiers with one-line descriptions (CLI `rules` output).
pub const RULES: [(&str, &str); 7] = [
    (
        "no-wall-clock-in-sim",
        "crates/sim (incl. the event scheduler) must stay on virtual time: no Instant::now/SystemTime outside tests (escape: // wall-clock:)",
    ),
    (
        "serve-no-panic-paths",
        "crates/serve must not unwrap/expect/panic! outside tests (escape: // infallible:)",
    ),
    (
        "relaxed-needs-justification",
        "every Ordering::Relaxed outside tests needs a // relaxed: justification",
    ),
    (
        "crate-lint-headers",
        "crate roots must carry #![forbid(unsafe_code)] and #![deny(missing_docs)]",
    ),
    (
        "next-tick-equivalence-coverage",
        "every fn next_tick_us wake-time impl must be registered in NEXT_TICK_IMPLS and exercised by the engine-equivalence suite",
    ),
    (
        "doc-cargo-targets",
        "cargo run/test/bench commands in README, DESIGN, EXPERIMENTS, docs/, CI and the verify recipe must name existing packages and targets",
    ),
    (
        "unused-dependency",
        "every [dependencies]/[dev-dependencies] entry of a workspace member must appear as ident:: or use ident in that package's .rs files",
    ),
];

/// Runs the per-file rules on one source file. `rel` is the
/// workspace-relative path (rule scoping keys off it).
pub fn lint_source(rel: &str, text: &str) -> Vec<Finding> {
    let view = source::view(text);
    let mut findings = Vec::new();
    rule_lint_headers(rel, &view, &mut findings);
    rule_wall_clock(rel, &view, &mut findings);
    rule_serve_panic(rel, &view, &mut findings);
    rule_relaxed(rel, &view, &mut findings);
    rule_next_tick_registered(rel, &view, &mut findings);
    findings
}

fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

fn rule_lint_headers(rel: &str, view: &SourceView, out: &mut Vec<Finding>) {
    if !is_crate_root(rel) {
        return;
    }
    for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
        if !view.code.iter().any(|l| l.contains(attr)) {
            out.push(Finding {
                file: rel.to_string(),
                line: 1,
                rule: "crate-lint-headers",
                message: format!("crate root is missing `{attr}`"),
            });
        }
    }
}

fn rule_wall_clock(rel: &str, view: &SourceView, out: &mut Vec<Finding>) {
    if !rel.starts_with("crates/sim/src") {
        return;
    }
    scan_tokens(
        rel,
        view,
        &["Instant::now", "SystemTime"],
        "// wall-clock:",
        "no-wall-clock-in-sim",
        "wall-clock read in the simulator (virtual time only); justify with `// wall-clock:` if unavoidable",
        out,
    );
}

fn rule_serve_panic(rel: &str, view: &SourceView, out: &mut Vec<Finding>) {
    if !rel.starts_with("crates/serve/src") {
        return;
    }
    scan_tokens(
        rel,
        view,
        &[
            ".unwrap()",
            ".expect(",
            "panic!(",
            "unreachable!(",
            "todo!(",
            "unimplemented!(",
        ],
        "// infallible:",
        "serve-no-panic-paths",
        "potential panic in a serve protocol/session path; return a typed error, or prove it can't fire with `// infallible:`",
        out,
    );
}

fn rule_relaxed(rel: &str, view: &SourceView, out: &mut Vec<Finding>) {
    scan_tokens(
        rel,
        view,
        &["Ordering::Relaxed"],
        "// relaxed:",
        "relaxed-needs-justification",
        "unjustified Ordering::Relaxed; say why no synchronization is needed with `// relaxed:`",
        out,
    );
}

/// A source file implementing the event engine's wake-time contract
/// (`fn next_tick_us`), with the tokens that prove the tier-1
/// engine-equivalence suite exercises the workloads it declares wakes
/// for. The fast-forward engine *skips* ticks these implementations
/// promise are no-ops, so an untested implementation is an untested
/// correctness claim (docs/simulator.md).
struct NextTickSpec {
    source: &'static str,
    markers: &'static [&'static str],
}

/// The tier-1 suite every wake-time implementation must be exercised by.
const NEXT_TICK_TEST: &str = "crates/experiments/tests/engine_equivalence.rs";

const NEXT_TICK_IMPLS: [NextTickSpec; 3] = [
    NextTickSpec {
        // The trait default (EveryTick, always sound) and the `Box`
        // forwarder: on the path of every boxed workload the suite runs.
        source: "crates/sim/src/workload.rs",
        markers: &["add_workload"],
    },
    NextTickSpec {
        source: "crates/workloads/src/apps.rs",
        markers: &["VideoPlayback", "AppLaunch"],
    },
    NextTickSpec {
        source: "crates/workloads/src/scenario.rs",
        markers: &["Scenario", "CATALOG"],
    },
];

fn rule_next_tick_registered(rel: &str, view: &SourceView, out: &mut Vec<Finding>) {
    if NEXT_TICK_IMPLS.iter().any(|s| s.source == rel) {
        return;
    }
    for (idx, line) in view.code.iter().enumerate() {
        if view.test_mask[idx] {
            continue;
        }
        if line.contains("fn next_tick_us") {
            out.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: "next-tick-equivalence-coverage",
                message: "new wake-time implementation; register it in NEXT_TICK_IMPLS \
                          (crates/analyze/src/lint.rs) with markers the engine-equivalence \
                          suite exercises"
                    .to_string(),
            });
        }
    }
}

/// Checks the wake-time coverage registry against the equivalence
/// suite: every registered file still implements the contract, and
/// every marker appears in the suite's source.
fn next_tick_coverage(root: &Path, out: &mut Vec<Finding>) -> Result<(), String> {
    let test_path = root.join(NEXT_TICK_TEST);
    let test_text =
        std::fs::read_to_string(&test_path).map_err(|e| format!("{}: {e}", test_path.display()))?;
    for spec in &NEXT_TICK_IMPLS {
        let src_path = root.join(spec.source);
        let text = std::fs::read_to_string(&src_path)
            .map_err(|e| format!("{}: {e}", src_path.display()))?;
        let view = source::view(&text);
        if !view.code.iter().any(|l| l.contains("fn next_tick_us")) {
            out.push(Finding {
                file: spec.source.to_string(),
                line: 1,
                rule: "next-tick-equivalence-coverage",
                message: "registered in NEXT_TICK_IMPLS but no longer implements \
                          `fn next_tick_us`; drop the stale registry entry"
                    .to_string(),
            });
            continue;
        }
        for marker in spec.markers {
            if !test_text.contains(marker) {
                out.push(Finding {
                    file: NEXT_TICK_TEST.to_string(),
                    line: 1,
                    rule: "next-tick-equivalence-coverage",
                    message: format!(
                        "`{marker}` (wake-time implementation in {}) is no longer \
                         exercised by the engine-equivalence suite",
                        spec.source
                    ),
                });
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn scan_tokens(
    rel: &str,
    view: &SourceView,
    tokens: &[&str],
    annotation: &str,
    rule: &'static str,
    message: &str,
    out: &mut Vec<Finding>,
) {
    for (idx, line) in view.code.iter().enumerate() {
        if view.test_mask[idx] {
            continue;
        }
        if tokens.iter().any(|t| line.contains(t)) && !view.has_annotation(idx, annotation) {
            out.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule,
                message: message.to_string(),
            });
        }
    }
}

/// Lints the whole workspace rooted at `root`: every `.rs` file under
/// `src/` and `crates/*/src/`, plus the wake-time coverage, doc
/// cargo-command and unused-dependency checks.
/// Returns findings sorted by path and line; empty means clean.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<_> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("{}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        crates.sort();
        for krate in crates {
            collect_rs(&krate.join("src"), &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&rel, &text));
    }
    next_tick_coverage(root, &mut findings)?;
    crate::cargo_targets::check_workspace(root, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn serve_unwrap_is_flagged_and_annotation_clears_it() {
        let bad = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let findings = lint_source("crates/serve/src/server.rs", bad);
        assert_eq!(rules_of(&findings), ["serve-no-panic-paths"]);
        assert_eq!(findings[0].line, 1);

        let ok = "// infallible: x is Some by construction (checked above)\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint_source("crates/serve/src/server.rs", ok).is_empty());
    }

    #[test]
    fn panic_tokens_in_tests_strings_and_comments_are_exempt() {
        let src = "pub const HELP: &str = \"panic!(never)\"; // panic!( in a comment\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn relaxed_requires_justification_anywhere_outside_tests() {
        let bad = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let findings = lint_source("crates/telemetry/src/metrics.rs", bad);
        assert_eq!(rules_of(&findings), ["relaxed-needs-justification"]);

        let ok = "fn f(c: &AtomicU64) {\n    // relaxed: monotonic stats counter, read only after join\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/telemetry/src/metrics.rs", ok).is_empty());
    }

    #[test]
    fn sim_wall_clock_is_flagged() {
        let bad = "fn now() -> Instant { Instant::now() }\n";
        let findings = lint_source("crates/sim/src/sim.rs", bad);
        assert_eq!(rules_of(&findings), ["no-wall-clock-in-sim"]);
        // The same token outside the sim crate is fine.
        assert!(lint_source("crates/sweep/src/timer.rs", bad).is_empty());
    }

    #[test]
    fn unregistered_next_tick_impl_is_flagged() {
        let src = "impl Workload for Pulse {\n    fn next_tick_us(&self, now_us: u64) -> Wake { Wake::At(now_us + 1) }\n}\n";
        let findings = lint_source("crates/workloads/src/pulse.rs", src);
        assert_eq!(rules_of(&findings), ["next-tick-equivalence-coverage"]);
        assert_eq!(findings[0].line, 2);
        // Registered files carry the implementation without findings.
        assert!(lint_source("crates/workloads/src/apps.rs", src).is_empty());
        // The token in a string or comment (e.g. this linter's own
        // registry) does not count as an implementation.
        let quoted = "const T: &str = \"fn next_tick_us\"; // fn next_tick_us\n";
        assert!(lint_source("crates/workloads/src/pulse.rs", quoted).is_empty());
    }

    #[test]
    fn crate_roots_need_both_headers() {
        let findings = lint_source("crates/sim/src/lib.rs", "#![forbid(unsafe_code)]\n");
        assert_eq!(rules_of(&findings), ["crate-lint-headers"]);
        assert!(findings[0].message.contains("missing_docs"));
        let ok = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";
        assert!(lint_source("crates/sim/src/lib.rs", ok).is_empty());
        // Non-root files are not held to it.
        assert!(lint_source("crates/sim/src/sim.rs", "fn f() {}\n").is_empty());
    }
}
