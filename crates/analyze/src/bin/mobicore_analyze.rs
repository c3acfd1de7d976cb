//! `mobicore-analyze` — run the workspace invariant linter from the
//! command line.
//!
//! ```text
//! mobicore-analyze lint  [--root PATH] [--json]   # invariant linter (exit 1 on findings)
//! mobicore-analyze rules                          # list lint rules
//! ```
//!
//! `lint` locates the workspace root (walking up from `--root` or the
//! current directory to the `Cargo.toml` containing `[workspace]`) and
//! exits non-zero on any finding — the same pass tier-1 runs in
//! `tests/static_analysis.rs`. The model checks are tests of the
//! crates they check (`cargo test -p mobicore-sweep --test model`,
//! `cargo test -p mobicore-serve --test protocols`).

use mobicore_analyze::lint;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => return usage("--root needs a path"),
                }
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            a if cmd.is_none() && !a.starts_with('-') => cmd = Some(a.to_string()),
            a => return usage(&format!("unknown argument `{a}`")),
        }
        i += 1;
    }
    match cmd.as_deref() {
        Some("lint") => run_lint(root, json),
        Some("rules") => {
            for (name, desc) in lint::RULES {
                println!("{name}\n    {desc}");
            }
            ExitCode::SUCCESS
        }
        Some(c) => usage(&format!("unknown command `{c}`")),
        None => usage("missing command"),
    }
}

const USAGE: &str = "\
mobicore-analyze: workspace invariant linter

USAGE:
    mobicore-analyze lint  [--root PATH] [--json]
    mobicore-analyze rules

COMMANDS:
    lint    run the invariant linter over the workspace (exit 1 on findings)
    rules   list the lint rules with descriptions
";

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.canonicalize().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run_lint(root: Option<PathBuf>, json: bool) -> ExitCode {
    let start = root.unwrap_or_else(|| PathBuf::from("."));
    let Some(ws) = find_workspace_root(&start) else {
        eprintln!(
            "error: no workspace root (Cargo.toml with [workspace]) above {}",
            start.display()
        );
        return ExitCode::from(2);
    };
    match lint::lint_workspace(&ws) {
        Ok(findings) => {
            if json {
                println!("{}", findings_json(&findings));
            } else if findings.is_empty() {
                println!("mobicore-analyze lint: clean ({} rules)", lint::RULES.len());
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("mobicore-analyze lint: {} finding(s)", findings.len());
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn findings_json(findings: &[lint::Finding]) -> String {
    let rows: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&f.file),
                f.line,
                f.rule,
                json_escape(&f.message)
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}
