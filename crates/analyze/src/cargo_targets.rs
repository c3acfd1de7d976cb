//! The `doc-cargo-targets` rule: every `cargo run|test|bench` command
//! the docs, the CI workflow and the verify recipe show must name
//! packages and targets that exist, so a deleted or renamed test target
//! cannot linger in the docs as a claim of coverage nothing runs.
//!
//! Targets are read from the manifests the way cargo discovers them —
//! explicit `[[bin]]`/`[[test]]`/`[[bench]]`/`[[example]]` entries plus
//! the conventional `src/main.rs`, `src/bin/`, `tests/`, `benches/` and
//! `examples/` files — without a TOML parser.

use crate::lint::Finding;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Files checked besides every `docs/*.md`; a missing one is skipped.
pub const DOC_FILES: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

/// Target flags with the manifest section and conventional directory
/// of each kind.
const KINDS: [(&str, &str, &str); 4] = [
    ("--bin", "[[bin]]", "src/bin"),
    ("--test", "[[test]]", "tests"),
    ("--bench", "[[bench]]", "benches"),
    ("--example", "[[example]]", "examples"),
];

/// One package's targets, as `(flag, target name)` pairs.
type Targets = BTreeSet<(&'static str, String)>;

/// The entries of `dir`; none when it does not exist.
fn entries(dir: &Path) -> impl Iterator<Item = PathBuf> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
}

/// `key = "value"` on one manifest line.
fn value(line: &str, key: &str) -> Option<String> {
    let rest = line.strip_prefix(key)?.trim_start().strip_prefix('=')?;
    let rest = rest.trim().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The name and targets of the package whose manifest is in `dir`.
fn load_package(dir: &Path) -> Option<(String, Targets)> {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
    let (mut name, mut targets, mut explicit) = (None, Targets::new(), BTreeSet::new());
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if let Some(path) = value(line, "path") {
            explicit.insert(path);
        } else if let Some(v) = value(line, "name") {
            match KINDS.iter().find(|k| k.1 == section) {
                Some(k) => {
                    targets.insert((k.0, v));
                }
                None if section == "[package]" => name = Some(v),
                None => {}
            }
        }
    }
    let name = name?;
    if dir.join("src/main.rs").is_file() && !explicit.contains("src/main.rs") {
        targets.insert(("--bin", name.clone()));
    }
    for (flag, _, sub) in KINDS {
        for path in entries(&dir.join(sub)) {
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let rel = if path.is_dir() {
                format!("{sub}/{stem}/main.rs")
            } else {
                format!("{sub}/{stem}.rs")
            };
            if dir.join(&rel).is_file() && !explicit.contains(&rel) {
                targets.insert((flag, stem.to_string()));
            }
        }
    }
    Some((name, targets))
}

/// Every package of the workspace: the root package and each package
/// under `crates/` and `vendored/` (the root manifest's `members`).
fn workspace(root: &Path) -> BTreeMap<String, Targets> {
    let members = entries(&root.join("crates")).chain(entries(&root.join("vendored")));
    std::iter::once(root.to_path_buf())
        .chain(members)
        .filter_map(|d| load_package(&d))
        .collect()
}

/// The `-p`, `--manifest-path` and target arguments of every
/// `cargo run|test|bench` command in `text`, with its 1-based line.
/// Shell continuations are joined; a command ends at the `--` before
/// the program's own arguments or at a backtick, pipe or comment.
/// Placeholder values (`<crate>`, `$BIN`) are dropped.
fn commands(text: &str) -> Vec<(usize, Vec<(&'static str, String)>)> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((idx, first)) = lines.next() {
        let mut logical = first.to_string();
        while let Some(body) = logical.trim_end().strip_suffix('\\') {
            logical = body.to_string();
            match lines.next() {
                Some((_, next)) => logical = format!("{logical} {next}"),
                None => break,
            }
        }
        for (at, _) in logical.match_indices("cargo ") {
            if logical[..at].ends_with(|c: char| c.is_alphanumeric() || c == '-' || c == '_') {
                continue;
            }
            let cmd = &logical[at + "cargo ".len()..];
            let cmd = &cmd[..cmd
                .find(['`', '|', ';', '&', '#', ')', '>'])
                .unwrap_or(cmd.len())];
            let mut tokens = cmd.split_whitespace().map(|t| t.trim_matches(['"', '\'']));
            if !matches!(tokens.next(), Some("run" | "test" | "bench")) {
                continue;
            }
            let mut args = Vec::new();
            while let Some(tok) = tokens.next() {
                if tok == "--" {
                    break;
                }
                let (flag, inline) = match tok.split_once('=') {
                    Some((f, v)) if f.starts_with("--") => (f, Some(v)),
                    _ => (tok, None),
                };
                let flag = match flag {
                    "-p" | "--package" => "-p",
                    "--manifest-path" => "--manifest-path",
                    f => match KINDS.iter().find(|k| k.0 == f) {
                        Some(k) => k.0,
                        None => continue,
                    },
                };
                let Some(v) = inline.or_else(|| tokens.next()) else {
                    break;
                };
                if !v.is_empty() && !v.contains(['<', '{', '$', '*']) {
                    args.push((flag, v.to_string()));
                }
            }
            out.push((idx + 1, args));
        }
    }
    out
}

/// Checks the commands of one file (`rel`, workspace-relative) against
/// the packages of `ws`. A `--manifest-path` command targets another
/// workspace (`perfbench/`): only its manifest has to exist under `root`.
fn check_text(rel: &str, text: &str, ws: &BTreeMap<String, Targets>, root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for (line, args) in commands(text) {
        let mut finding = |message: String| {
            out.push(Finding {
                file: rel.to_string(),
                line,
                rule: "doc-cargo-targets",
                message,
            })
        };
        if let Some((_, path)) = args.iter().find(|(f, _)| *f == "--manifest-path") {
            if !root.join(path).is_file() {
                finding(format!("`--manifest-path {path}`: no such manifest"));
            }
            continue;
        }
        let named: Vec<&String> = args
            .iter()
            .filter(|(f, _)| *f == "-p")
            .map(|a| &a.1)
            .collect();
        for name in named.iter().filter(|n| !ws.contains_key(**n)) {
            finding(format!("`-p {name}`: no such workspace package"));
        }
        let scope: Vec<_> = ws
            .iter()
            .filter(|(n, _)| named.is_empty() || named.contains(n))
            .collect();
        for (flag, target) in args.iter().filter(|(f, _)| f.starts_with("--")) {
            if scope.is_empty()
                || scope
                    .iter()
                    .any(|(_, t)| t.contains(&(*flag, target.clone())))
            {
                continue;
            }
            let place = match scope.as_slice() {
                [(name, _)] => format!("package `{name}`"),
                _ => "the workspace".to_string(),
            };
            finding(format!("`{flag} {target}`: no such target in {place}"));
        }
    }
    out
}

/// Runs the rule over [`DOC_FILES`] and `docs/*.md` under `root`.
pub fn check_workspace(root: &Path, out: &mut Vec<Finding>) {
    let ws = workspace(root);
    let mut docs: Vec<String> = entries(&root.join("docs"))
        .filter_map(|p| Some(format!("docs/{}", p.file_name()?.to_str()?)))
        .filter(|n| n.ends_with(".md"))
        .collect();
    docs.sort();
    for rel in DOC_FILES.iter().map(|s| s.to_string()).chain(docs) {
        if let Ok(text) = std::fs::read_to_string(root.join(&rel)) {
            out.extend(check_text(&rel, &text, &ws, root));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_commands_are_flagged_and_live_ones_are_not() {
        let targets = |ts: [(&'static str, &str); 2]| ts.map(|(f, t)| (f, t.to_string())).into();
        let ws = BTreeMap::from([
            (
                "mobicore-experiments".to_string(),
                targets([("--test", "engine_equivalence"), ("--bin", "all")]),
            ),
            (
                "mobicore-repro".to_string(),
                targets([("--test", "ablations"), ("--example", "quickstart")]),
            ),
        ]);
        let doc = "MOBICORE_BENCH_GATE=1 cargo test --release -p mobicore-bench --test bench_gate\n\
                   cargo test -p mobicore-experiments --test bench_gate\n\
                   Ablations (`cargo bench --bench ablations`):\n\
                   cargo run --release \\\n    --package=mobicore-experiments --bin=figN -- \\\n    --quick\n\
                   cargo run --manifest-path gone/Cargo.toml -- --seed 1\n\
                   cargo test --release -p mobicore-experiments --test engine_equivalence\n\
                   cargo run -p mobicore-experiments --bin all -- --bin nope --test x\n\
                   See `cargo test --test ablations` and `cargo run --release --example quickstart`.\n\
                   cargo test -q && cargo run -p <crate> --bin $BIN\n\
                   scripts/tsan.sh   # cargo test with -Zsanitizer=thread\n";
        let found: Vec<String> = check_text("README.md", doc, &ws, Path::new("/nonexistent"))
            .into_iter()
            .map(|f| format!("{}: {}", f.line, f.message))
            .collect();
        assert_eq!(
            found,
            [
                "1: `-p mobicore-bench`: no such workspace package",
                "2: `--test bench_gate`: no such target in package `mobicore-experiments`",
                "3: `--bench ablations`: no such target in the workspace",
                "4: `--bin figN`: no such target in package `mobicore-experiments`",
                "7: `--manifest-path gone/Cargo.toml`: no such manifest",
            ]
        );
    }

    #[test]
    fn manifests_are_read_like_cargo_does() {
        let ws = workspace(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
        let has =
            |pkg: &str, flag: &'static str, name: &str| ws[pkg].contains(&(flag, name.into()));
        // An explicit [[bin]] renames its file: the stem is no target.
        assert!(has("mobicore-experiments", "--bin", "mobicore-fleetsim"));
        assert!(!has("mobicore-experiments", "--bin", "fleetsim"));
        assert!(has("mobicore-experiments", "--bin", "fig10"));
        assert!(has("mobicore-experiments", "--test", "engine_equivalence"));
        assert!(has("mobicore-checker", "--bin", "checker"));
        assert!(!has("mobicore-checker", "--bin", "mobicore-checker"));
        assert!(has("mobicore-repro", "--example", "quickstart"));
    }
}
