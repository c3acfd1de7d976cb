//! The two manifest-driven rules.
//!
//! * `doc-cargo-targets`: every `cargo run|test|bench` command the docs,
//!   the CI workflow and the verify recipe show must name packages and
//!   targets that exist, so a deleted or renamed test target cannot
//!   linger in the docs as a claim of coverage nothing runs. A command
//!   whose line, or the comment lines right above it, says *tier-1*
//!   must also name only packages and targets of the root manifest's
//!   `default-members`: those are what `cargo test` at the root runs.
//! * `unused-dependency`: every `[dependencies]`/`[dev-dependencies]`
//!   entry of a workspace member must be used by that package's code,
//!   so a stand-in crate nothing calls cannot stay wired in.
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

/// Manifest sections whose entries [`unused_dependencies`] checks.
const DEP_SECTIONS: [&str; 2] = ["[dependencies]", "[dev-dependencies]"];

/// Directories of a package whose `.rs` files may use its dependencies.
const SOURCE_DIRS: [&str; 4] = ["src", "tests", "benches", "examples"];

/// One workspace package, as read from its manifest.
#[derive(Debug, Default)]
struct Package {
    /// The directory holding its `Cargo.toml`.
    dir: PathBuf,
    targets: Targets,
    /// Dependency names with their 1-based manifest line.
    deps: Vec<(usize, String)>,
    /// Whether `cargo test` at the workspace root runs it (a
    /// `default-members` entry).
    tier1: bool,
}

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

/// The name of the dependency an entry line declares
/// (`foo.workspace = true`, `foo = { path = ".." }`, `foo = "1"`).
fn dep_name(line: &str) -> Option<String> {
    let name = line[..line.find(['.', '='])?].trim();
    (!name.is_empty() && !name.starts_with('#')).then(|| name.to_string())
}

/// The package whose manifest is in `dir`, with its name.
fn load_package(dir: &Path) -> Option<(String, Package)> {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
    let (mut name, mut targets, mut explicit) = (None, Targets::new(), BTreeSet::new());
    let mut deps = Vec::new();
    let mut section = "";
    for (idx, line) in manifest.lines().map(str::trim).enumerate() {
        if line.starts_with('[') {
            section = line;
        } else if DEP_SECTIONS.contains(&section) {
            deps.extend(dep_name(line).map(|dep| (idx + 1, dep)));
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
    let dir = dir.to_path_buf();
    let pkg = Package {
        dir,
        targets,
        deps,
        ..Package::default()
    };
    Some((name, pkg))
}

/// The root manifest's `default-members` entries (`"."`, `"crates/*"`);
/// `["."]` when it has none, as `cargo test` then runs the root package.
fn default_members(root: &Path) -> Vec<String> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let Some(at) = manifest
        .lines()
        .position(|l| l.trim_start().starts_with("default-members"))
    else {
        return vec![".".to_string()];
    };
    // The array may span lines: read up to its closing bracket.
    let rest = manifest.lines().skip(at).collect::<Vec<_>>().join("\n");
    let list = &rest[..rest.find(']').unwrap_or(rest.len())];
    list.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Every package of the workspace: the root package and each package
/// under `crates/` and `vendored/` (the root manifest's `members`),
/// each marked with whether a `default-members` entry covers it.
fn workspace(root: &Path) -> BTreeMap<String, Package> {
    let defaults = default_members(root);
    let covered = |dir: &Path| {
        defaults.iter().any(|m| match m.strip_suffix("/*") {
            Some(parent) => dir.parent() == Some(&root.join(parent)),
            None => dir == root.join(m),
        })
    };
    let members = entries(&root.join("crates")).chain(entries(&root.join("vendored")));
    std::iter::once(root.to_path_buf())
        .chain(members)
        .filter_map(|d| load_package(&d))
        .map(|(name, pkg)| {
            let tier1 = covered(&pkg.dir);
            (name, Package { tier1, ..pkg })
        })
        .collect()
}

/// One `cargo run|test|bench` command of a doc.
struct Command {
    /// 1-based line.
    line: usize,
    /// The `-p`, `--manifest-path` and target arguments.
    args: Vec<(&'static str, String)>,
    /// Whether its line, or the comment lines right above it, say
    /// *tier-1*.
    tier1: bool,
}

/// Whether `text` speaks of tier-1.
fn says_tier1(text: &str) -> bool {
    text.to_ascii_lowercase().contains("tier-1")
}

/// Every `cargo run|test|bench` command in `text`. Shell continuations
/// are joined; a command ends at the `--` before the program's own
/// arguments or at a backtick, pipe or comment. Placeholder values
/// (`<crate>`, `$BIN`) are dropped.
fn commands(text: &str) -> Vec<Command> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    // The `#` comment lines directly above the current line.
    let mut comments = String::new();
    while let Some((idx, first)) = lines.next() {
        let mut logical = first.to_string();
        while let Some(body) = logical.trim_end().strip_suffix('\\') {
            logical = body.to_string();
            match lines.next() {
                Some((_, next)) => logical = format!("{logical} {next}"),
                None => break,
            }
        }
        let tier1 = says_tier1(&logical) || says_tier1(&comments);
        if logical.trim_start().starts_with('#') {
            comments.push_str(&logical);
        } else {
            comments.clear();
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
            out.push(Command {
                line: idx + 1,
                args,
                tier1,
            });
        }
    }
    out
}

/// Checks the commands of one file (`rel`, workspace-relative) against
/// the packages of `ws`. A `--manifest-path` command targets another
/// workspace (`perfbench/`): only its manifest has to exist under `root`
/// — and it is never tier-1.
fn check_text(rel: &str, text: &str, ws: &BTreeMap<String, Package>, root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for Command { line, args, tier1 } in commands(text) {
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
            } else if tier1 {
                finding(format!(
                    "`--manifest-path {path}` is claimed as tier-1, which runs \
                     only the root workspace's default-members"
                ));
            }
            continue;
        }
        let named: Vec<&String> = args
            .iter()
            .filter(|(f, _)| *f == "-p")
            .map(|a| &a.1)
            .collect();
        for name in &named {
            match ws.get(*name) {
                None => finding(format!("`-p {name}`: no such workspace package")),
                Some(p) if tier1 && !p.tier1 => finding(format!(
                    "`-p {name}` is claimed as tier-1 but is not a default-member"
                )),
                Some(_) => {}
            }
        }
        let scope: Vec<_> = ws
            .iter()
            .filter(|(n, _)| named.is_empty() || named.contains(n))
            .collect();
        for (flag, target) in args.iter().filter(|(f, _)| f.starts_with("--")) {
            let has = |p: &Package| p.targets.contains(&(*flag, target.clone()));
            if scope.is_empty() {
                continue;
            }
            if !scope.iter().any(|(_, p)| has(p)) {
                let place = match scope.as_slice() {
                    [(name, _)] => format!("package `{name}`"),
                    _ => "the workspace".to_string(),
                };
                finding(format!("`{flag} {target}`: no such target in {place}"));
            } else if tier1 && named.is_empty() && !scope.iter().any(|(_, p)| p.tier1 && has(p)) {
                // A named package was checked above; an unscoped target
                // must live in some default-member.
                finding(format!(
                    "`{flag} {target}` is claimed as tier-1 but no default-member has it"
                ));
            }
        }
    }
    out
}

/// Whether `text` uses the crate `ident` as `ident::` or `use ident`.
fn uses_crate(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        let (before, after) = (&text[..at], &text[at + ident.len()..]);
        !before.ends_with(is_ident)
            && !after.starts_with(is_ident)
            && (after.starts_with("::") || before.ends_with("use "))
    })
}

/// The `unused-dependency` findings of the package `name`, whose
/// manifest is `manifest` (workspace-relative) and whose `.rs` files
/// read `sources`.
fn unused_dependencies(manifest: &str, name: &str, pkg: &Package, sources: &str) -> Vec<Finding> {
    pkg.deps
        .iter()
        .filter(|(_, dep)| !uses_crate(sources, &dep.replace('-', "_")))
        .map(|(line, dep)| Finding {
            file: manifest.to_string(),
            line: *line,
            rule: "unused-dependency",
            message: format!(
                "`{dep}` is declared but no `.rs` file of `{name}` uses it \
                 (`{}::` or `use {0}`); drop the entry",
                dep.replace('-', "_")
            ),
        })
        .collect()
}

/// Runs `unused-dependency` over every workspace member, and
/// `doc-cargo-targets` over [`DOC_FILES`] and `docs/*.md` under `root`.
pub fn check_workspace(root: &Path, out: &mut Vec<Finding>) {
    let ws = workspace(root);
    for (name, pkg) in &ws {
        let mut files = Vec::new();
        for sub in SOURCE_DIRS {
            // An unreadable directory hides uses, which can only add
            // findings, never mask one.
            let _ = crate::lint::collect_rs(&pkg.dir.join(sub), &mut files);
        }
        let sources: Vec<String> = files
            .iter()
            .filter_map(|f| std::fs::read_to_string(f).ok())
            .collect();
        let dir = pkg.dir.strip_prefix(root).unwrap_or(&pkg.dir);
        let manifest = dir.join("Cargo.toml").to_string_lossy().replace('\\', "/");
        out.extend(unused_dependencies(
            &manifest,
            name,
            pkg,
            &sources.join("\n"),
        ));
    }
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
        let package = |ts: [(&'static str, &str); 2]| Package {
            targets: ts.map(|(f, t)| (f, t.to_string())).into(),
            ..Package::default()
        };
        let ws = BTreeMap::from([
            (
                "mobicore-experiments".to_string(),
                package([("--test", "engine_equivalence"), ("--bin", "all")]),
            ),
            (
                "mobicore-repro".to_string(),
                package([("--test", "ablations"), ("--example", "quickstart")]),
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
    fn tier1_claims_must_name_default_member_targets() {
        let package = |tier1, target: &str| Package {
            targets: [("--test", target.to_string())].into(),
            tier1,
            ..Package::default()
        };
        let ws = BTreeMap::from([
            ("mobicore-serve".to_string(), package(true, "fleet")),
            ("proptest".to_string(), package(false, "shrink")),
        ]);
        let doc = "cargo test -p mobicore-serve --test fleet   # tier-1\n\
                   cargo test -p proptest --test shrink   # Tier-1 covers this\n\
                   cargo test --test shrink   # also in tier-1\n\
                   # Also inside tier-1; release keeps it fast.\n\
                   - run: cargo test --release -p proptest --test shrink\n\
                   cargo test -p proptest --test shrink\n\
                   # The tier-1 budget\n\
                   \n\
                   cargo test --test shrink\n\
                   cargo test --manifest-path Cargo.toml   # tier-1\n";
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let found: Vec<String> = check_text("ci.yml", doc, &ws, root)
            .into_iter()
            .map(|f| format!("{}: {}", f.line, f.message))
            .collect();
        assert_eq!(
            found,
            [
                "2: `-p proptest` is claimed as tier-1 but is not a default-member",
                "3: `--test shrink` is claimed as tier-1 but no default-member has it",
                "5: `-p proptest` is claimed as tier-1 but is not a default-member",
                "10: `--manifest-path Cargo.toml` is claimed as tier-1, which runs only \
                 the root workspace's default-members",
            ]
        );
    }

    #[test]
    fn manifests_are_read_like_cargo_does() {
        let ws = workspace(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
        let has = |pkg: &str, flag: &'static str, name: &str| {
            ws[pkg].targets.contains(&(flag, name.into()))
        };
        // An explicit [[bin]] renames its file: the stem is no target.
        assert!(has("mobicore-experiments", "--bin", "mobicore-fleetsim"));
        assert!(!has("mobicore-experiments", "--bin", "fleetsim"));
        assert!(has("mobicore-experiments", "--bin", "fig10"));
        assert!(has("mobicore-experiments", "--test", "engine_equivalence"));
        assert!(has("mobicore-checker", "--bin", "checker"));
        assert!(!has("mobicore-checker", "--bin", "mobicore-checker"));
        assert!(has("mobicore-repro", "--example", "quickstart"));
        // `default-members = [".", "crates/*"]`: vendored/ is outside.
        assert!(ws["mobicore-repro"].tier1 && ws["mobicore-serve"].tier1);
        assert!(!ws["proptest"].tier1 && !ws["rand"].tier1);
        // Dependency entries keep their manifest line, in both sections.
        let deps = |pkg: &str| {
            ws[pkg]
                .deps
                .iter()
                .map(|d| d.1.as_str())
                .collect::<Vec<_>>()
        };
        assert!(deps("mobicore-workloads").contains(&"rand"));
        assert!(deps("mobicore-repro").contains(&"mobicore-analyze"));
        assert!(!deps("mobicore-repro").contains(&"rand"));
    }

    #[test]
    fn unused_dependency_is_flagged_and_used_ones_are_not() {
        let deps = [
            "mobicore-model.workspace = true",
            "proptest.workspace = true",
            "rand = { path = \"vendored/rand\" }",
            "# rand.workspace = true",
            "mobicore.workspace = true",
        ];
        let pkg = Package {
            deps: deps
                .iter()
                .enumerate()
                .filter_map(|(i, l)| Some((i + 1, dep_name(l)?)))
                .collect(),
            ..Package::default()
        };
        let sources = "use mobicore_model::Khz;\n\
                       use proptest::prelude::*;\n\
                       use mobicore;\n\
                       let x = operand::rand_seed(); // grand::x, rand_core::y\n";
        let found: Vec<String> =
            unused_dependencies("crates/demo/Cargo.toml", "demo", &pkg, sources)
                .into_iter()
                .map(|f| format!("{}:{}: [{}]", f.file, f.line, f.rule))
                .collect();
        assert_eq!(found, ["crates/demo/Cargo.toml:3: [unused-dependency]"]);
    }
}
