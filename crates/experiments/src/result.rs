//! Structured experiment output.

use std::fmt;

/// One paper-vs-measured comparison line.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is being compared.
    pub what: String,
    /// What the paper reports.
    pub paper: String,
    /// What this reproduction measures.
    pub measured: String,
    /// Whether the *shape* holds (direction / ordering / band — never an
    /// exact-number match; our substrate is a simulator, not the authors'
    /// testbed).
    pub pass: bool,
}

impl Check {
    /// Builds a check.
    pub fn new(
        what: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        pass: bool,
    ) -> Self {
        Check {
            what: what.into(),
            paper: paper.into(),
            measured: measured.into(),
            pass,
        }
    }
}

/// The result of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment id (`fig03`, `table2`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The regenerated rows/series, one printable line each (also valid
    /// CSV where tabular).
    pub lines: Vec<String>,
    /// Shape checks against the paper.
    pub checks: Vec<Check>,
}

impl ExperimentResult {
    /// An empty result.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            lines: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Appends a data line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Appends a check.
    pub fn check(
        &mut self,
        what: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        pass: bool,
    ) {
        self.checks.push(Check::new(what, paper, measured, pass));
    }

    /// Whether every shape check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Renders the result as a Markdown section (data as a fenced CSV
    /// block, checks as a table).
    pub fn to_markdown(&self) -> String {
        let mut md = format!("## {} — {}\n\n", self.id, self.title);
        if !self.lines.is_empty() {
            md.push_str("```csv\n");
            for l in &self.lines {
                md.push_str(l);
                md.push('\n');
            }
            md.push_str("```\n\n");
        }
        if !self.checks.is_empty() {
            md.push_str("| check | paper | measured | |\n|---|---|---|---|\n");
            for c in &self.checks {
                md.push_str(&format!(
                    "| {} | {} | {} | {} |\n",
                    c.what,
                    c.paper,
                    c.measured,
                    if c.pass { "✓" } else { "**diverges**" }
                ));
            }
            md.push('\n');
        }
        md
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        for l in &self.lines {
            writeln!(f, "{l}")?;
        }
        if !self.checks.is_empty() {
            writeln!(f, "-- shape checks --")?;
            for c in &self.checks {
                writeln!(
                    f,
                    "[{}] {}: paper={} measured={}",
                    if c.pass { "ok" } else { "DIVERGES" },
                    c.what,
                    c.paper,
                    c.measured
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_everything() {
        let mut r = ExperimentResult::new("figX", "test figure");
        r.line("a,b,c");
        r.check("direction", "up", "up", true);
        r.check("band", "15-20", "25", false);
        let s = r.to_string();
        assert!(s.contains("figX"));
        assert!(s.contains("a,b,c"));
        assert!(s.contains("[ok] direction"));
        assert!(s.contains("[DIVERGES] band"));
        assert!(!r.all_pass());
    }

    #[test]
    fn markdown_rendering() {
        let mut r = ExperimentResult::new("figX", "test figure");
        r.line("a,b");
        r.check("dir", "up", "up", true);
        r.check("band", "1-2", "9", false);
        let md = r.to_markdown();
        assert!(md.contains("## figX — test figure"));
        assert!(md.contains("```csv\na,b\n```"));
        assert!(md.contains("| dir | up | up | ✓ |"));
        assert!(md.contains("**diverges**"));
    }

    #[test]
    fn all_pass_with_no_checks() {
        let r = ExperimentResult::new("x", "y");
        assert!(r.all_pass());
    }
}
