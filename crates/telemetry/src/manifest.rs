//! Run manifests: the one-file JSON record of a run.
//!
//! A manifest captures what was run (policy, profile, seed, config tags),
//! in which tree (`git describe`), for how long, and what came out
//! (metric rollups and event totals). Two manifests from different seeds
//! or branches can then be diffed offline with `mobicore-inspect diff`
//! without re-running anything — the same workflow the thesis uses when
//! comparing recorded governor traces.
//!
//! All maps are `BTreeMap`s and the writer keeps key order, so the same
//! run always serializes to the same bytes (what the golden schema test
//! pins down). The `git`, `created_unix_ms` and `wall_ms` fields are the
//! only non-deterministic ones and are all optional.

use crate::json::{Json, JsonError};
use std::collections::BTreeMap;

/// Manifest schema version; bump on breaking wire changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The JSON record of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// What produced this: `simulation`, `experiment` or `bench`.
    pub kind: String,
    /// Free-form run name (experiment id, bench id, ...).
    pub name: String,
    /// Policy under test (`mobicore`, `ondemand`, ...).
    pub policy: String,
    /// Workload profile driving the run.
    pub profile: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Simulated duration, µs.
    pub duration_us: u64,
    /// `git describe --always --dirty` of the producing tree, when known.
    pub git: Option<String>,
    /// Wall-clock creation time, ms since the Unix epoch, when known.
    pub created_unix_ms: Option<u64>,
    /// Wall-clock cost of the run, ms, when measured.
    pub wall_ms: Option<f64>,
    /// Free-form string tags (config knobs worth recording).
    pub tags: BTreeMap<String, String>,
    /// Scalar metric rollups (counters, gauges, histogram summaries).
    pub metrics: BTreeMap<String, f64>,
    /// Event totals per kind wire name.
    pub event_counts: BTreeMap<String, u64>,
}

impl RunManifest {
    /// Serializes the manifest as a JSON document.
    pub fn to_json(&self) -> Json {
        let map_str = |m: &BTreeMap<String, String>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            )
        };
        let map_f64 = |m: &BTreeMap<String, f64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
        };
        let map_u64 = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Int(*v))).collect())
        };
        let opt_str = |v: &Option<String>| match v {
            Some(s) => Json::Str(s.clone()),
            None => Json::Null,
        };
        let opt_u64 = |v: &Option<u64>| match v {
            Some(n) => Json::Int(*n),
            None => Json::Null,
        };
        Json::obj()
            .with("schema_version", Json::Int(SCHEMA_VERSION))
            .with("kind", Json::Str(self.kind.clone()))
            .with("name", Json::Str(self.name.clone()))
            .with("policy", Json::Str(self.policy.clone()))
            .with("profile", Json::Str(self.profile.clone()))
            .with("seed", Json::Int(self.seed))
            .with("duration_us", Json::Int(self.duration_us))
            .with("git", opt_str(&self.git))
            .with("created_unix_ms", opt_u64(&self.created_unix_ms))
            .with(
                "wall_ms",
                match self.wall_ms {
                    Some(v) => Json::Num(v),
                    None => Json::Null,
                },
            )
            .with("tags", map_str(&self.tags))
            .with("metrics", map_f64(&self.metrics))
            .with("event_counts", map_u64(&self.event_counts))
    }

    /// Pretty-printed JSON text (what gets written to disk).
    pub fn to_json_text(&self) -> String {
        let mut s = self.to_json().to_pretty();
        s.push('\n');
        s
    }

    /// Parses a manifest document.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON, a missing/mistyped required
    /// member, or an unsupported `schema_version`.
    pub fn from_json_text(text: &str) -> Result<RunManifest, JsonError> {
        let doc = Json::parse(text)?;
        let field_err = |what: &str| JsonError {
            offset: 0,
            message: format!("manifest is missing or mistypes `{what}`"),
        };
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| field_err("schema_version"))?;
        if version != SCHEMA_VERSION {
            return Err(JsonError {
                offset: 0,
                message: format!(
                    "unsupported manifest schema_version {version} (this tool reads {SCHEMA_VERSION})"
                ),
            });
        }
        let s = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| field_err(k))
        };
        let u = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| field_err(k))
        };
        let opt_s = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_string);
        let opt_u = |k: &str| doc.get(k).and_then(Json::as_u64);
        let obj = |k: &str| {
            doc.get(k)
                .and_then(Json::as_obj)
                .ok_or_else(|| field_err(k))
        };

        let mut tags = BTreeMap::new();
        for (k, v) in obj("tags")? {
            tags.insert(
                k.clone(),
                v.as_str().ok_or_else(|| field_err("tags"))?.to_string(),
            );
        }
        let mut metrics = BTreeMap::new();
        for (k, v) in obj("metrics")? {
            metrics.insert(k.clone(), v.as_f64().ok_or_else(|| field_err("metrics"))?);
        }
        let mut event_counts = BTreeMap::new();
        for (k, v) in obj("event_counts")? {
            event_counts.insert(
                k.clone(),
                v.as_u64().ok_or_else(|| field_err("event_counts"))?,
            );
        }
        Ok(RunManifest {
            kind: s("kind")?,
            name: s("name")?,
            policy: s("policy")?,
            profile: s("profile")?,
            seed: u("seed")?,
            duration_us: u("duration_us")?,
            git: opt_s("git"),
            created_unix_ms: opt_u("created_unix_ms"),
            wall_ms: doc.get("wall_ms").and_then(Json::as_f64),
            tags,
            metrics,
            event_counts,
        })
    }

    /// Human-readable single-run summary (the `inspect summary` body).
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, k: &str, v: &str| {
            out.push_str(&format!("{k:<16} {v}\n"));
        };
        push(&mut out, "kind", &self.kind);
        push(&mut out, "name", &self.name);
        push(&mut out, "policy", &self.policy);
        push(&mut out, "profile", &self.profile);
        push(&mut out, "seed", &self.seed.to_string());
        push(
            &mut out,
            "duration",
            &format!("{:.3} s simulated", self.duration_us as f64 / 1e6),
        );
        if let Some(git) = &self.git {
            push(&mut out, "git", git);
        }
        if let Some(wall) = self.wall_ms {
            push(&mut out, "wall", &format!("{wall:.1} ms"));
        }
        for (k, v) in &self.tags {
            push(&mut out, &format!("tag:{k}"), v);
        }
        if !self.event_counts.is_empty() {
            out.push_str("\nevents\n");
            for (k, v) in &self.event_counts {
                out.push_str(&format!("  {k:<22} {v}\n"));
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("\nmetrics\n");
            for (k, v) in &self.metrics {
                out.push_str(&format!("  {k:<34} {}\n", fmt_value(*v)));
            }
        }
        out
    }

    /// Compares two manifests metric-by-metric.
    pub fn diff(&self, other: &RunManifest) -> ManifestDiff {
        let mut rows = Vec::new();
        let mut only_a = Vec::new();
        let mut only_b = Vec::new();
        for (name, &a) in &self.metrics {
            match other.metrics.get(name) {
                Some(&b) => rows.push(DiffRow {
                    name: name.clone(),
                    a,
                    b,
                    delta: b - a,
                    pct: if a == 0.0 {
                        None
                    } else {
                        Some((b - a) / a * 100.0)
                    },
                }),
                None => only_a.push(name.clone()),
            }
        }
        for name in other.metrics.keys() {
            if !self.metrics.contains_key(name) {
                only_b.push(name.clone());
            }
        }
        // Event-count deltas ride along as metric-style rows.
        for (name, &a) in &self.event_counts {
            let b = other.event_counts.get(name).copied().unwrap_or(0);
            #[allow(clippy::cast_precision_loss)]
            let (a, b) = (a as f64, b as f64);
            rows.push(DiffRow {
                name: format!("events.{name}"),
                a,
                b,
                delta: b - a,
                pct: if a == 0.0 {
                    None
                } else {
                    Some((b - a) / a * 100.0)
                },
            });
        }
        for (name, &b) in &other.event_counts {
            if !self.event_counts.contains_key(name) {
                #[allow(clippy::cast_precision_loss)]
                rows.push(DiffRow {
                    name: format!("events.{name}"),
                    a: 0.0,
                    b: b as f64,
                    delta: b as f64,
                    pct: None,
                });
            }
        }
        ManifestDiff {
            rows,
            only_a,
            only_b,
        }
    }
}

/// One metric compared across two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric name (`events.<kind>` rows carry event-count deltas).
    pub name: String,
    /// Value in the first manifest.
    pub a: f64,
    /// Value in the second manifest.
    pub b: f64,
    /// `b - a`.
    pub delta: f64,
    /// Percent change relative to `a`; `None` when `a` is zero.
    pub pct: Option<f64>,
}

/// The result of [`RunManifest::diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestDiff {
    /// Metrics present in both manifests (plus event-count rows).
    pub rows: Vec<DiffRow>,
    /// Metric names only the first manifest has.
    pub only_a: Vec<String>,
    /// Metric names only the second manifest has.
    pub only_b: Vec<String>,
}

impl ManifestDiff {
    /// Rows whose values differ (exact float inequality — manifests are
    /// deterministic, so equal runs produce bitwise-equal rollups).
    pub fn changed(&self) -> impl Iterator<Item = &DiffRow> {
        #[allow(clippy::float_cmp)] // bitwise equality is the contract here
        self.rows.iter().filter(|r| r.a != r.b)
    }

    /// Human-readable diff table (the `inspect diff` body).
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        let changed: Vec<&DiffRow> = self.changed().collect();
        if changed.is_empty() && self.only_a.is_empty() && self.only_b.is_empty() {
            out.push_str("no metric differences\n");
            return out;
        }
        if !changed.is_empty() {
            out.push_str(&format!(
                "{:<38} {:>14} {:>14} {:>12} {:>9}\n",
                "metric", "a", "b", "delta", "pct"
            ));
            for r in changed {
                let pct = match r.pct {
                    Some(p) => format!("{p:+.1}%"),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "{:<38} {:>14} {:>14} {:>12} {:>9}\n",
                    r.name,
                    fmt_value(r.a),
                    fmt_value(r.b),
                    fmt_value(r.delta),
                    pct
                ));
            }
        }
        for name in &self.only_a {
            out.push_str(&format!("only in a: {name}\n"));
        }
        for name in &self.only_b {
            out.push_str(&format!("only in b: {name}\n"));
        }
        out
    }
}

/// Formats a metric value compactly: integers plain, fractions to 4
/// significant decimals.
pub(crate) fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        #[allow(clippy::cast_possible_truncation)]
        {
            format!("{}", v as i64)
        }
    } else {
        format!("{v:.4}")
    }
}

/// `git describe --always --dirty` of `dir`, when git and a repo are
/// present; `None` otherwise (never an error — manifests must be
/// writable from detached build environments).
pub fn git_describe(dir: &std::path::Path) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            kind: "simulation".into(),
            name: "quick-check".into(),
            policy: "mobicore".into(),
            profile: "mixed".into(),
            seed: 20_170_315,
            duration_us: 20_000_000,
            git: Some("2de9a30".into()),
            created_unix_ms: None,
            wall_ms: Some(12.5),
            tags: BTreeMap::from([("cores".to_string(), "4".to_string())]),
            metrics: BTreeMap::from([
                ("avg_power_mw".to_string(), 812.25),
                ("energy_mj".to_string(), 16_245.0),
            ]),
            event_counts: BTreeMap::from([
                ("freq-change".to_string(), 311),
                ("core-offline".to_string(), 7),
            ]),
        }
    }

    #[test]
    fn json_round_trip() {
        // Every u64 field stays exact past 2^53, up to u64::MAX.
        for n in [None, Some((1u64 << 53) + 1), Some(u64::MAX)] {
            let mut m = sample();
            if let Some(n) = n {
                m.seed = n;
                m.duration_us = n;
                m.created_unix_ms = Some(n);
                m.event_counts.insert("freq-change".into(), n);
            }
            let text = m.to_json_text();
            let back = RunManifest::from_json_text(&text).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn optional_fields_round_trip_as_null() {
        let m = RunManifest {
            git: None,
            wall_ms: None,
            ..sample()
        };
        let text = m.to_json_text();
        assert!(text.contains("\"git\": null"), "{text}");
        assert_eq!(RunManifest::from_json_text(&text).unwrap(), m);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_json_text(), sample().to_json_text());
    }

    #[test]
    fn version_and_field_errors() {
        let bumped = sample()
            .to_json_text()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = RunManifest::from_json_text(&bumped).unwrap_err();
        assert!(err.message.contains("schema_version 99"), "{err}");
        let err = RunManifest::from_json_text("{}").unwrap_err();
        assert!(err.message.contains("schema_version"), "{err}");
        assert!(RunManifest::from_json_text("not json").is_err());
    }

    #[test]
    fn diff_reports_deltas_and_exclusives() {
        let a = sample();
        let mut b = sample();
        b.metrics.insert("avg_power_mw".into(), 700.25);
        b.metrics.remove("energy_mj");
        b.metrics.insert("avg_temp_c".into(), 33.0);
        b.event_counts.insert("freq-change".into(), 290);
        let d = a.diff(&b);
        let power = d.rows.iter().find(|r| r.name == "avg_power_mw").unwrap();
        assert!((power.delta + 112.0).abs() < 1e-9);
        assert!(power.pct.unwrap() < 0.0);
        let fc = d
            .rows
            .iter()
            .find(|r| r.name == "events.freq-change")
            .unwrap();
        assert_eq!(fc.delta, -21.0);
        assert_eq!(d.only_a, vec!["energy_mj".to_string()]);
        assert_eq!(d.only_b, vec!["avg_temp_c".to_string()]);
        let text = d.summary_text();
        assert!(text.contains("avg_power_mw"), "{text}");
        assert!(text.contains("only in a: energy_mj"), "{text}");
        // Identical manifests: clean report.
        assert_eq!(a.diff(&a.clone()).changed().count(), 0);
        assert!(a
            .diff(&a.clone())
            .summary_text()
            .contains("no metric differences"));
    }

    #[test]
    fn summary_text_mentions_key_facts() {
        let text = sample().summary_text();
        for needle in [
            "mobicore",
            "mixed",
            "20170315",
            "freq-change",
            "avg_power_mw",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn git_describe_of_this_repo_or_none() {
        // Must never panic; in this repo it should normally resolve.
        let _ = git_describe(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
        assert_eq!(
            git_describe(std::path::Path::new("/nonexistent-dir-xyz")),
            None
        );
    }
}
