//! R18 — diff-aware incremental scanning and SARIF export.
//!
//! `genio-analyzer --diff <git-ref>` answers the review-time question
//! *"which findings did this change introduce?"* without a second
//! checkout: the current tree is scanned normally (warm cache applies),
//! the changed files' base-revision contents are recovered with
//! `git show <ref>:<path>`, and [`crate::workspace::rescan_with_base`]
//! rebases the live scan's snapshot in memory over the spliced base
//! tree. The introduced set is the ratchet diff
//! ([`crate::baseline::diff`]) of current against base — the same
//! line-free `(rule, file, function, detail)` multiset semantics the
//! baseline gate uses, so a pure line shift is never "introduced" and
//! an empty git diff yields an empty finding diff by construction.
//!
//! The cost model: the live scan misses the cache only on the changed
//! files, and the base scan re-lexes only those files and reuses every
//! other file's facts from the live scan's snapshot (no file I/O,
//! hashing or cache traffic), so a one-file change costs one
//! incremental scan with one cache miss plus one in-memory rebase
//! instead of two full scans. [`crate::workspace::scan_with_base`]
//! remains the from-disk reference implementation the differential
//! test pins the rebase against.
//!
//! [`to_sarif`] renders any [`Report`] as a minimal SARIF 2.1.0
//! document (tagged `genio-analyzer-sarif/v1` in the run properties)
//! for consumption by code-review UIs; `--sarif <file>` writes it and
//! the verify gate re-parses it with the testkit JSON parser.

use std::io;
use std::path::Path;
use std::process::Command;

use genio_testkit::json::Value;

use crate::baseline::{self, Report};
use crate::rules::{Finding, Rule};
use crate::workspace::{rescan_with_base, scan_snapshot, ScanOptions, ScanStats};

/// Diff-scan document schema tag.
pub const DIFF_SCHEMA: &str = "genio-analyzer-diff/v1";

/// SARIF export tag (recorded in the run's property bag).
pub const SARIF_SCHEMA: &str = "genio-analyzer-sarif/v1";

/// Outcome of a `--diff` scan.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The git ref the scan compared against (as given by the user).
    pub base_ref: String,
    /// Repo-relative scanned `.rs` files that differ from the base.
    pub changed_files: Vec<String>,
    /// Findings present now but not at the base (line-free multiset
    /// semantics).
    pub findings: Vec<Finding>,
    /// Stats of the current-tree scan (the base scan never writes the
    /// cache, so its traffic is not interesting).
    pub stats: ScanStats,
}

/// Is `rel` a path the workspace scanner would visit?
fn is_scanned_path(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().is_some() && parts.next() == Some("src"),
        Some("src") => true,
        _ => false,
    }
}

fn run_git(root: &Path, args: &[&str]) -> io::Result<Option<Vec<u8>>> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()?;
    Ok(out.status.success().then_some(out.stdout))
}

/// The scanned files changed since `git_ref`, each with its content at
/// the base (`None` when the file did not exist there).
pub fn git_changed_files(
    root: &Path,
    git_ref: &str,
) -> io::Result<Vec<(String, Option<String>)>> {
    let listing = run_git(root, &["diff", "--name-only", git_ref])?
        .ok_or_else(|| io::Error::other(format!("git diff against {git_ref:?} failed")))?;
    let mut changed = Vec::new();
    for rel in String::from_utf8_lossy(&listing).lines() {
        let rel = rel.trim();
        if !is_scanned_path(rel) {
            continue;
        }
        let base = run_git(root, &["show", &format!("{git_ref}:{rel}")])?
            .map(|bytes| String::from_utf8_lossy(&bytes).into_owned());
        changed.push((rel.to_string(), base));
    }
    changed.sort();
    Ok(changed)
}

/// Scans the current tree and the spliced base tree, returning only the
/// findings the change introduced. `changed` is the output of
/// [`git_changed_files`] (separated so tests can splice without git).
pub fn diff_scan(
    root: &Path,
    opts: &ScanOptions,
    base_ref: &str,
    changed: &[(String, Option<String>)],
) -> io::Result<DiffReport> {
    let (current, stats, snapshot) = scan_snapshot(root, opts)?;
    let findings = if changed.is_empty() {
        // No textual change ⇒ no finding change; skip the base scan.
        Vec::new()
    } else {
        // Rebase the snapshot in memory: only the changed files are
        // re-lexed, the rest reuse the facts the live scan just built.
        let base = rescan_with_base(&snapshot, opts, changed);
        baseline::diff(&current.findings, &base.findings).new
    };
    Ok(DiffReport {
        base_ref: base_ref.to_string(),
        changed_files: changed.iter().map(|(rel, _)| rel.clone()).collect(),
        findings,
        stats,
    })
}

impl DiffReport {
    /// Serializes to the `genio-analyzer-diff/v1` JSON document.
    pub fn to_json(&self) -> Value {
        let findings = self.findings.iter().map(baseline::finding_to_json).collect();
        let changed = self.changed_files.iter().cloned().map(Value::Str).collect();
        obj([
            ("schema", Value::Str(DIFF_SCHEMA.to_string())),
            ("base_ref", Value::Str(self.base_ref.clone())),
            ("changed_files", Value::Arr(changed)),
            ("findings", Value::Arr(findings)),
        ])
    }
}

/// A JSON object with `fields` in order.
fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Renders a report as a minimal SARIF 2.1.0 document. Rule metadata
/// comes from the live catalog; every finding becomes a `result` with a
/// physical location.
pub fn to_sarif(report: &Report) -> Value {
    let string = |s: &str| Value::Str(s.to_string());
    let text = |s: &str| obj([("text", string(s))]);
    let rules = Rule::ALL
        .iter()
        .map(|r| obj([("id", string(r.id())), ("shortDescription", text(r.title()))]))
        .collect();
    let results = report
        .findings
        .iter()
        .map(|f| {
            let location = obj([
                ("artifactLocation", obj([("uri", string(&f.file))])),
                ("region", obj([("startLine", Value::Num(f.line as f64))])),
            ]);
            obj([
                ("ruleId", string(f.rule.id())),
                ("level", string("warning")),
                ("message", text(&format!("{} (in `{}`)", f.detail, f.function))),
                ("locations", Value::Arr(vec![obj([("physicalLocation", location)])])),
            ])
        })
        .collect();
    let driver = obj([("name", string("genio-analyzer")), ("rules", Value::Arr(rules))]);
    let run = obj([
        ("tool", obj([("driver", driver)])),
        ("properties", obj([("exportSchema", string(SARIF_SCHEMA))])),
        ("results", Value::Arr(results)),
    ]);
    obj([
        ("$schema", string("https://json.schemastore.org/sarif-2.1.0.json")),
        ("version", string("2.1.0")),
        ("runs", Value::Arr(vec![run])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanned_path_filter_matches_workspace_layout() {
        assert!(is_scanned_path("crates/crypto/src/aes.rs"));
        assert!(is_scanned_path("crates/pon/src/engine/shard.rs"));
        assert!(is_scanned_path("src/lib.rs"));
        assert!(!is_scanned_path("crates/crypto/tests/kat.rs"));
        assert!(!is_scanned_path("crates/crypto/src/aes.md"));
        assert!(!is_scanned_path("scripts/verify.sh"));
        assert!(!is_scanned_path("crates/Cargo.toml"));
    }

    #[test]
    fn sarif_document_shape_survives_the_testkit_parser() {
        let report = Report {
            files: 1,
            lines: 10,
            suppressed: 0,
            allowed: 0,
            findings: vec![Finding {
                rule: Rule::R16PanicReachable,
                file: "crates/crypto/src/aes.rs".to_string(),
                line: 7,
                function: "stage".to_string(),
                detail: "call to .unwrap() reachable from hot entry `seal_many`"
                    .to_string(),
                confirmed: Some(true),
            }],
        };
        let text = to_sarif(&report).to_string();
        let v = genio_testkit::json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("version").and_then(Value::as_str), Some("2.1.0"));
        let runs = v.get("runs").and_then(Value::as_arr).unwrap();
        let run = &runs[0];
        assert_eq!(
            run.get("properties")
                .and_then(|p| p.get("exportSchema"))
                .and_then(Value::as_str),
            Some(SARIF_SCHEMA)
        );
        let results = run.get("results").and_then(Value::as_arr).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].get("ruleId").and_then(Value::as_str),
            Some("R16")
        );
        let loc = results[0].get("locations").and_then(Value::as_arr).unwrap()[0]
            .get("physicalLocation")
            .unwrap();
        assert_eq!(
            loc.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Value::as_str),
            Some("crates/crypto/src/aes.rs")
        );
        assert_eq!(
            loc.get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Value::as_f64),
            Some(7.0)
        );
        // Every catalog rule is declared to the driver.
        let rules = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(rules.len(), Rule::ALL.len());
    }

    #[test]
    fn diff_report_json_has_the_v1_shape() {
        let d = DiffReport {
            base_ref: "HEAD~1".to_string(),
            changed_files: vec!["crates/pon/src/security.rs".to_string()],
            findings: vec![Finding {
                rule: Rule::R1PanicPath,
                file: "crates/pon/src/security.rs".to_string(),
                line: 3,
                function: "f".to_string(),
                detail: "call to .unwrap()".to_string(),
                confirmed: None,
            }],
            stats: ScanStats::default(),
        };
        let v = genio_testkit::json::parse(&d.to_json().to_string()).unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(DIFF_SCHEMA));
        assert_eq!(
            v.get("base_ref").and_then(Value::as_str),
            Some("HEAD~1")
        );
        assert_eq!(
            v.get("changed_files").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(
            v.get("findings").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
    }

    #[test]
    fn empty_change_set_skips_the_base_scan_and_reports_nothing() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate::workspace::find_root(here).expect("workspace root");
        let opts = ScanOptions { threads: 1, ..ScanOptions::default() };
        let d = diff_scan(&root, &opts, "HEAD", &[]).expect("diff scan");
        assert!(d.findings.is_empty());
        assert!(d.changed_files.is_empty());
    }

    #[test]
    fn spliced_base_recovers_a_removed_finding_as_introduced() {
        // Pretend `security.rs` at the base had no unwrap and the
        // current tree added one: splice the *current* file's content
        // minus nothing (identity) first to prove identity ⇒ empty...
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate::workspace::find_root(here).expect("workspace root");
        let rel = "crates/analyzer/src/diff.rs".to_string();
        let current = std::fs::read_to_string(root.join(&rel)).unwrap();
        let opts = ScanOptions { threads: 1, ..ScanOptions::default() };
        let d = diff_scan(&root, &opts, "test-base", &[(rel.clone(), Some(current))])
            .expect("identity diff scan");
        assert!(d.findings.is_empty(), "identity splice introduced {:?}", d.findings);

        // ...then splice in a base that *lacks* a file, so every one of
        // the file's current findings counts as introduced. An easy
        // generator: a tiny base file with no findings at all.
        let clean_base = "pub fn placeholder() {}\n".to_string();
        let with_panics = "crates/analyzer/src/lexer.rs".to_string();
        let d2 = diff_scan(
            &root,
            &opts,
            "test-base",
            &[(with_panics.clone(), Some(clean_base))],
        )
        .expect("base-substitution diff scan");
        // All introduced findings (if any) must point at the changed
        // file — untouched files can never appear in the diff.
        assert!(d2.findings.iter().all(|f| f.file == with_panics));
    }
}
