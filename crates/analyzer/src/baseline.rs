//! `genio-analyzer/v1` report serialization and the ratchet baseline.
//!
//! A scan produces a [`Report`]; the repository commits one as
//! `analyzer-baseline.json`. The ratchet contract:
//!
//! * findings present in the baseline are **grandfathered** — known debt,
//!   tracked but not failing;
//! * any finding *not* covered by the baseline is **new** and fails the
//!   verify gate;
//! * findings in the baseline that no longer occur are **fixed**; the
//!   baseline is rewritten (`--write-baseline`) so the count only ever
//!   shrinks.
//!
//! Findings are keyed by `(rule, file, function, detail)` — deliberately
//! **not** by line — so unrelated edits that shift code do not churn the
//! ratchet, and the diff is independent of scan order (a property test
//! in `tests/ratchet.rs` pins both).

use std::collections::BTreeMap;

use genio_testkit::json::{parse, Value};

use crate::rules::{Finding, Rule};

/// Schema tag emitted and required on load.
pub const SCHEMA: &str = "genio-analyzer/v1";

/// One full scan result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Files scanned.
    pub files: u64,
    /// Source lines scanned.
    pub lines: u64,
    /// R4/R5 findings discharged by the interprocedural pass (count
    /// only — the sites are intentionally not baselined).
    pub suppressed: u64,
    /// Findings silenced by a line-scoped `allow(..., reason = "...")`
    /// comment (count only — suppressions are visible in the source).
    pub allowed: u64,
    /// All findings, sorted by [`sort_findings`] order.
    pub findings: Vec<Finding>,
}

/// Line-free identity of a finding for ratchet purposes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Rule id.
    pub rule: Rule,
    /// Repo-relative file.
    pub file: String,
    /// Enclosing function.
    pub function: String,
    /// Stable detail string.
    pub detail: String,
}

impl Key {
    /// The key of a finding.
    pub fn of(f: &Finding) -> Key {
        Key {
            rule: f.rule,
            file: f.file.clone(),
            function: f.function.clone(),
            detail: f.detail.clone(),
        }
    }
}

/// Canonical report order: rule, then file, then line, then detail.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.detail).cmp(&(b.rule, &b.file, b.line, &b.detail))
    });
}

/// Multiset of finding keys.
fn key_counts(findings: &[Finding]) -> BTreeMap<Key, usize> {
    let mut counts = BTreeMap::new();
    for f in findings {
        *counts.entry(Key::of(f)).or_insert(0) += 1;
    }
    counts
}

/// Outcome of diffing a scan against the baseline.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Findings not covered by the baseline — these fail the gate. When a
    /// key's count grew, the excess findings are listed.
    pub new: Vec<Finding>,
    /// Baseline keys no longer found (count shrank), with how many went.
    pub fixed: Vec<(Key, usize)>,
}

impl Diff {
    /// Does the ratchet pass (no new findings)?
    pub fn passes(&self) -> bool {
        self.new.is_empty()
    }
}

/// Diffs `current` findings against `baseline` findings as multisets of
/// line-free keys. Order-independent: permuting either input does not
/// change the outcome (up to the canonical sort of the output).
pub fn diff(current: &[Finding], baseline: &[Finding]) -> Diff {
    let base = key_counts(baseline);
    let cur = key_counts(current);

    let mut new = Vec::new();
    for (key, &n) in &cur {
        let allowed = base.get(key).copied().unwrap_or(0);
        if n > allowed {
            // List the excess occurrences (last by line order, so the
            // report points at real locations).
            let mut at: Vec<&Finding> =
                current.iter().filter(|f| Key::of(f) == *key).collect();
            at.sort_by_key(|f| f.line);
            new.extend(at.into_iter().skip(allowed).cloned());
        }
    }
    sort_findings(&mut new);

    let mut fixed = Vec::new();
    for (key, &n) in &base {
        let now = cur.get(key).copied().unwrap_or(0);
        if now < n {
            fixed.push((key.clone(), n - now));
        }
    }
    Diff { new, fixed }
}

/// One finding as the JSON object shared by the `genio-analyzer/v1`
/// report and the `genio-analyzer-diff/v1` document.
pub fn finding_to_json(f: &Finding) -> Value {
    let mut fields = vec![
        ("rule".to_string(), Value::Str(f.rule.id().to_string())),
        ("file".to_string(), Value::Str(f.file.clone())),
        ("line".to_string(), Value::Num(f.line as f64)),
        ("function".to_string(), Value::Str(f.function.clone())),
        ("detail".to_string(), Value::Str(f.detail.clone())),
    ];
    if let Some(c) = f.confirmed {
        fields.push(("confirmed".to_string(), Value::Bool(c)));
    }
    Value::Obj(fields)
}

impl Report {
    /// Per-rule finding counts, in [`Rule::ALL`] order.
    pub fn rule_counts(&self) -> Vec<(Rule, usize)> {
        Rule::ALL
            .iter()
            .map(|&r| (r, self.findings.iter().filter(|f| f.rule == r).count()))
            .collect()
    }

    /// Serializes to the `genio-analyzer/v1` JSON document.
    pub fn to_json(&self) -> Value {
        let findings = self.findings.iter().map(finding_to_json).collect();
        let rules = self
            .rule_counts()
            .into_iter()
            .map(|(r, n)| {
                Value::Obj(vec![
                    ("rule".to_string(), Value::Str(r.id().to_string())),
                    ("title".to_string(), Value::Str(r.title().to_string())),
                    ("count".to_string(), Value::Num(n as f64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("files".to_string(), Value::Num(self.files as f64)),
            ("lines".to_string(), Value::Num(self.lines as f64)),
            ("suppressed".to_string(), Value::Num(self.suppressed as f64)),
            ("allowed".to_string(), Value::Num(self.allowed as f64)),
            ("rules".to_string(), Value::Arr(rules)),
            ("findings".to_string(), Value::Arr(findings)),
        ])
    }

    /// Parses a report (or baseline) back from its JSON text.
    pub fn from_json_text(text: &str) -> Result<Report, String> {
        let v = parse(text)?;
        if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let num =
            |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let mut findings = Vec::new();
        for item in v
            .get("findings")
            .and_then(Value::as_arr)
            .ok_or("missing findings array")?
        {
            let s = |key: &str| -> Result<String, String> {
                item.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("finding missing field {key:?}"))
            };
            let rule_id = s("rule")?;
            findings.push(Finding {
                rule: Rule::from_id(&rule_id)
                    .ok_or_else(|| format!("unknown rule {rule_id:?}"))?,
                file: s("file")?,
                line: item.get("line").and_then(Value::as_f64).unwrap_or(0.0) as u32,
                function: s("function")?,
                detail: s("detail")?,
                confirmed: match item.get("confirmed") {
                    Some(Value::Bool(b)) => Some(*b),
                    _ => None,
                },
            });
        }
        Ok(Report {
            files: num("files"),
            lines: num("lines"),
            suppressed: num("suppressed"),
            allowed: num("allowed"),
            findings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str, line: u32, detail: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            function: "f".to_string(),
            detail: detail.to_string(),
            confirmed: None,
        }
    }

    #[test]
    fn roundtrip_preserves_findings() {
        let mut report = Report {
            files: 3,
            lines: 99,
            suppressed: 2,
            allowed: 1,
            findings: vec![
                finding(Rule::R1PanicPath, "a.rs", 7, "call to .unwrap()"),
                finding(Rule::R6DebtMarker, "b.rs", 1, "TODO comment"),
            ],
        };
        report.findings[1].confirmed = Some(true);
        let parsed = Report::from_json_text(&report.to_json().to_string()).unwrap();
        assert_eq!(parsed.files, 3);
        assert_eq!(parsed.lines, 99);
        assert_eq!(parsed.suppressed, 2);
        assert_eq!(parsed.allowed, 1);
        assert_eq!(parsed.findings, report.findings);
    }

    #[test]
    fn identical_scan_passes_the_ratchet() {
        let fs = vec![finding(Rule::R1PanicPath, "a.rs", 7, "call to .unwrap()")];
        let d = diff(&fs, &fs);
        assert!(d.passes());
        assert!(d.fixed.is_empty());
    }

    #[test]
    fn line_shifts_do_not_fail_the_ratchet() {
        let base = vec![finding(Rule::R1PanicPath, "a.rs", 7, "call to .unwrap()")];
        let cur = vec![finding(Rule::R1PanicPath, "a.rs", 93, "call to .unwrap()")];
        assert!(diff(&cur, &base).passes());
    }

    #[test]
    fn extra_occurrence_of_a_known_key_is_new() {
        let base = vec![finding(Rule::R1PanicPath, "a.rs", 7, "call to .unwrap()")];
        let cur = vec![
            finding(Rule::R1PanicPath, "a.rs", 7, "call to .unwrap()"),
            finding(Rule::R1PanicPath, "a.rs", 41, "call to .unwrap()"),
        ];
        let d = diff(&cur, &base);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].line, 41);
    }

    #[test]
    fn removals_are_reported_fixed() {
        let base = vec![
            finding(Rule::R1PanicPath, "a.rs", 7, "call to .unwrap()"),
            finding(Rule::R6DebtMarker, "b.rs", 2, "TODO comment"),
        ];
        let cur = vec![finding(Rule::R1PanicPath, "a.rs", 7, "call to .unwrap()")];
        let d = diff(&cur, &base);
        assert!(d.passes());
        assert_eq!(d.fixed.len(), 1);
        assert_eq!(d.fixed[0].0.rule, Rule::R6DebtMarker);
    }
}
