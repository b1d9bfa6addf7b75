//! Content-hash incremental scan cache (`genio-analyzer-cache/v3`).
//!
//! The per-file pipeline stages — tokenize, annotate, rule scan,
//! summarize — are pure functions of the file's bytes **and of the rule
//! set**, so their outputs can be memoised under a content hash *plus*
//! a rule-set version. The cache stores, per file: the FNV-1a 64 hash
//! of the source, the line count, the crate-root /
//! `#![forbid(unsafe_code)]` facts R3 needs, the parsed `allow(...)`
//! suppressions, and the *pre-dataflow* findings, accesses and
//! summary.
//!
//! The v3 document (v2 plus panic-site facts and call receivers in the
//! summaries, consumed by the R16/R17 passes) carries
//! [`crate::rules::rules_version`] — an FNV
//! hash over every rule's id, title and catalog entry. A cache written
//! by an analyzer binary with a different rule set (the latent v1 bug:
//! such caches were reused verbatim, so a new rule saw stale per-file
//! findings) fails the version check and degrades to a full rescan,
//! while a matching version still serves every unchanged file.
//!
//! Cross-file stages (R3 and the whole [`crate::dataflow`] pass)
//! always re-run over the cached payloads: they depend on *other*
//! files' contents, which a per-file hash cannot witness. Nothing else
//! needs to: no cached entry depends on another file, so an edit
//! invalidates exactly the edited file's entry, even when other files
//! call into it. Because
//! everything downstream of the cache is deterministic, a warm scan
//! produces a byte-identical report to a cold one — the property test
//! in `tests/cache_and_parallel.rs` and the verify-gate determinism
//! check both pin this down.
//!
//! Failure policy: a missing, unparsable or schema-mismatched cache file
//! degrades to an empty cache (full rescan), never an error — a stale
//! cache must not be able to break a build.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use genio_testkit::json::{parse, Value};

use crate::rules::{rules_version, Access, Allow, Finding, Rule};
use crate::summary::FileSummary;

/// Cache document schema tag.
pub const CACHE_SCHEMA: &str = "genio-analyzer-cache/v3";

/// Everything the per-file pipeline produced for one source file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileEntry {
    /// FNV-1a 64 hash of the file bytes, lowercase hex.
    pub hash: String,
    /// Number of lines scanned.
    pub lines: u64,
    /// Is this file a crate root (`lib.rs`)?
    pub is_crate_root: bool,
    /// Does the crate root carry `#![forbid(unsafe_code)]`?
    pub has_forbid: bool,
    /// Per-file findings, before the dataflow pass.
    pub findings: Vec<Finding>,
    /// R4/R5 access records.
    pub accesses: Vec<Access>,
    /// Parsed `allow(...)` suppression comments.
    pub allows: Vec<Allow>,
    /// Item/function summary for the call graph.
    pub summary: FileSummary,
}

/// The cache: repo-relative path → entry.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// Cached per-file results keyed by repo-relative path.
    pub entries: BTreeMap<String, FileEntry>,
}

/// FNV-1a 64 over the file bytes, rendered as lowercase hex.
pub fn content_hash(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl Cache {
    /// Loads a cache file, degrading to an empty cache on any problem —
    /// including a cache written by a binary with a different rule set.
    pub fn load(path: &Path) -> Cache {
        let Ok(text) = fs::read_to_string(path) else {
            return Cache::default();
        };
        Cache::from_json_text(&text, rules_version()).unwrap_or_default()
    }

    /// Serializes and writes the cache, creating parent directories.
    /// I/O errors are reported, not panicked on.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_json().to_string())
    }

    /// The entry for `rel_path`, but only if its hash still matches.
    pub fn lookup(&self, rel_path: &str, hash: &str) -> Option<&FileEntry> {
        self.entries
            .get(rel_path)
            .filter(|e| e.hash == hash)
    }

    fn to_json(&self) -> Value {
        let files = self
            .entries
            .iter()
            .map(|(path, e)| {
                Value::Obj(vec![
                    ("path".to_string(), Value::Str(path.clone())),
                    ("hash".to_string(), Value::Str(e.hash.clone())),
                    ("lines".to_string(), Value::Num(e.lines as f64)),
                    ("crate_root".to_string(), Value::Bool(e.is_crate_root)),
                    ("forbid".to_string(), Value::Bool(e.has_forbid)),
                    (
                        "findings".to_string(),
                        Value::Arr(e.findings.iter().map(finding_to_json).collect()),
                    ),
                    (
                        "accesses".to_string(),
                        Value::Arr(e.accesses.iter().map(access_to_json).collect()),
                    ),
                    (
                        "allows".to_string(),
                        Value::Arr(e.allows.iter().map(allow_to_json).collect()),
                    ),
                    ("summary".to_string(), e.summary.to_json()),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(CACHE_SCHEMA.to_string())),
            (
                "rules_version".to_string(),
                Value::Str(format!("{:016x}", rules_version())),
            ),
            ("files".to_string(), Value::Arr(files)),
        ])
    }

    fn from_json_text(text: &str, expected_version: u64) -> Result<Cache, String> {
        let v = parse(text)?;
        if v.get("schema").and_then(Value::as_str) != Some(CACHE_SCHEMA) {
            return Err(format!("not a {CACHE_SCHEMA} document"));
        }
        let want = format!("{expected_version:016x}");
        if v.get("rules_version").and_then(Value::as_str) != Some(&want) {
            return Err("cache written under a different rule-set version".to_string());
        }
        let mut entries = BTreeMap::new();
        for item in v.get("files").and_then(Value::as_arr).ok_or("missing files")? {
            let s = |key: &str| -> Result<String, String> {
                item.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("entry missing {key:?}"))
            };
            let flag = |key: &str| matches!(item.get(key), Some(Value::Bool(true)));
            let mut findings = Vec::new();
            for f in item.get("findings").and_then(Value::as_arr).unwrap_or(&[]) {
                findings.push(finding_from_json(f)?);
            }
            let mut accesses = Vec::new();
            for a in item.get("accesses").and_then(Value::as_arr).unwrap_or(&[]) {
                accesses.push(access_from_json(a)?);
            }
            let mut allows = Vec::new();
            for a in item.get("allows").and_then(Value::as_arr).unwrap_or(&[]) {
                allows.push(allow_from_json(a)?);
            }
            entries.insert(
                s("path")?,
                FileEntry {
                    hash: s("hash")?,
                    lines: item.get("lines").and_then(Value::as_f64).unwrap_or(0.0)
                        as u64,
                    is_crate_root: flag("crate_root"),
                    has_forbid: flag("forbid"),
                    findings,
                    accesses,
                    allows,
                    summary: FileSummary::from_json(
                        item.get("summary").ok_or("entry missing summary")?,
                    )?,
                },
            );
        }
        Ok(Cache { entries })
    }
}

fn finding_to_json(f: &Finding) -> Value {
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

fn finding_from_json(v: &Value) -> Result<Finding, String> {
    let s = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("finding missing {key:?}"))
    };
    let rule_id = s("rule")?;
    Ok(Finding {
        rule: Rule::from_id(&rule_id).ok_or_else(|| format!("unknown rule {rule_id:?}"))?,
        file: s("file")?,
        line: v.get("line").and_then(Value::as_f64).unwrap_or(0.0) as u32,
        function: s("function")?,
        detail: s("detail")?,
        confirmed: match v.get("confirmed") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        },
    })
}

fn allow_to_json(a: &Allow) -> Value {
    Value::Obj(vec![
        ("line".to_string(), Value::Num(a.line as f64)),
        (
            "rules".to_string(),
            Value::Arr(
                a.rules
                    .iter()
                    .map(|r| Value::Str(r.id().to_string()))
                    .collect(),
            ),
        ),
        ("reason".to_string(), Value::Str(a.reason.clone())),
    ])
}

fn allow_from_json(v: &Value) -> Result<Allow, String> {
    let mut rules = Vec::new();
    for r in v.get("rules").and_then(Value::as_arr).unwrap_or(&[]) {
        let id = r.as_str().ok_or("malformed allow rule id")?;
        rules.push(Rule::from_id(id).ok_or_else(|| format!("unknown rule {id:?}"))?);
    }
    Ok(Allow {
        line: v.get("line").and_then(Value::as_f64).unwrap_or(0.0) as u32,
        rules,
        reason: v
            .get("reason")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or("allow missing reason")?,
    })
}

fn access_to_json(a: &Access) -> Value {
    let mut fields = vec![
        ("function".to_string(), Value::Str(a.function.clone())),
        ("var".to_string(), Value::Str(a.var.clone())),
        ("guarded".to_string(), Value::Bool(a.guarded)),
        ("rule".to_string(), Value::Str(a.rule.id().to_string())),
        ("line".to_string(), Value::Num(a.line as f64)),
    ];
    if let Some(m) = a.masked {
        fields.push(("masked".to_string(), Value::Num(m as f64)));
    }
    if let Some(id) = &a.index_ident {
        fields.push(("index_ident".to_string(), Value::Str(id.clone())));
    }
    if let Some((lo, hi)) = &a.loop_bounds {
        fields.push((
            "loop_bounds".to_string(),
            Value::Arr(vec![Value::Str(lo.clone()), Value::Str(hi.clone())]),
        ));
    }
    Value::Obj(fields)
}

fn access_from_json(v: &Value) -> Result<Access, String> {
    let s = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("access missing {key:?}"))
    };
    let rule_id = s("rule")?;
    let loop_bounds = match v.get("loop_bounds").and_then(Value::as_arr) {
        Some([lo, hi]) => match (lo.as_str(), hi.as_str()) {
            (Some(lo), Some(hi)) => Some((lo.to_string(), hi.to_string())),
            _ => return Err("malformed loop_bounds".to_string()),
        },
        Some(_) => return Err("malformed loop_bounds".to_string()),
        None => None,
    };
    Ok(Access {
        function: s("function")?,
        var: s("var")?,
        guarded: matches!(v.get("guarded"), Some(Value::Bool(true))),
        rule: Rule::from_id(&rule_id).ok_or_else(|| format!("unknown rule {rule_id:?}"))?,
        line: v.get("line").and_then(Value::as_f64).unwrap_or(0.0) as u32,
        masked: v.get("masked").and_then(Value::as_f64).map(|m| m as u64),
        index_ident: v.get("index_ident").and_then(Value::as_str).map(str::to_string),
        loop_bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::rules::annotate;
    use crate::summary::summarize;

    fn entry() -> FileEntry {
        let src = "pub const N: usize = 4;\nfn get(buf: &[u8], i: usize) -> u8 { buf[i] }";
        let ann = annotate(tokenize(src));
        FileEntry {
            hash: content_hash(src.as_bytes()),
            lines: 2,
            is_crate_root: false,
            has_forbid: false,
            findings: vec![Finding {
                rule: Rule::R5UnguardedIndex,
                file: "crates/pon/src/frame.rs".to_string(),
                line: 2,
                function: "get".to_string(),
                detail: "slice `buf` indexed by `i`".to_string(),
                confirmed: Some(true),
            }],
            accesses: vec![Access {
                function: "get".to_string(),
                var: "buf".to_string(),
                guarded: false,
                rule: Rule::R5UnguardedIndex,
                line: 2,
                masked: Some(255),
                index_ident: Some("i".to_string()),
                loop_bounds: Some(("0".to_string(), "N".to_string())),
            }],
            allows: vec![Allow {
                line: 2,
                rules: vec![Rule::R11SecretIndex, Rule::R5UnguardedIndex],
                reason: "table-driven AES, keyed by public data".to_string(),
            }],
            summary: summarize(&ann),
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let mut cache = Cache::default();
        cache
            .entries
            .insert("crates/pon/src/frame.rs".to_string(), entry());
        let text = cache.to_json().to_string();
        let back = Cache::from_json_text(&text, rules_version()).unwrap();
        assert_eq!(back.entries, cache.entries);
    }

    #[test]
    fn rules_version_mismatch_invalidates_everything() {
        let mut cache = Cache::default();
        cache.entries.insert("a.rs".to_string(), entry());
        let text = cache.to_json().to_string();
        // Same document, read by a binary whose rule set hashed
        // differently: every entry must be dropped...
        let stale = Cache::from_json_text(&text, rules_version() ^ 1);
        assert!(stale.is_err(), "stale-rules cache must not parse");
        // ...while the matching version still serves the entry.
        let fresh = Cache::from_json_text(&text, rules_version()).unwrap();
        let hash = fresh.entries["a.rs"].hash.clone();
        assert!(fresh.lookup("a.rs", &hash).is_some());
    }

    #[test]
    fn v1_era_document_without_version_degrades_to_empty() {
        // The latent v1 bug: a cache from an older binary (no
        // rules_version field) was reused verbatim. It must now fail
        // the version check and trigger a full rescan.
        let old = "{\"schema\": \"genio-analyzer-cache/v3\", \"files\": []}";
        assert!(Cache::from_json_text(old, rules_version()).is_err());
        // Earlier schema generations never parse, version field or not.
        for stale in ["v1", "v2"] {
            let doc = format!("{{\"schema\": \"genio-analyzer-cache/{stale}\", \"files\": []}}");
            assert!(Cache::from_json_text(&doc, rules_version()).is_err());
        }
    }

    #[test]
    fn lookup_requires_matching_hash() {
        let mut cache = Cache::default();
        cache.entries.insert("a.rs".to_string(), entry());
        let good = cache.entries["a.rs"].hash.clone();
        assert!(cache.lookup("a.rs", &good).is_some());
        assert!(cache.lookup("a.rs", "deadbeefdeadbeef").is_none());
        assert!(cache.lookup("missing.rs", &good).is_none());
    }

    #[test]
    fn garbage_and_wrong_schema_degrade_to_empty() {
        assert!(Cache::from_json_text("not json", rules_version()).is_err());
        let wrong = "{\"schema\": \"other/v9\", \"files\": []}";
        assert!(Cache::from_json_text(wrong, rules_version()).is_err());
        // load() maps both failure modes to the empty cache.
        let dir = std::env::temp_dir().join("genio-analyzer-cache-test");
        let _ = fs::create_dir_all(&dir);
        let p = dir.join("bad.json");
        fs::write(&p, "not json").unwrap();
        assert!(Cache::load(&p).entries.is_empty());
        assert!(Cache::load(&dir.join("absent.json")).entries.is_empty());
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        assert_eq!(content_hash(b""), format!("{:016x}", 0xcbf29ce484222325u64));
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
    }
}
