//! Bench regression sentinel: diffs two `genio-bench/v1` documents.
//!
//! The sentinel answers one CI question: *did this change make an
//! anchored hot path slower than the noise floor explains?* It pairs
//! benches by `(experiment, name)` across a baseline document (the
//! committed `BENCH_genio.json`) and a candidate document (a fresh
//! `--quick` run), computes the per-bench median ratio, and derives a
//! **noise band** for each pair from the sample spread the bench runner
//! already records (`p95_ns - min_ns` relative to the median). A ratio
//! outside the band is a warning; a ratio above both the band and the
//! configured threshold on an **anchored** bench is a hard regression.
//!
//! Quick-mode runs are noisy, so by default only anchored benches can
//! fail the gate — everything else lands in a warn-only envelope. An
//! anchored bench that the candidate no longer has fails it too, so a
//! renamed or deleted hot-path row cannot silently stop being gated;
//! [`unmatched_anchors`] lets the CLI refuse an anchor that gates
//! nothing. With no anchors configured the sentinel never fails, which
//! makes the self-check (`BENCH_genio.json` vs itself) a cheap
//! schema/logic gate.

#![forbid(unsafe_code)]

use genio_testkit::bench::Record;
use genio_testkit::json::{self, Value};

/// Schema tag emitted in sentinel reports.
pub const SENTINEL_SCHEMA: &str = "genio-sentinel/v1";

/// Default hard-fail threshold: candidate median > 1.25× baseline.
pub const DEFAULT_THRESHOLD: f64 = 1.25;

/// Noise band floor: quick-mode medians jitter a few percent even on an
/// idle machine, so never treat less than this as signal.
pub const NOISE_FLOOR: f64 = 0.05;

/// Noise band ceiling: a bench whose own spread exceeds 60% of its
/// median cannot gate anything meaningfully, but we still cap the band
/// so a pathological baseline cannot mask an unbounded regression.
pub const NOISE_CEIL: f64 = 0.60;

/// One bench record in the context of its experiment.
#[derive(Clone, Debug)]
pub struct Bench {
    /// Experiment id the parent report carries (e.g. `E-S2`).
    pub experiment: String,
    /// Bench target name from the report (e.g. `fleet_sim`).
    pub target: String,
    /// The measured record.
    pub record: Record,
}

/// A parsed `genio-bench/v1` document: either the merged
/// `BENCH_genio.json` shape (`{"experiments": [...]}`) or a single
/// bench-target report (`{"benches": [...]}`).
#[derive(Clone, Debug, Default)]
pub struct BenchDoc {
    /// All benches across all experiments, in document order.
    pub benches: Vec<Bench>,
}

impl BenchDoc {
    /// Parses a document from JSON text.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let root = json::parse(text)?;
        let schema = root.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != "genio-bench/v1" {
            return Err(format!("expected schema genio-bench/v1, got {schema:?}"));
        }
        let mut benches = Vec::new();
        match root.get("experiments").and_then(Value::as_arr) {
            Some(reports) => {
                for report in reports {
                    collect_report(report, &mut benches)?;
                }
            }
            None => collect_report(&root, &mut benches)?,
        }
        Ok(BenchDoc { benches })
    }

    /// Looks a bench up by its pairing key.
    fn find(&self, experiment: &str, name: &str) -> Option<&Bench> {
        self.benches
            .iter()
            .find(|b| b.experiment == experiment && b.record.name == name)
    }
}

fn collect_report(report: &Value, out: &mut Vec<Bench>) -> Result<(), String> {
    let experiment = report
        .get("experiment")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string();
    let target = report
        .get("target")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string();
    let records = report
        .get("benches")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("report {experiment}/{target} has no benches array"))?;
    for v in records {
        let record = Record::from_json(v)
            .map_err(|e| format!("report {experiment}/{target}: {e}"))?;
        out.push(Bench {
            experiment: experiment.clone(),
            target: target.clone(),
            record,
        });
    }
    Ok(())
}

/// Verdict for one paired bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Within the noise band.
    Ok,
    /// Faster than the noise band explains.
    Improved,
    /// Slower than the noise band, but not an anchored hard failure.
    Warn,
    /// Anchored bench above both the noise band and the threshold.
    Regression,
    /// Present in the baseline, absent from the candidate (fails the
    /// gate when anchored).
    Missing,
    /// Present in the candidate only (new bench; informational).
    New,
}

impl Status {
    /// Stable lowercase tag used in the JSON report.
    pub fn tag(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::Warn => "warn",
            Status::Regression => "regression",
            Status::Missing => "missing",
            Status::New => "new",
        }
    }
}

/// One row of the sentinel diff.
#[derive(Clone, Debug)]
pub struct Delta {
    pub experiment: String,
    pub name: String,
    pub base_median_ns: Option<f64>,
    pub cand_median_ns: Option<f64>,
    /// `cand_median / base_median`; 1.0 when either side is missing.
    pub ratio: f64,
    /// Relative noise band half-width derived from sample spread.
    pub noise: f64,
    /// Whether an `--anchor` substring matched this bench.
    pub anchored: bool,
    pub status: Status,
}

/// Sentinel configuration.
#[derive(Clone, Debug)]
pub struct SentinelConfig {
    /// Hard-fail ratio for anchored benches (`1.25` = +25%).
    pub threshold: f64,
    /// Substrings selecting the benches allowed to hard-fail the gate.
    /// Matched against both the bench name and the experiment id.
    pub anchors: Vec<String>,
    /// Downgrade every regression to a warning (report still says
    /// `regression`, but [`SentinelReport::passes`] returns true).
    pub warn_only: bool,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            threshold: DEFAULT_THRESHOLD,
            anchors: Vec::new(),
            warn_only: false,
        }
    }
}

/// The full diff between two bench documents.
#[derive(Clone, Debug)]
pub struct SentinelReport {
    pub deltas: Vec<Delta>,
    pub warn_only: bool,
}

impl SentinelReport {
    /// Count of rows with the given status.
    pub fn count(&self, status: Status) -> usize {
        self.deltas.iter().filter(|d| d.status == status).count()
    }

    /// Anchored baseline benches the candidate no longer has.
    pub fn missing_anchored(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.anchored && d.status == Status::Missing)
            .count()
    }

    /// Gate verdict: no anchored regression and no anchored bench gone
    /// missing (or warn-only mode).
    pub fn passes(&self) -> bool {
        self.warn_only || (self.count(Status::Regression) == 0 && self.missing_anchored() == 0)
    }

    /// The report's `genio-sentinel/v1` JSON document.
    pub fn to_json(&self) -> Value {
        let rows = self
            .deltas
            .iter()
            .map(|d| {
                let mut fields = vec![
                    ("experiment".to_string(), Value::Str(d.experiment.clone())),
                    ("name".to_string(), Value::Str(d.name.clone())),
                    ("status".to_string(), Value::Str(d.status.tag().to_string())),
                    ("ratio".to_string(), Value::Num(round3(d.ratio))),
                    ("noise".to_string(), Value::Num(round3(d.noise))),
                    ("anchored".to_string(), Value::Bool(d.anchored)),
                ];
                if let Some(b) = d.base_median_ns {
                    fields.push(("base_median_ns".to_string(), Value::Num(b)));
                }
                if let Some(c) = d.cand_median_ns {
                    fields.push(("cand_median_ns".to_string(), Value::Num(c)));
                }
                Value::Obj(fields)
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(SENTINEL_SCHEMA.to_string())),
            ("warn_only".to_string(), Value::Bool(self.warn_only)),
            ("pass".to_string(), Value::Bool(self.passes())),
            (
                "regressions".to_string(),
                Value::Num(self.count(Status::Regression) as f64),
            ),
            (
                "warnings".to_string(),
                Value::Num(self.count(Status::Warn) as f64),
            ),
            ("deltas".to_string(), Value::Arr(rows)),
        ])
    }

    /// Human-readable summary, one line per non-`ok` row plus a verdict.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.deltas {
            if d.status == Status::Ok {
                continue;
            }
            let anchor = if d.anchored { " [anchored]" } else { "" };
            out.push_str(&format!(
                "{:<10} {}/{}: ratio {:.3} (noise ±{:.3}){}\n",
                d.status.tag(),
                d.experiment,
                d.name,
                d.ratio,
                d.noise,
                anchor
            ));
        }
        out.push_str(&format!(
            "sentinel: {} benches, {} regressions, {} anchored missing, {} warnings, {} improved -> {}\n",
            self.deltas.len(),
            self.count(Status::Regression),
            self.missing_anchored(),
            self.count(Status::Warn),
            self.count(Status::Improved),
            if self.passes() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

fn round3(x: f64) -> f64 {
    (x * 1_000.0).round() / 1_000.0
}

/// Relative half-width of a record's own sample spread: how far its
/// quick-mode median plausibly wanders between identical runs.
fn relative_spread(r: &Record) -> f64 {
    // A single-sample record has min == median == p95 by construction,
    // so its computed spread is 0 — pure false confidence. Treat it as
    // maximally noisy instead of letting it hard-fail a gate.
    if r.median_ns <= 0.0 || r.samples <= 1 {
        return NOISE_CEIL;
    }
    ((r.p95_ns - r.min_ns) / r.median_ns).clamp(0.0, NOISE_CEIL)
}

fn anchor_matches(anchor: &str, experiment: &str, name: &str) -> bool {
    name.contains(anchor) || experiment.contains(anchor)
}

fn is_anchored(cfg: &SentinelConfig, experiment: &str, name: &str) -> bool {
    cfg.anchors
        .iter()
        .any(|a| anchor_matches(a, experiment, name))
}

/// The configured anchors that match no bench in `baseline`: each one
/// gates nothing, which is a typo or a stale name, never intent.
pub fn unmatched_anchors<'a>(baseline: &BenchDoc, cfg: &'a SentinelConfig) -> Vec<&'a str> {
    cfg.anchors
        .iter()
        .map(String::as_str)
        .filter(|a| {
            !baseline
                .benches
                .iter()
                .any(|b| anchor_matches(a, &b.experiment, &b.record.name))
        })
        .collect()
}

/// Diffs `candidate` against `baseline` under `cfg`.
pub fn compare(baseline: &BenchDoc, candidate: &BenchDoc, cfg: &SentinelConfig) -> SentinelReport {
    let mut deltas = Vec::new();
    for base in &baseline.benches {
        let anchored = is_anchored(cfg, &base.experiment, &base.record.name);
        match candidate.find(&base.experiment, &base.record.name) {
            None => deltas.push(Delta {
                experiment: base.experiment.clone(),
                name: base.record.name.clone(),
                base_median_ns: Some(base.record.median_ns),
                cand_median_ns: None,
                ratio: 1.0,
                noise: 0.0,
                anchored,
                status: Status::Missing,
            }),
            Some(cand) => {
                let noise = relative_spread(&base.record)
                    .max(relative_spread(&cand.record))
                    .max(NOISE_FLOOR);
                let ratio = if base.record.median_ns > 0.0 {
                    cand.record.median_ns / base.record.median_ns
                } else {
                    1.0
                };
                let fail_bound = cfg.threshold.max(1.0 + noise);
                let status = if ratio > fail_bound && anchored {
                    Status::Regression
                } else if ratio > 1.0 + noise {
                    Status::Warn
                } else if ratio < 1.0 - noise {
                    Status::Improved
                } else {
                    Status::Ok
                };
                deltas.push(Delta {
                    experiment: base.experiment.clone(),
                    name: base.record.name.clone(),
                    base_median_ns: Some(base.record.median_ns),
                    cand_median_ns: Some(cand.record.median_ns),
                    ratio,
                    noise,
                    anchored,
                    status,
                });
            }
        }
    }
    for cand in &candidate.benches {
        if baseline.find(&cand.experiment, &cand.record.name).is_none() {
            deltas.push(Delta {
                experiment: cand.experiment.clone(),
                name: cand.record.name.clone(),
                base_median_ns: None,
                cand_median_ns: Some(cand.record.median_ns),
                ratio: 1.0,
                noise: 0.0,
                anchored: is_anchored(cfg, &cand.experiment, &cand.record.name),
                status: Status::New,
            });
        }
    }
    SentinelReport { deltas, warn_only: cfg.warn_only }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, &str, f64)]) -> BenchDoc {
        // Builds a merged-shape document where each row's spread is a
        // tight ±2% around the median.
        let mut reports = String::new();
        for (i, (exp, name, median)) in rows.iter().enumerate() {
            if i > 0 {
                reports.push(',');
            }
            reports.push_str(&format!(
                "{{\"schema\":\"genio-bench/v1\",\"experiment\":\"{exp}\",\
                 \"target\":\"t\",\"quick\":true,\"benches\":[{{\
                 \"name\":\"{name}\",\"iters_per_sample\":10,\"samples\":20,\
                 \"min_ns\":{},\"median_ns\":{median},\"p95_ns\":{},\
                 \"max_ns\":{},\"mean_ns\":{median}}}]}}",
                median * 0.98,
                median * 1.02,
                median * 1.05,
            ));
        }
        let text =
            format!("{{\"schema\":\"genio-bench/v1\",\"experiments\":[{reports}]}}");
        BenchDoc::parse(&text).expect("fixture doc parses")
    }

    #[test]
    fn single_sample_bench_is_maximally_noisy_not_confident() {
        // One sample ⇒ min == median == p95 ⇒ computed spread 0. A
        // 1.45x "regression" against such a record must widen to the
        // noise ceiling (landing inside the band) instead of
        // hard-failing the gate on false confidence.
        let text = "{\"schema\":\"genio-bench/v1\",\"experiment\":\"E-X\",\
                    \"target\":\"t\",\"quick\":true,\"benches\":[{\
                    \"name\":\"oneshot\",\"iters_per_sample\":1,\"samples\":1,\
                    \"min_ns\":1000,\"median_ns\":1000,\"p95_ns\":1000,\
                    \"max_ns\":1000,\"mean_ns\":1000}]}";
        let base = BenchDoc::parse(text).expect("base parses");
        let cand = doc(&[("E-X", "oneshot", 1_450.0)]);
        let cfg = SentinelConfig {
            anchors: vec!["oneshot".to_string()],
            ..SentinelConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        assert!(report.passes(), "single-sample base must not hard-fail");
        assert_eq!(report.count(Status::Ok), 1);
        assert!((report.deltas[0].noise - NOISE_CEIL).abs() < 1e-9);
    }

    #[test]
    fn doc_against_itself_passes_clean() {
        let d = doc(&[("E-O1", "telemetry_overhead", 1_000.0), ("E-S2", "fleet_sim", 5_000.0)]);
        let cfg = SentinelConfig {
            anchors: vec!["fleet_sim".to_string(), "telemetry".to_string()],
            ..SentinelConfig::default()
        };
        let report = compare(&d, &d, &cfg);
        assert!(report.passes());
        assert_eq!(report.count(Status::Ok), 2);
        assert_eq!(report.count(Status::Regression), 0);
        assert_eq!(report.count(Status::Warn), 0);
    }

    #[test]
    fn synthetic_two_x_regression_is_detected_on_anchored_bench() {
        let base = doc(&[("E-S2", "fleet_sim", 5_000.0), ("E-A3", "analyzer_scan", 800.0)]);
        let cand = doc(&[("E-S2", "fleet_sim", 10_000.0), ("E-A3", "analyzer_scan", 800.0)]);
        let cfg = SentinelConfig {
            anchors: vec!["fleet_sim".to_string()],
            ..SentinelConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        assert!(!report.passes());
        assert_eq!(report.count(Status::Regression), 1);
        let row = report
            .deltas
            .iter()
            .find(|d| d.name == "fleet_sim")
            .expect("fleet_sim delta");
        assert!(row.anchored);
        assert!((row.ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unanchored_regression_only_warns() {
        let base = doc(&[("E-S2", "fleet_sim", 5_000.0)]);
        let cand = doc(&[("E-S2", "fleet_sim", 10_000.0)]);
        let report = compare(&base, &cand, &SentinelConfig::default());
        assert!(report.passes());
        assert_eq!(report.count(Status::Warn), 1);
    }

    #[test]
    fn warn_only_downgrades_anchored_regressions() {
        let base = doc(&[("E-S2", "fleet_sim", 5_000.0)]);
        let cand = doc(&[("E-S2", "fleet_sim", 10_000.0)]);
        let cfg = SentinelConfig {
            anchors: vec!["fleet_sim".to_string()],
            warn_only: true,
            ..SentinelConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        assert_eq!(report.count(Status::Regression), 1);
        assert!(report.passes());
    }

    #[test]
    fn jitter_inside_noise_band_is_ok() {
        let base = doc(&[("E-O1", "span_hot_path", 1_000.0)]);
        let cand = doc(&[("E-O1", "span_hot_path", 1_030.0)]);
        let cfg = SentinelConfig {
            anchors: vec!["span_hot_path".to_string()],
            ..SentinelConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        assert_eq!(report.count(Status::Ok), 1);
        assert!(report.passes());
    }

    #[test]
    fn noisy_baseline_widens_the_band_past_the_threshold() {
        // Spread of 40% of the median: a 1.3x ratio must not hard-fail
        // even though it exceeds the 1.25 threshold.
        let text = "{\"schema\":\"genio-bench/v1\",\"experiment\":\"E-X\",\
                    \"target\":\"t\",\"quick\":true,\"benches\":[{\
                    \"name\":\"jittery\",\"iters_per_sample\":1,\"samples\":5,\
                    \"min_ns\":800,\"median_ns\":1000,\"p95_ns\":1200,\
                    \"max_ns\":1300,\"mean_ns\":1000}]}";
        let base = BenchDoc::parse(text).expect("base parses");
        let cand = doc(&[("E-X", "jittery", 1_300.0)]);
        let cfg = SentinelConfig {
            anchors: vec!["jittery".to_string()],
            ..SentinelConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        assert_eq!(report.count(Status::Regression), 0);
        assert!(report.passes());
    }

    #[test]
    fn missing_and_new_benches_are_informational() {
        let base = doc(&[("E-A", "gone", 100.0), ("E-A", "kept", 100.0)]);
        let cand = doc(&[("E-A", "kept", 100.0), ("E-A", "fresh", 100.0)]);
        let report = compare(&base, &cand, &SentinelConfig::default());
        assert_eq!(report.count(Status::Missing), 1);
        assert_eq!(report.count(Status::New), 1);
        assert!(report.passes());
    }

    #[test]
    fn anchored_bench_missing_from_candidate_fails_the_gate() {
        let base = doc(&[("E-S2", "fleet_sim", 5_000.0), ("E-A", "other", 100.0)]);
        let cand = doc(&[("E-A", "other", 100.0)]);
        let mut cfg = SentinelConfig {
            anchors: vec!["fleet_sim".to_string()],
            ..SentinelConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        assert_eq!(report.count(Status::Missing), 1);
        assert!(!report.passes(), "a deleted anchored row must fail");
        assert!(report.render_text().contains("FAIL"));
        cfg.warn_only = true;
        assert!(compare(&base, &cand, &cfg).passes());
    }

    #[test]
    fn report_json_carries_schema_and_parses() {
        let base = doc(&[("E-S2", "fleet_sim", 5_000.0)]);
        let cand = doc(&[("E-S2", "fleet_sim", 10_000.0)]);
        let cfg = SentinelConfig {
            anchors: vec!["fleet_sim".to_string()],
            ..SentinelConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        let text = report.to_json().to_string();
        let parsed = json::parse(&text).expect("report JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some(SENTINEL_SCHEMA)
        );
        assert_eq!(parsed.get("pass"), Some(&Value::Bool(false)));
        let rows = parsed
            .get("deltas")
            .and_then(Value::as_arr)
            .expect("deltas array");
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("status").and_then(Value::as_str),
            Some("regression")
        );
        assert!(report.render_text().contains("FAIL"));
    }

    #[test]
    fn single_report_shape_and_bad_schema() {
        let single = "{\"schema\":\"genio-bench/v1\",\"experiment\":\"E-A3\",\
                      \"target\":\"analyzer\",\"quick\":true,\"benches\":[]}";
        assert!(BenchDoc::parse(single).expect("single report parses").benches.is_empty());
        assert!(BenchDoc::parse("{\"schema\":\"nope\"}").is_err());
        assert!(BenchDoc::parse("not json").is_err());
    }
}
