//! `genio-sentinel` CLI: gate a candidate bench document against a
//! committed baseline.
//!
//! ```text
//! genio-sentinel --baseline BENCH_genio.json --candidate fresh.json \
//!     --anchor fleet_sim --anchor telemetry_overhead \
//!     [--threshold 1.25] [--warn-only] [--json report.json]
//! ```
//!
//! Exit codes: `0` pass, `1` anchored regression or anchored bench
//! missing from the candidate, `2` usage or I/O error, or an `--anchor`
//! that matches no baseline bench.

#![forbid(unsafe_code)]

use std::fs;
use std::process::ExitCode;

use genio_sentinel::{compare, unmatched_anchors, BenchDoc, SentinelConfig};

struct Args {
    baseline: String,
    candidate: String,
    json_out: Option<String>,
    cfg: SentinelConfig,
}

const USAGE: &str = "usage: genio-sentinel --baseline <path> --candidate <path> \
[--anchor <substr>]... [--threshold <ratio>] [--warn-only] [--json <path>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut baseline = None;
    let mut candidate = None;
    let mut json_out = None;
    let mut cfg = SentinelConfig::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--candidate" => candidate = Some(value("--candidate")?),
            "--anchor" => cfg.anchors.push(value("--anchor")?),
            "--json" => json_out = Some(value("--json")?),
            "--threshold" => {
                let raw = value("--threshold")?;
                let t: f64 = raw
                    .parse()
                    .map_err(|_| format!("bad --threshold {raw:?}"))?;
                if !(t.is_finite() && t > 1.0) {
                    return Err(format!("--threshold must be > 1.0, got {raw}"));
                }
                cfg.threshold = t;
            }
            "--warn-only" => cfg.warn_only = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or(format!("--baseline is required\n{USAGE}"))?,
        candidate: candidate.ok_or(format!("--candidate is required\n{USAGE}"))?,
        json_out,
        cfg,
    })
}

fn load_doc(path: &str) -> Result<BenchDoc, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    BenchDoc::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let base = load_doc(&args.baseline)?;
    let cand = load_doc(&args.candidate)?;
    let unmatched = unmatched_anchors(&base, &args.cfg);
    if !unmatched.is_empty() {
        return Err(format!("--anchor {unmatched:?} matches no baseline bench"));
    }
    let report = compare(&base, &cand, &args.cfg);
    print!("{}", report.render_text());
    if let Some(path) = &args.json_out {
        fs::write(path, format!("{}\n", report.to_json()))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(report.passes())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("genio-sentinel: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let args = parse_args(&sv(&[
            "--baseline", "a.json", "--candidate", "b.json", "--anchor", "fleet",
            "--anchor", "gcm", "--threshold", "1.5", "--warn-only", "--json", "out.json",
        ]))
        .expect("args parse");
        assert_eq!(args.baseline, "a.json");
        assert_eq!(args.candidate, "b.json");
        assert_eq!(args.cfg.anchors, vec!["fleet".to_string(), "gcm".to_string()]);
        assert!((args.cfg.threshold - 1.5).abs() < 1e-12);
        assert!(args.cfg.warn_only);
        assert_eq!(args.json_out.as_deref(), Some("out.json"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&sv(&["--candidate", "b.json"])).is_err());
        assert!(parse_args(&sv(&["--baseline", "a", "--candidate", "b", "--threshold", "0.9"]))
            .is_err());
        assert!(parse_args(&sv(&["--frobnicate"])).is_err());
        assert!(run(&sv(&["--baseline", "/nonexistent", "--candidate", "/nonexistent"])).is_err());
    }

    #[test]
    fn anchor_matching_no_baseline_bench_is_a_usage_error() {
        let path =
            std::env::temp_dir().join(format!("sentinel-anchor-{}.json", std::process::id()));
        fs::write(
            &path,
            "{\"schema\":\"genio-bench/v1\",\"experiment\":\"E-S2\",\"target\":\"t\",\
             \"benches\":[{\"name\":\"fleet_sim/full\",\"iters_per_sample\":1,\"samples\":5,\
             \"min_ns\":90,\"median_ns\":100,\"p95_ns\":110,\"max_ns\":120,\"mean_ns\":100}]}",
        )
        .expect("write fixture");
        let doc = path.to_string_lossy().into_owned();
        let with_anchor = |anchor: &str| {
            let args = ["--baseline", &doc, "--candidate", &doc, "--anchor", anchor];
            run(&sv(&args))
        };
        assert_eq!(with_anchor("fleet_sim"), Ok(true));
        let err = with_anchor("trace_fleet").expect_err("an anchor that gates nothing");
        assert!(err.contains("trace_fleet"), "{err}");
        let _ = fs::remove_file(&path);
    }
}
