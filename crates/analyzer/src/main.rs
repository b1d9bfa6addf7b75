//! `genio-analyzer` CLI: self-scan the workspace, diff against the
//! committed ratchet baseline, fail on new findings.
//!
//! ```text
//! genio-analyzer [--root DIR] [--baseline FILE] [--json FILE]
//!                [--write-baseline] [--findings]
//!                [--threads N] [--cache FILE] [--no-cache]
//!                [--rules R10,R13] [--expect FILE] [--sarif FILE]
//! genio-analyzer --diff GIT_REF [--json FILE] [...]
//! genio-analyzer --explain R10
//! ```
//!
//! Exit codes: `0` clean (or baseline written), `1` new findings vs the
//! baseline (or an `--expect` mismatch, or a non-empty `--diff`), `2`
//! usage or I/O error. `scripts/verify.sh` runs this before the
//! benches; `--write-baseline` is how the committed
//! `analyzer-baseline.json` shrinks after fixing sites.
//!
//! `--rules` trims the scan to a comma-separated rule list, `--explain`
//! prints one rule's catalog entry and exits, and `--expect FILE`
//! compares the scan against a committed list of exact finding ids
//! (`RULE|file|function|detail`, line-free, order-insensitive) — the
//! verify-gate fixture self-check.
//!
//! `--diff GIT_REF` switches to review mode: report (and fail on) only
//! the findings the working tree introduced relative to `GIT_REF`,
//! skipping the ratchet baseline entirely; `--json` then writes the
//! `genio-analyzer-diff/v1` document. `--sarif FILE` writes the full
//! report as SARIF 2.1.0 for code-review tooling.
//!
//! The incremental cache defaults to
//! `<root>/target/genio-analyzer/cache.bin`; `--no-cache` forces a
//! full rescan. Cache traffic and per-stage timings are printed to
//! stdout but never written into the report, so cached and uncached
//! runs emit byte-identical JSON.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use genio_analyzer::baseline::{diff as ratchet_diff, Key, Report};
use genio_analyzer::diff;
use genio_analyzer::rules::Rule;
use genio_analyzer::workspace::{self, ScanOptions};
use genio_telemetry::Telemetry;

struct Options {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    json: Option<PathBuf>,
    write_baseline: bool,
    list_findings: bool,
    threads: usize,
    cache: Option<PathBuf>,
    no_cache: bool,
    rules: Option<Vec<Rule>>,
    expect: Option<PathBuf>,
    diff: Option<String>,
    sarif: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: genio-analyzer [--root DIR] [--baseline FILE] [--json FILE] \
         [--write-baseline] [--findings] [--threads N] [--cache FILE] [--no-cache] \
         [--rules R10,R13] [--expect FILE] [--diff GIT_REF] [--sarif FILE] \
         | --explain RULE"
    );
    ExitCode::from(2)
}

fn parse_rules(list: &str) -> Option<Vec<Rule>> {
    let rules: Vec<Rule> = list
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(Rule::from_id)
        .collect::<Option<Vec<_>>>()?;
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

fn explain(id: &str) -> ExitCode {
    let Some(rule) = Rule::from_id(id) else {
        eprintln!(
            "genio-analyzer: unknown rule {id:?} (known: {})",
            Rule::ALL.map(|r| r.id()).join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{} — {}", rule.id(), rule.title());
    println!();
    println!("{}", rule.explain());
    ExitCode::SUCCESS
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        root: None,
        baseline: None,
        json: None,
        write_baseline: false,
        list_findings: false,
        threads: 0,
        cache: None,
        no_cache: false,
        rules: None,
        expect: None,
        diff: None,
        sarif: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = args.next().map(PathBuf::from),
            "--baseline" => opts.baseline = args.next().map(PathBuf::from),
            "--json" => opts.json = args.next().map(PathBuf::from),
            "--write-baseline" => opts.write_baseline = true,
            "--findings" => opts.list_findings = true,
            "--threads" => {
                opts.threads = match args.next().and_then(|n| n.parse().ok()) {
                    Some(n) => n,
                    None => return Err(usage()),
                }
            }
            "--cache" => opts.cache = args.next().map(PathBuf::from),
            "--no-cache" => opts.no_cache = true,
            "--rules" => {
                opts.rules = match args.next().as_deref().and_then(parse_rules) {
                    Some(rs) => Some(rs),
                    None => return Err(usage()),
                }
            }
            "--explain" => {
                return Err(match args.next() {
                    Some(id) => explain(&id),
                    None => usage(),
                })
            }
            "--expect" => opts.expect = args.next().map(PathBuf::from),
            "--diff" => {
                opts.diff = match args.next() {
                    Some(git_ref) => Some(git_ref),
                    None => return Err(usage()),
                }
            }
            "--sarif" => opts.sarif = args.next().map(PathBuf::from),
            _ => return Err(usage()),
        }
    }
    Ok(opts)
}

/// Compares the scan against a committed `RULE|file|function|detail`
/// list as order-insensitive multisets of line-free keys. Exact: every
/// missing and every unexpected finding is reported.
fn check_expected(report: &Report, path: &std::path::Path) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut want: Vec<Key> = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '|').collect();
        let [rule_id, file, function, detail] = parts[..] else {
            return Err(format!("{}:{}: malformed line", path.display(), no + 1));
        };
        let rule = Rule::from_id(rule_id)
            .ok_or_else(|| format!("{}:{}: unknown rule", path.display(), no + 1))?;
        want.push(Key {
            rule,
            file: file.to_string(),
            function: function.to_string(),
            detail: detail.to_string(),
        });
    }
    let mut got: Vec<Key> = report.findings.iter().map(Key::of).collect();
    want.sort();
    got.sort();
    if want == got {
        println!("expectations OK: {} finding(s) match {}", got.len(), path.display());
        return Ok(ExitCode::SUCCESS);
    }
    let fmt = |k: &Key| format!("{}|{}|{}|{}", k.rule.id(), k.file, k.function, k.detail);
    for k in want.iter().filter(|k| !got.contains(k)) {
        eprintln!("  missing:    {}", fmt(k));
    }
    for k in got.iter().filter(|k| !want.contains(k)) {
        eprintln!("  unexpected: {}", fmt(k));
    }
    eprintln!(
        "expectations FAILED: scan produced {} finding(s), {} lists {}",
        got.len(),
        path.display(),
        want.len()
    );
    Ok(ExitCode::FAILURE)
}

/// Review mode: report only the findings introduced vs `git_ref`.
/// Exit 0 when the change introduces nothing, 1 otherwise.
fn diff_mode(
    root: &std::path::Path,
    scan_opts: &ScanOptions,
    git_ref: &str,
    opts: &Options,
) -> ExitCode {
    let changed = match diff::git_changed_files(root, git_ref) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("genio-analyzer: --diff {git_ref}: {e}");
            return ExitCode::from(2);
        }
    };
    let d = match diff::diff_scan(root, scan_opts, git_ref, &changed) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("genio-analyzer: diff scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "genio-analyzer: diff vs {}: {} changed file(s), {} introduced finding(s)",
        d.base_ref,
        d.changed_files.len(),
        d.findings.len()
    );
    println!(
        "  workers: {} | cache: {} hit(s), {} miss(es)",
        d.stats.threads, d.stats.cache_hits, d.stats.cache_misses
    );
    for f in &d.findings {
        println!(
            "  [{}] {}:{} ({}) {}",
            f.rule.id(),
            f.file,
            f.line,
            f.function,
            f.detail
        );
    }
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, d.to_json().to_string()) {
            eprintln!("genio-analyzer: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote diff report to {}", path.display());
    }
    if let Some(path) = &opts.sarif {
        // In diff mode the SARIF export carries the *introduced* set —
        // exactly what a review UI should annotate on the change.
        let export = Report {
            files: d.changed_files.len() as u64,
            findings: d.findings.clone(),
            ..Report::default()
        };
        if let Err(e) = std::fs::write(path, diff::to_sarif(&export).to_string()) {
            eprintln!("genio-analyzer: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote SARIF export to {}", path.display());
    }
    if d.findings.is_empty() {
        println!("diff OK: change introduces no findings");
        ExitCode::SUCCESS
    } else {
        eprintln!("diff FAILED: fix the introduced sites above");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| workspace::find_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("genio-analyzer: no workspace root found (use --root)");
            return ExitCode::from(2);
        }
    };

    let cache_path = if opts.no_cache {
        None
    } else {
        Some(opts.cache.clone().unwrap_or_else(|| {
            root.join("target").join("genio-analyzer").join("cache.bin")
        }))
    };
    let telemetry = Telemetry::enabled();
    let scan_opts = ScanOptions {
        threads: opts.threads,
        cache_path,
        telemetry: telemetry.clone(),
        rules: opts.rules.clone(),
    };

    if let Some(git_ref) = &opts.diff {
        return diff_mode(&root, &scan_opts, git_ref, &opts);
    }

    let (report, stats) = match workspace::scan_with(&root, &scan_opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("genio-analyzer: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "genio-analyzer: scanned {} files / {} lines under {}",
        report.files,
        report.lines,
        root.display()
    );
    println!(
        "  workers: {} | cache: {} hit(s), {} miss(es) | suppressed by dataflow: {} | allowed by annotation: {}",
        stats.threads,
        stats.cache_hits,
        stats.cache_misses,
        report.suppressed,
        report.allowed
    );
    let snapshot = telemetry.snapshot();
    for stage in [
        "analyzer.files",
        "analyzer.dataflow",
        "analyzer.sidechannel",
        "analyzer.concurrency",
        "analyzer.panicfree",
        "analyzer.lifecycle",
        "analyzer.scan",
    ] {
        if let Some(h) = snapshot.histogram(&format!("{stage}_ns")) {
            println!("  {:<18} {:>9.3} ms", stage, h.sum as f64 / 1e6);
        }
    }
    for (rule, count) in report.rule_counts() {
        println!("  {}  {:<55} {:>4}", rule.id(), rule.title(), count);
    }
    println!("  total findings: {}", report.findings.len());

    if opts.list_findings {
        for f in &report.findings {
            println!(
                "  [{}] {}:{} ({}) {}",
                f.rule.id(),
                f.file,
                f.line,
                f.function,
                f.detail
            );
        }
    }

    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, report.to_json().to_string()) {
            eprintln!("genio-analyzer: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote report to {}", path.display());
    }

    if let Some(path) = &opts.sarif {
        if let Err(e) = std::fs::write(path, diff::to_sarif(&report).to_string()) {
            eprintln!("genio-analyzer: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote SARIF export to {}", path.display());
    }

    if let Some(path) = &opts.expect {
        return match check_expected(&report, path) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("genio-analyzer: {e}");
                ExitCode::from(2)
            }
        };
    }

    let baseline_path = opts
        .baseline
        .unwrap_or_else(|| root.join("analyzer-baseline.json"));

    if opts.write_baseline {
        return match std::fs::write(&baseline_path, report.to_json().to_string()) {
            Ok(()) => {
                println!(
                    "wrote baseline ({} findings) to {}",
                    report.findings.len(),
                    baseline_path.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!(
                    "genio-analyzer: cannot write {}: {e}",
                    baseline_path.display()
                );
                ExitCode::from(2)
            }
        };
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "genio-analyzer: no baseline at {} ({e}); run with --write-baseline first",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let baseline = match Report::from_json_text(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "genio-analyzer: malformed baseline {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };

    let d = ratchet_diff(&report.findings, &baseline.findings);
    if !d.fixed.is_empty() {
        let gone: usize = d.fixed.iter().map(|(_, n)| n).sum();
        println!(
            "ratchet: {gone} baseline finding(s) fixed — run --write-baseline to shrink the baseline"
        );
    }
    if d.passes() {
        println!(
            "ratchet OK: no findings beyond the {}-finding baseline",
            baseline.findings.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("ratchet FAILED: {} new finding(s) vs baseline:", d.new.len());
        for f in &d.new {
            eprintln!(
                "  [{}] {}:{} ({}) {}",
                f.rule.id(),
                f.file,
                f.line,
                f.function,
                f.detail
            );
        }
        eprintln!("fix the sites or, for accepted debt, refresh with --write-baseline");
        ExitCode::FAILURE
    }
}
