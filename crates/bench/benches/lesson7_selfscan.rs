//! E-A1 — **Lesson 7, applied to ourselves**: the self-hosted analyzer
//! scanning the workspace's own sources.
//!
//! The paper's Lesson 7 observes that OSS SAST on a custom stack is
//! noisy and lacks reachability linking. `genio-analyzer` is the
//! response: lexical rules over every crate's `src/` tree, an
//! interprocedural pass that discharges parser-facing (R4/R5) findings
//! whose bounds are provable across function boundaries, and a ratchet
//! baseline so the committed debt only ever shrinks. This target
//! reports the per-rule findings table and measures scan throughput in
//! files per second.

use std::path::Path;
use std::sync::Once;

use genio_analyzer::baseline::{diff, Report};
use genio_analyzer::rules::Rule;
use genio_analyzer::workspace;
use genio_bench::print_experiment_once;
use genio_testkit::bench::{Criterion, Throughput};

static PRINTED: Once = Once::new();

fn repo_root() -> std::path::PathBuf {
    workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("bench runs inside the workspace tree")
}

fn print_table(root: &Path, report: &Report) {
    let mut body = String::new();
    body.push_str(&format!(
        "self-scan of the workspace: {} files / {} lines\n\n",
        report.files, report.lines
    ));
    body.push_str("  rule  description                                            count\n");
    for (rule, count) in report.rule_counts() {
        body.push_str(&format!("  {:<4}  {:<55} {:>4}\n", rule.id(), rule.title(), count));
    }
    body.push_str(&format!("  total findings: {}\n\n", report.findings.len()));

    match std::fs::read_to_string(root.join("analyzer-baseline.json"))
        .map_err(|e| e.to_string())
        .and_then(|t| Report::from_json_text(&t))
    {
        Ok(baseline) => {
            let d = diff(&report.findings, &baseline.findings);
            body.push_str(&format!(
                "ratchet: {} grandfathered in baseline, {} new, {} fixed — gate {}\n",
                baseline.findings.len(),
                d.new.len(),
                d.fixed.len(),
                if d.passes() { "PASSES" } else { "FAILS" }
            ));
        }
        Err(e) => body.push_str(&format!("ratchet: baseline unavailable ({e})\n")),
    }

    print_experiment_once(
        &PRINTED,
        "E-A1 / Lesson 7 self-scan — genio-analyzer over the workspace",
        &body,
    );
}

fn bench(c: &mut Criterion) {
    c.experiment_id("E-A1");
    let root = repo_root();
    let report = workspace::scan(&root).expect("self-scan succeeds");
    print_table(&root, &report);

    let files = report.files;
    let mut group = c.benchmark_group("selfscan");
    group.throughput(Throughput::Elements(files));
    group.bench_function("full_workspace", |b| {
        b.iter(|| std::hint::black_box(workspace::scan(&root).expect("scan")))
    });
    group.finish();

    c.bench_function("selfscan/ratchet_diff", |b| {
        b.iter(|| std::hint::black_box(diff(&report.findings, &report.findings)))
    });
    c.bench_function("selfscan/r1_count", |b| {
        b.iter(|| {
            std::hint::black_box(
                report
                    .findings
                    .iter()
                    .filter(|f| f.rule == Rule::R1PanicPath)
                    .count(),
            )
        })
    });
}

genio_testkit::bench_main!(bench);
