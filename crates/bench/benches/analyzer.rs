//! E-A — **Lesson 7, priced**: the self-hosted analyzer must stay cheap
//! enough to run on every commit, on the tree it actually guards.
//!
//! One harness, four inputs: `workspace` (E-A1: a copy of this
//! workspace's `crates/*/src` and `src/`), `bulk` (E-A2: 6 crates × 14
//! files of clean arithmetic), `crypto_core` (E-A3: 4 × 12 bulk files
//! plus a secret-heavy `crypto` and a lock-heavy `core` crate) and
//! `hotpath` (E-A4: 6 × 20 bulk files plus one 8-stage hot-path module
//! per crate). Every input gets the rows `cold` (serial, uncached),
//! `warm` (cache fully populated), `edit` (one file changed since the
//! cache was written) and `diff` (a one-file `--diff` over a warm
//! tree); a synthetic input also gets the cold variant its bound needs,
//! sampled in lockstep with `cold` (`BenchmarkGroup::bench_paired`) so
//! that its bound reads the median of the per-pair ratios. The warm,
//! edit and diff bounds divide row medians.
//!
//! Asserted on every input before timing: warm and cold reports are
//! byte-identical, and a one-file edit costs exactly one cache miss and
//! reports what a cold scan of the edited tree reports. After timing,
//! each input prints its medians and a per-pass self-time table from
//! the `analyzer.*` spans, and each synthetic input asserts its bounds
//! (see `bench`), on the corpus shape each was introduced on. The
//! workspace, which also prints the findings table and ratchet line,
//! asserts no speed bound.

use std::fmt::Debug;
use std::fs;
use std::num::NonZeroUsize;
use std::ops::Bound::{Excluded, Unbounded};
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::sync::Once;

use genio_analyzer::baseline::{diff, Report};
use genio_analyzer::diff::diff_scan;
use genio_analyzer::rules::Rule;
use genio_analyzer::workspace::{self, scan_with, ScanOptions};
use genio_bench::print_experiment_once;
use genio_telemetry::{Snapshot, Telemetry};
use genio_testkit::bench::{Criterion, Throughput};

static PRINTED: Once = Once::new();

/// Acceptance bound: cold over warm, every synthetic input.
const MIN_WARM_SPEEDUP: f64 = 3.0;
/// Acceptance bound: cold over the cold run without the priced passes.
const MAX_PASS_OVERHEAD: f64 = 1.5;
/// Acceptance bound: cold over a one-file diff scan (`hotpath`).
const MIN_DIFF_SPEEDUP: f64 = 5.0;

const FNS_PER_FILE: usize = 4;
/// The per-file pass and the cross-file passes.
const PASSES: [&str; 6] = [
    "analyzer.files",
    "analyzer.dataflow",
    "analyzer.sidechannel",
    "analyzer.concurrency",
    "analyzer.panicfree",
    "analyzer.lifecycle",
];

/// One synthetic corpus shape.
struct Shape {
    /// Bulk crates, each with `files` modules of `lines`-line functions.
    crates: usize,
    files: usize,
    lines: usize,
    /// Add a secret-handling `crypto` and a lock-discipline `core` crate.
    crypto_core: bool,
    /// Call-chain depth of each bulk crate's hot-path module (0 = none).
    hot_stages: usize,
}

const BULK: Shape = Shape { crates: 6, files: 14, lines: 60, crypto_core: false, hot_stages: 0 };
const CRYPTO_CORE: Shape =
    Shape { crates: 4, files: 12, lines: 50, crypto_core: true, hot_stages: 0 };
const HOTPATH: Shape =
    Shape { crates: 6, files: 20, lines: 100, crypto_core: false, hot_stages: 8 };
/// The file every synthetic input edits.
const EDITED: &str = "crates/gen00/src/m00.rs";

/// Long clean arithmetic functions with unique bodies: real per-byte
/// work for the lexer and the per-file rules, no findings.
fn bulk_file(file_id: usize, lines: usize) -> String {
    let mut src =
        String::from("//! Generated bench corpus file — deterministic, do not edit.\n\n");
    for f in 0..FNS_PER_FILE {
        let id = file_id * FNS_PER_FILE + f;
        src.push_str(&format!(
            "/// Mixes the inputs with round constant {id}.\n\
             pub fn work_{id}(x: u32, y: u32) -> u32 {{\n\
             \x20   let mut acc = x ^ {id};\n"
        ));
        for line in 0..lines {
            let k = (id * lines + line) as u32;
            src.push_str(&format!(
                "    acc ^= (acc << {}) ^ (y >> {}) ^ 0x{:08x};\n",
                1 + line % 7,
                line % 5,
                k.wrapping_mul(2_654_435_761)
            ));
        }
        src.push_str("    acc\n}\n\n");
    }
    src
}

/// Key material mixed and indexed by public values only: maximal
/// taint-closure work for R10–R12, no findings.
fn crypto_file(file_idx: usize, lines: usize) -> String {
    let mut src =
        String::from("//! Generated secret-handling corpus — deterministic, do not edit.\n\n");
    for f in 0..FNS_PER_FILE {
        let id = file_idx * FNS_PER_FILE + f;
        src.push_str(&format!(
            "/// Round {id} keystream mix.\n\
             pub fn absorb_{id}(key: &[u8], tag: &[u8], i: usize) -> u8 {{\n\
             \x20   let mut acc = 0u8;\n\
             \x20   let k0 = key[i];\n\
             \x20   let t0 = tag[i];\n"
        ));
        for line in 0..lines / 2 {
            src.push_str(&format!(
                "    acc |= (k0 ^ t0).rotate_left({});\n    acc ^= {};\n",
                line % 8,
                (id + line) % 251
            ));
        }
        src.push_str("    if i < key.len() {\n        acc |= 1;\n    }\n    acc\n}\n\n");
    }
    src
}

/// Consistent-order guard pairs and counter atomics: a real, acyclic
/// lock graph for R13–R14.
fn core_file(file_idx: usize) -> String {
    let mut src =
        String::from("//! Generated lock-discipline corpus — deterministic, do not edit.\n\n");
    for f in 0..FNS_PER_FILE {
        let id = file_idx * FNS_PER_FILE + f;
        src.push_str(&format!(
            "/// Shard step {id}: canonical lock order, counter telemetry.\n\
             pub fn step_{id}(ingress_mu: &M, egress_mu: &M, served: &A) -> u64 {{\n\
             \x20   let g1 = ingress_mu.lock();\n\
             \x20   let g2 = egress_mu.lock();\n\
             \x20   served.fetch_add(1, Ordering::Relaxed);\n\
             \x20   let total = served.load(Ordering::Relaxed);\n\
             \x20   drop(g2);\n\
             \x20   drop(g1);\n\
             \x20   total\n\
             }}\n\n"
        ));
    }
    src
}

/// A `seal_many` entry over a chain of guarded index stages plus a
/// scrubbed teardown: every site discharges, so R16/R17 do their full
/// per-path work and report nothing.
fn hot_file(c: usize, stages: usize) -> String {
    let mut src = format!(
        "//! Generated hot-path module {c} — deterministic, do not edit.\n\n\
         pub struct LinkKey{c}(pub [u8; 32]);\n\n\
         pub fn seal_many(frames: &[u8], at: usize) -> u8 {{\n\
         \x20   stage_{c}_0(frames, at)\n\
         }}\n\n\
         pub fn close_channel_{c}(mut link_key: LinkKey{c}) {{\n\
         \x20   link_key.fill(0);\n\
         }}\n\n"
    );
    for k in 0..stages {
        let next = if k + 1 < stages {
            format!("stage_{c}_{}(frames, at ^ {k})", k + 1)
        } else {
            "0".to_string()
        };
        src.push_str(&format!(
            "fn stage_{c}_{k}(frames: &[u8], at: usize) -> u8 {{\n\
             \x20   let head = if at < frames.len() {{ frames[at] }} else {{ 0 }};\n\
             \x20   let tab: [u8; 64] = [{k}; 64];\n\
             \x20   head ^ tab[at & 0x3f] ^ {next}\n\
             }}\n\n"
        ));
    }
    src
}

/// Writes `crates/<name>/src/` with one module per `(name, text)` pair.
fn write_crate(root: &Path, name: &str, modules: &[(String, String)]) {
    let src = root.join(format!("crates/{name}/src"));
    fs::create_dir_all(&src).expect("corpus dir");
    let mut lib = String::from("#![forbid(unsafe_code)]\n\n");
    for (module, text) in modules {
        lib.push_str(&format!("pub mod {module};\n"));
        fs::write(src.join(format!("{module}.rs")), text).expect("corpus file");
    }
    fs::write(src.join("lib.rs"), lib).expect("corpus lib.rs");
}

fn generate(shape: &Shape, root: &Path) {
    let module = |f: usize, text: String| (format!("m{f:02}"), text);
    for c in 0..shape.crates {
        let mut modules = Vec::new();
        if shape.hot_stages > 0 {
            modules.push(("hot".to_string(), hot_file(c, shape.hot_stages)));
        }
        let files = shape.files;
        modules.extend((0..files).map(|f| module(f, bulk_file(c * files + f, shape.lines))));
        write_crate(root, &format!("gen{c:02}"), &modules);
    }
    if shape.crypto_core {
        let crypto: Vec<_> =
            (0..shape.files).map(|f| module(f, crypto_file(f, shape.lines))).collect();
        write_crate(root, "crypto", &crypto);
        let core: Vec<_> = (0..shape.files).map(|f| module(f, core_file(f))).collect();
        write_crate(root, "core", &core);
    }
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("mkdir");
    for entry in fs::read_dir(from).expect("readdir") {
        let path = entry.expect("dir entry").path();
        let dst = to.join(path.file_name().expect("file name"));
        if path.is_dir() {
            copy_tree(&path, &dst);
        } else {
            fs::copy(&path, &dst).expect("copy");
        }
    }
}

/// Copies exactly what the scanner reads: `crates/*/src` and `src/`.
fn copy_workspace(repo: &Path, root: &Path) {
    for entry in fs::read_dir(repo.join("crates")).expect("crates dir") {
        let src = entry.expect("dir entry").path().join("src");
        if let (true, Some(name)) = (src.is_dir(), src.parent().and_then(Path::file_name)) {
            copy_tree(&src, &root.join("crates").join(name).join("src"));
        }
    }
    copy_tree(&repo.join("src"), &root.join("src"));
}

/// Median per row of one input, `cold` first.
struct Medians {
    input: &'static str,
    rows: Vec<(&'static str, f64)>,
    /// The cold variant and the median of its per-pair `cold / variant`
    /// ratios: it is sampled in lockstep with `cold`, so a slow spell of
    /// the host moves both halves of a pair instead of one median.
    paired: Option<(&'static str, f64)>,
}

impl Medians {
    fn speedup(&self, row: &str) -> f64 {
        if let Some((_, x)) = self.paired.filter(|(paired, _)| *paired == row) {
            return x;
        }
        let of = |name: &str| self.rows.iter().find(|(r, _)| *r == name).map(|(_, ns)| *ns);
        of("cold").zip(of(row)).map_or(f64::NAN, |(cold, ns)| cold / ns)
    }

    /// Asserts that `cold / row` lies in `bound`.
    fn check(&self, row: &str, bound: impl RangeBounds<f64> + Debug) {
        let x = self.speedup(row);
        let what = format!("{}: cold/{row} = {x:.2}x", self.input);
        assert!(bound.contains(&x), "E-A bound violated on {what}, not in {bound:?}");
    }
}

struct Input {
    name: &'static str,
    root: PathBuf,
    cache: PathBuf,
    /// The edited file: `rel` flips between `original` and `edited` (the
    /// same text plus one appended function), so every scan after a flip
    /// sees exactly one changed file.
    rel: String,
    original: String,
    edited: String,
    /// The cold variant a bound compares against. Only the synthetic
    /// corpora have one; they scan clean and carry speed bounds.
    variant: Option<(&'static str, ScanOptions)>,
    bounds: fn(&Medians),
}

impl Input {
    fn new(
        scratch: &Path,
        name: &'static str,
        fill: impl FnOnce(&Path),
        rel: &str,
        variant: Option<(&'static str, ScanOptions)>,
        bounds: fn(&Medians),
    ) -> Input {
        let dir = scratch.join(name);
        let _ = fs::remove_dir_all(&dir);
        let root = dir.join("tree");
        fill(&root);
        let original = fs::read_to_string(root.join(rel)).expect("edit target");
        let edited = format!(
            "{original}\n/// Review-time addition.\npub fn mix_extra(x: u32) -> u32 {{\n    \
             x ^ 0x5a5a\n}}\n"
        );
        let (rel, cache) = (rel.to_string(), dir.join("cache.bin"));
        Input { name, root, cache, rel, original, edited, variant, bounds }
    }

    fn write_edit(&self, edited: bool) {
        let text = if edited { &self.edited } else { &self.original };
        fs::write(self.root.join(&self.rel), text).expect("write edit target");
    }

    fn cold(&self, telemetry: Telemetry) -> ScanOptions {
        ScanOptions { threads: 1, telemetry, ..ScanOptions::default() }
    }

    fn warm(&self, telemetry: Telemetry) -> ScanOptions {
        ScanOptions { cache_path: Some(self.cache.clone()), ..self.cold(telemetry) }
    }

    /// The original text as the base revision of a `--diff`.
    fn changed(&self) -> [(String, Option<String>); 1] {
        [(self.rel.clone(), Some(self.original.clone()))]
    }
}

/// A serial cold scan with the passes behind `skipped` turned off.
fn without(skipped: &[Rule]) -> ScanOptions {
    let rules = Rule::ALL.into_iter().filter(|r| !skipped.contains(r)).collect();
    ScanOptions { threads: 1, rules: Some(rules), ..ScanOptions::default() }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

fn json(report: &Report) -> String {
    report.to_json().to_string()
}

/// The shared invariants, checked before anything is timed.
fn check_invariants(input: &Input) -> Report {
    let (name, root) = (input.name, input.root.as_path());
    let warm = input.warm(Telemetry::disabled());
    let _ = fs::remove_file(&input.cache);
    let (cold, seed) = scan_with(root, &warm).expect("seed scan");
    assert_eq!(seed.cache_hits, 0, "{name}: seed scan must start cold");
    let (again, stats) = scan_with(root, &warm).expect("warm scan");
    assert_eq!(stats.cache_misses, 0, "{name}: cache must absorb a warm scan");
    assert_eq!(json(&cold), json(&again), "{name}: warm report differs from cold");
    assert!(input.variant.is_none() || cold.findings.is_empty(), "{name}: must scan clean");

    input.write_edit(true);
    let (edited, stats) = scan_with(root, &warm).expect("edit scan");
    assert_eq!(stats.cache_misses, 1, "{name}: a one-file edit must cost one miss");
    assert_eq!(stats.cache_hits, cold.files - 1, "{name}: every other file must hit");
    let (fresh, _) = scan_with(root, &input.cold(Telemetry::disabled())).expect("cold scan");
    assert_eq!(json(&edited), json(&fresh), "{name}: edit scan differs from cold");
    let d = diff_scan(root, &warm, "bench-base", &input.changed()).expect("diff scan");
    assert!(d.findings.is_empty(), "{name}: the edit introduces nothing");

    input.write_edit(false);
    let (reverted, _) = scan_with(root, &warm).expect("revert scan");
    assert_eq!(json(&reverted), json(&cold), "{name}: revert must restore the report");
    cold
}

/// Times the input's rows, prints their medians and the per-pass
/// self-time of the cold, warm and edit rows, then asserts the
/// input's bounds.
fn time_rows(c: &mut Criterion, input: &Input, files: u64) {
    let root = input.root.as_path();
    // Each profiled row records its own spans; a few span guards per
    // scan cost nothing measurable against a scan.
    let spans = [Telemetry::enabled(), Telemetry::enabled(), Telemetry::enabled()];
    let (cold, warm, edit) =
        (input.cold(spans[0].clone()), input.warm(spans[1].clone()), input.warm(spans[2].clone()));
    let mut group = c.benchmark_group(&format!("analyzer/{}", input.name));
    group.throughput(Throughput::Elements(files));
    let cold_scan = || scan_with(root, &cold).expect("scan");
    let paired = match &input.variant {
        Some((row, opts)) => {
            let variant = || scan_with(root, opts).expect("scan");
            let mut ratios: Vec<f64> =
                group.bench_paired("cold", cold_scan, row, variant).iter().map(|r| 1.0 / r).collect();
            ratios.sort_by(f64::total_cmp);
            ratios.get(ratios.len() / 2).map(|&x| (*row, x))
        }
        None => {
            group.bench_function("cold", |b| b.iter(cold_scan));
            None
        }
    };
    group.bench_function("warm", |b| b.iter(|| scan_with(root, &warm).expect("scan")));
    let mut edited = false;
    group.bench_function("edit", |b| {
        b.iter(|| {
            edited = !edited;
            input.write_edit(edited);
            scan_with(root, &edit).expect("scan")
        })
    });
    // Review mode: the edited tree is on disk and warm, the original
    // text plays the base revision.
    let review = input.warm(Telemetry::disabled());
    input.write_edit(true);
    scan_with(root, &review).expect("sync cache");
    let changed = input.changed();
    group.bench_function("diff", |b| {
        b.iter(|| diff_scan(root, &review, "bench-base", &changed).expect("diff scan"))
    });
    group.finish();

    let mut rows = vec!["cold", "warm", "edit", "diff"];
    rows.extend(input.variant.as_ref().map(|(row, _)| *row));
    let median = |row: &'static str| {
        let name = format!("analyzer/{}/{row}", input.name);
        c.records().iter().find(|r| r.name == name).map(|r| (row, r.median_ns))
    };
    // A `--filter` run can skip rows; no verdict then.
    let Some(rows) = rows.into_iter().map(median).collect::<Option<Vec<_>>>() else {
        return;
    };
    let medians = Medians { input: input.name, rows, paired };
    println!("\n{}: {files} files", input.name);
    for (row, ns) in &medians.rows {
        let how = if paired.is_some_and(|(p, _)| p == *row) { "(median per pair)" } else { "" };
        println!(
            "  {row:<16} {:>9.2} ms  cold/row {:>6.2}x {how}",
            ns / 1e6,
            medians.speedup(row)
        );
    }
    println!("  {:<20} {:>17} {:>17} {:>17}", "self-time per scan", "cold", "warm", "edit");
    let profiles: Vec<_> = spans.iter().map(|t| t.snapshot()).collect();
    for pass in PASSES.iter().chain(&["analyzer.scan"]) {
        print!("  {pass:<20}");
        for snapshot in &profiles {
            let (total, own) = self_time(snapshot, pass);
            print!(" {:>8.2} ms {:>4.0}%", own / 1e6, 100.0 * own / total);
        }
        println!();
    }
    (input.bounds)(&medians);
}

/// Mean time per scan of `analyzer.scan` and `pass`'s self-time in it.
/// Every pass is a direct child of `analyzer.scan`, so a pass's own time
/// is its self-time; `analyzer.scan`'s own remainder is reading,
/// hashing, cache I/O, R3 and suppression.
fn self_time(snapshot: &Snapshot, pass: &str) -> (f64, f64) {
    let sum = |span: &str| snapshot.histogram(&format!("{span}_ns")).map_or(0, |h| h.sum) as f64;
    let scans = snapshot.histogram("analyzer.scan_ns").map_or(1, |h| h.count.max(1)) as f64;
    let own = match pass {
        "analyzer.scan" => sum(pass) - PASSES.iter().map(|p| sum(p)).sum::<f64>(),
        _ => sum(pass),
    };
    (sum("analyzer.scan") / scans, own / scans)
}

/// E-A1's findings table and ratchet line.
fn findings_table(repo: &Path, report: &Report) -> String {
    let mut body = format!(
        "self-scan of the workspace: {} files / {} lines\n\n\
         \x20 rule  description                                            count\n",
        report.files, report.lines
    );
    for (rule, count) in report.rule_counts() {
        body.push_str(&format!("  {:<4}  {:<55} {:>4}\n", rule.id(), rule.title(), count));
    }
    body.push_str(&format!("  total findings: {}\n\n", report.findings.len()));
    match fs::read_to_string(repo.join("analyzer-baseline.json"))
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
    body
}

fn bench(c: &mut Criterion) {
    c.experiment_id("E-A");
    let repo = workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("bench runs inside the workspace tree");
    let scratch = repo.join("target/genio-analyzer-bench");
    let ws = Input::new(
        &scratch,
        "workspace",
        |root| copy_workspace(&repo, root),
        "crates/crypto/src/gcm.rs",
        None,
        |_| {},
    );
    let bulk = Input::new(
        &scratch,
        "bulk",
        |root| generate(&BULK, root),
        EDITED,
        Some(("cold_parallel", ScanOptions::default())),
        |m| {
            m.check("warm", MIN_WARM_SPEEDUP..);
            if cpus() > 1 {
                m.check("cold_parallel", (Excluded(1.0), Unbounded));
            }
        },
    );
    let no_r10_r14 = without(&[
        Rule::R10SecretBranch,
        Rule::R11SecretIndex,
        Rule::R12VariableTimeOp,
        Rule::R13LockOrderCycle,
        Rule::R14RelaxedSyncFlag,
    ]);
    let crypto_core = Input::new(
        &scratch,
        "crypto_core",
        |root| generate(&CRYPTO_CORE, root),
        EDITED,
        Some(("cold_no_r10_r14", no_r10_r14)),
        |m| {
            m.check("cold_no_r10_r14", ..MAX_PASS_OVERHEAD);
            m.check("warm", MIN_WARM_SPEEDUP..);
        },
    );
    let no_r16_r18 =
        without(&[Rule::R16PanicReachable, Rule::R17SecretLifecycle, Rule::R18DiffAware]);
    let hotpath = Input::new(
        &scratch,
        "hotpath",
        |root| generate(&HOTPATH, root),
        EDITED,
        Some(("cold_no_r16_r18", no_r16_r18)),
        |m| {
            m.check("cold_no_r16_r18", ..MAX_PASS_OVERHEAD);
            m.check("warm", MIN_WARM_SPEEDUP..);
            m.check("diff", MIN_DIFF_SPEEDUP..);
        },
    );

    let self_scan = check_invariants(&ws);
    let body = format!("{}host CPUs: {}", findings_table(&repo, &self_scan), cpus());
    print_experiment_once(
        &PRINTED,
        "E-A / Lesson 7 — genio-analyzer from cold scan to one-file diff",
        &body,
    );
    c.bench_function("analyzer/workspace/ratchet_diff", |b| {
        b.iter(|| diff(&self_scan.findings, &self_scan.findings))
    });
    time_rows(c, &ws, self_scan.files);
    for input in [&bulk, &crypto_core, &hotpath] {
        let cold = check_invariants(input);
        time_rows(c, input, cold.files);
    }
}

genio_testkit::bench_main!(bench);
