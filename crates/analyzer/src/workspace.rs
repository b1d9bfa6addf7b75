//! Workspace discovery and the full multi-stage scan.
//!
//! The unit of scanning is a *workspace tree*: a directory with a
//! `crates/<name>/src/` layout (plus an optional root `src/` for the
//! facade package). The real repository and the fixture corpora under
//! `tests/` share this shape, so every test drives the exact code path
//! the verify gate runs.
//!
//! [`scan_with`] runs the v4 pipeline:
//!
//! 1. **discover** — enumerate crate src trees and their `.rs` files
//!    into a sorted, deterministic job list;
//! 2. **hash + look up** (main thread) — read and content-hash every
//!    file and look up its [`crate::cache`] entry. Per-file facts are a
//!    pure function of the file's bytes and the rule set, so the content
//!    hash alone decides freshness: a one-file edit is exactly one miss,
//!    however many other files call into it;
//! 3. **per-file pass** (parallel) — for every miss, tokenize,
//!    annotate, rule-scan and summarize. Misses are split into
//!    contiguous chunks over `std::thread` scoped workers and the
//!    results merged back *in job order*, so the thread count can never
//!    change the report. A worker that panics fails the scan: its panic
//!    resumes on the calling thread;
//! 4. **cross-file passes** (serial, always fresh) — R3 per crate, then
//!    the interprocedural [`crate::dataflow`] walk, the
//!    [`crate::sidechannel`] pass (R10–R12), the [`crate::concurrency`]
//!    pass (R13–R14), the [`crate::panicfree`] closure (R16) and the
//!    [`crate::lifecycle`] pass (R17) over the whole workspace;
//! 5. **suppression + filter** — findings covered by a line-scoped
//!    `// genio-analyzer: allow(...)` comment are dropped (counted in
//!    the report's `allowed` field), then an optional
//!    [`ScanOptions::rules`] filter trims the report to the selected
//!    rules;
//! 6. **cache write-back** — only when at least one file missed (and
//!    never from a [`scan_with_base`] historical scan).
//!
//! [`scan_with_base`] runs the same pipeline against a *spliced* tree —
//! per-file content overrides for changed files plus synthesized jobs
//! for files that only exist at the base revision — which is how
//! [`crate::diff`] reconstructs the base report without a checkout.
//!
//! Stage timings are recorded as `genio-telemetry` spans
//! (`analyzer.scan`, `analyzer.files`, `analyzer.dataflow`,
//! `analyzer.sidechannel`, `analyzer.concurrency`,
//! `analyzer.panicfree`, `analyzer.lifecycle`) on the calling thread;
//! cache traffic lands in [`ScanStats`], *not* in the report, so cold
//! and warm scans stay byte-identical.

use std::fs;
use std::io;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use genio_telemetry::Telemetry;

use crate::baseline::{sort_findings, Report};
use crate::cache::{content_hash, Cache, FileEntry};
use crate::callgraph::FileFacts;
use crate::concurrency;
use crate::dataflow;
use crate::lexer::tokenize;
use crate::rules::{
    annotate, collect_allows, has_forbid_unsafe, scan_tokens, Allow, FileContext,
    Finding, Rule,
};
use crate::sidechannel;
use crate::summary::summarize;

/// Knobs for [`scan_with`]. `Default` is a serial, uncached, untimed
/// scan — exactly what the fixture tests want.
#[derive(Default)]
pub struct ScanOptions {
    /// Worker threads for the per-file pass; `0` means one per
    /// available CPU.
    pub threads: usize,
    /// Cache file to read and write back; `None` disables caching.
    pub cache_path: Option<PathBuf>,
    /// Telemetry handle for stage spans (disabled handles are no-ops).
    pub telemetry: Telemetry,
    /// Restrict the report to these rules (`None` keeps all). Passes
    /// whose every rule is filtered out are skipped entirely, which is
    /// how the `analyzer` bench prices the R10–R14 and R16–R18 passes.
    pub rules: Option<Vec<Rule>>,
}

impl ScanOptions {
    fn wants(&self, rule: Rule) -> bool {
        self.rules.as_ref().map_or(true, |rs| rs.contains(&rule))
    }
}

/// Side-channel facts about a scan that must stay out of the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Files visited.
    pub files: u64,
    /// Files served from the cache.
    pub cache_hits: u64,
    /// Files re-scanned.
    pub cache_misses: u64,
    /// Worker threads actually used.
    pub threads: usize,
}

/// Locates the enclosing workspace root by walking up from `start`
/// until a directory containing both `Cargo.toml` and `crates/` is
/// found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

/// The `(crate name, src dir)` pairs of a workspace tree, sorted by
/// name. The root facade package scans as crate `genio`.
fn crate_src_dirs(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let path = entry?.path();
            let src = path.join("src");
            if src.is_dir() {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    out.push((name.to_string(), src));
                }
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        out.push(("genio".to_string(), root_src));
    }
    out.sort();
    Ok(out)
}

/// Recursively lists `.rs` files under `dir`, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// One file to scan, with everything precomputed on the main thread.
/// `content` overrides the on-disk bytes (base-revision scans).
struct Job {
    crate_name: String,
    path: PathBuf,
    rel: String,
    file_name: String,
    content: Option<String>,
}

/// Per-file result: the cache entry (fresh or reused) plus provenance.
struct Processed {
    crate_name: String,
    rel: String,
    file_name: String,
    entry: FileEntry,
    hit: bool,
}

/// A completed scan plus the per-file facts it computed. [`rescan_with_base`]
/// rebuilds the base-revision report from one of these by re-lexing only
/// the overridden files — no file I/O, hashing or cache traffic for the
/// untouched rest of the tree. This is what makes `--diff` two *small*
/// scans instead of two full ones.
pub struct Snapshot {
    root: PathBuf,
    crates: Vec<(String, PathBuf)>,
    processed: Vec<Processed>,
}

/// One hashed job awaiting either a cache hit or a worker re-scan.
struct Prepared {
    src: String,
    hash: String,
    cached: Option<FileEntry>,
}

/// Lex/scan/summarize one miss (the source is already in memory).
fn process_miss(job: &Job, prep: &Prepared) -> Processed {
    let tokens = tokenize(&prep.src);
    let is_crate_root = job.file_name == "lib.rs" || job.file_name == "main.rs";
    let has_forbid = is_crate_root && has_forbid_unsafe(&tokens);
    let ann = annotate(tokens);
    let ctx = FileContext {
        crate_name: &job.crate_name,
        rel_path: &job.rel,
        file_name: &job.file_name,
    };
    let (findings, accesses) = scan_tokens(&ctx, &ann);
    let allows = collect_allows(&ann);
    Processed {
        crate_name: job.crate_name.clone(),
        rel: job.rel.clone(),
        file_name: job.file_name.clone(),
        entry: FileEntry {
            hash: prep.hash.clone(),
            lines: prep.src.lines().count() as u64,
            is_crate_root,
            has_forbid,
            findings,
            accesses,
            allows,
            summary: summarize(&ann),
        },
        hit: false,
    }
}

/// Serial, uncached scan — the v1 signature, kept for tests and simple
/// callers.
pub fn scan(root: &Path) -> io::Result<Report> {
    scan_with(root, &ScanOptions::default()).map(|(report, _)| report)
}

/// Stage 1: deterministic job discovery (crates sorted, files sorted).
fn discover_jobs(root: &Path) -> io::Result<(Vec<(String, PathBuf)>, Vec<Job>)> {
    let crates = crate_src_dirs(root)?;
    let mut jobs: Vec<Job> = Vec::new();
    for (crate_name, src_dir) in &crates {
        let mut files = Vec::new();
        rust_files(src_dir, &mut files)?;
        for path in files {
            let rel = rel_path(root, &path);
            let file_name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            jobs.push(Job {
                crate_name: crate_name.clone(),
                path,
                rel,
                file_name,
                content: None,
            });
        }
    }
    Ok((crates, jobs))
}

/// Full pipeline scan with threading, caching and telemetry.
pub fn scan_with(root: &Path, opts: &ScanOptions) -> io::Result<(Report, ScanStats)> {
    scan_snapshot(root, opts).map(|(report, stats, _)| (report, stats))
}

/// [`scan_with`], but also returns the [`Snapshot`] of per-file facts
/// so a follow-up [`rescan_with_base`] can skip everything untouched.
pub fn scan_snapshot(
    root: &Path,
    opts: &ScanOptions,
) -> io::Result<(Report, ScanStats, Snapshot)> {
    let (crates, jobs) = discover_jobs(root)?;
    let (report, stats, processed) = run_pipeline(root, opts, &crates, &jobs, true)?;
    let snapshot = Snapshot { root: root.to_path_buf(), crates, processed };
    Ok((report, stats, snapshot))
}

/// Scans the workspace *as of a base revision*: `base` maps
/// repo-relative paths of changed files to their base contents
/// (`Some(text)`), or to `None` for files that did not exist at the
/// base. Paths in `base` missing from the current tree (deleted files)
/// are synthesized back in from the provided contents. Cache entries
/// are read (unchanged files still hit) but never written back, so a
/// historical scan can never poison the warm path.
pub fn scan_with_base(
    root: &Path,
    opts: &ScanOptions,
    base: &[(String, Option<String>)],
) -> io::Result<(Report, ScanStats)> {
    let (crates, mut jobs) = discover_jobs(root)?;
    let overrides: std::collections::BTreeMap<&str, &Option<String>> =
        base.iter().map(|(rel, content)| (rel.as_str(), content)).collect();

    // Splice: replace changed files' contents, drop files absent at the
    // base, and re-create deleted files from their base contents.
    jobs.retain(|job| !matches!(overrides.get(job.rel.as_str()), Some(None)));
    let mut present: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for job in &mut jobs {
        present.insert(job.rel.clone());
        if let Some(Some(content)) = overrides.get(job.rel.as_str()) {
            job.content = Some(content.clone());
        }
    }
    for (rel, content) in base {
        let (Some(content), false) = (content, present.contains(rel)) else {
            continue;
        };
        let mut segments = rel.split('/');
        let crate_name = match segments.next() {
            Some("crates") => segments.next().unwrap_or("genio").to_string(),
            Some("src") => "genio".to_string(),
            _ => continue, // not a scanned location at the base either
        };
        jobs.push(Job {
            crate_name,
            path: root.join(rel),
            rel: rel.clone(),
            file_name: rel.rsplit('/').next().unwrap_or(rel).to_string(),
            content: Some(content.clone()),
        });
    }
    jobs.sort_by(|a, b| (&a.crate_name, &a.rel).cmp(&(&b.crate_name, &b.rel)));

    run_pipeline(root, opts, &crates, &jobs, false)
        .map(|(report, stats, _)| (report, stats))
}

/// Rebuilds the report of the spliced base tree from an existing
/// [`Snapshot`]: untouched files reuse their in-memory facts verbatim
/// (per-file facts are purely local, so this is output-identical to a
/// fresh [`scan_with_base`] — a differential test pins it), overridden
/// files are re-lexed from the provided contents, and the cross-file
/// passes run fresh over the rebased fact set.
pub fn rescan_with_base(
    snapshot: &Snapshot,
    opts: &ScanOptions,
    base: &[(String, Option<String>)],
) -> Report {
    let _scan_span = opts.telemetry.span("analyzer.scan");
    let overrides: std::collections::BTreeMap<&str, &Option<String>> =
        base.iter().map(|(rel, content)| (rel.as_str(), content)).collect();

    // Re-lex only the overridden files; everything else is reused.
    let mut fresh: Vec<Processed> = Vec::new();
    let mut reused: Vec<&Processed> = Vec::new();
    let mut present: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for p in &snapshot.processed {
        present.insert(p.rel.as_str());
        match overrides.get(p.rel.as_str()) {
            Some(None) => {} // absent at the base revision
            Some(Some(content)) => {
                let job = Job {
                    crate_name: p.crate_name.clone(),
                    path: snapshot.root.join(&p.rel),
                    rel: p.rel.clone(),
                    file_name: p.file_name.clone(),
                    content: None,
                };
                let prep = Prepared {
                    src: (*content).clone(),
                    hash: content_hash(content.as_bytes()),
                    cached: None,
                };
                fresh.push(process_miss(&job, &prep));
            }
            None => reused.push(p),
        }
    }
    // Files that only exist at the base revision (deleted since).
    for (rel, content) in base {
        let (Some(content), false) = (content, present.contains(rel.as_str())) else {
            continue;
        };
        let mut segments = rel.split('/');
        let crate_name = match segments.next() {
            Some("crates") => segments.next().unwrap_or("genio").to_string(),
            Some("src") => "genio".to_string(),
            _ => continue,
        };
        let job = Job {
            crate_name,
            path: snapshot.root.join(rel),
            rel: rel.clone(),
            file_name: rel.rsplit('/').next().unwrap_or(rel).to_string(),
            content: None,
        };
        let prep = Prepared {
            src: content.clone(),
            hash: content_hash(content.as_bytes()),
            cached: None,
        };
        fresh.push(process_miss(&job, &prep));
    }

    let mut rebased: Vec<&Processed> = reused;
    rebased.extend(fresh.iter());
    rebased.sort_by(|a, b| (&a.crate_name, &a.rel).cmp(&(&b.crate_name, &b.rel)));
    assemble_report(&snapshot.root, opts, &snapshot.crates, &rebased)
}

/// Stages 2–6 over a prepared job list.
fn run_pipeline(
    root: &Path,
    opts: &ScanOptions,
    crates: &[(String, PathBuf)],
    jobs: &[Job],
    write_back: bool,
) -> io::Result<(Report, ScanStats, Vec<Processed>)> {
    let _scan_span = opts.telemetry.span("analyzer.scan");

    let cache = match &opts.cache_path {
        Some(p) => Cache::load(p),
        None => Cache::default(),
    };

    // Stage 2: read + hash on the main thread. Per-file facts depend on
    // nothing but the file's bytes (and the rule set the cache is
    // versioned by), so an unchanged hash is a hit whatever else moved.
    let mut prepared: Vec<Prepared> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let src = match &job.content {
            Some(text) => text.clone(),
            None => String::from_utf8_lossy(&fs::read(&job.path)?).into_owned(),
        };
        let hash = content_hash(src.as_bytes());
        let cached = cache.lookup(&job.rel, &hash).cloned();
        prepared.push(Prepared { src, hash, cached });
    }

    // Stage 3: parallel per-file pass over the misses, contiguous
    // chunks merged back in job order so the thread count can never
    // change the report.
    let misses: Vec<usize> = prepared
        .iter()
        .enumerate()
        .filter(|(_, p)| p.cached.is_none())
        .map(|(i, _)| i)
        .collect();
    let auto = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let threads = match opts.threads {
        0 => auto,
        n => n,
    }
    .clamp(1, misses.len().max(1));
    let chunk_size = misses.len().div_ceil(threads).max(1);

    let mut processed: Vec<Option<Processed>> = Vec::with_capacity(jobs.len());
    processed.resize_with(jobs.len(), || None);
    {
        let _files_span = opts.telemetry.span("analyzer.files");
        let chunk_results = std::thread::scope(|scope| {
            let handles = misses
                .chunks(chunk_size.max(1))
                .map(|chunk| {
                    let prepared = &prepared;
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&i| (i, process_miss(&jobs[i], &prepared[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            join_in_order(handles)
        });
        for (i, p) in chunk_results.into_iter().flatten() {
            processed[i] = Some(p);
        }
    }
    let processed = jobs
        .iter()
        .zip(prepared)
        .zip(processed)
        .map(|((job, prep), fresh)| match (fresh, prep.cached) {
            (Some(p), _) => Ok(p),
            (None, Some(entry)) => Ok(Processed {
                crate_name: job.crate_name.clone(),
                rel: job.rel.clone(),
                file_name: job.file_name.clone(),
                entry,
                hit: true,
            }),
            // Every miss went to a worker, and a worker that panicked
            // has already failed the scan in `join_in_order`.
            (None, None) => Err(io::Error::other(format!(
                "no per-file result for {}",
                job.rel
            ))),
        })
        .collect::<io::Result<Vec<Processed>>>()?;

    let mut stats = ScanStats {
        files: processed.len() as u64,
        cache_hits: processed.iter().filter(|p| p.hit).count() as u64,
        cache_misses: processed.iter().filter(|p| !p.hit).count() as u64,
        threads,
    };

    let refs: Vec<&Processed> = processed.iter().collect();
    let report = assemble_report(root, opts, crates, &refs);

    // Stage 5: cache write-back, only when something was re-scanned and
    // never from a base-revision scan (its spliced contents would
    // poison the warm path for real files).
    if let Some(path) = &opts.cache_path {
        if write_back && stats.cache_misses > 0 {
            let mut fresh = Cache::default();
            for p in &processed {
                fresh.entries.insert(p.rel.clone(), p.entry.clone());
            }
            fresh.save(path)?;
        }
    }
    stats.files = report.files;
    Ok((report, stats, processed))
}

/// Joins scoped workers in spawn order. A panicked worker's panic is
/// resumed on the caller, so a failed worker fails the whole scan: the
/// per-file pass is deterministic, and re-running it on the same bytes
/// would only panic again or hide the failure.
fn join_in_order<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut outputs = Vec::with_capacity(handles.len());
    for handle in handles {
        match handle.join() {
            Ok(out) => outputs.push(out),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    outputs
}

/// Stages 3a–4: cross-file passes and suppression over an ordered set
/// of per-file facts. Pure — shared by live scans and base-revision
/// rebases, which is what guarantees `--diff` compares equal work.
fn assemble_report(
    root: &Path,
    opts: &ScanOptions,
    crates: &[(String, PathBuf)],
    processed: &[&Processed],
) -> Report {
    // Stage 3a: R3 per crate (needs every root of the crate).
    let mut report = Report::default();
    for (crate_name, src_dir) in crates {
        let of_crate: Vec<&&Processed> =
            processed.iter().filter(|p| &p.crate_name == crate_name).collect();
        if of_crate.is_empty() {
            continue;
        }
        let saw_forbid = of_crate
            .iter()
            .any(|p| p.entry.is_crate_root && p.entry.has_forbid);
        if !saw_forbid {
            let lib_rel = of_crate
                .iter()
                .find(|p| p.file_name == "lib.rs")
                .map(|p| p.rel.clone())
                .unwrap_or_else(|| rel_path(root, &src_dir.join("lib.rs")));
            report.findings.push(Finding {
                rule: Rule::R3MissingForbid,
                file: lib_rel,
                line: 1,
                function: "-".to_string(),
                detail: "crate root missing #![forbid(unsafe_code)]".to_string(),
                confirmed: None,
            });
        }
    }

    // Stage 3b: the interprocedural walks over every file's facts.
    let mut facts: Vec<FileFacts> = Vec::with_capacity(processed.len());
    let mut allow_map: std::collections::BTreeMap<String, Vec<Allow>> =
        std::collections::BTreeMap::new();
    for p in processed {
        report.files += 1;
        report.lines += p.entry.lines;
        if !p.entry.allows.is_empty() {
            allow_map.insert(p.rel.clone(), p.entry.allows.clone());
        }
        facts.push(FileFacts {
            crate_name: p.crate_name.clone(),
            rel_path: p.rel.clone(),
            summary: p.entry.summary.clone(),
            findings: p.entry.findings.clone(),
            accesses: p.entry.accesses.clone(),
        });
    }
    let outcome = {
        let _flow_span = opts.telemetry.span("analyzer.dataflow");
        dataflow::run(&facts)
    };
    report.findings.extend(outcome.findings);
    report.suppressed = outcome.suppressed.len() as u64;
    if [Rule::R10SecretBranch, Rule::R11SecretIndex, Rule::R12VariableTimeOp]
        .iter()
        .any(|&r| opts.wants(r))
    {
        let _side_span = opts.telemetry.span("analyzer.sidechannel");
        report.findings.extend(sidechannel::run(&facts));
    }
    if [Rule::R13LockOrderCycle, Rule::R14RelaxedSyncFlag]
        .iter()
        .any(|&r| opts.wants(r))
    {
        let _conc_span = opts.telemetry.span("analyzer.concurrency");
        report.findings.extend(concurrency::run(&facts));
    }
    if opts.wants(Rule::R16PanicReachable) {
        let _pf_span = opts.telemetry.span("analyzer.panicfree");
        report.findings.extend(crate::panicfree::run(&facts));
    }
    if opts.wants(Rule::R17SecretLifecycle) {
        let _lc_span = opts.telemetry.span("analyzer.lifecycle");
        report.findings.extend(crate::lifecycle::run(&facts));
    }

    // Stage 4: line-scoped `allow(...)` suppression, then the optional
    // rule filter. Suppressions are counted (`allowed`) so a report
    // never silently shrinks; the filter is a view, not a suppression.
    let mut allowed = 0u64;
    report.findings.retain(|f| {
        let covered = allow_map
            .get(&f.file)
            .is_some_and(|allows| allows.iter().any(|a| a.covers(f.rule, f.line)));
        if covered {
            allowed += 1;
        }
        !covered
    });
    report.allowed = allowed;
    if opts.rules.is_some() {
        report.findings.retain(|f| opts.wants(f.rule));
    }
    sort_findings(&mut report.findings);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicked_worker_fails_the_scan() {
        let joined = std::panic::catch_unwind(|| {
            std::thread::scope(|scope| {
                let handles = vec![
                    scope.spawn(|| 1u32),
                    scope.spawn(|| panic!("worker failed")),
                ];
                join_in_order(handles)
            })
        });
        assert!(joined.is_err());
        let in_order = std::thread::scope(|scope| {
            join_in_order((0..4u32).map(|w| scope.spawn(move || w)).collect())
        });
        assert_eq!(in_order, [0, 1, 2, 3]);
    }

    #[test]
    fn find_root_walks_upward() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above crates/analyzer");
        assert!(root.join("crates").join("analyzer").is_dir());
    }

    #[test]
    fn self_scan_covers_every_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root");
        let report = scan(&root).expect("scan succeeds");
        // 14 seed crates + analyzer + the root facade, each with files.
        let dirs = crate_src_dirs(&root).expect("layout readable");
        assert!(dirs.len() >= 15, "expected >=15 src trees, got {}", dirs.len());
        assert!(report.files > 100, "scanned only {} files", report.files);
        assert!(report.lines > 10_000);
    }

    #[test]
    fn explicit_thread_counts_agree_with_serial() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root");
        let serial = ScanOptions { threads: 1, ..ScanOptions::default() };
        let wide = ScanOptions { threads: 4, ..ScanOptions::default() };
        let (a, sa) = scan_with(&root, &serial).expect("serial scan");
        let (b, sb) = scan_with(&root, &wide).expect("parallel scan");
        assert_eq!(sa.threads, 1);
        assert!(sb.threads >= 1);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    /// The cache is exact: every entry a scan of this workspace builds
    /// loads back equal, including `u64` constants above 2^53 such as
    /// `FNV_OFFSET` in `pon/src/engine.rs`.
    #[test]
    fn workspace_entries_survive_a_cache_roundtrip() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let (_, _, snapshot) = scan_snapshot(&root, &ScanOptions::default()).expect("scan");
        let entries = snapshot.processed.iter().map(|p| (p.rel.clone(), p.entry.clone()));
        let cache = Cache { entries: entries.collect() };
        let path = std::env::temp_dir().join("genio-analyzer-roundtrip").join("cache.bin");
        cache.save(&path).expect("save cache");
        let loaded = Cache::load(&path).entries;
        assert_eq!(loaded.len(), cache.entries.len());
        for (rel, entry) in &cache.entries {
            assert_eq!(loaded.get(rel), Some(entry), "{rel} changed in the cache");
        }
    }

    /// R16 seeds its closure by name, so a renamed hot entry would
    /// silently shrink the certified set; every name must still resolve.
    #[test]
    fn every_hot_entry_is_defined_in_the_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root");
        let (_, _, snapshot) =
            scan_snapshot(&root, &ScanOptions::default()).expect("scan succeeds");
        let defined: std::collections::BTreeSet<&str> = snapshot
            .processed
            .iter()
            .flat_map(|p| p.entry.summary.functions.iter().map(|f| f.name.as_str()))
            .collect();
        let missing: Vec<&str> = crate::panicfree::HOT_ENTRIES
            .iter()
            .copied()
            .filter(|name| !defined.contains(name))
            .collect();
        assert!(
            missing.is_empty(),
            "hot entries with no definition: {missing:?}"
        );
    }
}
