//! Determinism properties of the v2 scan pipeline: the report must be a
//! pure function of the workspace contents — independent of the cache
//! state and of the worker-thread count.

use std::fs;
use std::path::{Path, PathBuf};

use genio_analyzer::workspace::{scan_with, ScanOptions};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/miniws")
}

/// Fresh scratch dir under the target tmpdir, wiped per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("genio-analyzer-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("mkdir");
    for entry in fs::read_dir(from).expect("readdir") {
        let entry = entry.expect("entry");
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            fs::copy(&src, &dst).expect("copy");
        }
    }
}

#[test]
fn warm_scan_is_byte_identical_to_cold() {
    let dir = scratch("warm-vs-cold");
    let cache = dir.join("cache.bin");
    let opts = ScanOptions {
        cache_path: Some(cache.clone()),
        ..ScanOptions::default()
    };

    let (cold, cold_stats) = scan_with(&fixture_root(), &opts).expect("cold scan");
    assert_eq!(cold_stats.cache_hits, 0, "first scan must miss everything");
    assert!(cache.is_file(), "cold scan writes the cache");

    let (warm, warm_stats) = scan_with(&fixture_root(), &opts).expect("warm scan");
    assert_eq!(warm_stats.cache_misses, 0, "second scan must hit everything");
    assert_eq!(warm_stats.cache_hits, cold_stats.cache_misses);

    assert_eq!(
        cold.to_json().to_string(),
        warm.to_json().to_string(),
        "cache state leaked into the report"
    );
}

#[test]
fn uncached_and_cached_reports_agree() {
    let dir = scratch("cached-vs-uncached");
    let cached_opts = ScanOptions {
        cache_path: Some(dir.join("cache.bin")),
        ..ScanOptions::default()
    };
    let (plain, _) =
        scan_with(&fixture_root(), &ScanOptions::default()).expect("uncached");
    let (cached, _) = scan_with(&fixture_root(), &cached_opts).expect("cached");
    assert_eq!(plain.to_json().to_string(), cached.to_json().to_string());
}

#[test]
fn thread_counts_do_not_change_the_report() {
    let baseline = scan_with(
        &fixture_root(),
        &ScanOptions { threads: 1, ..ScanOptions::default() },
    )
    .expect("serial")
    .0
    .to_json()
    .to_string();
    for threads in [2, 3, 8] {
        let (report, stats) = scan_with(
            &fixture_root(),
            &ScanOptions { threads, ..ScanOptions::default() },
        )
        .expect("parallel");
        assert!(stats.threads >= 1 && stats.threads <= threads);
        assert_eq!(
            report.to_json().to_string(),
            baseline,
            "thread count {threads} changed the report"
        );
    }
}

#[test]
fn editing_a_file_invalidates_exactly_that_entry() {
    let dir = scratch("invalidation");
    let ws = dir.join("ws");
    copy_tree(&fixture_root(), &ws);
    let opts = ScanOptions {
        cache_path: Some(dir.join("cache.bin")),
        ..ScanOptions::default()
    };

    let (before, _) = scan_with(&ws, &opts).expect("initial scan");

    // Appending a debt marker to one file must cost exactly one cache
    // miss and exactly one new R6 finding.
    let target = ws.join("crates/demo/src/ops.rs");
    let mut text = fs::read_to_string(&target).expect("read fixture");
    text.push_str("\n// FIXME: cache-invalidation probe\n");
    fs::write(&target, text).expect("write fixture");

    let (after, stats) = scan_with(&ws, &opts).expect("rescan");
    assert_eq!(stats.cache_misses, 1, "only the edited file rescans");
    assert_eq!(stats.cache_hits, before.files - 1);
    assert_eq!(after.findings.len(), before.findings.len() + 1);

    // Reverting restores the original report through the cache.
    copy_tree(&fixture_root(), &ws);
    let (reverted, _) = scan_with(&ws, &opts).expect("reverted scan");
    assert_eq!(
        reverted.to_json().to_string(),
        before.to_json().to_string()
    );

    // `demo/src/ops.rs` calls `verify_peer` and `install_key`, defined
    // in the handshake module. Editing the callee still costs one miss:
    // no cached entry depends on another file's contents.
    let callee = ws.join("crates/netsec/src/handshake.rs");
    let mut text = fs::read_to_string(&callee).expect("read fixture");
    text.push_str("\n// callee edit: callers' cache entries stay valid\n");
    fs::write(&callee, text).expect("write fixture");

    let (warm, stats) = scan_with(&ws, &opts).expect("rescan after callee edit");
    assert_eq!(stats.cache_misses, 1, "only the edited callee rescans");
    assert_eq!(stats.cache_hits, before.files - 1);
    let (cold, _) = scan_with(&ws, &ScanOptions::default()).expect("cold scan");
    assert_eq!(warm.to_json().to_string(), cold.to_json().to_string());
}

#[test]
fn stale_rules_version_invalidates_the_whole_cache() {
    let dir = scratch("stale-rules");
    let cache = dir.join("cache.bin");
    let opts = ScanOptions {
        cache_path: Some(cache.clone()),
        ..ScanOptions::default()
    };
    let (clean, seed_stats) = scan_with(&fixture_root(), &opts).expect("seed scan");

    // Simulate a cache written by an analyzer binary with a different
    // rule set: flip the recorded rules_version bytes in place.
    let mut bytes = fs::read(&cache).expect("read cache");
    let version = genio_analyzer::rules::rules_version().to_le_bytes();
    let at = bytes
        .windows(version.len())
        .position(|w| w == version)
        .expect("cache must record the rule-set version");
    for b in &mut bytes[at..at + version.len()] {
        *b = !*b;
    }
    fs::write(&cache, bytes).expect("rewrite cache");

    let (rescanned, stats) = scan_with(&fixture_root(), &opts).expect("rescan");
    assert_eq!(stats.cache_hits, 0, "old-rules cache must not serve hits");
    assert_eq!(stats.cache_misses, seed_stats.cache_misses);
    assert_eq!(
        rescanned.to_json().to_string(),
        clean.to_json().to_string()
    );

    // The rescan rewrote the cache under the current version: unchanged
    // files hit again.
    let (_, warm_stats) = scan_with(&fixture_root(), &opts).expect("warm");
    assert_eq!(warm_stats.cache_misses, 0, "repaired cache serves all hits");
}

#[test]
fn json_era_cache_is_rewritten_in_the_current_schema() {
    let dir = scratch("json-era");
    let cache = dir.join("cache.bin");
    let opts = ScanOptions {
        cache_path: Some(cache.clone()),
        ..ScanOptions::default()
    };
    // A v3 document under the current rule-set version, as the JSON-era
    // analyzer wrote it.
    let v3 = format!(
        "{{\"schema\": \"genio-analyzer-cache/v3\", \"rules_version\": \"{:016x}\", \"files\": []}}",
        genio_analyzer::rules::rules_version()
    );
    fs::write(&cache, v3).expect("write v3 cache");

    let (cold, stats) = scan_with(&fixture_root(), &opts).expect("scan over v3");
    assert_eq!(stats.cache_hits, 0, "a v3 cache must load as empty");
    let bytes = fs::read(&cache).expect("read rewritten cache");
    let schema = genio_analyzer::cache::CACHE_SCHEMA.as_bytes();
    assert_eq!(bytes.get(1..=schema.len()), Some(schema), "rewritten as v4");

    let (warm, stats) = scan_with(&fixture_root(), &opts).expect("warm scan");
    assert_eq!(stats.cache_misses, 0, "the rewritten cache serves every file");
    assert_eq!(stats.cache_hits, cold.files);
    assert_eq!(warm.to_json().to_string(), cold.to_json().to_string());
}

#[test]
fn corrupt_cache_degrades_to_full_rescan() {
    let dir = scratch("corrupt");
    let cache = dir.join("cache.bin");
    let opts = ScanOptions {
        cache_path: Some(cache.clone()),
        ..ScanOptions::default()
    };
    let (clean, _) = scan_with(&fixture_root(), &opts).expect("seed scan");
    let good = fs::read(&cache).expect("read cache");

    // Garbage, and a real cache cut short by an interrupted write.
    let truncated = good[..good.len() / 2].to_vec();
    for corrupt in [b"{ definitely not a cache }".to_vec(), truncated] {
        fs::write(&cache, corrupt).expect("corrupt");
        let (recovered, stats) = scan_with(&fixture_root(), &opts).expect("recover");
        assert_eq!(stats.cache_hits, 0, "corrupt cache must not serve hits");
        assert_eq!(
            recovered.to_json().to_string(),
            clean.to_json().to_string()
        );
    }
}
