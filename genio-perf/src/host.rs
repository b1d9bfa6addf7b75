//! Provenance of a result: the host and the commit it was measured on.

use std::fs;

/// CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_head() -> String {
    resolve_head().unwrap_or_else(|| "unknown".to_string())
}

fn resolve_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return is_sha(head).then(|| head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(format!(".git/{reference}")) {
        let sha = sha.trim();
        return is_sha(sha).then(|| sha.to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference && is_sha(sha)).then(|| sha.to_string())
    })
}

fn is_sha(s: &str) -> bool {
    s.len() == 40 && s.bytes().all(|b| b.is_ascii_hexdigit())
}
