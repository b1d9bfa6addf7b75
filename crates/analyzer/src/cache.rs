//! Content-hash incremental scan cache (`genio-analyzer-cache/v4`).
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
//! The file is positional binary, written and read by one `Codec`
//! trait: the schema tag, [`crate::rules::rules_version`] as 8
//! little-endian bytes, then the entries. Integers are LEB128 varints,
//! so every `u64` loads back exactly (the v3 JSON document rounded
//! constants above 2^53 through `f64`), and a [`Rule`] is its index in
//! [`Rule::ALL`]. Decoding builds each cached struct from its one field
//! list, so a new field does not compile until it is encoded. The
//! version hashes every rule's id, title and catalog entry in
//! [`Rule::ALL`] order, so a cache from a binary with a different or
//! reordered rule set degrades to a full rescan.
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
//! Failure policy: a missing, truncated, foreign or stale cache file
//! degrades to an empty cache (full rescan), never an error — a stale
//! cache must not be able to break a build. The decoder never panics,
//! never allocates ahead of the input, and rejects trailing bytes,
//! invalid UTF-8, bools other than 0 and 1, rule indexes outside
//! [`Rule::ALL`] and lengths past the end.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::rules::{rules_version, Access, Allow, Finding, Rule};
use crate::summary::{
    Arg, AtomicUse, CallSite, CondUse, Discard, FileSummary, FnSummary, HeldCall, IndexUse,
    LockAcq, LockPair, OpUse, PanicSite, SinkUse,
};

/// Cache file schema tag, the first field of every cache file.
pub const CACHE_SCHEMA: &str = "genio-analyzer-cache/v4";

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
        let Ok(bytes) = fs::read(path) else {
            return Cache::default();
        };
        Cache::decode(&bytes, rules_version()).unwrap_or_default()
    }

    /// Serializes and writes the cache, creating parent directories.
    /// I/O errors are reported, not panicked on.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.encode(rules_version()))
    }

    /// The entry for `rel_path`, but only if its hash still matches.
    pub fn lookup(&self, rel_path: &str, hash: &str) -> Option<&FileEntry> {
        self.entries
            .get(rel_path)
            .filter(|e| e.hash == hash)
    }

    fn encode(&self, version: u64) -> Vec<u8> {
        let mut out = Vec::new();
        CACHE_SCHEMA.to_string().put(&mut out);
        out.extend_from_slice(&version.to_le_bytes());
        (self.entries.len() as u64).put(&mut out);
        for (path, entry) in &self.entries {
            path.put(&mut out);
            entry.put(&mut out);
        }
        out
    }

    fn decode(bytes: &[u8], expected_version: u64) -> Option<Cache> {
        let mut r = Reader { rest: bytes };
        if String::take(&mut r)? != CACHE_SCHEMA {
            return None;
        }
        if r.bytes(8)? != expected_version.to_le_bytes() {
            return None;
        }
        let entries = Vec::<(String, FileEntry)>::take(&mut r)?;
        r.rest.is_empty().then(|| Cache { entries: entries.into_iter().collect() })
    }
}

/// Cursor over an encoded cache; every read is bounds-checked.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Option<u8> {
        self.bytes(1)?.first().copied()
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    /// A string or list length. Every encoded item takes at least one
    /// byte, so a length past the end of the input is malformed.
    fn len_prefix(&mut self) -> Option<usize> {
        let n = usize::try_from(u64::take(self)?).ok()?;
        (n <= self.rest.len()).then_some(n)
    }
}

/// A value with a positional v4 encoding.
trait Codec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value; `None` on malformed or truncated input.
    fn take(r: &mut Reader<'_>) -> Option<Self>;
}

/// LEB128: seven bits per byte, low group first.
impl Codec for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        let mut v = *self;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    fn take(r: &mut Reader<'_>) -> Option<Self> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = r.byte()?;
            // The tenth byte holds bit 63 alone.
            if shift == 63 && b > 1 {
                return None;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }
}

impl Codec for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        u64::from(*self).put(out);
    }

    fn take(r: &mut Reader<'_>) -> Option<Self> {
        u32::try_from(u64::take(r)?).ok()
    }
}

impl Codec for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn take(r: &mut Reader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Codec for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.len_prefix()?;
        String::from_utf8(r.bytes(n)?.to_vec()).ok()
    }
}

/// One byte: the rule's index in [`Rule::ALL`].
impl Codec for Rule {
    fn put(&self, out: &mut Vec<u8>) {
        let index = Rule::ALL.iter().position(|r| r == self);
        out.push(index.and_then(|i| u8::try_from(i).ok()).unwrap_or(u8::MAX));
    }

    fn take(r: &mut Reader<'_>) -> Option<Self> {
        Rule::ALL.get(usize::from(r.byte()?)).copied()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }

    fn take(r: &mut Reader<'_>) -> Option<Self> {
        match bool::take(r)? {
            true => T::take(r).map(Some),
            false => Some(None),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        for item in self {
            item.put(out);
        }
    }

    fn take(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.len_prefix()?;
        let fits = r.rest.len() / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            items.push(T::take(r)?);
        }
        Some(items)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Option<Self> {
        Some((A::take(r)?, B::take(r)?))
    }
}

/// One field list per cached struct. Fields are written in list order
/// and read back into a struct literal naming every field (a struct
/// expression evaluates its fields in the order written), so the two
/// directions cannot drift apart and a new field is a compile error
/// until it is listed.
macro_rules! records {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Codec for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }

            fn take(r: &mut Reader<'_>) -> Option<Self> {
                Some($ty { $($field: Codec::take(r)?),+ })
            }
        }
    )+};
}

records! {
    FileEntry { hash, lines, is_crate_root, has_forbid, findings, accesses, allows, summary }
    Finding { rule, file, line, function, detail, confirmed }
    Access { function, var, guarded, rule, line, masked, index_ident, loop_bounds }
    Allow { line, rules, reason }
    FileSummary { consts, types, structs, functions }
    FnSummary {
        name, line, params, ret, calls, sinks, discards, local_calls, local_types, allocs,
        local_inits, conds, indexes, vt_ops, locks, lock_pairs, held_calls, atomics, panics
    }
    CallSite { callee, line, recv, args }
    Arg { ident, literal, guarded }
    SinkUse { var, line, sink }
    Discard { callee, line, kind }
    CondUse { line, idents }
    IndexUse { line, base, idents }
    OpUse { line, op, idents }
    LockAcq { name, line }
    LockPair { first, second, line }
    HeldCall { lock, callee, line }
    AtomicUse { var, op, ordering, line, in_cond }
    PanicSite { kind, line, var, guarded, masked, index_ident, loop_bounds, detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::rules::{annotate, collect_allows, scan_tokens, FileContext};
    use crate::summary::summarize;

    /// Source exercising every fact kind the summary records, an R5
    /// access with mask and loop bounds, an allow comment, and a `u64`
    /// constant above 2^53 that a round trip through `f64` would change.
    const SRC: &str = r#"
        pub const N: usize = 8;
        pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        pub type Tag = [u8; N];
        pub struct SessionKey;
        fn seal(key: &SessionKey, i: usize, buf: &[u8]) -> Result<Tag, E> {
            if i < buf.len() { let _ = audit(key); }
            let t = derive(key);
            println!("{t:?}");
            hop(key, 3);
            Err(E)
        }
        fn get(buf: &[u8], i: usize) -> u8 {
            let g = self.state.lock();
            for j in 0..N { sum += buf[j & 0xff]; } // genio-analyzer: allow(R11, reason = "public")
            if ready.load(Ordering::Relaxed) { flush(g); }
            buf[i] / 2 + x.unwrap()
        }
    "#;

    type Edit = fn(&mut FileEntry);

    fn cache_with(edit: Edit) -> Cache {
        let ann = annotate(tokenize(SRC));
        let rel = "crates/pon/src/frame.rs";
        let ctx = FileContext { crate_name: "pon", rel_path: rel, file_name: "frame.rs" };
        let (findings, accesses) = scan_tokens(&ctx, &ann);
        let mut entry = FileEntry {
            hash: content_hash(SRC.as_bytes()),
            lines: SRC.lines().count() as u64,
            is_crate_root: false,
            has_forbid: false,
            findings,
            accesses,
            allows: collect_allows(&ann),
            summary: summarize(&ann),
        };
        edit(&mut entry);
        Cache { entries: BTreeMap::from([(rel.to_string(), entry)]) }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let cache = cache_with(|_| {});
        let e = &cache.entries["crates/pon/src/frame.rs"];
        assert!(e.summary.consts.contains(&("FNV_OFFSET".to_string(), 0xcbf2_9ce4_8422_2325)));
        assert!(e.accesses.iter().any(|a| a.masked.is_some() && a.loop_bounds.is_some()));
        assert!(!e.findings.is_empty() && !e.allows.is_empty());
        let [seal, get] = &e.summary.functions[..] else { panic!("two functions") };
        assert!(!seal.calls.is_empty() && !seal.sinks.is_empty() && !seal.discards.is_empty());
        assert!(!get.locks.is_empty() && !get.atomics.is_empty() && !get.panics.is_empty());
        let back = Cache::decode(&cache.encode(rules_version()), rules_version()).unwrap();
        assert_eq!(back.entries, cache.entries);
    }

    #[test]
    fn rules_version_mismatch_invalidates_everything() {
        let bytes = cache_with(|_| {}).encode(rules_version());
        // Same file, read by a binary whose rule set hashed
        // differently: every entry must be dropped...
        assert!(Cache::decode(&bytes, rules_version() ^ 1).is_none());
        // ...while the matching version still serves the entry.
        let fresh = Cache::decode(&bytes, rules_version()).unwrap();
        let (path, entry) = fresh.entries.first_key_value().unwrap();
        assert!(fresh.lookup(path, &entry.hash).is_some());
    }

    #[test]
    fn v1_era_document_without_version_degrades_to_empty() {
        // The latent v1 bug: a cache from an older binary (no
        // rules_version field) was reused verbatim. Every JSON-era
        // generation must now trigger a full rescan, version field or not.
        let version = format!("{:016x}", rules_version());
        for stale in ["v1", "v2", "v3"] {
            let schema = format!("\"schema\": \"genio-analyzer-cache/{stale}\"");
            let bare = format!("{{{schema}, \"files\": []}}");
            let versioned = format!("{{{schema}, \"rules_version\": \"{version}\", \"files\": []}}");
            assert!(Cache::decode(bare.as_bytes(), rules_version()).is_none());
            assert!(Cache::decode(versioned.as_bytes(), rules_version()).is_none());
        }
    }

    #[test]
    fn lookup_requires_matching_hash() {
        let cache = cache_with(|_| {});
        let (path, entry) = cache.entries.first_key_value().unwrap();
        assert!(cache.lookup(path, &entry.hash).is_some());
        assert!(cache.lookup(path, "deadbeefdeadbeef").is_none());
        assert!(cache.lookup("missing.rs", &entry.hash).is_none());
    }

    #[test]
    fn garbage_and_wrong_schema_degrade_to_empty() {
        assert!(Cache::decode(b"not a cache", rules_version()).is_none());
        let mut wrong = Cache::default().encode(rules_version());
        wrong[CACHE_SCHEMA.len()] = b'5'; // "genio-analyzer-cache/v5"
        assert!(Cache::decode(&wrong, rules_version()).is_none());
        // load() maps both failure modes to the empty cache.
        let dir = std::env::temp_dir().join("genio-analyzer-cache-test");
        let _ = fs::create_dir_all(&dir);
        let p = dir.join("bad.bin");
        fs::write(&p, "not a cache").unwrap();
        assert!(Cache::load(&p).entries.is_empty());
        assert!(Cache::load(&dir.join("absent.bin")).entries.is_empty());
    }

    #[test]
    fn decoder_rejects_every_malformed_input() {
        let v = rules_version();
        let bytes = cache_with(|_| {}).encode(v);
        let rejects = |b: &[u8]| Cache::decode(b, v).is_none();
        assert!(!rejects(&bytes));
        // Every strict prefix, and one appended byte.
        assert!((0..bytes.len()).all(|end| rejects(&bytes[..end])));
        assert!(rejects(&[&bytes[..], &[0]].concat()));
        // Edits that change exactly one byte mark where to write a bool
        // of 2, a rule index one past `Rule::ALL`, and invalid UTF-8.
        let edits: [(Edit, u8); 3] = [
            (|e| e.is_crate_root = true, 2),
            (|e| e.allows[0].rules[0] = Rule::R18DiffAware, Rule::ALL.len() as u8),
            (|e| e.hash.replace_range(..1, "g"), 0xff),
        ];
        for (edit, bad) in edits {
            let other = cache_with(edit).encode(v);
            let at: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != other[i]).collect();
            let [at] = at[..] else { panic!("one differing byte, got {at:?}") };
            let mut corrupt = bytes.clone();
            corrupt[at] = bad;
            assert!(rejects(&corrupt), "byte {at} = {bad}");
        }
        // A length prefix past the end, on the entry count and on the
        // first path: rejected, not allocated for.
        let count_at = Cache::default().encode(v).len() - 1;
        for at in [count_at, count_at + 1] {
            let mut huge = Vec::new();
            (u64::MAX >> 1).put(&mut huge);
            let mut corrupt = bytes.clone();
            corrupt.splice(at..=at, huge);
            assert!(rejects(&corrupt));
        }
        // A varint longer than 64 bits.
        assert!(rejects(&[&bytes[..count_at], &[0xff; 10], &[0]].concat()));
    }

    #[test]
    fn varints_are_exact_at_the_edges() {
        for n in [0, 0x7f, 0x80, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut out = Vec::new();
            n.put(&mut out);
            let mut r = Reader { rest: &out };
            assert_eq!((u64::take(&mut r), r.rest.len()), (Some(n), 0));
        }
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        assert_eq!(content_hash(b""), format!("{:016x}", 0xcbf29ce484222325u64));
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
    }
}
