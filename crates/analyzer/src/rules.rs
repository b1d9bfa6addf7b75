//! Security/correctness rules over the token stream.
//!
//! Nine rules, mirroring the failure classes Lesson 7 calls out for
//! immature SAST on custom stacks. R1–R7 are *lexical* checks (fast, no
//! type information) whose parser-facing classes (R4, R5) are
//! re-examined across function boundaries by [`crate::dataflow`]; R8
//! and R9 are *interprocedural* rules evaluated entirely in
//! [`crate::dataflow`] over the workspace call graph built from
//! [`crate::summary`] records:
//!
//! * **R1** `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in
//!   non-test library code — abort paths a production service must not
//!   keep.
//! * **R2** `==`/`!=` on secret material (tags, MACs, digests, keys) in
//!   `crates/crypto` and `crates/netsec` — must go through
//!   `genio_crypto::ct::eq`.
//! * **R3** crate roots missing `#![forbid(unsafe_code)]`.
//! * **R4** narrowing `as` casts (to ≤32-bit integers) inside the
//!   frame/feed parser crates (`pon`, `netsec`, `vulnmgmt`).
//! * **R5** dynamic slice indexing with no preceding bounds guard
//!   (`x.len()` / `x.get(..)` seen earlier in the same function) in the
//!   AEAD/frame hot paths.
//! * **R6** debt markers (to-do / fix-me style) left in comments.
//! * **R7** raw `Instant::now()` / `SystemTime::now()` outside the
//!   telemetry clock abstraction — timing must route through
//!   `genio_telemetry::Clock` so tests stay deterministic.
//! * **R8** secret material (key/tag/nonce-typed values from `crypto` /
//!   `netsec`) reaching a `format!`/`Debug`/telemetry-export sink,
//!   directly or through one bare-argument call hop.
//! * **R9** a `Result` returned by a security-critical crate discarded
//!   via `let _ =` or a bare `call();` statement.
//! * **R10** a branch condition (`if`/`match`/`while`) that depends on
//!   secret material — directly, or one call hop away through a callee
//!   that branches on the passed parameter ([`crate::sidechannel`]).
//! * **R11** secret material driving a slice/array index — the classic
//!   table-lookup timing leak ([`crate::sidechannel`]).
//! * **R12** a variable-time operation (`/`, `%`, early-exit `==`/`!=`)
//!   on secret material outside `ct::eq` ([`crate::sidechannel`]).
//! * **R13** a lock-order cycle in the workspace lock-acquisition graph,
//!   built from guard scopes and propagated across calls
//!   ([`crate::concurrency`]).
//! * **R14** `Ordering::Relaxed` on an atomic that some function reads
//!   in a control-flow condition — a sync flag, not a pure counter
//!   ([`crate::concurrency`]).
//! * **R15** a telemetry span guard dropped at its creation site —
//!   `let _ = t.span(..)` or a bare `t.span(..);` / `span!(..);`
//!   statement — which records a zero-length span instead of timing the
//!   scope.
//!
//! Rules only ever *add* findings; what is acceptable today is recorded
//! in the committed baseline and ratcheted down by
//! [`crate::baseline::diff`]. Deliberate sites are suppressed in place
//! with `// genio-analyzer: allow(R11, reason = "...")` (see [`Allow`]).

use crate::lexer::{Token, TokenKind};

/// Rule identifiers, stable across releases (they key the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Abort path in library code.
    R1PanicPath,
    /// Non-constant-time comparison of secret material.
    R2NonCtCompare,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    R3MissingForbid,
    /// Narrowing integer cast in a parser crate.
    R4NarrowingCast,
    /// Unguarded dynamic slice index in an AEAD/frame hot path.
    R5UnguardedIndex,
    /// Debt marker in a comment.
    R6DebtMarker,
    /// Raw OS timing call outside the telemetry clock abstraction.
    R7RawTiming,
    /// Secret material reaching a format/Debug/telemetry-export sink.
    R8SecretLeak,
    /// Discarded `Result` from a security-critical crate.
    R9DiscardedResult,
    /// Branch condition depends on secret material.
    R10SecretBranch,
    /// Secret material drives a slice/array index.
    R11SecretIndex,
    /// Variable-time operation on secret material.
    R12VariableTimeOp,
    /// Lock-order cycle across the workspace lock graph.
    R13LockOrderCycle,
    /// `Ordering::Relaxed` on a condition-read atomic.
    R14RelaxedSyncFlag,
    /// Telemetry span guard dropped at its creation site.
    R15DroppedSpan,
    /// Panic/abort site reachable from a declared hot-path entry point.
    R16PanicReachable,
    /// Secret material escaping its lifecycle (collection escape or
    /// missing zeroize in a teardown path).
    R17SecretLifecycle,
    /// Diff-aware incremental scanning family (`--diff`/SARIF export);
    /// never fires on a full scan, but keys the diff report and the
    /// rule-set version.
    R18DiffAware,
}

impl Rule {
    /// Short stable id used in reports and baselines.
    pub fn id(self) -> &'static str {
        match self {
            Rule::R1PanicPath => "R1",
            Rule::R2NonCtCompare => "R2",
            Rule::R3MissingForbid => "R3",
            Rule::R4NarrowingCast => "R4",
            Rule::R5UnguardedIndex => "R5",
            Rule::R6DebtMarker => "R6",
            Rule::R7RawTiming => "R7",
            Rule::R8SecretLeak => "R8",
            Rule::R9DiscardedResult => "R9",
            Rule::R10SecretBranch => "R10",
            Rule::R11SecretIndex => "R11",
            Rule::R12VariableTimeOp => "R12",
            Rule::R13LockOrderCycle => "R13",
            Rule::R14RelaxedSyncFlag => "R14",
            Rule::R15DroppedSpan => "R15",
            Rule::R16PanicReachable => "R16",
            Rule::R17SecretLifecycle => "R17",
            Rule::R18DiffAware => "R18",
        }
    }

    /// Parses the short id back (baseline loading).
    pub fn from_id(id: &str) -> Option<Rule> {
        Some(match id {
            "R1" => Rule::R1PanicPath,
            "R2" => Rule::R2NonCtCompare,
            "R3" => Rule::R3MissingForbid,
            "R4" => Rule::R4NarrowingCast,
            "R5" => Rule::R5UnguardedIndex,
            "R6" => Rule::R6DebtMarker,
            "R7" => Rule::R7RawTiming,
            "R8" => Rule::R8SecretLeak,
            "R9" => Rule::R9DiscardedResult,
            "R10" => Rule::R10SecretBranch,
            "R11" => Rule::R11SecretIndex,
            "R12" => Rule::R12VariableTimeOp,
            "R13" => Rule::R13LockOrderCycle,
            "R14" => Rule::R14RelaxedSyncFlag,
            "R15" => Rule::R15DroppedSpan,
            "R16" => Rule::R16PanicReachable,
            "R17" => Rule::R17SecretLifecycle,
            "R18" => Rule::R18DiffAware,
            _ => return None,
        })
    }

    /// All rules, report order.
    pub const ALL: [Rule; 18] = [
        Rule::R1PanicPath,
        Rule::R2NonCtCompare,
        Rule::R3MissingForbid,
        Rule::R4NarrowingCast,
        Rule::R5UnguardedIndex,
        Rule::R6DebtMarker,
        Rule::R7RawTiming,
        Rule::R8SecretLeak,
        Rule::R9DiscardedResult,
        Rule::R10SecretBranch,
        Rule::R11SecretIndex,
        Rule::R12VariableTimeOp,
        Rule::R13LockOrderCycle,
        Rule::R14RelaxedSyncFlag,
        Rule::R15DroppedSpan,
        Rule::R16PanicReachable,
        Rule::R17SecretLifecycle,
        Rule::R18DiffAware,
    ];

    /// One-line description for the report table.
    pub fn title(self) -> &'static str {
        match self {
            Rule::R1PanicPath => "abort path (unwrap/expect/panic!) in library code",
            Rule::R2NonCtCompare => "secret material compared with ==/!= instead of ct::eq",
            Rule::R3MissingForbid => "crate root missing #![forbid(unsafe_code)]",
            Rule::R4NarrowingCast => "narrowing `as` cast in frame/feed parser",
            Rule::R5UnguardedIndex => "slice index without preceding bounds guard in hot path",
            Rule::R6DebtMarker => "TODO/FIXME debt marker",
            Rule::R7RawTiming => "raw Instant/SystemTime timing outside the telemetry clock",
            Rule::R8SecretLeak => "secret material reaches a format/Debug/telemetry sink",
            Rule::R9DiscardedResult => "Result from a security-critical crate is discarded",
            Rule::R10SecretBranch => "branch condition depends on secret material",
            Rule::R11SecretIndex => "secret material drives a slice/array index",
            Rule::R12VariableTimeOp => "variable-time operation (/ % == !=) on secret material",
            Rule::R13LockOrderCycle => "lock-order cycle across the workspace lock graph",
            Rule::R14RelaxedSyncFlag => "Ordering::Relaxed on an atomic read in a branch condition",
            Rule::R15DroppedSpan => "telemetry span guard dropped at its creation site",
            Rule::R16PanicReachable => "panic/abort site reachable from a hot-path entry point",
            Rule::R17SecretLifecycle => "secret escapes its lifecycle (collection escape / missing zeroize)",
            Rule::R18DiffAware => "diff-aware incremental scan family (--diff / SARIF export)",
        }
    }

    /// Full catalog entry for `--explain`: what the rule detects, why it
    /// matters at the telco edge, and how to fix or suppress a finding.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::R1PanicPath => "R1 flags abort paths (`unwrap`, `expect`, `panic!`, \
`unreachable!`, `todo!`, `unimplemented!`) in non-test library code. An edge service \
must degrade, not die: every abort path is a remotely reachable crash. Fix: return a \
typed error (`Result`), use `unwrap_or`/`ok_or`, or restructure so the state is \
impossible. Test code (`#[cfg(test)]`, `#[test]`) is never flagged.",
            Rule::R2NonCtCompare => "R2 flags `==`/`!=` on secret-named values (tag, \
icv, mac, digest, key, secret, password, finished) inside `crates/crypto` and \
`crates/netsec`. Short-circuit comparison leaks the first differing byte's position \
through timing — an oracle for forging MACs. Fix: compare through \
`genio_crypto::ct::eq`, which accumulates the difference over the full length. \
`.len()` comparisons are public and stay silent.",
            Rule::R3MissingForbid => "R3 flags crate roots missing \
`#![forbid(unsafe_code)]`. The workspace is safe-Rust by policy; `forbid` (unlike \
`deny`) cannot be overridden downstream, so one line per crate turns the policy into \
a compiler guarantee. Fix: add the attribute to `src/lib.rs`/`src/main.rs`.",
            Rule::R4NarrowingCast => "R4 flags narrowing `as` casts (to <= 32-bit \
integers) in the frame/feed parser crates (`pon`, `netsec`, `vulnmgmt`). `as` \
silently truncates attacker-controlled lengths and identifiers — the classic \
packet-parser bug. Fix: use `try_from` with an error path, or mask explicitly when \
truncation is the intent. The interprocedural pass discharges casts whose callers \
all pass literals.",
            Rule::R5UnguardedIndex => "R5 flags dynamic slice indexing with no \
dominating bounds guard (`x.len()`, `x.get(..)`, a `< len` comparison, or a \
literal-bounded loop) in the AEAD/frame hot-path files. Each unguarded index is a \
reachable panic on a malformed frame. Fix: guard first, use `get`, or iterate. The \
interprocedural pass discharges accesses whose callers all guard or pass literals.",
            Rule::R6DebtMarker => "R6 counts TODO/FIXME/XXX/HACK comments. Debt \
markers are fine while working but must burn down, not accumulate: the ratchet \
baseline only shrinks. Fix: do the thing, file it properly, or delete the marker.",
            Rule::R7RawTiming => "R7 flags raw `Instant::now()` / \
`SystemTime::now()` outside the telemetry clock abstraction. Direct OS-clock reads \
make simulations and tests nondeterministic and escape span accounting. Fix: take a \
`genio_telemetry::Clock` (Monotonic in production, Manual in tests).",
            Rule::R8SecretLeak => "R8 flags secret-typed values (Key, Tag, Nonce, \
Secret, Mac, ... types from `crypto`/`netsec`) reaching a `format!`/`Debug`/\
telemetry-export sink, directly or through one bare-argument call hop. Secrets in \
logs outlive every other control. Fix: log lengths, hashes, or redacted forms; never \
the material itself.",
            Rule::R9DiscardedResult => "R9 flags a `Result` returned by a \
security-critical crate (`crypto`, `netsec`, `secureboot`, `fim`) discarded via \
`let _ =` or a bare `call();`. A dropped verification error is a silent \
authentication bypass. Fix: propagate with `?`, match on it, or handle the error \
branch explicitly.",
            Rule::R10SecretBranch => "R10 flags `if`/`match`/`while` conditions that \
depend on secret material (secret-typed or secret-named values from the taint \
registry), directly or one call hop away through a callee that branches on the \
passed parameter. Branching on a secret makes the instruction stream — and thus \
time, cache and branch-predictor state — a function of the secret. Fix: compute \
both arms and select with `ct::select`, or restructure so only public data steers \
control flow. Deliberate sites: `// genio-analyzer: allow(R10, reason = \"...\")` on \
or directly above the line. Public projections (`.len()`, `.is_empty()`) stay \
silent.",
            Rule::R11SecretIndex => "R11 flags slice/array indexing driven by secret \
material (`table[key_byte]`): memory addresses become secret-dependent and leak \
through cache timing — the classic AES T-table attack. Fix: mask to a fixed small \
range, scan the whole table with `ct::select`, or use a bitsliced formulation. \
Deliberate table-driven code paths: `// genio-analyzer: allow(R11, reason = \
\"...\")` at the exact line — never a file-wide allowlist.",
            Rule::R12VariableTimeOp => "R12 flags variable-time operations on secret \
material: `/` and `%` (data-dependent latency on most cores) and early-exit \
`==`/`!=` comparisons outside `genio_crypto::ct::eq`. Fix: replace division by \
constants with multiplication/shifts, compare through `ct::eq`, or annotate a \
deliberate site with `// genio-analyzer: allow(R12, reason = \"...\")`. Inside \
`crates/crypto`/`crates/netsec`, secret-*named* comparisons stay R2's finding; R12 \
adds the secret-*typed* and cross-crate cases.",
            Rule::R13LockOrderCycle => "R13 builds a lock-acquisition-order graph: \
an edge A -> B is recorded when lock B is acquired while guard A is still live \
(directly, or via a callee that acquires B transitively). A cycle means two \
executions can interleave into a deadlock. Guard scopes end at block close or \
`drop(guard)`. Fix: impose a total acquisition order, narrow guard scopes so they \
don't overlap, or merge the locks.",
            Rule::R14RelaxedSyncFlag => "R14 flags `Ordering::Relaxed` on an atomic \
that some function reads in a control-flow condition. A condition-read atomic is a \
sync flag: Relaxed provides no happens-before edge, so the guarded data may not be \
visible to the reader. Pure counters (only ever aggregated, never branched on) stay \
clean. Fix: use Release on the store and Acquire on the load, or SeqCst when in \
doubt.",
            Rule::R15DroppedSpan => "R15 flags a telemetry span guard that is dropped \
the moment it is created: `let _ = t.span(..)`, a bare `t.span(..);` / \
`t.span_at(..);` statement, or an unbound `span!(..);` invocation. `Span` measures \
via RAII — its `Drop` records the elapsed time — so a guard dropped at the creation \
site records a zero-length span and silently stops timing the scope it was meant to \
cover. Fix: bind the guard for the scope's lifetime (`let _guard_span = t.span(..);`) \
or delete the call. A guard consumed by an enclosing expression (`drop(..)`, \
`black_box(..)`, a return position) is a deliberate use and stays silent, as does a \
named `_`-prefixed binding.",
            Rule::R16PanicReachable => "R16 certifies panic-freedom of the declared \
hot-path entry points (`seal_many`/`open_many`, `run_shards`/`merge_shards`, \
`protect_many`/`validate_many`, `simulate_pon_fleet`, \
`encrypt_downstream_many`/`encrypt_downstream_burst`/`decrypt_many`, \
`open_client_many`/`open_server_many`, `correlate`/`correlate_traced`). The pass takes \
the call-graph closure from every entry and flags any reachable `.unwrap()`/`.expect(..)`, \
`panic!`-family macro, or dynamically-indexed slice access whose dominating guard \
cannot be discharged path-sensitively: an `is_some`/`is_ok` check only covers the \
branch it dominates (the `if` body, or — when the body diverges — the rest of the \
enclosing block), and an index is clean only when a bounds guard dominates it or the \
interprocedural mask/loop-bound/all-callers evidence proves it in range on every \
path. A panic anywhere in that closure is an availability defect: one malformed \
frame aborts the data plane. Fix: return a typed error, restructure so the guard \
dominates every path, or suppress with a reviewed `allow(R16, reason)`.",
            Rule::R17SecretLifecycle => "R17 tracks the lifecycle of secret-typed \
values (the R8 registry: key/nonce/tag/secret types from `crypto`/`netsec`, plus \
secret-named byte buffers). Two shapes are flagged: (a) a secret escaping into a \
long-lived collection — passed bare to `.push(..)`/`.insert(..)`/`.extend(..)` — \
which defeats scoped zeroization and extends the secret's residency window; and \
(b) a key/session teardown path (function named `*teardown*`, `*close*`, \
`*rekey*`, `*destroy*`, `*retire*`, `*wipe*`, or exactly `drop`/`reset`) that \
drops a secret parameter without scrubbing it via `.zeroize()` or `.fill(0)`. \
Fix: store key handles instead of key bytes, and scrub secrets in teardown before \
they go out of scope.",
            Rule::R18DiffAware => "R18 is the diff-aware incremental scanning \
family. It never fires on a full scan; it tags the machinery behind `--diff \
<git-ref>` (emit only findings *introduced* since the base revision, computed by \
re-scanning the base contents of changed files plus their call-graph dependents \
and diffing the line-free finding multisets) and the `genio-analyzer-sarif/v1` \
export (`--sarif <path>`) for CI interop. Registering it as a rule keys the \
diff/SARIF document shapes into `rules_version()`, so warm caches written by an \
analyzer with different diff semantics are invalidated rather than trusted.",
        }
    }
}

/// FNV-1a 64 hash over every rule's id, title and catalog text — the
/// rule-set version stamped into the scan cache. Any change to what a
/// rule means changes this value and invalidates warm caches written by
/// the previous analyzer ([`crate::cache`]).
pub fn rules_version() -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for rule in Rule::ALL {
        eat(rule.id());
        eat(rule.title());
        eat(rule.explain());
    }
    h
}

/// One parsed `// genio-analyzer: allow(R11, reason = "...")` comment.
///
/// Line-scoped by design: a trailing comment suppresses its own line, a
/// standalone comment suppresses the next line, nothing else — so a
/// suppression can never quietly swallow findings elsewhere in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line of the comment.
    pub line: u32,
    /// Rules the comment suppresses.
    pub rules: Vec<Rule>,
    /// Mandatory human rationale (empty reasons are rejected by the
    /// parser, leaving the comment inert).
    pub reason: String,
}

impl Allow {
    /// Does this allow suppress a `rule` finding at `line` of the same
    /// file? Trailing comments share the line; standalone comments cover
    /// exactly the next line.
    pub fn covers(&self, rule: Rule, line: u32) -> bool {
        self.rules.contains(&rule) && (line == self.line || line == self.line + 1)
    }
}

/// Collects every well-formed suppression comment in the file. An
/// unknown rule id anywhere in the list makes the whole comment inert
/// (never best-effort-honoured), matching the lexer's strictness on the
/// rest of the syntax.
pub fn collect_allows(ann: &Annotated) -> Vec<Allow> {
    ann.comments
        .iter()
        .filter_map(|c| {
            let (ids, reason) = crate::lexer::parse_allow(&c.text)?;
            let rules: Vec<Rule> = ids.iter().filter_map(|i| Rule::from_id(i)).collect();
            if rules.len() != ids.len() {
                return None;
            }
            Some(Allow { line: c.line, rules, reason })
        })
        .collect()
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: Rule,
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// 1-based line (human navigation only; not part of the ratchet key).
    pub line: u32,
    /// Enclosing function, `-` at item level.
    pub function: String,
    /// Stable, line-free description (part of the ratchet key).
    pub detail: String,
    /// Whether reachability is confirmed: `Some(true)` for flow rules and
    /// for R4/R5, `Some(false)` once [`crate::dataflow`] discharges an
    /// R4/R5 finding, `None` for the other lexical rules.
    pub confirmed: Option<bool>,
}

/// A (possibly guarded) parser-input access that [`crate::dataflow`]
/// re-examines across function boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Enclosing function.
    pub function: String,
    /// Variable the access reads (`buf` in `buf[i]`, cast subject for R4).
    pub var: String,
    /// Whether a bounds guard dominates the access lexically.
    pub guarded: bool,
    /// Which rule produced the access.
    pub rule: Rule,
    /// 1-based line of the access; pairs it with its finding.
    pub line: u32,
    /// `& <literal>` mask applied at the top level of the index
    /// expression, if any (`s[(x >> 16) & 0xff]` records `0xff`).
    pub masked: Option<u64>,
    /// The sole identifier driving the index when its shape is `v` or
    /// `v - x` (after stripping casts, parens and the mask).
    pub index_ident: Option<String>,
    /// `(lower, upper)` bound token text of the innermost enclosing
    /// `for` loop binding [`Access::index_ident`].
    pub loop_bounds: Option<(String, String)>,
}

/// What the scanner knows about the file being checked.
#[derive(Debug, Clone)]
pub struct FileContext<'a> {
    /// Crate directory name (`crypto`, `pon`, …; `genio` for the root
    /// facade).
    pub crate_name: &'a str,
    /// Repo-relative path, forward slashes.
    pub rel_path: &'a str,
    /// Base file name (`gcm.rs`).
    pub file_name: &'a str,
}

/// Crates whose secret comparisons must be constant-time (R2).
const R2_CRATES: &[&str] = &["crypto", "netsec"];

/// Frame/feed parser crates narrowed casts are flagged in (R4).
const R4_CRATES: &[&str] = &["pon", "netsec", "vulnmgmt"];

/// AEAD/frame hot-path files checked for unguarded indexing (R5).
const R5_FILES: &[(&str, &str)] = &[
    ("crypto", "gcm.rs"),
    ("crypto", "aes.rs"),
    ("pon", "frame.rs"),
    ("pon", "security.rs"),
    ("netsec", "macsec.rs"),
];

/// Files allowed to read the OS clock directly (R7): the telemetry
/// clock abstraction itself, and the testkit bench harness that measures
/// wall time by design.
const R7_ALLOWED: &[(&str, &str)] = &[("telemetry", "clock.rs"), ("testkit", "bench.rs")];

/// Identifier segments that mark secret material for R2.
const SECRET_SEGMENTS: &[&str] = &[
    "tag", "icv", "mac", "digest", "key", "secret", "password", "finished",
];

/// Narrowing cast targets for R4 (≤32-bit; widening to u64/usize is not
/// flagged — the scanner has no type info, so this errs on silence).
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// R1-flagged macro names (when followed by `!`).
pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can precede `[` without being an indexed variable.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn",
    "else", "enum", "fn", "for", "if", "impl", "in", "let", "loop", "match",
    "mod", "move", "mut", "pub", "ref", "return", "static", "struct", "super",
    "trait", "type", "unsafe", "use", "where", "while",
];

/// Is `text` a Rust keyword the call/index scanners must not treat as a
/// name?
pub(crate) fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// Is this file on the R5 hot-path indexing list? The R16 closure skips
/// index sites here — R5 already owns them finding-for-finding.
pub(crate) fn is_r5_file(crate_name: &str, rel_path: &str) -> bool {
    let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);
    R5_FILES
        .iter()
        .any(|&(c, f)| c == crate_name && f == file_name)
}

/// Token stream annotated with test-exclusion ranges, enclosing-function
/// attribution and bounds-guard sites.
pub struct Annotated {
    /// Non-comment tokens, source order.
    pub code: Vec<Token>,
    /// Comment tokens, source order.
    pub comments: Vec<Token>,
    /// Per `code` index: inside a `#[cfg(test)]` / `#[test]` item?
    pub excluded: Vec<bool>,
    /// Per `code` index: index into `fn_names`.
    pub fn_of: Vec<usize>,
    /// Function-name table; entry 0 is `-` (item level).
    pub fn_names: Vec<String>,
    /// `(code index, variable)` sites where a bounds guard was seen
    /// (`var.len()`, `var.get(..)`, `var.iter()`).
    pub guards: Vec<(usize, String)>,
    /// `(code index, variable)` sites where an option/result guard was
    /// seen (`var.is_some()`, `var.is_ok()`) — kept separate from
    /// `guards` so bounds discharge (R4/R5) is never blessed by an
    /// unrelated Option check. Consumed by the R16 panic-freedom pass.
    pub opt_guards: Vec<(usize, String)>,
    /// Dominance scope of every entry in `guards`, branch/loop/
    /// early-return aware ([`crate::cfg`]).
    pub scopes: Vec<crate::cfg::GuardScope>,
    /// Dominance scope of every entry in `opt_guards`.
    pub opt_scopes: Vec<crate::cfg::GuardScope>,
    /// Loop variables bound by a *literal* range (`for r in 1..4`), as
    /// `(var, first code index, last code index)` of the loop body —
    /// indexing through them is statically in-bounds for fixed-size
    /// state arrays, so R5 treats them like literal indices.
    pub bounded: Vec<(String, usize, usize)>,
    /// Every `for VAR in LOWER..UPPER { … }` loop, literal-bounded or
    /// not, with the bound expressions as joined token text — the
    /// interprocedural pass compares `UPPER` against workspace constants
    /// and allocation sizes to discharge R5 findings.
    pub loops: Vec<LoopInfo>,
}

/// One `for` loop over a range, recorded by [`annotate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// Loop variable.
    pub var: String,
    /// Lower bound, token text joined without spaces (`nk`, `0`).
    pub lower: String,
    /// Upper bound, token text joined without spaces (`4*(nr+1)`).
    pub upper: String,
    /// First code index of the loop body.
    pub body_start: usize,
    /// Last code index of the loop body.
    pub body_end: usize,
}

/// Builds the annotation in a single forward walk.
pub fn annotate(tokens: Vec<Token>) -> Annotated {
    let (code, comments): (Vec<Token>, Vec<Token>) = tokens
        .into_iter()
        .partition(|t| t.kind != TokenKind::Comment);

    let n = code.len();
    let mut excluded = vec![false; n];
    let mut fn_of = vec![0usize; n];
    let mut fn_names = vec!["-".to_string()];
    let mut guards = Vec::new();
    let mut opt_guards = Vec::new();

    let mut depth = 0usize;
    // `(`/`[` nesting, so the `;` inside `fn f(a: [u8; N])` or
    // `-> [u8; N]` is not mistaken for an item-ending semicolon.
    let mut paren = 0i64;
    let mut exclude_depth: Option<usize> = None;
    let mut pending_test = false;
    let mut pending_fn: Option<String> = None;
    let mut fn_stack: Vec<(usize, usize)> = Vec::new(); // (name idx, depth)

    let mut i = 0;
    while i < n {
        let t = &code[i];
        let text = t.text.as_str();

        // Outer attribute: `#[ ... ]` — detect test gating.
        if text == "#" && i + 1 < n && code[i + 1].text == "[" {
            let mut j = i + 2;
            let mut brackets = 1usize;
            let mut attr = String::new();
            while j < n && brackets > 0 {
                match code[j].text.as_str() {
                    "[" => brackets += 1,
                    "]" => brackets -= 1,
                    s if brackets > 0 => attr.push_str(s),
                    _ => {}
                }
                j += 1;
            }
            if attr == "test" || attr.starts_with("cfg(test") || attr.starts_with("cfg(all(test")
            {
                pending_test = true;
            }
            for k in i..j {
                fn_of[k] = fn_stack.last().map(|&(idx, _)| idx).unwrap_or(0);
                excluded[k] = exclude_depth.is_some();
            }
            i = j;
            continue;
        }

        match text {
            "{" => {
                depth += 1;
                // A `#[test]` inside an already-excluded `#[cfg(test)]`
                // module must still be consumed here, or it would leak
                // onto the next item after the module closes.
                if pending_test {
                    if exclude_depth.is_none() {
                        exclude_depth = Some(depth);
                    }
                    pending_test = false;
                }
                if let Some(name) = pending_fn.take() {
                    fn_names.push(name);
                    fn_stack.push((fn_names.len() - 1, depth));
                }
            }
            "}" => {
                if let Some(&(_, d)) = fn_stack.last() {
                    if d == depth {
                        fn_stack.pop();
                    }
                }
                excluded[i] = exclude_depth.is_some();
                if exclude_depth == Some(depth) {
                    exclude_depth = None;
                }
                fn_of[i] = fn_stack.last().map(|&(idx, _)| idx).unwrap_or(0);
                depth = depth.saturating_sub(1);
                i += 1;
                continue;
            }
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" if paren == 0 => {
                // Attribute applied to a non-braced item (`use`, decl).
                if exclude_depth.is_none() {
                    pending_test = false;
                }
                pending_fn = None;
            }
            "fn" if i + 1 < n && code[i + 1].kind == TokenKind::Ident => {
                pending_fn = Some(code[i + 1].text.clone());
            }
            _ => {}
        }

        // Bounds-guard site: `var.len` / `var.get` / `var.iter`.
        if t.kind == TokenKind::Ident
            && i + 2 < n
            && code[i + 1].text == "."
            && matches!(code[i + 2].text.as_str(), "len" | "get" | "iter" | "is_empty")
        {
            guards.push((i, text.to_string()));
        }

        // Option/Result guard site: `var.is_some()` / `var.is_ok()` —
        // the R16 pass discharges a dominated `var.unwrap()` with these.
        if t.kind == TokenKind::Ident
            && i + 2 < n
            && code[i + 1].text == "."
            && matches!(code[i + 2].text.as_str(), "is_some" | "is_ok")
        {
            opt_guards.push((i, text.to_string()));
        }

        // Comparison guard on the *index* side: `i < buf.len()` (or
        // `buf.len() > i`) also bounds `i`, which the caller-guard
        // propagation in `crate::dataflow` needs when `i` is later
        // passed to an indexing callee.
        if t.kind == TokenKind::Ident {
            let lt_len = i + 4 < n
                && code[i + 1].text == "<"
                && code[i + 2].kind == TokenKind::Ident
                && code[i + 3].text == "."
                && matches!(code[i + 4].text.as_str(), "len");
            let len_gt = i >= 6
                && code[i - 1].text == ">"
                && code[i - 2].text == ")"
                && code[i - 3].text == "("
                && code[i - 4].text == "len"
                && code[i - 5].text == "."
                && code[i - 6].kind == TokenKind::Ident;
            if lt_len || len_gt {
                guards.push((i, text.to_string()));
            }
        }

        excluded[i] = exclude_depth.is_some();
        fn_of[i] = fn_stack.last().map(|&(idx, _)| idx).unwrap_or(0);
        i += 1;
    }

    // Second, cheap pass: `for VAR in LOWER..UPPER` loops. Every range
    // loop is recorded (for the interprocedural bound comparisons);
    // loops whose range is *literal-only* additionally land in
    // `bounded` — `for r in 1..4 {` pins `r` at compile time, so
    // indexing fixed-size state through it cannot go out of bounds.
    let mut bounded = Vec::new();
    let mut loops = Vec::new();
    i = 0;
    while i < n {
        if code[i].text == "for"
            && code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            && code.get(i + 2).map(|t| t.text.as_str()) == Some("in")
        {
            let var = code[i + 1].text.clone();
            let mut j = i + 3;
            let mut saw_range = false;
            let mut literal_only = true;
            let mut lower = String::new();
            let mut upper = String::new();
            let mut parens = 0usize;
            while j < n && !(parens == 0 && code[j].text == "{") {
                match code[j].text.as_str() {
                    ".." | "..=" if parens == 0 => saw_range = true,
                    s => {
                        match s {
                            "(" | "[" => parens += 1,
                            ")" | "]" => parens = parens.saturating_sub(1),
                            _ => {}
                        }
                        if code[j].kind != TokenKind::Num && !matches!(s, "(" | ")") {
                            literal_only = false;
                        }
                        if saw_range {
                            upper.push_str(s);
                        } else {
                            lower.push_str(s);
                        }
                    }
                }
                j += 1;
            }
            if saw_range && j < n {
                let start = j + 1;
                let mut body_depth = 1usize;
                let mut k = start;
                while k < n && body_depth > 0 {
                    match code[k].text.as_str() {
                        "{" => body_depth += 1,
                        "}" => body_depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                let body_end = k.saturating_sub(1);
                if literal_only {
                    bounded.push((var.clone(), start, body_end));
                }
                loops.push(LoopInfo { var, lower, upper, body_start: start, body_end });
            }
        }
        i += 1;
    }

    let scopes = crate::cfg::compute_scopes(&code, &guards);
    let opt_scopes = crate::cfg::compute_scopes(&code, &opt_guards);
    Annotated {
        code,
        comments,
        excluded,
        fn_of,
        fn_names,
        guards,
        opt_guards,
        scopes,
        opt_scopes,
        bounded,
        loops,
    }
}

impl Annotated {
    pub(crate) fn fn_name(&self, i: usize) -> &str {
        &self.fn_names[self.fn_of[i]]
    }

    /// Does a bounds guard on `var` *dominate* code index `i` (same
    /// function, and `i` inside the guard's control-flow scope)? Until
    /// v3 this was a flat "any earlier mention" test; it now consults
    /// the per-guard dominance scopes from [`crate::cfg`], so `if i <
    /// buf.len() { buf[i] } else { buf[i] }` discharges only the
    /// checked arm.
    pub(crate) fn guarded_before(&self, i: usize, var: &str) -> bool {
        let f = self.fn_of[i];
        self.scopes
            .iter()
            .any(|s| s.var == var && s.covers(i) && self.fn_of[s.pos] == f)
    }

    /// Does an `is_some`/`is_ok` guard on `var` dominate code index `i`?
    pub(crate) fn opt_guarded_before(&self, i: usize, var: &str) -> bool {
        let f = self.fn_of[i];
        self.opt_scopes
            .iter()
            .any(|s| s.var == var && s.covers(i) && self.fn_of[s.pos] == f)
    }

    /// Is `name` a literal-range loop variable at code index `i`?
    pub(crate) fn is_literal_bounded(&self, i: usize, name: &str) -> bool {
        self.bounded
            .iter()
            .any(|&(ref v, s, e)| v == name && s <= i && i <= e)
    }
}

/// Does the (crate-root) token stream carry `#![forbid(unsafe_code)]`?
pub fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    tokens.windows(4).any(|w| {
        w[0].text == "forbid"
            && w[1].text == "("
            && w[2].text == "unsafe_code"
            && w[3].text == ")"
    })
}

/// Runs every per-file rule. Returns the findings plus the R4/R5 access
/// records for [`crate::dataflow`] (R3 is a per-crate rule and lives in
/// [`crate::workspace`]).
pub fn scan_tokens(ctx: &FileContext<'_>, ann: &Annotated) -> (Vec<Finding>, Vec<Access>) {
    let mut findings = Vec::new();
    let mut accesses = Vec::new();

    rule_r1(ctx, ann, &mut findings);
    if R2_CRATES.contains(&ctx.crate_name) {
        rule_r2(ctx, ann, &mut findings);
    }
    if R4_CRATES.contains(&ctx.crate_name) {
        rule_r4(ctx, ann, &mut findings, &mut accesses);
    }
    if R5_FILES
        .iter()
        .any(|&(c, f)| c == ctx.crate_name && f == ctx.file_name)
    {
        rule_r5(ctx, ann, &mut findings, &mut accesses);
    }
    rule_r6(ctx, ann, &mut findings);
    rule_r15(ctx, ann, &mut findings);
    if !R7_ALLOWED
        .iter()
        .any(|&(c, f)| c == ctx.crate_name && f == ctx.file_name)
    {
        rule_r7(ctx, ann, &mut findings);
    }

    (findings, accesses)
}

fn push(
    findings: &mut Vec<Finding>,
    ctx: &FileContext<'_>,
    rule: Rule,
    line: u32,
    function: &str,
    detail: String,
) {
    findings.push(Finding {
        rule,
        file: ctx.rel_path.to_string(),
        line,
        function: function.to_string(),
        detail,
        // R4/R5 findings are pushed beside an unguarded `Access` of their
        // own function, so each is reachable by construction.
        confirmed: matches!(rule, Rule::R4NarrowingCast | Rule::R5UnguardedIndex).then_some(true),
    });
}

fn rule_r1(ctx: &FileContext<'_>, ann: &Annotated, findings: &mut Vec<Finding>) {
    let code = &ann.code;
    for i in 0..code.len() {
        if ann.excluded[i] || code[i].kind != TokenKind::Ident {
            continue;
        }
        let text = code[i].text.as_str();
        let prev = i.checked_sub(1).map(|p| code[p].text.as_str());
        let next = code.get(i + 1).map(|t| t.text.as_str());
        let detail = if text == "unwrap" && prev == Some(".") && next == Some("(") {
            "call to .unwrap()".to_string()
        } else if text == "expect"
            && prev == Some(".")
            && next == Some("(")
            && code.get(i + 2).is_some_and(|t| t.kind == TokenKind::Str)
        {
            "call to .expect(..)".to_string()
        } else if PANIC_MACROS.contains(&text) && next == Some("!") && prev != Some("::") {
            format!("{text}! macro")
        } else {
            continue;
        };
        push(findings, ctx, Rule::R1PanicPath, code[i].line, ann.fn_name(i), detail);
    }
}

/// Span-guard constructors whose return value must outlive the scope it
/// times (R15).
const R15_SPAN_CALLS: &[&str] = &["span", "span_at"];

fn rule_r15(ctx: &FileContext<'_>, ann: &Annotated, findings: &mut Vec<Finding>) {
    let code = &ann.code;
    for i in 0..code.len() {
        if ann.excluded[i]
            || code[i].kind != TokenKind::Ident
            || !R15_SPAN_CALLS.contains(&code[i].text.as_str())
        {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| code[p].text.as_str());
        if prev == Some("fn") {
            continue; // a definition of `span`/`span_at`, not a call
        }
        // `span(..)` / `span_at(..)` call, or `span!(..)` invocation.
        let open = match code.get(i + 1).map(|t| t.text.as_str()) {
            Some("(") => i + 1,
            Some("!") if code.get(i + 2).is_some_and(|t| t.text == "(") => i + 2,
            _ => continue,
        };
        // Matching close paren of the argument list.
        let mut depth = 0i64;
        let mut close = None;
        for (j, t) in code.iter().enumerate().skip(open) {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        // Only a guard that ends its own statement can drop on the spot;
        // one consumed by an enclosing expression (`drop(..)`,
        // `black_box(..)`, a tail/return position) is deliberate.
        if code.get(close + 1).map(|t| t.text.as_str()) != Some(";") {
            continue;
        }
        // Back-walk to the statement start to see how (if) it is bound.
        let mut start = 0usize;
        for j in (0..i).rev() {
            if matches!(code[j].text.as_str(), ";" | "{" | "}") {
                start = j + 1;
                break;
            }
        }
        let stmt: Vec<&str> = code[start..i].iter().map(|t| t.text.as_str()).collect();
        let display = if open == i + 2 {
            format!("{}!(..)", code[i].text)
        } else {
            format!("{}(..)", code[i].text)
        };
        let detail = if stmt.first() == Some(&"let") {
            // A named binding (even `_guard`) lives to end of scope;
            // exactly `_` drops immediately.
            if stmt.get(1) == Some(&"_") && stmt.get(2) == Some(&"=") {
                format!("span guard from {display} bound to _")
            } else {
                continue;
            }
        } else if stmt.contains(&"=") {
            continue; // assigned to a place that outlives the statement
        } else {
            format!("span guard from {display} dropped immediately")
        };
        push(findings, ctx, Rule::R15DroppedSpan, code[i].line, ann.fn_name(i), detail);
    }
}

/// Does `ident` contain a secret-material segment as a whole `_`-separated
/// word (`public_key` yes, `macsec` no)?
pub(crate) fn has_secret_segment(ident: &str) -> bool {
    ident
        .split('_')
        .any(|seg| SECRET_SEGMENTS.contains(&seg.to_ascii_lowercase().as_str()))
}

fn rule_r2(ctx: &FileContext<'_>, ann: &Annotated, findings: &mut Vec<Finding>) {
    let code = &ann.code;
    for i in 0..code.len() {
        if ann.excluded[i] || !matches!(code[i].text.as_str(), "==" | "!=") {
            continue;
        }
        // Collect operand identifiers in a small window around the
        // operator, bounded by statement/block punctuation.
        let mut involved: Option<String> = None;
        for dir in [-1i64, 1] {
            for step in 1..=8i64 {
                let j = i as i64 + dir * step;
                if j < 0 || j as usize >= code.len() {
                    break;
                }
                let t = &code[j as usize];
                if matches!(t.text.as_str(), ";" | "{" | "}") {
                    break;
                }
                if t.kind == TokenKind::Ident && has_secret_segment(&t.text) {
                    // A `.len()`-style projection compares public sizes.
                    let after = code.get(j as usize + 2).map(|t| t.text.as_str());
                    let is_len = code.get(j as usize + 1).map(|t| t.text.as_str())
                        == Some(".")
                        && matches!(after, Some("len" | "is_empty" | "capacity"));
                    if !is_len {
                        involved = Some(t.text.clone());
                        break;
                    }
                }
            }
            if involved.is_some() {
                break;
            }
        }
        if let Some(ident) = involved {
            push(
                findings,
                ctx,
                Rule::R2NonCtCompare,
                code[i].line,
                ann.fn_name(i),
                format!("`{}` compared on `{ident}` (use ct::eq)", code[i].text),
            );
        }
    }
}

fn rule_r4(
    ctx: &FileContext<'_>,
    ann: &Annotated,
    findings: &mut Vec<Finding>,
    accesses: &mut Vec<Access>,
) {
    let code = &ann.code;
    for i in 0..code.len() {
        if ann.excluded[i] || code[i].text != "as" || code[i].kind != TokenKind::Ident {
            continue;
        }
        let Some(target) = code.get(i + 1) else { continue };
        if !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        // Cast subject: nearest identifier to the left.
        let var = i
            .checked_sub(1)
            .and_then(|p| {
                code[..=p]
                    .iter()
                    .rev()
                    .take(4)
                    .find(|t| t.kind == TokenKind::Ident)
            })
            .map(|t| t.text.clone())
            .unwrap_or_else(|| "expr".to_string());
        // Casting a literal narrows nothing worth flagging.
        if i >= 1 && code[i - 1].kind == TokenKind::Num {
            continue;
        }
        let function = ann.fn_name(i).to_string();
        push(
            findings,
            ctx,
            Rule::R4NarrowingCast,
            code[i].line,
            &function,
            format!("narrowing cast `as {}` of `{var}`", target.text),
        );
        accesses.push(Access {
            function,
            var: var.clone(),
            guarded: false,
            rule: Rule::R4NarrowingCast,
            line: code[i].line,
            masked: None,
            index_ident: Some(var),
            loop_bounds: None,
        });
    }
}

fn rule_r5(
    ctx: &FileContext<'_>,
    ann: &Annotated,
    findings: &mut Vec<Finding>,
    accesses: &mut Vec<Access>,
) {
    let code = &ann.code;
    for i in 0..code.len() {
        if ann.excluded[i]
            || code[i].kind != TokenKind::Ident
            || KEYWORDS.contains(&code[i].text.as_str())
            || code.get(i + 1).map(|t| t.text.as_str()) != Some("[")
        {
            continue;
        }
        // Walk the bracket; a purely literal index/range is static.
        let mut j = i + 2;
        let mut brackets = 1usize;
        let mut dynamic = false;
        let idx_start = i + 2;
        while j < code.len() && brackets > 0 {
            match code[j].text.as_str() {
                "[" => brackets += 1,
                "]" => brackets -= 1,
                // A cast suffix never adds dynamism, and literal-range
                // loop variables are as static as the literals bounding
                // them.
                "as" | "usize" => {}
                _ => {
                    if code[j].kind == TokenKind::Ident
                        && !ann.is_literal_bounded(j, &code[j].text)
                    {
                        dynamic = true;
                    }
                }
            }
            j += 1;
        }
        if !dynamic {
            continue;
        }
        let idx_end = j.saturating_sub(1); // exclusive: the closing `]`
        let (masked, index_ident) = index_shape(&code[idx_start..idx_end]);
        let loop_bounds = index_ident.as_deref().and_then(|v| {
            ann.loops
                .iter()
                .filter(|l| l.var == v && l.body_start <= i && i <= l.body_end)
                .max_by_key(|l| l.body_start) // innermost binding wins
                .map(|l| (l.lower.clone(), l.upper.clone()))
        });
        let var = code[i].text.clone();
        let function = ann.fn_name(i).to_string();
        let guarded = ann.guarded_before(i, &var);
        accesses.push(Access {
            function: function.clone(),
            var: var.clone(),
            guarded,
            rule: Rule::R5UnguardedIndex,
            line: code[i].line,
            masked,
            index_ident,
            loop_bounds,
        });
        if !guarded {
            push(
                findings,
                ctx,
                Rule::R5UnguardedIndex,
                code[i].line,
                &function,
                format!("dynamic index into `{var}` with no preceding bounds guard"),
            );
        }
    }
}

/// Shape analysis of an index expression (the tokens between `[` and
/// `]`): extracts a top-level `& <literal>` mask and, when the stripped
/// remainder is `v` or `v - x`, the driving identifier `v`.
pub(crate) fn index_shape(tokens: &[Token]) -> (Option<u64>, Option<String>) {
    let mut t: Vec<&Token> = tokens.iter().collect();
    // Drop cast suffixes (`as usize`, `as u32`, …).
    while t.len() >= 2 && t[t.len() - 2].text == "as" {
        t.truncate(t.len() - 2);
    }
    strip_outer_parens(&mut t);
    let mut masked = None;
    if t.len() >= 2
        && t[t.len() - 1].kind == TokenKind::Num
        && t[t.len() - 2].text == "&"
        && at_top_level(&t, t.len() - 2)
    {
        masked = parse_int(&t[t.len() - 1].text);
        t.truncate(t.len() - 2);
        strip_outer_parens(&mut t);
    }
    let index_ident = match t.as_slice() {
        [v] if v.kind == TokenKind::Ident => Some(v.text.clone()),
        [v, m, _] if v.kind == TokenKind::Ident && m.text == "-" => Some(v.text.clone()),
        _ => None,
    };
    (masked, index_ident)
}

/// Removes `( … )` pairs that wrap the whole expression.
fn strip_outer_parens(t: &mut Vec<&Token>) {
    while t.len() >= 2 && t[0].text == "(" && t[t.len() - 1].text == ")" {
        // The opening paren must match the *last* token, not an inner one.
        let mut depth = 0i64;
        let mut wraps = true;
        for (i, tok) in t.iter().enumerate() {
            match tok.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 && i + 1 != t.len() {
                        wraps = false;
                        break;
                    }
                }
                _ => {}
            }
        }
        if !wraps {
            break;
        }
        t.pop();
        t.remove(0);
    }
}

/// Is token `idx` outside every paren/bracket group of `t`?
fn at_top_level(t: &[&Token], idx: usize) -> bool {
    let mut depth = 0i64;
    for tok in &t[..idx] {
        match tok.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// Parses a Rust integer literal (`16`, `0xff`, `0b1010`, `1_000`,
/// suffixes tolerated). Returns `None` for anything non-numeric.
pub(crate) fn parse_int(text: &str) -> Option<u64> {
    let s: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(h) = s.strip_prefix("0x") {
        (h, 16)
    } else if let Some(b) = s.strip_prefix("0b") {
        (b, 2)
    } else if let Some(o) = s.strip_prefix("0o") {
        (o, 8)
    } else {
        (s.as_str(), 10)
    };
    let end = digits
        .char_indices()
        .find(|&(_, c)| !c.is_digit(radix))
        .map(|(i, _)| i)
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

fn rule_r7(ctx: &FileContext<'_>, ann: &Annotated, findings: &mut Vec<Finding>) {
    let code = &ann.code;
    for i in 0..code.len() {
        if ann.excluded[i]
            || code[i].kind != TokenKind::Ident
            || !matches!(code[i].text.as_str(), "Instant" | "SystemTime")
        {
            continue;
        }
        if code.get(i + 1).map(|t| t.text.as_str()) == Some("::")
            && code.get(i + 2).map(|t| t.text.as_str()) == Some("now")
        {
            push(
                findings,
                ctx,
                Rule::R7RawTiming,
                code[i].line,
                ann.fn_name(i),
                format!("raw {}::now() (route timing through the telemetry Clock)", code[i].text),
            );
        }
    }
}

fn rule_r6(ctx: &FileContext<'_>, ann: &Annotated, findings: &mut Vec<Finding>) {
    for c in &ann.comments {
        for marker in ["TODO", "FIXME", "XXX", "HACK"] {
            if c.text.contains(marker) {
                push(
                    findings,
                    ctx,
                    Rule::R6DebtMarker,
                    c.line,
                    "-",
                    format!("{marker} comment"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn ctx<'a>(krate: &'a str, file: &'a str) -> FileContext<'a> {
        FileContext { crate_name: krate, rel_path: file, file_name: file }
    }

    fn scan(krate: &str, file: &str, src: &str) -> Vec<Finding> {
        scan_tokens(&ctx(krate, file), &annotate(tokenize(src))).0
    }

    #[test]
    fn r1_flags_library_unwrap_but_not_test_code() {
        let src = r#"
            pub fn lib_path(x: Option<u8>) -> u8 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!("fine in tests"); }
            }
            pub fn after_tests(y: Option<u8>) -> u8 { y.unwrap() }
        "#;
        let f = scan("demo", "demo.rs", src);
        let r1: Vec<_> = f.iter().filter(|f| f.rule == Rule::R1PanicPath).collect();
        // Library code before AND after the test module is flagged; the
        // `#[test]` inside the excluded module must not leak exclusion
        // onto `after_tests`.
        assert_eq!(r1.len(), 2);
        assert_eq!(r1[0].function, "lib_path");
        assert_eq!(r1[1].function, "after_tests");
    }

    #[test]
    fn r1_expect_needs_a_string_argument() {
        // A parser method named `expect` taking a byte is not Option::expect.
        let src = "fn f(&mut self) { self.expect(b':')?; }";
        assert!(scan("demo", "d.rs", src).iter().all(|f| f.rule != Rule::R1PanicPath));
        let src2 = "fn f(x: Option<u8>) -> u8 { x.expect(\"boom\") }";
        assert_eq!(scan("demo", "d.rs", src2).len(), 1);
    }

    #[test]
    fn r1_flags_panic_macros_but_not_paths() {
        let src = "fn f() { std::panic::catch_unwind(|| 1).ok(); }";
        assert!(scan("demo", "d.rs", src).is_empty());
        let src2 = "fn f() { unreachable!(\"no\"); }";
        assert_eq!(scan("demo", "d.rs", src2).len(), 1);
    }

    #[test]
    fn r2_flags_secret_compare_only_in_scope() {
        let src = "fn v(tag: &[u8], other: &[u8]) -> bool { tag == other }";
        assert_eq!(scan("crypto", "x.rs", src).len(), 1);
        // Same code outside crypto/netsec: not in scope.
        assert!(scan("pon", "x.rs", src).is_empty());
    }

    #[test]
    fn r2_ignores_public_lengths_and_neutral_idents() {
        let src = "fn v(key: &[u8]) -> bool { key.len() == 32 }";
        assert!(scan("crypto", "x.rs", src).is_empty());
        let src2 = "fn v(a: u8, b: u8) -> bool { a == b }";
        assert!(scan("crypto", "x.rs", src2).is_empty());
        // `macsec` does not segment to `mac`.
        let src3 = "fn v(macsec_mode: u8) -> bool { macsec_mode == 3 }";
        assert!(scan("netsec", "x.rs", src3).is_empty());
    }

    #[test]
    fn r4_flags_narrowing_not_widening() {
        let src = "fn f(sci: u64) -> u32 { sci as u32 }";
        let f = scan("netsec", "x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("as u32"));
        let src2 = "fn f(x: u32) -> u64 { x as u64 }";
        assert!(scan("netsec", "x.rs", src2).is_empty());
        // Literal bounds are not narrowing hazards.
        let src3 = "fn f() -> u64 { u32::MAX as u64 }";
        assert!(scan("netsec", "x.rs", src3).is_empty());
    }

    #[test]
    fn r5_flags_unguarded_dynamic_index_only() {
        let unguarded = "fn f(buf: &[u8], i: usize) -> u8 { buf[i] }";
        let f = scan("pon", "frame.rs", unguarded);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::R5UnguardedIndex);

        let guarded = "fn f(buf: &[u8], i: usize) -> u8 { if i < buf.len() { buf[i] } else { 0 } }";
        assert!(scan("pon", "frame.rs", guarded).is_empty());

        let constant = "fn f(buf: &[u8]) -> u8 { buf[0] }";
        assert!(scan("pon", "frame.rs", constant).is_empty());

        // Out-of-scope file: no R5.
        assert!(scan("pon", "topology.rs", unguarded).is_empty());
    }

    #[test]
    fn r5_literal_bounded_loop_vars_are_static() {
        // `for r in 1..4` pins `r` at compile time — AES-style state
        // shuffles through it are not dynamic indexing.
        let src = "fn f(b: &mut [u8]) { for r in 1..4 { b[r] = b[r + 4]; } }";
        assert!(scan("crypto", "aes.rs", src).is_empty());
        // A variable-bounded loop stays flagged.
        let src2 = "fn f(w: &mut [u32], nk: usize, m: usize) { for i in nk..m { w[i] = 0; } }";
        assert_eq!(scan("crypto", "aes.rs", src2).len(), 1);
        // Outside its loop body the name is dynamic again.
        let src3 = "fn f(b: &[u8], r: usize) -> u8 { for r in 0..2 { let _ = r; } b[r] }";
        assert_eq!(scan("crypto", "aes.rs", src3).len(), 1);
    }

    #[test]
    fn r6_counts_debt_markers_in_comments_only() {
        let src = "// TODO: tighten\nfn f() { let todo_list = 1; }";
        let f = scan("demo", "x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::R6DebtMarker);
    }

    #[test]
    fn r7_flags_raw_timing_outside_the_clock() {
        let src = "fn f() -> std::time::Instant { Instant::now() }";
        let f = scan("pon", "sim.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::R7RawTiming);
        assert!(f[0].detail.contains("Instant::now()"));
        // SystemTime is flagged the same way.
        let src2 = "fn f() { let _ = SystemTime::now(); }";
        assert_eq!(scan("core", "x.rs", src2).len(), 1);
    }

    #[test]
    fn r7_allows_the_clock_abstraction_and_bench_harness() {
        let src = "fn f() -> std::time::Instant { Instant::now() }";
        assert!(scan("telemetry", "clock.rs", src).is_empty());
        assert!(scan("testkit", "bench.rs", src).is_empty());
        // Same names, elsewhere in those crates: still flagged.
        assert_eq!(scan("telemetry", "span.rs", src).len(), 1);
    }

    #[test]
    fn r7_ignores_test_code_and_non_call_mentions() {
        let src = "#[cfg(test)]\nmod tests { #[test]\nfn t() { let _ = Instant::now(); } }";
        assert!(scan("pon", "sim.rs", src).is_empty());
        // `Instant` without `::now` (e.g. a type position) is fine.
        let src2 = "fn f(epoch: Instant) -> Instant { epoch }";
        assert!(scan("pon", "sim.rs", src2).is_empty());
    }

    #[test]
    fn forbid_attr_detection() {
        assert!(has_forbid_unsafe(&tokenize("#![forbid(unsafe_code)]\npub fn x() {}")));
        assert!(!has_forbid_unsafe(&tokenize("#![deny(missing_docs)]")));
    }

    #[test]
    fn fn_attribution_handles_nesting() {
        let src = "fn outer() { fn inner(x: Option<u8>) { x.unwrap(); } }";
        let f = scan("demo", "x.rs", src);
        assert_eq!(f[0].function, "inner");
    }
}
