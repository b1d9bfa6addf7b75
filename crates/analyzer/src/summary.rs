//! Per-file function/item summaries for the interprocedural pass.
//!
//! A lightweight recursive-descent walk over the annotated token stream
//! (no full parser, no type inference) extracts exactly the facts
//! [`crate::dataflow`] needs:
//!
//! * function headers — name, parameter names + type text, return type
//!   text;
//! * call sites inside each body, with per-argument shape (bare
//!   identifier / integer literal / other) and whether a bounds guard
//!   dominates an identifier argument in the caller;
//! * format/Debug/telemetry *sink* uses of bare identifiers (R8);
//! * discarded statement results — `let _ = …;` and bare `call(…);`
//!   statements (R9);
//! * item-level facts — `const NAME: … = <int>;` values, `type` alias
//!   right-hand sides, declared struct names, and per-function local
//!   allocation sizes (`vec![x; N]`, `[x; N]`) and `let v = call();`
//!   bindings.
//!
//! Type "text" is token text joined without spaces (`&'static[u8;256]`),
//! compared verbatim by the dataflow pass — good enough for a workspace
//! with a single naming convention, and honest about being lexical.
//!
//! [`crate::cache`] persists summaries per file in its positional
//! encoding, so the warm path can skip this pass entirely.

use crate::lexer::TokenKind;
use crate::rules::Annotated;

/// Everything the interprocedural pass knows about one file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileSummary {
    /// Integer constants: `const NAME: usize = 16;` → `("NAME", 16)`.
    pub consts: Vec<(String, u64)>,
    /// Type aliases: `type Block = [u8; BLOCK_LEN];` → rhs token text.
    pub types: Vec<(String, String)>,
    /// Struct/enum names declared at item level.
    pub structs: Vec<String>,
    /// One summary per `fn` with a body (test code excluded).
    pub functions: Vec<FnSummary>,
}

/// Summary of one function definition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FnSummary {
    /// Function name (last `fn` ident; nested fns summarised separately).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameters as `(name, type text)`; `self` receivers are skipped.
    pub params: Vec<(String, String)>,
    /// Return type token text (empty when the function returns `()`).
    pub ret: String,
    /// Call sites in the body, source order.
    pub calls: Vec<CallSite>,
    /// Bare identifiers reaching a format/Debug/telemetry sink.
    pub sinks: Vec<SinkUse>,
    /// Discarded statement results (R9 candidates).
    pub discards: Vec<Discard>,
    /// `let v = f(…);` bindings: `(v, f)` — used to type locals by the
    /// callee's return type.
    pub local_calls: Vec<(String, String)>,
    /// `let v: T = …;` bindings: `(v, type text)`.
    pub local_types: Vec<(String, String)>,
    /// `let v = vec![x; N]` / `let v = [x; N]`: `(v, size token text)`.
    pub allocs: Vec<(String, String)>,
    /// `let v = <expr>;` bindings with the bare identifiers the
    /// initialiser reads — the intra-function taint propagation step for
    /// [`crate::sidechannel`] (`let b = key[i];` taints `b`).
    pub local_inits: Vec<(String, Vec<String>)>,
    /// Branch conditions (`if`/`while`/`match` scrutinees) and the bare
    /// identifiers they read (R10).
    pub conds: Vec<CondUse>,
    /// Slice/array indexing sites and the identifiers driving the index
    /// expression (R11).
    pub indexes: Vec<IndexUse>,
    /// Variable-time operator sites — `/`, `%`, `==`, `!=` — with their
    /// operand identifiers (R12).
    pub vt_ops: Vec<OpUse>,
    /// `let g = x.lock()/.read()/.write();` guard acquisitions (R13).
    pub locks: Vec<LockAcq>,
    /// Lock B acquired while guard on lock A is still live (R13 edges).
    pub lock_pairs: Vec<LockPair>,
    /// Calls made while holding a lock — how acquisition order
    /// propagates across the call graph (R13).
    pub held_calls: Vec<HeldCall>,
    /// Atomic operations carrying an explicit `Ordering` (R14).
    pub atomics: Vec<AtomicUse>,
    /// Potential panic/abort sites — `.unwrap()`, `.expect(..)`,
    /// `panic!`-family macros, and dynamically-indexed accesses — with
    /// dominance-aware guard bits (R16). Recorded for *every* file, not
    /// just the R5 hot-path list: reachability decides relevance.
    pub panics: Vec<PanicSite>,
}

/// One branch condition and the identifiers it reads (R10). Projections
/// (`x.len()`), call/macro names and call arguments are already filtered
/// out by the extractor — only bare value reads remain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CondUse {
    /// 1-based line of the `if`/`while`/`match` keyword.
    pub line: u32,
    /// Deduplicated bare identifiers read by the condition.
    pub idents: Vec<String>,
}

/// One indexing site `base[…]` (R11).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IndexUse {
    /// 1-based line of the indexed identifier.
    pub line: u32,
    /// The indexed variable (`table` in `table[b]`).
    pub base: String,
    /// Bare identifiers inside the brackets.
    pub idents: Vec<String>,
}

/// One variable-time operator site (R12).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpUse {
    /// 1-based line of the operator.
    pub line: u32,
    /// The operator text (`/`, `%`, `==`, `!=`).
    pub op: String,
    /// Bare operand identifiers near the operator.
    pub idents: Vec<String>,
}

/// One `let`-bound lock-guard acquisition (R13). Bare `x.lock();`
/// statements are *not* recorded: a guard that is dropped on the same
/// statement holds nothing, and domain methods that happen to be named
/// `lock` (LUKS volumes) would otherwise pollute the graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LockAcq {
    /// Lock identity — the receiver identifier (`events` in
    /// `self.events.lock()`).
    pub name: String,
    /// 1-based line of the acquisition.
    pub line: u32,
}

/// Lock `second` acquired while a guard on `first` is live (R13).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LockPair {
    /// Lock already held.
    pub first: String,
    /// Lock acquired under it.
    pub second: String,
    /// 1-based line of the second acquisition.
    pub line: u32,
}

/// A call made while a lock guard is live (R13 propagation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HeldCall {
    /// Lock held across the call.
    pub lock: String,
    /// Callee name (last path segment).
    pub callee: String,
    /// 1-based line of the call.
    pub line: u32,
}

/// One atomic operation with an explicit `Ordering` argument (R14).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AtomicUse {
    /// Atomic identity — the receiver identifier (`ready` in
    /// `self.ready.load(…)`).
    pub var: String,
    /// Operation name (`load`, `store`, `fetch_add`, …).
    pub op: String,
    /// Last path segment of the first `Ordering::…` argument.
    pub ordering: String,
    /// 1-based line of the operation.
    pub line: u32,
    /// Does the operation sit inside a branch condition?
    pub in_cond: bool,
}

/// One potential panic/abort site inside a function body (R16).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PanicSite {
    /// `"unwrap"`, `"expect"`, `"panic_macro"` or `"index"`.
    pub kind: String,
    /// 1-based line of the site.
    pub line: u32,
    /// Receiver identifier for `unwrap`/`expect` (`x` in `x.unwrap()`),
    /// indexed variable for `index`, macro name for `panic_macro`.
    pub var: Option<String>,
    /// Does a dominating guard cover the site — `is_some`/`is_ok` for
    /// `unwrap`/`expect`, a bounds guard for `index`? Panic macros are
    /// never guarded.
    pub guarded: bool,
    /// For `index`: top-level `& <literal>` mask on the index expression.
    pub masked: Option<u64>,
    /// For `index`: sole identifier driving the index, if any.
    pub index_ident: Option<String>,
    /// For `index`: `(lower, upper)` bounds of the innermost enclosing
    /// `for` loop binding [`PanicSite::index_ident`].
    pub loop_bounds: Option<(String, String)>,
    /// Stable, line-free description fragment used in R16 findings.
    pub detail: String,
}

/// One call site.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CallSite {
    /// Callee name — the last path segment (`f` in `m::f(…)`, `g` in
    /// `x.g(…)`).
    pub callee: String,
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// Receiver identifier for method calls (`sessions` in
    /// `sessions.push(k)`), when it is a bare identifier.
    pub recv: Option<String>,
    /// Argument shapes, in order.
    pub args: Vec<Arg>,
}

/// Shape of one call argument.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Arg {
    /// The bare identifier (after stripping `&`/`mut`/`*`), if the
    /// argument is exactly one.
    pub ident: Option<String>,
    /// Is the argument a single integer literal?
    pub literal: bool,
    /// For identifier arguments: does a bounds guard on the identifier
    /// dominate the call site in the caller?
    pub guarded: bool,
}

/// One bare identifier reaching a sink.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SinkUse {
    /// The identifier.
    pub var: String,
    /// 1-based line of the sink.
    pub line: u32,
    /// Sink name (`format`, `println`, `export_json`, …).
    pub sink: String,
}

/// One discarded statement result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Discard {
    /// The last top-level callee of the discarded expression.
    pub callee: String,
    /// 1-based line of the statement start.
    pub line: u32,
    /// `"let _"` or `"stmt"`.
    pub kind: String,
}

/// Format-family macros whose arguments are R8 sinks.
const SINK_MACROS: &[&str] = &[
    "format", "print", "println", "eprint", "eprintln", "write", "writeln",
];

/// Telemetry/export function names whose arguments are R8 sinks.
const SINK_FNS: &[&str] = &["export_json", "emit_trace", "debug_dump", "log_value"];

/// Builds the summary for one annotated file.
pub fn summarize(ann: &Annotated) -> FileSummary {
    let mut s = FileSummary::default();
    let code = &ann.code;
    let n = code.len();

    let mut i = 0;
    while i < n {
        if ann.excluded[i] {
            i += 1;
            continue;
        }
        match code[i].text.as_str() {
            "const" if !in_fn(ann, i) => {
                if let Some((name, val, next)) = parse_const(ann, i) {
                    s.consts.push((name, val));
                    i = next;
                    continue;
                }
            }
            "type" if !in_fn(ann, i) => {
                if let Some((name, rhs, next)) = parse_type_alias(ann, i) {
                    s.types.push((name, rhs));
                    i = next;
                    continue;
                }
            }
            "struct" | "enum" => {
                if let Some(t) = code.get(i + 1) {
                    if t.kind == TokenKind::Ident {
                        s.structs.push(t.text.clone());
                    }
                }
            }
            "fn" => {
                if let Some((fun, next)) = parse_fn(ann, i) {
                    s.functions.push(fun);
                    i = next;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    s
}

/// Is code index `i` attributed to a function body (vs. item level)?
fn in_fn(ann: &Annotated, i: usize) -> bool {
    ann.fn_of[i] != 0
}

/// `const NAME: <ty> = <int literal>;` — returns (name, value, index
/// past the `;`). Non-integer initialisers are skipped (returns None).
fn parse_const(ann: &Annotated, i: usize) -> Option<(String, u64, usize)> {
    let code = &ann.code;
    let name = code.get(i + 1).filter(|t| t.kind == TokenKind::Ident)?;
    if code.get(i + 2).map(|t| t.text.as_str()) != Some(":") {
        return None;
    }
    let mut j = i + 3;
    while j < code.len() && code[j].text != "=" && code[j].text != ";" {
        j += 1;
    }
    if code.get(j).map(|t| t.text.as_str()) != Some("=") {
        return None;
    }
    // Only the single-literal form is recorded.
    let lit = code.get(j + 1).filter(|t| t.kind == TokenKind::Num)?;
    if code.get(j + 2).map(|t| t.text.as_str()) != Some(";") {
        return None;
    }
    let val = crate::rules::parse_int(&lit.text)?;
    Some((name.text.clone(), val, j + 3))
}

/// `type Name = <rhs>;` — returns (name, rhs text, index past `;`).
fn parse_type_alias(ann: &Annotated, i: usize) -> Option<(String, String, usize)> {
    let code = &ann.code;
    let name = code.get(i + 1).filter(|t| t.kind == TokenKind::Ident)?;
    if code.get(i + 2).map(|t| t.text.as_str()) != Some("=") {
        return None;
    }
    // The rhs may itself contain `;` inside an array type, so the
    // terminating `;` is the first one at bracket depth zero.
    let mut rhs = String::new();
    let mut j = i + 3;
    let mut depth = 0i64;
    while j < code.len() {
        match code[j].text.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => depth -= 1,
            ";" if depth == 0 => break,
            _ => {}
        }
        rhs.push_str(&code[j].text);
        j += 1;
    }
    Some((name.text.clone(), rhs, j + 1))
}

/// Parses a whole `fn` item starting at the `fn` keyword. Returns the
/// summary and the index just past the body's closing `}` (or the `;`
/// of a bodyless signature).
fn parse_fn(ann: &Annotated, fn_idx: usize) -> Option<(FnSummary, usize)> {
    let code = &ann.code;
    let n = code.len();
    let name_tok = code.get(fn_idx + 1).filter(|t| t.kind == TokenKind::Ident)?;
    let mut fun = FnSummary {
        name: name_tok.text.clone(),
        line: code[fn_idx].line,
        ..FnSummary::default()
    };

    // Skip generics `<…>` ahead of the parameter list.
    let mut j = fn_idx + 2;
    if code.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut angle = 1i64;
        j += 1;
        while j < n && angle > 0 {
            match code[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    if code.get(j).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }

    // Parameter list: split top-level commas, `name: type` per chunk.
    let params_start = j + 1;
    let mut depth = 1i64;
    j = params_start;
    let mut chunk_start = params_start;
    let mut chunks: Vec<(usize, usize)> = Vec::new();
    while j < n && depth > 0 {
        match code[j].text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => {
                depth -= 1;
                if depth == 0 && j > chunk_start {
                    chunks.push((chunk_start, j));
                }
            }
            "," if depth == 1 => {
                if j > chunk_start {
                    chunks.push((chunk_start, j));
                }
                chunk_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    for &(lo, hi) in &chunks {
        if let Some(p) = parse_param(code, lo, hi) {
            fun.params.push(p);
        }
    }

    // Return type up to the body / `where` / statement-level `;` — a
    // `;` inside an array type (`-> [u8; 256]`) is part of the type.
    if code.get(j).map(|t| t.text.as_str()) == Some("->") {
        j += 1;
        let mut depth = 0i64;
        while j < n {
            match code[j].text.as_str() {
                "[" | "(" => depth += 1,
                "]" | ")" => depth -= 1,
                "{" | "where" => break,
                ";" if depth == 0 => break,
                _ => {}
            }
            if code[j].text != "mut" {
                fun.ret.push_str(&code[j].text);
            }
            j += 1;
        }
    }
    while j < n && !matches!(code[j].text.as_str(), "{" | ";") {
        j += 1;
    }
    if code.get(j).map(|t| t.text.as_str()) != Some("{") {
        return Some((fun, j.saturating_add(1))); // bodyless signature
    }

    // Body extent.
    let body_start = j + 1;
    let mut body_depth = 1i64;
    let mut k = body_start;
    while k < n && body_depth > 0 {
        match code[k].text.as_str() {
            "{" => body_depth += 1,
            "}" => body_depth -= 1,
            _ => {}
        }
        k += 1;
    }
    let body_end = k.saturating_sub(1); // index of the closing `}`

    scan_body(ann, &mut fun, body_start, body_end);
    let cond_ranges = scan_cond_facts(ann, &mut fun, body_start, body_end);
    scan_index_and_op_facts(ann, &mut fun, body_start, body_end);
    scan_lock_facts(ann, &mut fun, body_start, body_end, &cond_ranges);
    scan_panic_facts(ann, &mut fun, body_start, body_end);
    Some((fun, k))
}

/// Is the code token at `j` a bare value-read identifier — not a
/// keyword or bool literal, not a call/macro/path head, and not a field,
/// method or projection participant (`state.key`, `key.len()`)? The
/// field/method exclusions are deliberately conservative: the taint
/// rules would rather miss a projected read than flag a public one.
fn is_value_read(code: &[crate::lexer::Token], j: usize) -> bool {
    if code[j].kind != TokenKind::Ident
        || crate::rules::is_keyword(&code[j].text)
        || matches!(code[j].text.as_str(), "true" | "false")
    {
        return false;
    }
    if let Some(p) = j.checked_sub(1) {
        if matches!(code[p].text.as_str(), "." | "::") {
            return false;
        }
    }
    !matches!(
        code.get(j + 1).map(|t| t.text.as_str()),
        Some("(") | Some("!") | Some("::") | Some(".")
    )
}

/// Collects deduplicated bare value-read identifiers in
/// `code[lo..hi]`, skipping call/macro argument groups wholesale — the
/// interprocedural rules see those through the call-site records, and a
/// `ct::eq(tag, other)` wrapper must not read as a bare use of `tag`.
fn collect_reads(code: &[crate::lexer::Token], lo: usize, hi: usize, out: &mut Vec<String>) {
    let mut j = lo;
    while j < hi {
        if code[j].kind == TokenKind::Ident {
            let mut k = j + 1;
            if code.get(k).map(|t| t.text.as_str()) == Some("!") {
                k += 1;
            }
            if code.get(k).map(|t| t.text.as_str()) == Some("(") {
                j = skip_group(code, k, hi);
                continue;
            }
        }
        if is_value_read(code, j) && !out.iter().any(|s| *s == code[j].text) {
            out.push(code[j].text.clone());
        }
        j += 1;
    }
}

/// Index just past the group opened at `open` (a `(` or `[`), capped at
/// `hi`.
fn skip_group(code: &[crate::lexer::Token], open: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < hi {
        match code[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi
}

/// Records one [`CondUse`] per `if`/`while`/`match` condition and
/// returns the condition token ranges (for the atomics' `in_cond` bit).
fn scan_cond_facts(
    ann: &Annotated,
    fun: &mut FnSummary,
    body_start: usize,
    body_end: usize,
) -> Vec<(usize, usize)> {
    let code = &ann.code;
    let mut ranges = Vec::new();
    let mut i = body_start;
    while i < body_end {
        if !matches!(code[i].text.as_str(), "if" | "while" | "match") {
            i += 1;
            continue;
        }
        let line = code[i].line;
        let mut lo = i + 1;
        // `if let PAT = expr`: the pattern binds, only the scrutinee
        // after the top-level `=` is read.
        if code.get(lo).map(|t| t.text.as_str()) == Some("let") {
            let mut depth = 0i64;
            let mut j = lo + 1;
            while j < body_end {
                match code[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "=" if depth == 0 => {
                        lo = j + 1;
                        break;
                    }
                    "{" if depth == 0 => {
                        lo = j;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // The condition ends at the body `{`, a match-guard `=>`, or a
        // statement boundary — whichever comes first at depth 0.
        let mut depth = 0i64;
        let mut j = lo;
        while j < body_end {
            match code[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" | "=>" | ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j > lo {
            let mut idents = Vec::new();
            collect_reads(code, lo, j, &mut idents);
            if !idents.is_empty() {
                fun.conds.push(CondUse { line, idents });
            }
            ranges.push((lo, j));
        }
        i = j.max(i + 1);
    }
    ranges
}

/// Records [`IndexUse`] and [`OpUse`] sites over the body.
fn scan_index_and_op_facts(
    ann: &Annotated,
    fun: &mut FnSummary,
    body_start: usize,
    body_end: usize,
) {
    let code = &ann.code;
    for i in body_start..body_end {
        // Indexing: `base[…]` — the base may be a field (`self.table`),
        // so only keyword/macro heads are rejected here.
        if code[i].kind == TokenKind::Ident
            && !crate::rules::is_keyword(&code[i].text)
            && code.get(i + 1).map(|t| t.text.as_str()) == Some("[")
        {
            let close = skip_group(code, i + 1, body_end);
            let mut idents = Vec::new();
            collect_reads(code, i + 2, close.saturating_sub(1), &mut idents);
            if !idents.is_empty() {
                fun.indexes.push(IndexUse {
                    line: code[i].line,
                    base: code[i].text.clone(),
                    idents,
                });
            }
        }
        // Variable-time operators, operands from a small window bounded
        // by statement/argument punctuation (crossing a paren boundary
        // would smuggle call arguments in).
        if code[i].kind == TokenKind::Punct
            && matches!(code[i].text.as_str(), "/" | "%" | "==" | "!=")
        {
            let mut idents = Vec::new();
            for dir in [-1i64, 1] {
                for step in 1..=8i64 {
                    let j = i as i64 + dir * step;
                    if j < (body_start as i64) || j as usize >= body_end {
                        break;
                    }
                    let j = j as usize;
                    if matches!(code[j].text.as_str(), ";" | "{" | "}" | "," | "(" | ")") {
                        break;
                    }
                    if is_value_read(code, j) && !idents.iter().any(|s| *s == code[j].text) {
                        idents.push(code[j].text.clone());
                    }
                }
            }
            if !idents.is_empty() {
                fun.vt_ops.push(OpUse {
                    line: code[i].line,
                    op: code[i].text.clone(),
                    idents,
                });
            }
        }
    }
}

/// Atomic method names whose calls carry an `Ordering` argument.
const ATOMIC_OPS: &[&str] = &[
    "load", "store", "swap", "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
    "fetch_xor", "fetch_max", "fetch_min", "fetch_update", "compare_exchange",
    "compare_exchange_weak",
];

/// Memory-ordering names (`use Ordering::*` style included).
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Records lock-guard scopes ([`LockAcq`]/[`LockPair`]/[`HeldCall`]) and
/// atomic operations ([`AtomicUse`]). A guard lives from its `let` to
/// the end of the enclosing block or an explicit `drop(guard)`,
/// whichever comes first.
fn scan_lock_facts(
    ann: &Annotated,
    fun: &mut FnSummary,
    body_start: usize,
    body_end: usize,
    cond_ranges: &[(usize, usize)],
) {
    let code = &ann.code;
    // Active guards: (binding, lock, brace depth relative to the body).
    let mut guards: Vec<(String, String, i64)> = Vec::new();
    let mut depth = 0i64;

    let mut i = body_start;
    while i < body_end {
        match code[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                guards.retain(|g| g.2 < depth);
                depth -= 1;
            }
            "let" => {
                if let Some((binding, lock, line, next)) =
                    parse_guard_let(code, i, body_end)
                {
                    for (_, held, _) in &guards {
                        if *held != lock {
                            fun.lock_pairs.push(LockPair {
                                first: held.clone(),
                                second: lock.clone(),
                                line,
                            });
                        }
                    }
                    fun.locks.push(LockAcq { name: lock.clone(), line });
                    guards.push((binding, lock, depth));
                    i = next;
                    continue;
                }
            }
            "drop"
                if code.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                    && code.get(i + 3).map(|t| t.text.as_str()) == Some(")") =>
            {
                if let Some(g) = code.get(i + 2) {
                    guards.retain(|(b, _, _)| *b != g.text);
                }
            }
            _ => {}
        }

        // Calls made under a live guard (order propagates via callees).
        if !guards.is_empty()
            && code[i].kind == TokenKind::Ident
            && !crate::rules::is_keyword(&code[i].text)
            && code.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && !matches!(code[i].text.as_str(), "lock" | "read" | "write" | "drop")
        {
            let mut seen: Vec<&str> = Vec::new();
            for (_, held, _) in &guards {
                if !seen.contains(&held.as_str()) {
                    seen.push(held);
                    fun.held_calls.push(HeldCall {
                        lock: held.clone(),
                        callee: code[i].text.clone(),
                        line: code[i].line,
                    });
                }
            }
        }

        // Atomic op: `x.load(Ordering::Acquire)` — requires an explicit
        // ordering in the argument list, which keeps `file.read()` and
        // friends out.
        if code[i].kind == TokenKind::Ident
            && ATOMIC_OPS.contains(&code[i].text.as_str())
            && i >= 2
            && code[i - 1].text == "."
            && code[i - 2].kind == TokenKind::Ident
            && code.get(i + 1).map(|t| t.text.as_str()) == Some("(")
        {
            let close = skip_group(code, i + 1, body_end);
            let ordering = code[i + 2..close]
                .iter()
                .find(|t| ORDERINGS.contains(&t.text.as_str()))
                .map(|t| t.text.clone());
            if let Some(ordering) = ordering {
                let in_cond = cond_ranges.iter().any(|&(lo, hi)| lo <= i && i < hi);
                fun.atomics.push(AtomicUse {
                    var: code[i - 2].text.clone(),
                    op: code[i].text.clone(),
                    ordering,
                    line: code[i].line,
                    in_cond,
                });
            }
        }

        i += 1;
    }
}

/// Parses `let [mut] BINDING = … X.lock()/.read()/.write() …;` starting
/// at the `let`. Returns `(binding, lock name, line, index past ;)`.
/// Only no-argument acquisitions count — `file.read(&mut buf)` takes an
/// argument, a `MutexGuard` never does.
fn parse_guard_let(
    code: &[crate::lexer::Token],
    let_idx: usize,
    hi: usize,
) -> Option<(String, String, u32, usize)> {
    let mut j = let_idx + 1;
    if code.get(j).map(|t| t.text.as_str()) == Some("mut") {
        j += 1;
    }
    let binding = code.get(j).filter(|t| t.kind == TokenKind::Ident)?;
    if binding.text == "_" {
        return None;
    }
    // Find the statement end and scan for the acquisition pattern.
    let mut depth = 0i64;
    let mut k = j + 1;
    let mut acq: Option<(String, u32)> = None;
    while k < hi {
        match code[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => break,
            "lock" | "read" | "write"
                if k >= 2
                    && code[k - 1].text == "."
                    && code[k - 2].kind == TokenKind::Ident
                    && code.get(k + 1).map(|t| t.text.as_str()) == Some("(")
                    && code.get(k + 2).map(|t| t.text.as_str()) == Some(")") =>
            {
                if acq.is_none() {
                    acq = Some((code[k - 2].text.clone(), code[k].line));
                }
            }
            _ => {}
        }
        k += 1;
    }
    let (lock, line) = acq?;
    Some((binding.text.clone(), lock, line, k.min(hi)))
}

/// One parameter chunk `mut name: Type` / `&self`. Returns None for
/// receivers and pure patterns.
fn parse_param(
    code: &[crate::lexer::Token],
    lo: usize,
    hi: usize,
) -> Option<(String, String)> {
    let mut colon = None;
    let mut depth = 0i64;
    for j in lo..hi {
        match code[j].text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            ":" if depth == 0 => {
                colon = Some(j);
                break;
            }
            _ => {}
        }
    }
    let colon = colon?; // `self` / `&mut self` have no top-level `:`
    let name = code[lo..colon]
        .iter()
        .rev()
        .find(|t| t.kind == TokenKind::Ident && t.text != "mut")?;
    // `mut` is dropped from type text so `&mut Block` joins to `&Block`
    // and the boundary survives space-free joining.
    let mut ty = String::new();
    for t in &code[colon + 1..hi] {
        if t.text != "mut" {
            ty.push_str(&t.text);
        }
    }
    Some((name.text.clone(), ty))
}

/// Walks a function body recording calls, sinks, discards, and local
/// bindings. A nested `fn` item is skipped wholesale — its facts are
/// not summarised (rare enough that losing resolution there is an
/// acceptable, conservative gap).
fn scan_body(ann: &Annotated, fun: &mut FnSummary, body_start: usize, body_end: usize) {
    let code = &ann.code;
    let mut stmt_start = body_start;
    // `(`/`[` nesting — a `;` inside `vec![x; n]` or `[x; n]` is not a
    // statement boundary.
    let mut paren = 0i64;

    let mut i = body_start;
    while i < body_end {
        let text = code[i].text.as_str();

        if text == "fn"
            && code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            && i > body_start
        {
            if let Some((_, next)) = parse_fn(ann, i) {
                i = next;
                stmt_start = i;
                continue;
            }
        }

        match text {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" | "{" | "}" if paren == 0 => {
                if text == ";" {
                    scan_statement(ann, fun, stmt_start, i);
                }
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            _ => {}
        }

        // Call site: IDENT followed by `(`, not a macro (`!`), not a
        // definition.
        if code[i].kind == TokenKind::Ident
            && !crate::rules::is_keyword(text)
            && code.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && code.get(i.wrapping_sub(1)).map(|t| t.text.as_str()) != Some("fn")
        {
            let (args, _) = parse_args(ann, i + 1);
            // Bare-identifier method receiver (`sessions` in
            // `sessions.push(k)`) — the lifecycle pass attributes
            // collection escapes and zeroize calls through it.
            let recv = if i >= 2
                && code[i - 1].text == "."
                && code[i - 2].kind == TokenKind::Ident
                && !crate::rules::is_keyword(&code[i - 2].text)
            {
                Some(code[i - 2].text.clone())
            } else {
                None
            };
            fun.calls.push(CallSite {
                callee: text.to_string(),
                line: code[i].line,
                recv,
                args,
            });
        }

        // Macro sink: `format!(…)` etc.
        if code[i].kind == TokenKind::Ident
            && SINK_MACROS.contains(&text)
            && code.get(i + 1).map(|t| t.text.as_str()) == Some("!")
            && code.get(i + 2).map(|t| t.text.as_str()) == Some("(")
        {
            record_macro_sink(ann, fun, i);
        }

        // Function sink: `t.export_json(x)` / `debug_dump(x)`.
        if code[i].kind == TokenKind::Ident
            && SINK_FNS.contains(&text)
            && code.get(i + 1).map(|t| t.text.as_str()) == Some("(")
        {
            let (args, _) = parse_args(ann, i + 1);
            for a in &args {
                if let Some(id) = &a.ident {
                    fun.sinks.push(SinkUse {
                        var: id.clone(),
                        line: code[i].line,
                        sink: text.to_string(),
                    });
                }
            }
        }

        i += 1;
    }
}

/// Records potential panic/abort sites in `code[body_start..body_end]`
/// for the R16 panic-freedom closure: `.unwrap()`/`.expect(..)` with an
/// `is_some`/`is_ok` dominance bit, `panic!`-family macros, and dynamic
/// index expressions with the same shape facts R5 extracts (mask,
/// driving identifier, loop bounds) plus a *dominance-aware* bounds
/// guard bit. Unlike R5 this runs on every file — whether a site
/// matters is decided by reachability from the hot-path entries, not by
/// a file list.
fn scan_panic_facts(ann: &Annotated, fun: &mut FnSummary, body_start: usize, body_end: usize) {
    let code = &ann.code;
    for i in body_start..body_end {
        if ann.excluded[i] || code[i].kind != TokenKind::Ident {
            continue;
        }
        let text = code[i].text.as_str();
        let prev = i.checked_sub(1).map(|p| code[p].text.as_str());
        let next = code.get(i + 1).map(|t| t.text.as_str());

        // `.unwrap()` / `.expect("..")` — same shapes R1 flags.
        if (text == "unwrap" && prev == Some(".") && next == Some("("))
            || (text == "expect"
                && prev == Some(".")
                && next == Some("(")
                && code.get(i + 2).is_some_and(|t| t.kind == TokenKind::Str))
        {
            let var = i
                .checked_sub(2)
                .map(|r| &code[r])
                .filter(|t| t.kind == TokenKind::Ident && !crate::rules::is_keyword(&t.text))
                .map(|t| t.text.clone());
            let guarded = var
                .as_deref()
                .is_some_and(|v| ann.opt_guarded_before(i, v));
            let detail = if text == "unwrap" {
                "call to .unwrap()".to_string()
            } else {
                "call to .expect(..)".to_string()
            };
            fun.panics.push(PanicSite {
                kind: text.to_string(),
                line: code[i].line,
                var,
                guarded,
                masked: None,
                index_ident: None,
                loop_bounds: None,
                detail,
            });
            continue;
        }

        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
        if crate::rules::PANIC_MACROS.contains(&text)
            && next == Some("!")
            && prev != Some("::")
        {
            fun.panics.push(PanicSite {
                kind: "panic_macro".to_string(),
                line: code[i].line,
                var: Some(text.to_string()),
                guarded: false,
                masked: None,
                index_ident: None,
                loop_bounds: None,
                detail: format!("{text}! macro"),
            });
            continue;
        }

        // Dynamic index `var[..]` — R5's shape, dominance-aware guard.
        if crate::rules::is_keyword(text) || next != Some("[") {
            continue;
        }
        let mut j = i + 2;
        let mut brackets = 1usize;
        let mut dynamic = false;
        let idx_start = i + 2;
        while j < code.len() && brackets > 0 {
            match code[j].text.as_str() {
                "[" => brackets += 1,
                "]" => brackets -= 1,
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
        let idx_end = j.saturating_sub(1);
        let (masked, index_ident) = crate::rules::index_shape(&code[idx_start..idx_end]);
        let loop_bounds = index_ident.as_deref().and_then(|v| {
            ann.loops
                .iter()
                .filter(|l| l.var == v && l.body_start <= i && i <= l.body_end)
                .max_by_key(|l| l.body_start)
                .map(|l| (l.lower.clone(), l.upper.clone()))
        });
        let var = code[i].text.clone();
        fun.panics.push(PanicSite {
            kind: "index".to_string(),
            line: code[i].line,
            guarded: ann.guarded_before(i, &var),
            var: Some(var.clone()),
            masked,
            index_ident,
            loop_bounds,
            detail: format!("unguarded dynamic index into `{var}`"),
        });
    }
}

/// Statement-level facts: `let` bindings and R9 discards. `lo..hi` is
/// the token range of one `;`-terminated statement (exclusive of `;`).
fn scan_statement(ann: &Annotated, fun: &mut FnSummary, lo: usize, hi: usize) {
    let code = &ann.code;
    if lo >= hi {
        return;
    }
    let first = code[lo].text.as_str();

    if first == "let" {
        scan_let(ann, fun, lo, hi);
        return;
    }

    // Bare `call(…);` / `x.verify(…);` statement: no top-level `=`,
    // no `?` (propagation keeps the error alive).
    if code[lo].kind != TokenKind::Ident || crate::rules::is_keyword(first) {
        return;
    }
    let mut depth = 0i64;
    let mut last_call: Option<(String, u32)> = None;
    for j in lo..hi {
        match code[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" | "?" | "==" | "!=" | "<=" | ">=" | "=>" | "+=" | "-=" if depth == 0 => {
                return;
            }
            t if depth == 0
                && code[j].kind == TokenKind::Ident
                && !crate::rules::is_keyword(t)
                && code.get(j + 1).map(|t| t.text.as_str()) == Some("(") =>
            {
                last_call = Some((t.to_string(), code[j].line));
            }
            _ => {}
        }
    }
    if let Some((callee, line)) = last_call {
        fun.discards.push(Discard { callee, line, kind: "stmt".to_string() });
    }
}

/// `let` statement: `_` discards, typed locals, call-initialised locals
/// and sized allocations.
fn scan_let(ann: &Annotated, fun: &mut FnSummary, lo: usize, hi: usize) {
    let code = &ann.code;
    let mut j = lo + 1;
    if code.get(j).map(|t| t.text.as_str()) == Some("mut") {
        j += 1;
    }
    let Some(pat) = code.get(j) else { return };
    let name = pat.text.clone();
    let is_underscore = name == "_";
    if pat.kind != TokenKind::Ident && !is_underscore {
        return; // tuple/struct patterns are out of scope
    }
    j += 1;

    // Optional `: Type` up to the top-level `=`.
    let mut ty = String::new();
    if code.get(j).map(|t| t.text.as_str()) == Some(":") {
        j += 1;
        let mut depth = 0i64;
        while j < hi {
            match code[j].text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                "=" if depth == 0 => break,
                _ => {}
            }
            if code[j].text != "mut" {
                ty.push_str(&code[j].text);
            }
            j += 1;
        }
        if !is_underscore && !ty.is_empty() {
            fun.local_types.push((name.clone(), ty));
        }
    }
    if code.get(j).map(|t| t.text.as_str()) != Some("=") {
        return;
    }
    let init_lo = j + 1;

    // Initialiser analysis: last top-level call, `?` propagation,
    // `vec![x; N]` / `[x; N]` allocations.
    let mut depth = 0i64;
    let mut last_call: Option<(String, u32)> = None;
    let mut propagates = false;
    for k in init_lo..hi {
        match code[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "?" if depth == 0 => propagates = true,
            t if depth == 0
                && code[k].kind == TokenKind::Ident
                && !crate::rules::is_keyword(t)
                && code.get(k + 1).map(|t| t.text.as_str()) == Some("(") =>
            {
                last_call = Some((t.to_string(), code[k].line));
            }
            _ => {}
        }
    }

    if is_underscore {
        if !propagates {
            if let Some((callee, line)) = last_call {
                fun.discards.push(Discard { callee, line, kind: "let _".to_string() });
            }
        }
        return;
    }

    if let Some((callee, _)) = last_call {
        fun.local_calls.push((name.clone(), callee));
    }

    // Taint step: identifiers the initialiser reads directly
    // (`let b = key[i];` makes `b` key-derived). Call arguments are
    // excluded by `collect_reads` — callee returns are typed through
    // `local_calls` instead.
    let mut reads = Vec::new();
    collect_reads(code, init_lo, hi, &mut reads);
    if !reads.is_empty() {
        fun.local_inits.push((name.clone(), reads));
    }

    // Allocation size: `vec![ELEM; SIZE]` or `[ELEM; SIZE]`.
    let bracket = if code.get(init_lo).map(|t| t.text.as_str()) == Some("vec")
        && code.get(init_lo + 1).map(|t| t.text.as_str()) == Some("!")
        && code.get(init_lo + 2).map(|t| t.text.as_str()) == Some("[")
    {
        Some(init_lo + 2)
    } else if code.get(init_lo).map(|t| t.text.as_str()) == Some("[") {
        Some(init_lo)
    } else {
        None
    };
    if let Some(open) = bracket {
        if let Some(size) = alloc_size(ann, open, hi) {
            fun.allocs.push((name, size));
        }
    }
}

/// Token text of SIZE in `[ELEM; SIZE]` starting at the `[`.
fn alloc_size(ann: &Annotated, open: usize, hi: usize) -> Option<String> {
    let code = &ann.code;
    let mut depth = 1i64;
    let mut j = open + 1;
    let mut semi = None;
    while j < hi && depth > 0 {
        match code[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ";" if depth == 1 => semi = Some(j),
            _ => {}
        }
        j += 1;
    }
    let semi = semi?;
    let mut size = String::new();
    for t in &code[semi + 1..j] {
        size.push_str(&t.text);
    }
    if size.is_empty() {
        None
    } else {
        Some(size)
    }
}

/// Arguments of the call whose `(` sits at `open`. Returns the shapes
/// and the index past the closing `)`.
fn parse_args(ann: &Annotated, open: usize) -> (Vec<Arg>, usize) {
    let code = &ann.code;
    let n = code.len();
    let mut args = Vec::new();
    let mut depth = 1i64;
    let mut j = open + 1;
    let mut chunk: Vec<usize> = Vec::new();
    while j < n && depth > 0 {
        match code[j].text.as_str() {
            "(" | "[" | "{" => {
                depth += 1;
                chunk.push(j);
            }
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    if !chunk.is_empty() {
                        args.push(arg_shape(ann, &chunk));
                    }
                    j += 1;
                    break;
                }
                chunk.push(j);
            }
            "," if depth == 1 => {
                if !chunk.is_empty() {
                    args.push(arg_shape(ann, &chunk));
                }
                chunk.clear();
            }
            _ => chunk.push(j),
        }
        j += 1;
    }
    (args, j)
}

/// Classifies one argument chunk (indices into the code stream).
fn arg_shape(ann: &Annotated, chunk: &[usize]) -> Arg {
    let code = &ann.code;
    // Strip leading `&`, `mut`, `*`.
    let mut rest: &[usize] = chunk;
    while let Some(&first) = rest.first() {
        if matches!(code[first].text.as_str(), "&" | "mut" | "*") {
            rest = &rest[1..];
        } else {
            break;
        }
    }
    match rest {
        [only] if code[*only].kind == TokenKind::Ident
            && !crate::rules::is_keyword(&code[*only].text) =>
        {
            let ident = code[*only].text.clone();
            let guarded = ann.guarded_before(*only, &ident);
            Arg { ident: Some(ident), literal: false, guarded }
        }
        [only] if code[*only].kind == TokenKind::Num => {
            Arg { ident: None, literal: true, guarded: false }
        }
        _ => Arg::default(),
    }
}

/// Records sink uses of a format-family macro at `i` (the macro name):
/// top-level bare-identifier arguments plus `{ident}` / `{ident:?}`
/// inline captures parsed out of the leading format-string literal.
fn record_macro_sink(ann: &Annotated, fun: &mut FnSummary, i: usize) {
    let code = &ann.code;
    let line = code[i].line;
    let sink = code[i].text.clone();
    let (args, _) = parse_args(ann, i + 2);
    for a in &args {
        if let Some(id) = &a.ident {
            fun.sinks.push(SinkUse { var: id.clone(), line, sink: sink.clone() });
        }
    }
    // Inline captures in the first string-literal argument.
    let mut j = i + 3;
    let mut depth = 1i64;
    while j < code.len() && depth > 0 {
        match code[j].text.as_str() {
            "(" => depth += 1,
            ")" => depth -= 1,
            _ => {
                if code[j].kind == TokenKind::Str && depth == 1 {
                    for cap in inline_captures(&code[j].text) {
                        fun.sinks.push(SinkUse { var: cap, line, sink: sink.clone() });
                    }
                    break;
                }
            }
        }
        j += 1;
    }
}

/// `{ident}` / `{ident:?}` capture names inside a format string literal.
fn inline_captures(lit: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = lit.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if bytes.get(i + 1) == Some(&b'{') {
                i += 2; // escaped `{{`
                continue;
            }
            let mut j = i + 1;
            let mut name = String::new();
            while j < bytes.len() {
                let c = bytes[j];
                if c == b'}' || c == b':' {
                    break;
                }
                if c.is_ascii_alphanumeric() || c == b'_' {
                    name.push(c as char);
                    j += 1;
                } else {
                    name.clear();
                    break;
                }
            }
            // Positional `{}`/`{0}` captures nothing by name.
            if !name.is_empty() && !name.chars().all(|c| c.is_ascii_digit()) {
                out.push(name);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::rules::annotate;

    fn summarize_src(src: &str) -> FileSummary {
        summarize(&annotate(tokenize(src)))
    }

    #[test]
    fn fn_header_params_and_ret() {
        let s = summarize_src(
            "pub fn seal(key: &SessionKey, buf: &mut [u8]) -> Result<Tag, Error> { mix(key) }",
        );
        assert_eq!(s.functions.len(), 1);
        let f = &s.functions[0];
        assert_eq!(f.name, "seal");
        assert_eq!(f.params, vec![
            ("key".to_string(), "&SessionKey".to_string()),
            ("buf".to_string(), "&[u8]".to_string()),
        ]);
        assert_eq!(f.ret, "Result<Tag,Error>");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].callee, "mix");
        assert_eq!(f.calls[0].args[0].ident.as_deref(), Some("key"));
    }

    #[test]
    fn self_receiver_and_generics_are_skipped() {
        let s = summarize_src(
            "impl X { fn get<T: Clone>(&self, idx: usize) -> u8 { self.buf[idx] } }",
        );
        let f = &s.functions[0];
        assert_eq!(f.name, "get");
        assert_eq!(f.params, vec![("idx".to_string(), "usize".to_string())]);
    }

    #[test]
    fn consts_types_and_structs() {
        let s = summarize_src(
            "pub const BLOCK_LEN: usize = 16;\npub type Block = [u8; BLOCK_LEN];\npub struct SessionKey([u8; 32]);",
        );
        assert_eq!(s.consts, vec![("BLOCK_LEN".to_string(), 16)]);
        assert_eq!(s.types, vec![("Block".to_string(), "[u8;BLOCK_LEN]".to_string())]);
        assert_eq!(s.structs, vec!["SessionKey".to_string()]);
    }

    #[test]
    fn sinks_capture_bare_args_and_inline_captures() {
        let s = summarize_src(
            r#"fn log_it(key: &[u8], n: usize) { let m = format!("k={key:?} n={n}"); println!("{}", key); }"#,
        );
        let f = &s.functions[0];
        let vars: Vec<&str> = f.sinks.iter().map(|u| u.var.as_str()).collect();
        assert!(vars.contains(&"key"));
        assert!(vars.contains(&"n"));
        // `{}` positional capture names nothing; the bare `key` arg does.
        assert_eq!(vars.iter().filter(|v| **v == "key").count(), 2);
    }

    #[test]
    fn projections_are_not_sink_uses() {
        let s = summarize_src(r#"fn f(key: &[u8]) { println!("{}", key.len()); }"#);
        assert!(s.functions[0].sinks.is_empty());
    }

    #[test]
    fn discards_let_underscore_and_bare_statements() {
        let s = summarize_src(
            "fn f(tag: &[u8]) { let _ = verify_peer(tag); install_key(tag); let ok = check(tag); ok_consume(ok) }",
        );
        let f = &s.functions[0];
        let d: Vec<(&str, &str)> = f
            .discards
            .iter()
            .map(|d| (d.callee.as_str(), d.kind.as_str()))
            .collect();
        assert_eq!(d, vec![("verify_peer", "let _"), ("install_key", "stmt")]);
        // `let ok = …` binds; the tail expression is not a statement.
        assert_eq!(f.local_calls.iter().find(|(v, _)| v == "ok").map(|(_, c)| c.as_str()), Some("check"));
    }

    #[test]
    fn question_mark_is_not_a_discard() {
        let s = summarize_src("fn f(t: &[u8]) -> Result<(), E> { let _ = verify(t)?; Ok(()) }");
        assert!(s.functions[0].discards.is_empty());
    }

    #[test]
    fn allocs_record_size_text() {
        let s = summarize_src(
            "fn f(nr: usize) { let mut w = vec![[0u8; 4]; 4 * (nr + 1)]; let cols = [0u32; 4]; w[0][0] = cols[0] as u8; }",
        );
        let f = &s.functions[0];
        assert_eq!(f.allocs, vec![
            ("w".to_string(), "4*(nr+1)".to_string()),
            ("cols".to_string(), "4".to_string()),
        ]);
    }

    /// A summary loads back equal from the cache file, whose v4 codec replaced the JSON one.
    #[test]
    fn summary_json_roundtrip() {
        use crate::cache::{Cache, FileEntry};
        let summary = summarize_src(
            r#"
            pub const N: usize = 8;
            pub type Tag = [u8; N];
            pub struct SessionKey;
            fn seal(key: &SessionKey, i: usize, buf: &[u8]) -> Result<Tag, E> {
                if i < buf.len() { let _ = audit(key); }
                let t = derive(key);
                println!("{t:?}");
                hop(key, 3);
                Err(E)
            }
            "#,
        );
        let entry = FileEntry {
            hash: String::new(), lines: 0, is_crate_root: false, has_forbid: false,
            findings: Vec::new(), accesses: Vec::new(), allows: Vec::new(), summary,
        };
        let cache = Cache { entries: [("seal.rs".to_string(), entry)].into() };
        let path = std::env::temp_dir().join("genio-analyzer-summary").join("cache.bin");
        cache.save(&path).unwrap();
        assert_eq!(Cache::load(&path).entries, cache.entries);
    }

    #[test]
    fn test_code_is_excluded() {
        let s = summarize_src(
            "fn lib() {}\n#[cfg(test)]\nmod tests { fn helper(x: u8) -> u8 { x } }",
        );
        assert_eq!(s.functions.len(), 1);
        assert_eq!(s.functions[0].name, "lib");
    }
}
