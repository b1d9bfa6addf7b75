//! Interprocedural taint walk over the workspace call graph.
//!
//! Three jobs, all running *after* the per-file rules:
//!
//! 1. **Discharge R4/R5 findings whose bounds are provable across
//!    function boundaries.** Four discharge arguments, each requiring
//!    facts the per-file pass cannot see:
//!    * *loop bound vs. known length* — `for i in 0..BLOCK_LEN`
//!      indexing a value whose array length (via param type, alias and
//!      constant tables) is ≥ the bound;
//!    * *loop bound vs. allocation size* — the loop's upper-bound text
//!      equals the `vec![x; N]` size text of the indexed local
//!      (`for i in nk..4 * (nr + 1)` over `vec![…; 4 * (nr + 1)]`);
//!    * *mask vs. known length* — an index `& m` masked below the
//!      array length (`sbox()[x & 0xff]` with `-> &'static [u8; 256]`);
//!    * *guards at every call site* — the index is a parameter, the
//!      function resolves uniquely, and **all** recorded callers pass a
//!      bounds-guarded (R5) or literal (R4) argument in that position.
//!
//!    Discharged findings move to [`FlowOutcome::suppressed`] with
//!    `confirmed = Some(false)` — they are *not* baselined.
//!
//! 2. **R8 secret-leak detection.** Sources are values of secret-named
//!    types declared in `crypto`/`netsec` (camel-case segments `Key`,
//!    `Tag`, `Nonce`, … — `Public`-named types excluded) and
//!    secret-named byte-slice parameters inside those crates. Sinks are
//!    format-family macros (bare arguments and `{ident:?}` inline
//!    captures) and telemetry-export calls, collected by
//!    [`crate::summary`]. A per-function *param-leak* bitset is
//!    propagated to a fixpoint over the call graph, so a secret passed
//!    through one (or more) bare-argument hops into a function that
//!    sinks its parameter is still caught at the outermost call.
//!
//! 3. **R9 discarded-`Result` detection.** `let _ = f(…);` and bare
//!    `f(…);` statements whose callee resolves uniquely to a function
//!    in a security-critical crate returning `Result` — a verification
//!    outcome nobody reads.
//!
//! The shape heuristics are documented inline and deliberately
//! conservative: every judgement needs a unique name resolution, and
//! `v - x` loop-index shapes trust the loop's lower bound to prevent
//! wrap-around (true for the `for i in nk.. { w[i - nk] }` pattern this
//! discharges, and called out in DESIGN.md as a residual).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FileFacts, FnId};
use crate::rules::{Access, Finding, Rule};
use crate::summary::FnSummary;

/// Result of the interprocedural pass.
#[derive(Debug, Clone, Default)]
pub struct FlowOutcome {
    /// Surviving findings plus the new R8/R9 findings (unsorted).
    pub findings: Vec<Finding>,
    /// R4/R5 findings discharged across function boundaries, stamped
    /// `confirmed = Some(false)`.
    pub suppressed: Vec<Finding>,
}

/// Crates whose declared types can be secret material (R8 sources).
pub(crate) const SECRET_TYPE_CRATES: &[&str] = &["crypto", "netsec"];

/// Camel-case type-name segments that mark secret material.
const SECRET_TYPE_SEGMENTS: &[&str] = &[
    "Key", "Keys", "Tag", "Nonce", "Secret", "Mac", "Icv", "Password", "Token",
];

/// Crates whose `Result`s must not be discarded (R9).
const SEC_RESULT_CRATES: &[&str] = &["crypto", "netsec", "secureboot", "fim"];

/// Method names shared with std collections/io — a bare `x.push(y);`
/// statement must not resolve against a same-named workspace fn.
pub(crate) const STD_METHOD_NAMES: &[&str] = &[
    "push", "pop", "insert", "remove", "clear", "extend", "write", "read",
    "flush", "send", "recv", "next", "get", "set", "take", "join", "len",
    "contains",
];

/// Runs the pass and returns the merged outcome.
pub fn run(files: &[FileFacts]) -> FlowOutcome {
    let graph = CallGraph::build(files);
    let secret_types = secret_type_names(&graph);
    let leaks = param_leak_fixpoint(&graph);

    // Decisions are collected as (file index, finding index) kills plus
    // appended findings, then applied after the graph borrow ends.
    let mut kills: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut added: Vec<Finding> = Vec::new();

    for (fi, file) in files.iter().enumerate() {
        for (ki, finding) in file.findings.iter().enumerate() {
            if !matches!(finding.rule, Rule::R4NarrowingCast | Rule::R5UnguardedIndex) {
                continue;
            }
            let Some(access) = matching_access(file, finding) else { continue };
            if discharges(&graph, fi, file, finding, access) {
                kills.insert((fi, ki));
            }
        }

        for (ni, f) in file.summary.functions.iter().enumerate() {
            let sources = source_vars(&graph, file, f, &secret_types);
            // R8 direct: a source reaches a sink in this very function.
            for sink in &f.sinks {
                if sources.contains(&sink.var) {
                    added.push(Finding {
                        rule: Rule::R8SecretLeak,
                        file: file.rel_path.clone(),
                        line: sink.line,
                        function: f.name.clone(),
                        detail: format!(
                            "secret `{}` reaches `{}` sink",
                            sink.var, sink.sink
                        ),
                        confirmed: Some(true),
                    });
                }
            }
            // R8 interprocedural: a source passed bare into a call
            // whose parameter is known to leak.
            for call in &f.calls {
                let Some(callee) = graph.resolve_unique(&call.callee) else {
                    continue;
                };
                let Some(leaking) = leaks.get(&callee) else { continue };
                for (pos, arg) in call.args.iter().enumerate() {
                    let Some(ident) = &arg.ident else { continue };
                    if leaking.get(pos).copied().unwrap_or(false)
                        && sources.contains(ident)
                    {
                        added.push(Finding {
                            rule: Rule::R8SecretLeak,
                            file: file.rel_path.clone(),
                            line: call.line,
                            function: f.name.clone(),
                            detail: format!(
                                "secret `{}` passed to `{}` reaches a sink",
                                ident, call.callee
                            ),
                            confirmed: Some(true),
                        });
                    }
                }
            }
            // R9: discarded Results from security-critical crates.
            for discard in &f.discards {
                if STD_METHOD_NAMES.contains(&discard.callee.as_str()) {
                    continue;
                }
                let Some(callee) = graph.resolve_unique(&discard.callee) else {
                    continue;
                };
                let target = graph.function(callee);
                if SEC_RESULT_CRATES.contains(&graph.crate_of(callee))
                    && target.ret.contains("Result")
                {
                    added.push(Finding {
                        rule: Rule::R9DiscardedResult,
                        file: file.rel_path.clone(),
                        line: discard.line,
                        function: f.name.clone(),
                        detail: format!(
                            "Result of `{}` discarded ({})",
                            discard.callee, discard.kind
                        ),
                        confirmed: Some(true),
                    });
                }
            }
            let _ = ni;
        }
    }

    drop(leaks);
    drop(secret_types);
    drop(graph);

    let mut out = FlowOutcome::default();
    for (fi, file) in files.iter().enumerate() {
        for (ki, finding) in file.findings.iter().enumerate() {
            let mut finding = finding.clone();
            if kills.contains(&(fi, ki)) {
                finding.confirmed = Some(false);
                out.suppressed.push(finding);
            } else {
                out.findings.push(finding);
            }
        }
    }
    out.findings.append(&mut added);
    out
}

/// The access record that produced a finding: same function, rule and
/// line, and the finding's detail names the access variable.
fn matching_access<'a>(file: &'a FileFacts, finding: &Finding) -> Option<&'a Access> {
    file.accesses.iter().find(|a| {
        a.rule == finding.rule
            && a.line == finding.line
            && a.function == finding.function
            && finding.detail.contains(&format!("`{}`", a.var))
    })
}

/// Can this R4/R5 finding be discharged with cross-function facts?
/// Also consulted by [`crate::panicfree`], which synthesises an
/// R5-shaped finding/access pair per reachable index site so the R16
/// closure discharges exactly what the flat pass would.
pub(crate) fn discharges(
    graph: &CallGraph<'_>,
    file_idx: usize,
    file: &FileFacts,
    finding: &Finding,
    access: &Access,
) -> bool {
    // The enclosing function's summary — required by every argument
    // below; skip if the name is ambiguous within the file.
    let in_file: Vec<&FnSummary> = file
        .summary
        .functions
        .iter()
        .filter(|f| f.name == access.function)
        .collect();
    let [fun] = in_file.as_slice() else { return false };

    if finding.rule == Rule::R5UnguardedIndex {
        let len = var_len(graph, file_idx, fun, &access.var);

        // Mask vs. known length: `s[x & 0xff]` with `s: [u8; 256]`.
        if let (Some(mask), Some(len)) = (access.masked, len) {
            if mask < len {
                return true;
            }
        }

        if let Some((_, upper)) = &access.loop_bounds {
            // Loop bound vs. known length: `for i in 0..BLOCK_LEN`
            // indexing a `[u8; BLOCK_LEN]`. The recorded shape is `i`
            // or `i - x`, so the bound is an upper bound on the index.
            if let (Some(bound), Some(len)) = (graph.eval_size_at(file_idx, upper), len) {
                if bound <= len {
                    return true;
                }
            }
            // Loop bound vs. allocation size, textually: `for i in
            // nk..4 * (nr + 1)` over `vec![…; 4 * (nr + 1)]` in the
            // same function.
            if fun
                .allocs
                .iter()
                .any(|(v, size)| *v == access.var && size == upper)
            {
                return true;
            }
        }
    }

    // Guards (R5) / literals (R4) at every call site: the index must be
    // a parameter, the function uniquely resolvable (so the recorded
    // callers are ALL the callers), and at least one caller must exist.
    let Some(index) = &access.index_ident else { return false };
    let Some(pos) = fun.params.iter().position(|(name, _)| name == index) else {
        return false;
    };
    match graph.resolve_unique(&access.function) {
        Some(id) if id.0 == file_idx => {}
        _ => return false,
    }
    let callers = graph.callers_of(&access.function);
    !callers.is_empty()
        && callers.iter().all(|&r| {
            let call = graph.call_site(r);
            match call.args.get(pos) {
                Some(arg) if finding.rule == Rule::R4NarrowingCast => arg.literal,
                Some(arg) => arg.guarded,
                None => false,
            }
        })
}

/// Array length of `var` inside `fun` (which lives in file `file_idx`),
/// from its parameter type, local type annotation, local allocation, or
/// the unique callee's return type when bound by `let var = f();`.
pub(crate) fn var_len(
    graph: &CallGraph<'_>,
    file_idx: usize,
    fun: &FnSummary,
    var: &str,
) -> Option<u64> {
    if let Some((_, ty)) = fun.params.iter().find(|(name, _)| name == var) {
        if let Some(len) = graph.type_len_at(file_idx, ty) {
            return Some(len);
        }
    }
    if let Some((_, ty)) = fun.local_types.iter().find(|(name, _)| name == var) {
        if let Some(len) = graph.type_len_at(file_idx, ty) {
            return Some(len);
        }
    }
    if let Some((_, size)) = fun.allocs.iter().find(|(name, _)| name == var) {
        if let Some(len) = graph.eval_size_at(file_idx, size) {
            return Some(len);
        }
    }
    if let Some((_, callee)) = fun.local_calls.iter().find(|(name, _)| name == var) {
        if let Some(id) = graph.resolve_unique(callee) {
            // The callee's return type is written in the callee's file.
            return graph.type_len_at(id.0, &graph.function(id).ret);
        }
    }
    None
}

/// Secret type names: declared in `crypto`/`netsec`, camel-case
/// segments include a secret marker, and no `Public` segment.
pub(crate) fn secret_type_names(graph: &CallGraph<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in graph.files() {
        if !SECRET_TYPE_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let declared = file
            .summary
            .structs
            .iter()
            .chain(file.summary.types.iter().map(|(n, _)| n));
        for name in declared {
            let segs = camel_segments(name);
            let is_public = segs.iter().any(|s| s == "Public" || s == "Pub");
            let is_secret = segs
                .iter()
                .any(|s| SECRET_TYPE_SEGMENTS.contains(&s.as_str()));
            if is_secret && !is_public {
                names.insert(name.clone());
            }
        }
    }
    names
}

/// Splits `LamportKeyPair` into `["Lamport", "Key", "Pair"]`.
pub(crate) fn camel_segments(name: &str) -> Vec<String> {
    let mut segs = Vec::new();
    let mut cur = String::new();
    for c in name.chars() {
        if c.is_ascii_uppercase() && !cur.is_empty() {
            segs.push(std::mem::take(&mut cur));
        }
        cur.push(c);
    }
    if !cur.is_empty() {
        segs.push(cur);
    }
    segs
}

/// Does joined type text name one of the secret types as a whole
/// identifier segment (`&SessionKey`, `Result<Tag,E>`)?
pub(crate) fn type_mentions_secret(ty: &str, secret_types: &BTreeSet<String>) -> bool {
    ty.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .any(|seg| secret_types.contains(seg))
}

/// Variables holding secret material inside `fun`.
pub(crate) fn source_vars(
    graph: &CallGraph<'_>,
    file: &FileFacts,
    fun: &FnSummary,
    secret_types: &BTreeSet<String>,
) -> BTreeSet<String> {
    let mut sources = BTreeSet::new();
    let in_secret_crate = SECRET_TYPE_CRATES.contains(&file.crate_name.as_str());
    for (name, ty) in &fun.params {
        let typed_secret = type_mentions_secret(ty, secret_types);
        // Inside crypto/netsec a secret-named byte-slice param is a
        // source even without a nominal type (`tag: &[u8]`).
        let named_secret =
            in_secret_crate && ty.contains("u8") && crate::rules::has_secret_segment(name);
        if typed_secret || named_secret {
            sources.insert(name.clone());
        }
    }
    for (name, ty) in &fun.local_types {
        if type_mentions_secret(ty, secret_types) {
            sources.insert(name.clone());
        }
    }
    for (name, callee) in &fun.local_calls {
        if let Some(id) = graph.resolve_unique(callee) {
            if type_mentions_secret(&graph.function(id).ret, secret_types) {
                sources.insert(name.clone());
            }
        }
    }
    sources
}

/// For every function: which parameter positions reach a sink, in the
/// function itself or transitively through bare-argument calls.
fn param_leak_fixpoint(graph: &CallGraph<'_>) -> BTreeMap<FnId, Vec<bool>> {
    let mut leaks: BTreeMap<FnId, Vec<bool>> = BTreeMap::new();
    for (fi, file) in graph.files().iter().enumerate() {
        for (ni, f) in file.summary.functions.iter().enumerate() {
            let direct: Vec<bool> = f
                .params
                .iter()
                .map(|(name, _)| f.sinks.iter().any(|s| &s.var == name))
                .collect();
            leaks.insert((fi, ni), direct);
        }
    }
    // Propagate caller-param → callee-param edges to a fixpoint. Bounded
    // by the total number of (fn, param) bits, so 64 passes is plenty
    // for any realistic workspace depth.
    for _ in 0..64 {
        let mut changed = false;
        for (fi, file) in graph.files().iter().enumerate() {
            for (ni, f) in file.summary.functions.iter().enumerate() {
                for call in &f.calls {
                    let Some(callee) = graph.resolve_unique(&call.callee) else {
                        continue;
                    };
                    if callee == (fi, ni) {
                        continue; // self-recursion adds nothing
                    }
                    let callee_leaks = leaks.get(&callee).cloned().unwrap_or_default();
                    for (pos, arg) in call.args.iter().enumerate() {
                        let Some(ident) = &arg.ident else { continue };
                        if !callee_leaks.get(pos).copied().unwrap_or(false) {
                            continue;
                        }
                        let Some(ppos) =
                            f.params.iter().position(|(name, _)| name == ident)
                        else {
                            continue;
                        };
                        if let Some(own) = leaks.get_mut(&(fi, ni)) {
                            if !own[ppos] {
                                own[ppos] = true;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    leaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::rules::{annotate, scan_tokens, FileContext};
    use crate::summary::summarize;

    fn facts(crate_name: &str, file_name: &str, src: &str) -> FileFacts {
        let ann = annotate(tokenize(src));
        let ctx = FileContext {
            crate_name,
            rel_path: file_name,
            file_name,
        };
        let (findings, accesses) = scan_tokens(&ctx, &ann);
        FileFacts {
            crate_name: crate_name.to_string(),
            rel_path: file_name.to_string(),
            summary: summarize(&ann),
            findings,
            accesses,
        }
    }

    fn rule_count(out: &FlowOutcome, rule: Rule) -> usize {
        out.findings.iter().filter(|f| f.rule == rule).count()
    }

    #[test]
    fn const_bounded_loop_discharges_r5() {
        let out = run(&[facts(
            "crypto",
            "aes.rs",
            "pub const BLOCK_LEN: usize = 16;\npub type Block = [u8; BLOCK_LEN];\n\
             fn xor_block(a: &mut Block, b: &Block) { for i in 0..BLOCK_LEN { a[i] ^= b[i]; } }",
        )]);
        assert_eq!(rule_count(&out, Rule::R5UnguardedIndex), 0);
        assert_eq!(out.suppressed.len(), 2);
        assert!(out.suppressed.iter().all(|f| f.confirmed == Some(false)));
    }

    #[test]
    fn variable_bound_without_proof_stays() {
        let out = run(&[facts(
            "crypto",
            "aes.rs",
            "fn f(w: &mut [u32], nk: usize, m: usize) { for i in nk..m { w[i] = 0; } }",
        )]);
        assert_eq!(rule_count(&out, Rule::R5UnguardedIndex), 1);
        assert!(out.suppressed.is_empty());
    }

    #[test]
    fn alloc_size_text_match_discharges_r5() {
        let out = run(&[facts(
            "crypto",
            "aes.rs",
            "fn expand(nr: usize, nk: usize) { let mut w = vec![[0u8; 4]; 4 * (nr + 1)];\n\
             for i in nk..4 * (nr + 1) { w[i] = w[i - nk]; } }",
        )]);
        assert_eq!(rule_count(&out, Rule::R5UnguardedIndex), 0);
        assert_eq!(out.suppressed.len(), 2);
    }

    #[test]
    fn mask_below_known_length_discharges_r5() {
        let out = run(&[facts(
            "crypto",
            "aes.rs",
            "fn sbox() -> &'static [u8; 256] { &SBOX }\n\
             fn sub(x: u32) -> u8 { let s = sbox(); s[(x & 0xff) as usize] }",
        )]);
        assert_eq!(rule_count(&out, Rule::R5UnguardedIndex), 0);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn mask_wider_than_array_stays() {
        let out = run(&[facts(
            "crypto",
            "aes.rs",
            "fn sbox() -> &'static [u8; 16] { &SBOX }\n\
             fn sub(x: u32) -> u8 { let s = sbox(); s[(x & 0xff) as usize] }",
        )]);
        assert_eq!(rule_count(&out, Rule::R5UnguardedIndex), 1);
    }

    #[test]
    fn guarded_at_every_call_site_discharges_r5() {
        let out = run(&[facts(
            "pon",
            "frame.rs",
            "fn read_unchecked(buf: &[u8], i: usize) -> u8 { buf[i] }\n\
             fn read_guarded(buf: &[u8], i: usize) -> u8 {\n\
                 if i < buf.len() { read_unchecked(buf, i) } else { 0 } }",
        )]);
        assert_eq!(rule_count(&out, Rule::R5UnguardedIndex), 0);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn unguarded_call_site_keeps_r5() {
        let out = run(&[facts(
            "pon",
            "frame.rs",
            "fn read_unchecked(buf: &[u8], i: usize) -> u8 { buf[i] }\n\
             fn read_wild(buf: &[u8], i: usize) -> u8 { read_unchecked(buf, i) }",
        )]);
        assert_eq!(rule_count(&out, Rule::R5UnguardedIndex), 1);
    }

    #[test]
    fn no_call_sites_keeps_r5() {
        let out = run(&[facts(
            "pon",
            "frame.rs",
            "fn read_field(buf: &[u8], i: usize) -> u8 { buf[i] }",
        )]);
        assert_eq!(rule_count(&out, Rule::R5UnguardedIndex), 1);
    }

    #[test]
    fn literal_call_sites_discharge_r4() {
        let out = run(&[facts(
            "pon",
            "lib.rs",
            "fn narrow(sci: u64) -> u32 { sci as u32 }\n\
             fn fixed() -> u32 { narrow(7) }",
        )]);
        assert_eq!(rule_count(&out, Rule::R4NarrowingCast), 0);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn r8_direct_and_hop_leaks() {
        let out = run(&[
            facts("netsec", "handshake.rs",
                "pub struct SessionKey;\n\
                 fn describe(k: &SessionKey) -> String { format!(\"{k:?}\") }\n\
                 fn leak_hop(key: &SessionKey) { let _s = describe(key); }\n\
                 fn safe_len(key: &SessionKey, n: usize) { let _x = n; }"),
        ]);
        let r8: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == Rule::R8SecretLeak)
            .collect();
        // describe: direct (param typed SessionKey reaches format!).
        // leak_hop: interprocedural (key passed bare into describe).
        assert_eq!(r8.len(), 2);
        assert!(r8.iter().any(|f| f.function == "describe"));
        assert!(r8.iter().any(|f| f.function == "leak_hop"));
    }

    #[test]
    fn r8_projections_and_untyped_args_are_silent() {
        let out = run(&[facts(
            "netsec",
            "handshake.rs",
            "pub struct SessionKey;\n\
             fn log_len(key: &SessionKey) { println!(\"{}\", key.len()); }\n\
             fn log_other(n: usize) { println!(\"{n}\"); }",
        )]);
        assert_eq!(rule_count(&out, Rule::R8SecretLeak), 0);
    }

    #[test]
    fn r9_discarded_security_results() {
        let out = run(&[
            facts("crypto", "gcm.rs",
                "pub fn verify_peer(tag: u8) -> Result<(), u8> { Err(tag) }"),
            facts("demo", "ops.rs",
                "fn f(t: u8) { let _ = verify_peer(t); }\n\
                 fn g(t: u8) { verify_peer(t); }\n\
                 fn h(t: u8) -> Result<(), u8> { verify_peer(t) }"),
        ]);
        let r9: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == Rule::R9DiscardedResult)
            .collect();
        assert_eq!(r9.len(), 2);
        assert!(r9.iter().any(|f| f.function == "f" && f.detail.contains("let _")));
        assert!(r9.iter().any(|f| f.function == "g" && f.detail.contains("stmt")));
    }

    #[test]
    fn r9_ignores_non_security_crates_and_propagation() {
        let out = run(&[
            facts("demo", "util.rs", "pub fn cleanup(x: u8) -> Result<(), u8> { Err(x) }"),
            facts("demo", "ops.rs",
                "fn f(t: u8) { let _ = cleanup(t); }\n\
                 fn g(t: u8) -> Result<(), u8> { let _ = verify_missing(t)?; Ok(()) }"),
        ]);
        assert_eq!(rule_count(&out, Rule::R9DiscardedResult), 0);
    }
}
