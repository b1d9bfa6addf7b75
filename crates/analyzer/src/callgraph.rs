//! Workspace-wide call graph over per-file summaries.
//!
//! Links every [`crate::summary::FnSummary`] by *name*: resolution is
//! deliberately conservative — a callee name is resolved only when the
//! workspace defines exactly one function with that name
//! ([`CallGraph::resolve_unique`]), and every interprocedural judgement
//! in [`crate::dataflow`] requires such a unique resolution. Ambiguous
//! names (`new`, `len`, trait impls) simply contribute no edges, which
//! can only make the analysis *miss* a discharge or a leak, never
//! invent one.
//!
//! The graph also carries the workspace constant table (`const N: usize
//! = 16;`), the type-alias table (`type Block = [u8; N];`) and a
//! reverse caller index, so bound/length questions can be answered
//! across file boundaries.

use std::collections::BTreeMap;

use crate::rules::{Access, Finding};
use crate::summary::{CallSite, FileSummary, FnSummary};

/// One summarised file with its per-file scan payload, as the workspace
/// hands it to the interprocedural pass.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Crate directory name (`crypto`, `netsec`, …).
    pub crate_name: String,
    /// Repo-relative path, forward slashes.
    pub rel_path: String,
    /// The file's item/function summary.
    pub summary: FileSummary,
    /// Per-file findings from the lexical pass.
    pub findings: Vec<Finding>,
    /// R4/R5 access records from the lexical pass.
    pub accesses: Vec<Access>,
}

/// Identifies one function: (file index, function index within file).
pub type FnId = (usize, usize);

/// One call edge: the calling function and which of its call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallerRef {
    /// Calling function.
    pub caller: FnId,
    /// Index into the caller's `calls` list.
    pub call: usize,
}

/// The workspace call graph (borrows the facts it indexes).
pub struct CallGraph<'a> {
    files: &'a [FileFacts],
    defs: BTreeMap<&'a str, Vec<FnId>>,
    callers: BTreeMap<&'a str, Vec<CallerRef>>,
    /// `None` marks a name defined with conflicting values.
    consts: BTreeMap<&'a str, Option<u64>>,
    /// Alias name → `(defining file, rhs)`. `None` marks a name defined
    /// more than once — even textually equal definitions are treated as
    /// ambiguous, because the rhs resolves in its defining file.
    types: BTreeMap<&'a str, Option<(usize, &'a str)>>,
    /// Per-file constant table: same-file definitions shadow the
    /// workspace (`BLOCK_LEN` is 16 in `aes.rs` and 64 in `sha256.rs`).
    file_consts: Vec<BTreeMap<&'a str, u64>>,
    /// Per-file alias table, same shadowing rule.
    file_types: Vec<BTreeMap<&'a str, &'a str>>,
}

impl<'a> CallGraph<'a> {
    /// Indexes definitions, callers, constants and aliases.
    pub fn build(files: &'a [FileFacts]) -> CallGraph<'a> {
        let mut defs: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut callers: BTreeMap<&str, Vec<CallerRef>> = BTreeMap::new();
        let mut consts: BTreeMap<&str, Option<u64>> = BTreeMap::new();
        let mut types: BTreeMap<&str, Option<(usize, &str)>> = BTreeMap::new();
        let mut file_consts: Vec<BTreeMap<&str, u64>> = Vec::new();
        let mut file_types: Vec<BTreeMap<&str, &str>> = Vec::new();

        for (fi, file) in files.iter().enumerate() {
            let mut local_consts = BTreeMap::new();
            let mut local_types = BTreeMap::new();
            for (name, val) in &file.summary.consts {
                local_consts.entry(name.as_str()).or_insert(*val);
                consts
                    .entry(name.as_str())
                    .and_modify(|v| {
                        if *v != Some(*val) {
                            *v = None;
                        }
                    })
                    .or_insert(Some(*val));
            }
            for (name, rhs) in &file.summary.types {
                local_types.entry(name.as_str()).or_insert(rhs.as_str());
                types
                    .entry(name.as_str())
                    .and_modify(|v| *v = None)
                    .or_insert(Some((fi, rhs.as_str())));
            }
            file_consts.push(local_consts);
            file_types.push(local_types);
            for (ni, f) in file.summary.functions.iter().enumerate() {
                defs.entry(f.name.as_str()).or_default().push((fi, ni));
                for (ci, call) in f.calls.iter().enumerate() {
                    callers
                        .entry(call.callee.as_str())
                        .or_default()
                        .push(CallerRef { caller: (fi, ni), call: ci });
                }
            }
        }
        CallGraph { files, defs, callers, consts, types, file_consts, file_types }
    }

    /// The indexed files, in input order.
    pub fn files(&self) -> &'a [FileFacts] {
        self.files
    }

    /// The function summary behind an id.
    pub fn function(&self, id: FnId) -> &'a FnSummary {
        &self.files[id.0].summary.functions[id.1]
    }

    /// The call site behind a caller reference.
    pub fn call_site(&self, r: CallerRef) -> &'a CallSite {
        &self.function(r.caller).calls[r.call]
    }

    /// Crate name of the file a function lives in.
    pub fn crate_of(&self, id: FnId) -> &'a str {
        &self.files[id.0].crate_name
    }

    /// Resolves `name` iff the workspace defines exactly one such fn.
    pub fn resolve_unique(&self, name: &str) -> Option<FnId> {
        match self.defs.get(name).map(Vec::as_slice) {
            Some([only]) => Some(*only),
            _ => None,
        }
    }

    /// Every recorded call site naming `name` as its callee.
    pub fn callers_of(&self, name: &str) -> &[CallerRef] {
        self.callers.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolves `name` as seen from a caller in `crate_name`: unique
    /// across the workspace, or unique among the definitions inside the
    /// caller's own crate (method names like `step` repeat across
    /// crates, but a crate-local call overwhelmingly targets the
    /// crate-local definition). Used by the R16 closure, which must not
    /// lose edges to cross-crate name collisions.
    pub fn resolve_from(&self, name: &str, crate_name: &str) -> Option<FnId> {
        let defs = self.defs.get(name).map(Vec::as_slice).unwrap_or(&[]);
        match defs {
            [only] => Some(*only),
            many => {
                let mut in_crate = many.iter().filter(|id| self.crate_of(**id) == crate_name);
                match (in_crate.next(), in_crate.next()) {
                    (Some(&only), None) => Some(only),
                    _ => None,
                }
            }
        }
    }

    /// All definitions of `name`, workspace-wide.
    pub fn defs_of(&self, name: &str) -> &[FnId] {
        self.defs.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Constant value as seen from `file`: a same-file definition
    /// shadows the workspace; otherwise the name must be unambiguous
    /// across the workspace.
    pub fn const_value_at(&self, file: usize, name: &str) -> Option<u64> {
        self.file_consts
            .get(file)
            .and_then(|m| m.get(name).copied())
            .or_else(|| self.consts.get(name).copied().flatten())
    }

    /// Alias rhs as seen from `file`, with the file the rhs must be
    /// further resolved in.
    fn alias_at(&self, file: usize, name: &str) -> Option<(usize, &'a str)> {
        if let Some(rhs) = self.file_types.get(file).and_then(|m| m.get(name)) {
            return Some((file, rhs));
        }
        self.types.get(name).copied().flatten()
    }

    /// Evaluates a size expression that is a single integer literal or
    /// a single constant name (`16`, `BLOCK_LEN`), scoped to `file`.
    pub fn eval_size_at(&self, file: usize, text: &str) -> Option<u64> {
        crate::rules::parse_int(text).or_else(|| self.const_value_at(file, text))
    }

    /// Element count of an array-shaped type as written in `file`,
    /// resolved through references and up to four alias hops:
    /// `&'static [u8; 256]` → `256`, `&mut Block` → `[u8; BLOCK_LEN]` →
    /// `16`. Each hop re-scopes to the alias's defining file, so the
    /// size constant resolves where the alias was written.
    pub fn type_len_at(&self, file: usize, text: &str) -> Option<u64> {
        let mut scope = file;
        let mut t = text;
        for _ in 0..4 {
            t = strip_ref(t);
            if let Some(inner) = t.strip_prefix('[') {
                let end = inner.rfind(']')?;
                let body = &inner[..end];
                let semi = top_level_semi(body)?;
                return self.eval_size_at(scope, &body[semi + 1..]);
            }
            let (next_scope, rhs) = self.alias_at(scope, t)?;
            scope = next_scope;
            t = rhs;
        }
        None
    }
}

/// Strips `&`, a leading lifetime, and a `mut` qualifier from joined
/// type text (`&'static[u8;256]` → `[u8;256]`).
fn strip_ref(text: &str) -> &str {
    let mut t = text;
    loop {
        if let Some(rest) = t.strip_prefix('&') {
            t = rest;
            continue;
        }
        if let Some(rest) = t.strip_prefix('\'') {
            let end = rest
                .char_indices()
                .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_'))
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            t = &rest[end..];
            continue;
        }
        if let Some(rest) = t.strip_prefix("mut") {
            if !rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                t = rest;
                continue;
            }
        }
        return t;
    }
}

/// Index of the last `;` at bracket depth zero of `body` (the inside of
/// an array type: `[u8;4];N` for `[[u8;4];N]`).
fn top_level_semi(body: &str) -> Option<usize> {
    let mut depth = 0i64;
    let mut found = None;
    for (i, c) in body.char_indices() {
        match c {
            '[' | '(' | '<' => depth += 1,
            ']' | ')' | '>' => depth -= 1,
            ';' if depth == 0 => found = Some(i),
            _ => {}
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::rules::annotate;
    use crate::summary::summarize;

    fn facts(crate_name: &str, rel_path: &str, src: &str) -> FileFacts {
        FileFacts {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            summary: summarize(&annotate(tokenize(src))),
            findings: Vec::new(),
            accesses: Vec::new(),
        }
    }

    #[test]
    fn unique_resolution_and_callers() {
        let files = vec![
            facts("crypto", "a.rs", "pub fn seal(k: &Key) {} pub fn open(k: &Key) {}"),
            facts("netsec", "b.rs", "fn run(k: &Key) { seal(k); seal(k); open(k); }"),
            facts("pon", "c.rs", "fn open(x: u8) {}"),
        ];
        let g = CallGraph::build(&files);
        assert!(g.resolve_unique("seal").is_some());
        // `open` is defined twice — ambiguous, unresolved.
        assert!(g.resolve_unique("open").is_none());
        assert_eq!(g.callers_of("seal").len(), 2);
        assert_eq!(g.crate_of(g.resolve_unique("seal").unwrap()), "crypto");
    }

    #[test]
    fn const_and_alias_tables_resolve_lengths() {
        let files = vec![
            facts(
                "crypto",
                "aes.rs",
                "pub const BLOCK_LEN: usize = 16;\npub type Block = [u8; BLOCK_LEN];",
            ),
            facts("crypto", "gcm.rs", "pub const TAG_LEN: usize = 16;"),
        ];
        let g = CallGraph::build(&files);
        // Cross-file view (gcm.rs): BLOCK_LEN is workspace-unique here.
        assert_eq!(g.const_value_at(1, "BLOCK_LEN"), Some(16));
        assert_eq!(g.eval_size_at(1, "BLOCK_LEN"), Some(16));
        assert_eq!(g.eval_size_at(0, "32"), Some(32));
        assert_eq!(g.type_len_at(1, "&'static[u8;256]"), Some(256));
        // Summary joining drops `mut`, so `&mut Block` arrives as `&Block`;
        // the alias hop re-scopes resolution to aes.rs.
        assert_eq!(g.type_len_at(1, "&Block"), Some(16));
        assert_eq!(g.type_len_at(0, "[[u8;4];BLOCK_LEN]"), Some(16));
        assert_eq!(g.type_len_at(0, "&[u8]"), None);
    }

    #[test]
    fn same_file_constants_shadow_workspace_conflicts() {
        let files = vec![
            facts(
                "crypto",
                "aes.rs",
                "pub const BLOCK_LEN: usize = 16;\npub type Block = [u8; BLOCK_LEN];",
            ),
            facts("crypto", "sha256.rs", "pub const BLOCK_LEN: usize = 64;"),
        ];
        let g = CallGraph::build(&files);
        // Globally conflicting, but each file sees its own definition.
        assert_eq!(g.const_value_at(0, "BLOCK_LEN"), Some(16));
        assert_eq!(g.const_value_at(1, "BLOCK_LEN"), Some(64));
        // The Block alias resolves BLOCK_LEN in aes.rs even when the
        // type text is read from sha256.rs's perspective.
        assert_eq!(g.type_len_at(1, "&Block"), Some(16));
    }

    #[test]
    fn conflicting_consts_are_ambiguous_cross_file() {
        let files = vec![
            facts("a", "a.rs", "pub const N: usize = 4;"),
            facts("b", "b.rs", "pub const N: usize = 8;"),
            facts("c", "c.rs", "pub fn unrelated() {}"),
        ];
        let g = CallGraph::build(&files);
        // From a third file, N is ambiguous; from the defining files it
        // is the local value.
        assert_eq!(g.const_value_at(2, "N"), None);
        assert_eq!(g.const_value_at(0, "N"), Some(4));
        assert_eq!(g.const_value_at(1, "N"), Some(8));
    }
}
