//! R16 — panic-freedom certification of the hot-path closure.
//!
//! The paper's availability argument (and Cesarano's fog-hardening
//! work) treats a panic on the data plane as a security defect: one
//! malformed frame aborts the process that terminates every tenant's
//! traffic. This pass certifies the declared hot-path entry points
//! panic-free:
//!
//! 1. seed the walk with every definition of a [`HOT_ENTRIES`] name
//!    (the GCM batch sealers, the fleet engine drivers, the MACsec
//!    batchers, the fleet merge, and the subscriber path's GEM,
//!    handshake-record and alert-correlation entry points);
//! 2. take the call-graph closure — edges resolve when the callee name
//!    is unique workspace-wide or unique within the caller's crate
//!    ([`crate::callgraph::CallGraph::resolve_from`]), std method names
//!    excluded;
//! 3. flag every reachable [`crate::summary::PanicSite`] whose guard
//!    does not *dominate* it: `unwrap`/`expect` discharge only under an
//!    `is_some`/`is_ok` scope from [`crate::cfg`], panic macros never
//!    discharge, and index sites get the full interprocedural R5
//!    treatment (dominating bounds guard, mask vs. known length, loop
//!    bound vs. allocation, guards at every call site) via
//!    [`crate::dataflow::discharges`].
//!
//! Index sites inside the R5 hot-path file list are skipped here — R5
//! already owns them finding-for-finding; R16's value-add is the rest
//! of the closure, where indexing was previously unchecked.
//!
//! Finding details carry the *entry* name, not the call chain — details
//! are part of the line-free ratchet key, and chains churn on every
//! refactor while entry attribution is stable.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FileFacts, FnId};
use crate::rules::{Access, Finding, Rule};

/// Function names that declare a hot-path entry point, wherever they
/// are defined (the workspace's data-plane surface; fixtures and tests
/// can declare their own by reusing a name).
pub const HOT_ENTRIES: &[&str] = &[
    "correlate",
    "correlate_traced",
    "decrypt_many",
    "encrypt_downstream_burst",
    "encrypt_downstream_many",
    "merge_shards",
    "open_client_many",
    "open_many",
    "open_server_many",
    "protect_many",
    "run_shards",
    "seal_many",
    "simulate_pon_fleet",
    "validate_many",
];

/// Runs the R16 closure over the summarised workspace.
pub fn run(files: &[FileFacts]) -> Vec<Finding> {
    let graph = CallGraph::build(files);

    // Entry-name attribution: BFS per entry in sorted order, first
    // writer wins — deterministic regardless of file order.
    let mut reach: BTreeMap<FnId, &str> = BTreeMap::new();
    for entry in HOT_ENTRIES {
        let mut queue: Vec<FnId> = graph.defs_of(entry).to_vec();
        while let Some(id) = queue.pop() {
            if reach.contains_key(&id) {
                continue;
            }
            reach.insert(id, entry);
            let crate_name = graph.crate_of(id);
            for call in &graph.function(id).calls {
                if crate::dataflow::STD_METHOD_NAMES.contains(&call.callee.as_str()) {
                    continue;
                }
                if let Some(callee) = graph.resolve_from(&call.callee, crate_name) {
                    queue.push(callee);
                }
            }
        }
    }

    let mut findings = Vec::new();
    for (&(fi, ni), &entry) in &reach {
        let file = &files[fi];
        let fun = &file.summary.functions[ni];
        for site in &fun.panics {
            if site.guarded {
                continue;
            }
            if site.kind == "index" {
                // R5 owns its file list finding-for-finding; and an
                // index R5's interprocedural evidence discharges is
                // equally discharged here.
                if crate::rules::is_r5_file(&file.crate_name, &file.rel_path) {
                    continue;
                }
                if index_discharged(&graph, fi, file, fun, site) {
                    continue;
                }
            }
            findings.push(Finding {
                rule: Rule::R16PanicReachable,
                file: file.rel_path.clone(),
                line: site.line,
                function: fun.name.clone(),
                detail: format!("{} reachable from hot entry `{entry}`", site.detail),
                confirmed: Some(true),
            });
        }
    }
    findings
}

/// Applies the interprocedural R5 discharge arguments to a reachable
/// index site by synthesising the finding/access pair
/// [`crate::dataflow::discharges`] expects.
fn index_discharged(
    graph: &CallGraph<'_>,
    file_idx: usize,
    file: &FileFacts,
    fun: &crate::summary::FnSummary,
    site: &crate::summary::PanicSite,
) -> bool {
    let var = site.var.clone().unwrap_or_default();
    let finding = Finding {
        rule: Rule::R5UnguardedIndex,
        file: file.rel_path.clone(),
        line: site.line,
        function: fun.name.clone(),
        detail: format!("dynamic index into `{var}`"),
        confirmed: None,
    };
    let access = Access {
        function: fun.name.clone(),
        var,
        guarded: site.guarded,
        rule: Rule::R5UnguardedIndex,
        line: site.line,
        masked: site.masked,
        index_ident: site.index_ident.clone(),
        loop_bounds: site.loop_bounds.clone(),
    };
    crate::dataflow::discharges(graph, file_idx, file, &finding, &access)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::rules::annotate;

    fn facts(crate_name: &str, rel_path: &str, src: &str) -> FileFacts {
        let ann = annotate(tokenize(src));
        FileFacts {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            summary: crate::summary::summarize(&ann),
            findings: Vec::new(),
            accesses: Vec::new(),
        }
    }

    #[test]
    fn unwrap_reachable_through_one_hop_is_flagged() {
        let files = vec![facts(
            "crypto",
            "crates/crypto/src/x.rs",
            "pub fn seal_many(x: Option<u8>) -> u8 { stage(x) }\n\
             fn stage(x: Option<u8>) -> u8 { x.unwrap() }",
        )];
        let f = run(&files);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::R16PanicReachable);
        assert_eq!(f[0].function, "stage");
        assert!(f[0].detail.contains("`seal_many`"), "{}", f[0].detail);
        assert_eq!(f[0].confirmed, Some(true));
    }

    #[test]
    fn dominated_unwrap_is_discharged() {
        let files = vec![facts(
            "crypto",
            "crates/crypto/src/x.rs",
            "pub fn seal_many(x: Option<u8>) -> u8 { if x.is_some() { x.unwrap() } else { 0 } }",
        )];
        assert!(run(&files).is_empty());
    }

    #[test]
    fn is_some_on_one_branch_only_still_flags_the_other() {
        let files = vec![facts(
            "crypto",
            "crates/crypto/src/x.rs",
            "pub fn seal_many(x: Option<u8>) -> u8 { if x.is_some() { x.unwrap() } else { x.unwrap() } }",
        )];
        let f = run(&files);
        assert_eq!(f.len(), 1, "only the unchecked arm fires");
    }

    #[test]
    fn unreachable_code_is_not_flagged() {
        let files = vec![facts(
            "crypto",
            "crates/crypto/src/x.rs",
            "pub fn cold_path(x: Option<u8>) -> u8 { x.unwrap() }",
        )];
        assert!(run(&files).is_empty(), "no entry reaches cold_path");
    }

    #[test]
    fn panic_macro_in_closure_is_always_flagged() {
        let files = vec![facts(
            "pon",
            "crates/pon/src/engine.rs",
            "pub fn run_shards(n: u8) { if n > 4 { unreachable!(); } }",
        )];
        let f = run(&files);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("unreachable! macro"));
    }

    #[test]
    fn masked_index_outside_r5_files_is_discharged() {
        let files = vec![facts(
            "core",
            "crates/core/src/f.rs",
            "const T: [u8; 256] = [0; 256];\n\
             pub fn simulate_pon_fleet(x: usize) -> u8 { let t: [u8; 256] = T; t[x & 0xff] }",
        )];
        assert!(run(&files).is_empty(), "mask 0xff < len 256 discharges");
    }

    #[test]
    fn unguarded_index_outside_r5_files_is_flagged() {
        let files = vec![facts(
            "core",
            "crates/core/src/f.rs",
            "pub fn simulate_pon_fleet(buf: &[u8], x: usize) -> u8 { buf[x] }",
        )];
        let f = run(&files);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("`buf`"));
    }

    #[test]
    fn crate_local_resolution_survives_cross_crate_name_collision() {
        let files = vec![
            facts(
                "pon",
                "crates/pon/src/engine.rs",
                "pub fn run_shards(x: Option<u8>) -> u8 { step(x) }\n\
                 fn step(x: Option<u8>) -> u8 { x.unwrap() }",
            ),
            facts(
                "other",
                "crates/other/src/lib.rs",
                "pub fn step(x: u8) -> u8 { x }",
            ),
        ];
        let f = run(&files);
        assert_eq!(f.len(), 1, "in-crate def wins the ambiguity");
        assert_eq!(f[0].file, "crates/pon/src/engine.rs");
    }
}
