//! Integration tests: drive `workspace::scan` over the committed fixture
//! corpus (`tests/fixtures/miniws`), a miniature workspace tree with one
//! known-positive and at least one known-negative snippet per rule.

use std::path::{Path, PathBuf};

use genio_analyzer::rules::Rule;
use genio_analyzer::workspace;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/miniws")
}

#[test]
fn fixture_tree_is_a_workspace_root() {
    let root = fixture_root();
    assert_eq!(
        workspace::find_root(&root.join("crates/demo/src")),
        Some(root)
    );
}

#[test]
fn per_rule_counts_match_the_corpus() {
    let report = workspace::scan(&fixture_root()).expect("fixture scan");
    let counts: Vec<(Rule, usize)> = report.rule_counts();
    let count = |r: Rule| counts.iter().find(|&&(cr, _)| cr == r).map_or(0, |&(_, n)| n);

    assert_eq!(count(Rule::R1PanicPath), 6, "demo trio + hotpath trio");
    assert_eq!(count(Rule::R2NonCtCompare), 1, "tag == expected_tag");
    assert_eq!(count(Rule::R3MissingForbid), 1, "netsec crate root");
    assert_eq!(count(Rule::R4NarrowingCast), 1, "sci as u16");
    assert_eq!(count(Rule::R5UnguardedIndex), 2, "gcm.rs + frame.rs");
    assert_eq!(count(Rule::R6DebtMarker), 1, "one to-do comment");
    assert_eq!(count(Rule::R7RawTiming), 1, "raw Instant::now in demo");
    assert_eq!(count(Rule::R8SecretLeak), 3, "two direct leaks + one hop");
    assert_eq!(count(Rule::R9DiscardedResult), 2, "let _ + bare statement");
    assert_eq!(count(Rule::R10SecretBranch), 4, "if + match + while + one hop");
    assert_eq!(count(Rule::R11SecretIndex), 3, "direct + let-chained + mixed");
    assert_eq!(count(Rule::R12VariableTimeOp), 3, "div + mod + typed eq");
    assert_eq!(count(Rule::R13LockOrderCycle), 4, "ab/ba pair + via-call pair");
    assert_eq!(count(Rule::R14RelaxedSyncFlag), 2, "relaxed store + spin load");
    assert_eq!(count(Rule::R15DroppedSpan), 3, "let _ + bare call + bare macro");
    assert_eq!(count(Rule::R16PanicReachable), 2, "hotpath unwrap + index");
    assert_eq!(count(Rule::R17SecretLifecycle), 2, "escape + unscrubbed teardown");
    assert_eq!(report.findings.len(), 41);
    // The dataflow pass discharges the provably bounded R4/R5 sites:
    // xor_fixed (2 accesses), masked_lookup, read_unchecked, narrow_fixed.
    assert_eq!(report.suppressed, 5, "interprocedurally discharged sites");
    // The two `allow(...)` comments in sidechan.rs suppress exactly one
    // R10 and one R11, visibly.
    assert_eq!(report.allowed, 2, "annotated suppressions are counted");
}

#[test]
fn positives_name_their_functions() {
    let report = workspace::scan(&fixture_root()).expect("fixture scan");
    let has = |rule: Rule, function: &str| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.function == function)
    };
    assert!(has(Rule::R1PanicPath, "lib_unwrap"));
    assert!(has(Rule::R1PanicPath, "lib_expect"));
    assert!(has(Rule::R1PanicPath, "lib_panic"));
    assert!(has(Rule::R2NonCtCompare, "bad_tag_check"));
    assert!(has(Rule::R4NarrowingCast, "narrow_sci"));
    assert!(has(Rule::R5UnguardedIndex, "unguarded_block"));
    assert!(has(Rule::R5UnguardedIndex, "read_field"));
    assert!(has(Rule::R7RawTiming, "raw_timing"));
    assert!(has(Rule::R8SecretLeak, "leak_direct"));
    assert!(has(Rule::R8SecretLeak, "describe_key"));
    assert!(has(Rule::R8SecretLeak, "leak_via_hop"));
    assert!(has(Rule::R9DiscardedResult, "check_and_ignore"));
    assert!(has(Rule::R9DiscardedResult, "install_and_drop"));
    assert!(has(Rule::R10SecretBranch, "b_if"));
    assert!(has(Rule::R10SecretBranch, "b_match"));
    assert!(has(Rule::R10SecretBranch, "b_while"));
    assert!(has(Rule::R10SecretBranch, "hop_branch"));
    assert!(has(Rule::R11SecretIndex, "t_lookup"));
    assert!(has(Rule::R11SecretIndex, "t_chain"));
    assert!(has(Rule::R11SecretIndex, "t_mix"));
    assert!(has(Rule::R12VariableTimeOp, "bias"));
    assert!(has(Rule::R12VariableTimeOp, "residue"));
    assert!(has(Rule::R12VariableTimeOp, "same_session"));
    assert!(has(Rule::R13LockOrderCycle, "ab_order"));
    assert!(has(Rule::R13LockOrderCycle, "ba_order"));
    assert!(has(Rule::R13LockOrderCycle, "via_call"));
    assert!(has(Rule::R13LockOrderCycle, "dc_order"));
    assert!(has(Rule::R14RelaxedSyncFlag, "publish_ready"));
    assert!(has(Rule::R14RelaxedSyncFlag, "spin_wait"));
    assert!(has(Rule::R15DroppedSpan, "tp_let_underscore"));
    assert!(has(Rule::R15DroppedSpan, "tp_bare_call"));
    assert!(has(Rule::R15DroppedSpan, "tp_bare_macro"));
    assert!(has(Rule::R16PanicReachable, "stage_block"));
    assert!(has(Rule::R16PanicReachable, "tail_byte"));
    assert!(has(Rule::R17SecretLifecycle, "retain_key"));
    assert!(has(Rule::R17SecretLifecycle, "close_link"));
}

#[test]
fn negatives_stay_silent() {
    let report = workspace::scan(&fixture_root()).expect("fixture scan");
    for quiet in [
        "parse",          // look-alike `self.expect(b':')`
        "catches",        // std::panic:: path segment
        "key_length_ok",  // public length comparison
        "counters_match", // no secret segment
        "widen",          // widening cast
        "literal_cast",   // literal cast subject
        "guarded_block",  // guard dominates
        "read_checked",   // .get() access
        "rotate_state",   // literal-range loop variable
        "instant_passthrough", // Instant in type position, no ::now call
        "manual_clock",   // Instant::now inside the allowlisted clock.rs
        "through_the_clock", // timing routed through the abstraction
        "key_len_log",    // only the length is formatted
        "seal_with",      // callee never sinks its parameter
        "mix",            // sink-free helper
        "check_properly", // Result propagated, not discarded
        "tidy",           // non-security Result discarded
        "xor_fixed",      // loop bound == array length (dataflow)
        "masked_lookup",  // mask below table length (dataflow)
        "read_unchecked", // every caller guards the index (dataflow)
        "read_guarded_call", // the guarding caller itself
        "narrow_fixed",   // every caller passes a literal (dataflow)
        "default_port",   // the literal-passing caller itself
        "select_path",    // neutral-named branching helper (the hop target)
        "n_len_branch",   // .len() projection in a condition
        "n_ct_eq",        // ct::eq call arguments are not condition reads
        "n_public_branch", // public loop bound
        "key_dispatch",   // allow(R10) annotated dispatch
        "n_first",        // literal index
        "n_public_index", // public index into a public table
        "n_secret_base",  // public index into a secret slice
        "sbox_probe",     // allow(R11) annotated table lookup
        "n_chunks",       // .len() division
        "n_wrap",         // public modulo
        "n_xor_fold",     // constant-time accumulate idiom
        "n_len_mod",      // modulo on a copied public length
        "n_ghash_row",    // key-built table, data-derived index (GHASH idiom)
        "n_ttable_round", // masked public counter byte into a table (CTR idiom)
        "grab_d",         // single acquisition, no cycle on its own
        "consistent_one", // canonical e-before-f order
        "consistent_two", // canonical order again
        "scoped_release", // guard dies with its block
        "dropped_release", // guard dropped explicitly
        "bump",           // pure Relaxed counter
        "snapshot_hits",  // counter read outside any condition
        "done_yet",       // Acquire read in the condition
        "finish",         // Release publish
        "ok_bound_guard", // named binding lives to end of scope
        "ok_tail_expression", // guard returned to the caller
        "ok_consumed",    // guard consumed by drop(..)
        "ok_assigned",    // guard stored in an outliving place
        "retire_session", // teardown scrubs with fill(0)
        "retain_stats",   // public counters may live in collections
        "announce_close", // neutral helper in the teardown fixture
    ] {
        assert!(
            !report.findings.iter().any(|f| f.function == quiet),
            "negative fixture {quiet:?} was flagged"
        );
    }
    // The #[cfg(test)] module in demo contributes nothing.
    assert!(!report
        .findings
        .iter()
        .any(|f| f.function == "unwrap_is_fine_in_tests"));
    // R16 negatives keep their flat R1 finding but must not appear in
    // the reachability closure: `open_many`'s unwrap is dominated by
    // its is_some guard, and nothing hot reaches `cold_start`.
    for discharged in ["open_many", "cold_start"] {
        assert!(
            !report
                .findings
                .iter()
                .any(|f| f.rule == Rule::R16PanicReachable && f.function == discharged),
            "R16 must discharge {discharged:?}"
        );
    }
}

#[test]
fn r4_r5_findings_are_confirmed_reachable() {
    let report = workspace::scan(&fixture_root()).expect("fixture scan");
    for f in &report.findings {
        match f.rule {
            Rule::R4NarrowingCast | Rule::R5UnguardedIndex => {
                assert_eq!(
                    f.confirmed,
                    Some(true),
                    "R4/R5 findings sit beside an unguarded access {}:{}",
                    f.file,
                    f.line
                );
            }
            Rule::R8SecretLeak
            | Rule::R9DiscardedResult
            | Rule::R10SecretBranch
            | Rule::R11SecretIndex
            | Rule::R12VariableTimeOp
            | Rule::R13LockOrderCycle
            | Rule::R14RelaxedSyncFlag
            | Rule::R16PanicReachable
            | Rule::R17SecretLifecycle => {
                assert_eq!(
                    f.confirmed,
                    Some(true),
                    "flow findings are confirmed by construction {}:{}",
                    f.file,
                    f.line
                );
            }
            _ => assert_eq!(f.confirmed, None),
        }
    }
}
