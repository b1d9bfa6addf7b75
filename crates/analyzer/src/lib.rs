//! # genio-analyzer
//!
//! Self-hosted static security analysis for the GENIO workspace — the
//! correctness-tooling layer Lesson 7 of the paper says OSS SAST lacks
//! on custom stacks (noisy findings, no reachability linking), applied
//! to the platform itself as Cesarano et al.'s fog-hardening work
//! argues it must be.
//!
//! Pipeline, every stage std-only:
//!
//! 1. [`lexer`] — a lightweight Rust token scanner (comments, strings,
//!    lifetimes and raw literals handled; no full parser);
//! 2. [`rules`] — eighteen security/correctness rules (R1 abort paths,
//!    R2 non-constant-time secret comparisons, R3 missing
//!    `#![forbid(unsafe_code)]`, R4 narrowing parser casts, R5
//!    unguarded hot-path indexing, R6 debt markers, R7 raw timing, the
//!    interprocedural R8 secret-leak / R9 discarded-`Result`, the
//!    side-channel R10 secret branches / R11 secret indexing / R12
//!    variable-time ops, the concurrency R13 lock-order cycles /
//!    R14 relaxed sync flags, R15 dropped span guards, the
//!    path-sensitive R16 panic-freedom certification / R17 secret
//!    lifecycle, and the R18 diff/SARIF family), plus the line-scoped
//!    `// genio-analyzer: allow(R11, reason = "...")` suppression;
//! 3. [`cfg`] — intraprocedural control-flow scoping: every guard site
//!    gets a dominance scope (branch/loop/early-return aware), so guard
//!    discharge is per-path instead of flat;
//! 4. [`summary`] — a recursive-descent pass over the token stream that
//!    builds per-file function/item summaries (params, calls, sinks,
//!    discards, constants, allocation sizes, panic sites);
//! 5. [`callgraph`] — links summaries into a workspace-wide call graph;
//! 6. [`dataflow`] — the interprocedural walk: evaluates R8/R9 over the
//!    call graph and discharges R4/R5 findings whose bounds are provable
//!    across function boundaries (mask vs. known length, loop bound vs.
//!    allocation size, guards at every call site);
//! 7. [`sidechannel`] — the constant-time pass: taints secret-typed
//!    values through the R8 registry and flags R10/R11/R12 timing
//!    leaks, one interprocedural hop included;
//! 8. [`concurrency`] — the discipline pass: builds the workspace
//!    lock-acquisition graph for R13 cycles and classifies atomics as
//!    counters vs. sync flags for R14;
//! 9. [`panicfree`] — the R16 pass: call-graph closure from the declared
//!    hot-path entry points, flagging reachable panic sites whose guards
//!    do not dominate them;
//! 10. [`lifecycle`] — the R17 pass: secret collection-escape and
//!     missing-zeroize-in-teardown checks over the R8 type registry;
//! 11. [`cache`] — content-hash incremental cache
//!     (`genio-analyzer-cache/v4`, a positional binary file under
//!     `target/`, carrying the rule-set version hash so caches from
//!     older binaries self-invalidate) so warm re-scans skip
//!     lexing/summarising unchanged files and a one-file edit re-scans
//!     one file;
//! 12. [`baseline`] — `genio-analyzer/v1` JSON reports and the ratchet:
//!     committed findings are grandfathered, new ones fail
//!     `scripts/verify.sh`, and the baseline only ever shrinks;
//! 13. [`diff`] — diff-aware incremental scanning: `--diff <git-ref>`
//!     re-scans the base contents of changed files, diffs the finding
//!     multisets to report only what the change introduced, and exports
//!     `genio-analyzer-sarif/v1` for CI interop;
//! 14. [`workspace`] — walks every crate's `src/` tree (sharded across
//!     `std::thread` workers, instrumented with `genio-telemetry`
//!     spans), applies `allow(...)` suppressions, and assembles the
//!     report the CLI, the verify gate and the `analyzer` bench (E-A)
//!     consume.
//!
//! ```
//! use genio_analyzer::{rules, lexer};
//!
//! let tokens = lexer::tokenize("fn f(x: Option<u8>) -> u8 { x.unwrap() }");
//! let ann = rules::annotate(tokens);
//! let ctx = rules::FileContext { crate_name: "demo", rel_path: "demo.rs", file_name: "demo.rs" };
//! let (findings, _) = rules::scan_tokens(&ctx, &ann);
//! assert_eq!(findings[0].rule.id(), "R1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod callgraph;
pub mod cfg;
pub mod concurrency;
pub mod dataflow;
pub mod diff;
pub mod lexer;
pub mod lifecycle;
pub mod panicfree;
pub mod rules;
pub mod sidechannel;
pub mod summary;
pub mod workspace;
