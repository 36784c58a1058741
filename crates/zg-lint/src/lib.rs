//! `zg-lint`: the workspace invariant checker.
//!
//! The parallel TracSeq engine and the SIMD GEMM fast path are pinned
//! bit-identical to their reference implementations; the KS/pruning
//! numbers in the paper reproduction depend on stable rankings. Those
//! guarantees die silently the first time a result-affecting `HashMap`
//! iteration or an unseeded RNG slips in — so the invariants are
//! machine-checked here, one rule per invariant. Phase 0 of a two-phase
//! engine runs the lexical families (see [`rules`]):
//!
//! * **D1** — determinism: no `HashMap`/`HashSet` in library code.
//! * **D2** — determinism: no wall-clock / OS entropy in library code.
//! * **P1** — panic-freedom: no unjustified `unwrap`/`expect`/`panic!`
//!   family call in library code.
//! * **U1** — unsafe hygiene: every `unsafe` carries a `// SAFETY:` note.
//!
//! Phase 1 parses every file into a lightweight item model ([`model`]);
//! phase 2 links a workspace call graph ([`graph`]) and runs the
//! properties only a call graph can see ([`reach`]):
//!
//! * **R1** — index safety: no unjustified slice index reachable from
//!   the serve roots.
//! * **R2** — no_grad domination: auto-discovered inference roots must
//!   be guarded on every tape-reaching path. The discovered set is
//!   emitted into `results/lint_graph.json`, its one committed copy,
//!   which CI re-emits and diffs.
//! * **R4** — unsafe propagation: `#[target_feature]` callees require
//!   a runtime CPUID gate or an `unsafe` contract.
//! * **R5** — no unreached code: every plain `pub fn` in a library
//!   `src/` is reached from a binary, bench, example, test or perfbench
//!   source (a crate's own unit tests do not count).
//! * **A1** — allowlist hygiene: stale `[[allow]]` entries are flagged.
//!
//! The scanner is a hand-rolled lexer (no `syn`; the build box has no
//! network) that strips comments/strings and tracks `#[cfg(test)]` /
//! `mod tests` scopes so rules only see non-test library code —
//! `tests/`, `benches/`, and `examples/` directories (the workspace's
//! own and every crate's) and `perfbench/src` are walked too, wholesale
//! as test scope: they are R5's roots. Rules are suppressed per file via
//! `lint.toml` allow entries, each of which must carry a written reason.
//! Every finding is an error. The same pass runs three
//! ways: the `zg-lint` binary (CI gate), the `workspace_clean`
//! integration test (tier-1 `cargo test` gate), and
//! [`engine::scan_source`] / [`engine::scan_sources`] for fixture tests.

pub mod config;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod reach;
pub mod report;
pub mod rules;

pub use config::Config;
pub use engine::{
    find_workspace_root, is_test_path, scan_source, scan_sources, scan_workspace, ScanResult,
};
pub use graph::CallGraph;
pub use rules::{Violation, RULE_IDS};
