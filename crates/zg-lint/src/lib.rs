//! `zg-lint`: the workspace invariant checker.
//!
//! The parallel TracSeq engine and the SIMD GEMM fast path are pinned
//! bit-identical to their reference implementations; the KS/pruning
//! numbers in the paper reproduction depend on stable rankings. Those
//! guarantees die silently the first time a result-affecting `HashMap`
//! iteration or an unseeded RNG slips in — so the invariants are
//! machine-checked here, as five rule families (see [`rules`]):
//!
//! * **D1** — determinism: no `HashMap`/`HashSet` in library code.
//! * **D2** — determinism: no wall-clock / OS entropy in library code.
//! * **P1** — panic-freedom: no unjustified `unwrap`/`expect`/`panic!`.
//! * **U1** — unsafe hygiene: every `unsafe` carries a `// SAFETY:` note.
//! * **G1** — no-grad coverage: manifest-listed inference entry points
//!   run under `no_grad`.
//!
//! Those lexical families are phase 0 of a two-phase engine. Phase 1
//! parses every file into a lightweight item model ([`model`]); phase 2
//! links a workspace call graph ([`graph`]) and runs interprocedural
//! reachability rules over it ([`reach`]):
//!
//! * **R1** — panic-reachability: nothing reachable from the serve
//!   roots may panic or index unjustified.
//! * **R2** — no_grad domination: auto-discovered inference roots must
//!   be guarded on every tape-reaching path; the discovered set *is*
//!   the G1 manifest, emitted into `lint_graph.json` and diffed
//!   against `lint.toml` (rule G1) so it cannot rot.
//! * **R3** — interprocedural D2: wall-clock / entropy taint through
//!   calls, three crates away if need be.
//! * **R4** — unsafe propagation: `#[target_feature]` callees require
//!   a runtime CPUID gate or an `unsafe` contract.
//! * **A1** — allowlist hygiene: stale `[[allow]]` entries are flagged.
//!
//! The scanner is a hand-rolled lexer (no `syn`; the build box has no
//! network) that strips comments/strings and tracks `#[cfg(test)]` /
//! `mod tests` scopes so rules only see non-test library code —
//! `tests/`, `benches/`, and `examples/` directories are walked too,
//! wholesale as test scope. Rules are suppressed per file via
//! `lint.toml` allow entries, each of which must carry a written reason
//! (and may be scoped to one finding `kind`). The same pass runs three
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
