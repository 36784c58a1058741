//! Per-rule fixture tests for the call-graph phase: every reachability
//! rule (R1, R2, R4) must fire on a known-bad workspace, stay silent on
//! the corresponding known-good one, and be suppressible by a reviewed
//! `[[allow]]` entry. These run through [`zg_lint::scan_sources`] — the
//! same full pipeline (lex → item model → link → reach → allow-filter)
//! the workspace scan uses, just over in-memory sources — so they also
//! pin which single rule owns a cross-file defect.

use zg_lint::{scan_sources, Config};

fn scan(srcs: &[(&str, &str)], cfg: &str) -> zg_lint::ScanResult {
    scan_sources(srcs, &Config::parse(cfg).expect("fixture config parses"))
}

fn rules(result: &zg_lint::ScanResult) -> Vec<&'static str> {
    result.violations.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------- R1 ---

const R1_CFG: &str = "[r1]\nroots = [\"Server::tick\"]\n";

#[test]
fn r1_bad_panic_reachable_from_root_across_files() {
    let result = scan(
        &[
            (
                "crates/s/src/server.rs",
                "pub struct Server;\nimpl Server { pub fn tick(&mut self) { dispatch(); } }\n",
            ),
            (
                "crates/s/src/work.rs",
                "pub fn dispatch() { step(); }\npub fn step(v: &[u32]) -> u32 { v[0] }\n",
            ),
        ],
        R1_CFG,
    );
    assert_eq!(rules(&result), vec!["R1"]);
    let v = &result.violations[0];
    assert!(
        v.message.contains("Server::tick -> dispatch -> step"),
        "{}",
        v.message
    );
}

#[test]
fn r1_good_justified_site_and_unreachable_panic() {
    let result = scan(
        &[
            (
                "crates/s/src/server.rs",
                "pub struct Server;\nimpl Server { pub fn tick(&mut self) { dispatch(); } }\n",
            ),
            (
                "crates/s/src/work.rs",
                "pub fn dispatch(v: &[u32]) -> u32 {\n    // INVARIANT: caller guarantees v is non-empty.\n    v[0]\n}\npub fn cold(v: &[u32]) -> u32 { v[1] }\n",
            ),
        ],
        R1_CFG,
    );
    // The justified index passes, and `cold`'s index is not reachable
    // from the root, so R1 stays quiet about it.
    assert_eq!(rules(&result), Vec::<&str>::new());
}

#[test]
fn r1_allowlisted_kernel_crate_index_is_suppressed() {
    let cfg = "\
[r1]
roots = [\"Server::tick\"]

[[allow]]
rule = \"R1\"
path = \"crates/kernel\"
reason = \"inner loops index by shape invariants\"
";
    let result = scan(
        &[
            (
                "crates/s/src/server.rs",
                "pub struct Server;\nimpl Server { pub fn tick(&mut self) { gemm(); } }\n",
            ),
            (
                "crates/kernel/src/gemm.rs",
                "pub fn gemm(a: &[f32]) -> f32 { a[0] }\n",
            ),
        ],
        cfg,
    );
    assert_eq!(rules(&result), Vec::<&str>::new());
    assert!(
        !result.allowed.is_empty(),
        "the index finding must be counted as allowed"
    );
}

#[test]
fn p1_owns_panics_reachable_from_a_serve_root() {
    // A panic on the serve path is P1's finding, like any unjustified
    // panic in library code; R1 only adds the slice indexes beside it.
    let result = scan(
        &[
            (
                "crates/s/src/server.rs",
                "pub struct Server;\nimpl Server { pub fn tick(&mut self) { dispatch(); } }\n",
            ),
            (
                "crates/s/src/work.rs",
                "pub fn dispatch(o: Option<u32>) -> u32 { step(o) }\n\
                 pub fn step(o: Option<u32>) -> u32 {\n\
                     if o == Some(0) { unimplemented!() }\n\
                     o.unwrap()\n\
                 }\n",
            ),
        ],
        R1_CFG,
    );
    assert_eq!(rules(&result), vec!["P1", "P1"]);
    assert!(result.violations[0].message.contains("unimplemented!"));
    assert!(result.violations[1].message.contains(".unwrap()"));
}

// ---------------------------------------------------------------- R2 ---

const R2_SRC_BAD: &str = "\
pub struct Tensor;
impl Tensor { pub fn from_op() -> Tensor { Tensor } }
pub fn no_grad() {}
pub fn generate() { no_grad(); decode(); }
pub fn generate_raw() { decode(); }
fn decode() { Tensor::from_op(); }
";

#[test]
fn r2_bad_unguarded_root_builds_tape() {
    let cfg = "[r2]\nentry_prefixes = [\"generate\"]\n";
    let result = scan(&[("crates/m/src/lm.rs", R2_SRC_BAD)], cfg);
    assert_eq!(rules(&result), vec!["R2"]);
    assert!(result.violations[0].message.contains("generate_raw"));
    // The emitted manifest carries both discovered roots either way.
    let names: Vec<&str> = result
        .manifest
        .iter()
        .map(|e| e.function.as_str())
        .collect();
    assert_eq!(names, vec!["generate", "generate_raw"]);
}

#[test]
fn r2_good_every_tape_path_is_guarded() {
    let src = "\
pub struct Tensor;
impl Tensor { pub fn from_op() -> Tensor { Tensor } }
pub fn no_grad() {}
pub fn evaluate_item() { score(); }
fn score() { no_grad(); Tensor::from_op(); }
";
    let cfg = "[r2]\nentry_prefixes = [\"evaluate_\"]\n";
    let result = scan(&[("crates/m/src/lm.rs", src)], cfg);
    assert_eq!(rules(&result), Vec::<&str>::new());
}

#[test]
fn r2_allowlisted_legacy_baseline_is_suppressed() {
    let cfg = "\
[r2]
entry_prefixes = [\"generate\"]

[[allow]]
rule = \"R2\"
path = \"crates/m/src/lm.rs\"
reason = \"legacy benchmark baseline measures the tape-building path on purpose\"
";
    let result = scan(&[("crates/m/src/lm.rs", R2_SRC_BAD)], cfg);
    assert_eq!(rules(&result), Vec::<&str>::new());
}

// ---------------------------------------------------------------- D2 ---

#[test]
fn d2_flags_the_clock_read_a_cross_crate_caller_reaches() {
    let srcs = [
        ("crates/a/src/lib.rs", "pub fn pipeline() { stamp(); }\n"),
        (
            "crates/b/src/clock.rs",
            "pub fn stamp() -> u64 { let _t = std::time::Instant::now(); 0 }\n",
        ),
    ];
    // The read itself is the one finding, wherever its callers live.
    let result = scan(&srcs, "");
    assert_eq!(rules(&result), vec!["D2"]);
    assert_eq!(result.violations[0].path, "crates/b/src/clock.rs");
}

// ---------------------------------------------------------------- R4 ---

const R4_SRC_BAD: &str = "\
#[target_feature(enable = \"avx2\")]
// SAFETY: caller must have verified AVX2 support.
unsafe fn mk8x8(p: *const f32) {}
// SAFETY: p is valid for reads.
pub fn ungated(p: *const f32) { unsafe { mk8x8(p) } }
";

#[test]
fn r4_bad_ungated_safe_caller() {
    let result = scan(&[("crates/t/src/simd.rs", R4_SRC_BAD)], "");
    assert_eq!(rules(&result), vec!["R4"]);
    assert!(result.violations[0].message.contains("ungated"));
}

#[test]
fn r4_good_cpuid_gate_before_dispatch() {
    let src = "\
pub fn detect() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }
#[target_feature(enable = \"avx2\")]
// SAFETY: caller must have verified AVX2 support.
unsafe fn mk8x8(p: *const f32) {}
// SAFETY: gated on runtime AVX2 detection just above.
pub fn gated(p: *const f32) { if detect() { unsafe { mk8x8(p) } } }
";
    let result = scan(&[("crates/t/src/simd.rs", src)], "");
    assert_eq!(rules(&result), Vec::<&str>::new());
}

#[test]
fn r4_allowlisted_dispatch_is_suppressed() {
    let cfg = "\
[[allow]]
rule = \"R4\"
path = \"crates/t/src/simd.rs\"
reason = \"binary-local dispatch, gate lives in main\"
";
    let result = scan(&[("crates/t/src/simd.rs", R4_SRC_BAD)], cfg);
    assert_eq!(rules(&result), Vec::<&str>::new());
}

// ---------------------------------------------------------------- A1 ---

#[test]
fn a1_stale_allow_entry_is_flagged_at_its_config_line() {
    let cfg = "\
[[allow]]
rule = \"D1\"
path = \"crates/nowhere\"
reason = \"matches nothing any more\"
";
    let result = scan(&[("crates/a/src/lib.rs", "pub fn f() {}\n")], cfg);
    assert_eq!(rules(&result), vec!["A1"]);
    let v = &result.violations[0];
    assert_eq!(v.path, "lint.toml");
    assert_eq!(v.line, 1, "A1 must point at the [[allow]] entry's line");
    assert!(v.message.contains("crates/nowhere"));
}

#[test]
fn a1_matching_allow_entries_stay_quiet() {
    let cfg = "\
[[allow]]
rule = \"D1\"
path = \"crates/a\"
reason = \"membership-only set\"
";
    let result = scan(
        &[(
            "crates/a/src/lib.rs",
            "use std::collections::HashSet;\npub fn f() -> HashSet<u32> { HashSet::new() }\n",
        )],
        cfg,
    );
    assert_eq!(rules(&result), Vec::<&str>::new());
    assert!(!result.allowed.is_empty());
}

// ------------------------------------------------- determinism (walk) ---

#[test]
fn scan_is_byte_identical_across_shuffled_input_order() {
    let srcs: Vec<(&str, &str)> = vec![
        (
            "crates/s/src/server.rs",
            "pub struct Server;\nimpl Server { pub fn tick(&mut self) { dispatch(); } }\n",
        ),
        (
            "crates/s/src/work.rs",
            "pub fn dispatch() { step(); }\npub fn step(v: &[u32]) -> u32 { v[0] }\n",
        ),
        (
            "crates/m/src/lm.rs",
            "pub struct Tensor;\nimpl Tensor { pub fn from_op() -> Tensor { Tensor } }\npub fn no_grad() {}\npub fn generate() { decode(); }\nfn decode() { Tensor::from_op(); }\n",
        ),
        (
            "crates/b/src/clock.rs",
            "pub fn stamp() -> u64 { let _t = std::time::Instant::now(); 0 }\n",
        ),
    ];
    let cfg = Config::parse(
        "[r1]\nroots = [\"Server::tick\"]\n\n[r2]\nentry_prefixes = [\"generate\"]\n",
    )
    .expect("config");

    // Three walk orders, including reversed and an interleaved rotation.
    let forward = scan_sources(&srcs, &cfg);
    let reversed: Vec<_> = srcs.iter().rev().cloned().collect();
    let rotated: Vec<_> = srcs[2..].iter().chain(&srcs[..2]).cloned().collect();
    let b = scan_sources(&reversed, &cfg);
    let c = scan_sources(&rotated, &cfg);

    for other in [&b, &c] {
        assert_eq!(forward.files, other.files);
        assert_eq!(forward.violations, other.violations);
        assert_eq!(forward.manifest, other.manifest);
    }
    let ja = zg_lint::report::graph_json(&forward);
    let jb = zg_lint::report::graph_json(&b);
    let jc = zg_lint::report::graph_json(&c);
    assert_eq!(ja, jb, "graph JSON must not depend on walk order");
    assert_eq!(ja, jc, "graph JSON must not depend on walk order");

    // And the ordering contract itself: (path, line, rule) ascending.
    let keys: Vec<_> = forward
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "violations must be sorted by (path, line, rule)"
    );
}
