//! Per-rule fixture tests for the call-graph phase: every reachability
//! rule (R1, R2, R4) must fire on a known-bad workspace, stay silent on
//! the corresponding known-good one, and be suppressible by a reviewed
//! `[[allow]]` entry. These run through [`zg_lint::scan_sources`] — the
//! same full pipeline (lex → item model → link → reach → allow-filter)
//! the workspace scan uses, just over in-memory sources — so they also
//! pin which single rule owns a cross-file defect. Each fixture calls
//! its library fns from a `tests/` root, as a real workspace does, so
//! R5 (unreached code) stays quiet unless a fixture is about R5.

use zg_lint::{scan_sources, Config};

fn scan(srcs: &[(&str, &str)], cfg: &str) -> zg_lint::ScanResult {
    scan_sources(srcs, &Config::parse(cfg).expect("fixture config parses"))
}

fn rules(result: &zg_lint::ScanResult) -> Vec<&'static str> {
    result.violations.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------- R1 ---

const R1_CFG: &str = "[r1]\nroots = [\"Server::tick\"]\n";

/// An integration test driving the fixture server.
const SERVER_ROOT: (&str, &str) = ("crates/s/tests/roots.rs", "fn t(s: Server) { s.tick(); }\n");

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
            SERVER_ROOT,
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
            (
                "crates/s/tests/roots.rs",
                "fn t(s: Server) { s.tick(); cold(&[0, 1]); }\n",
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
            SERVER_ROOT,
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
            SERVER_ROOT,
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

const R2_ROOT: (&str, &str) = (
    "crates/m/tests/roots.rs",
    "fn t() { generate(); generate_raw(); evaluate_item(); }\n",
);

#[test]
fn r2_bad_unguarded_root_builds_tape() {
    let cfg = "[r2]\nentry_prefixes = [\"generate\"]\n";
    let result = scan(&[("crates/m/src/lm.rs", R2_SRC_BAD), R2_ROOT], cfg);
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
    let result = scan(&[("crates/m/src/lm.rs", src), R2_ROOT], cfg);
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
    let result = scan(&[("crates/m/src/lm.rs", R2_SRC_BAD), R2_ROOT], cfg);
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
        ("crates/a/tests/roots.rs", "fn t() { pipeline(); }\n"),
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

const R4_ROOT: (&str, &str) = (
    "crates/t/tests/roots.rs",
    "fn t(p: *const f32) { ungated(p); gated(p); }\n",
);

#[test]
fn r4_bad_ungated_safe_caller() {
    let result = scan(&[("crates/t/src/simd.rs", R4_SRC_BAD), R4_ROOT], "");
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
    let result = scan(&[("crates/t/src/simd.rs", src), R4_ROOT], "");
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
    let result = scan(&[("crates/t/src/simd.rs", R4_SRC_BAD), R4_ROOT], cfg);
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
    let result = scan(
        &[
            ("crates/a/src/lib.rs", "pub fn f() {}\n"),
            ("crates/a/tests/roots.rs", "fn t() { f(); }\n"),
        ],
        cfg,
    );
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
        &[
            (
                "crates/a/src/lib.rs",
                "use std::collections::HashSet;\npub fn f() -> HashSet<u32> { HashSet::new() }\n",
            ),
            ("crates/a/tests/roots.rs", "fn t() { f(); }\n"),
        ],
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

// ---------------------------------------------------------------- R5 ---
//
// R5 may miss dead code but must never flag live code: each way the
// linker could miss a use gets a fixture whose use must count.

fn r5_findings(result: &zg_lint::ScanResult) -> Vec<String> {
    result
        .violations
        .iter()
        .filter(|v| v.rule == "R5")
        .map(|v| format!("{}:{}", v.path, v.line))
        .collect()
}

#[test]
fn r5_flags_a_pub_fn_no_root_reaches_and_its_dead_callees() {
    let result = scan(
        &[
            (
                "crates/a/src/lib.rs",
                "pub fn used() {}\npub fn dead() { dead_too(); }\npub fn dead_too() {}\n",
            ),
            ("crates/a/src/bin/tool.rs", "fn main() { used(); }\n"),
        ],
        "",
    );
    assert_eq!(
        r5_findings(&result),
        vec!["crates/a/src/lib.rs:2", "crates/a/src/lib.rs:3"]
    );
    assert!(result.violations[0].message.contains("`dead`"));
}

#[test]
fn r5_fn_named_as_a_value_is_reached() {
    // `.map(to_sample)`, `.and_then(Json::as_u64)` and
    // `.or_insert_with(Hist::default_edges)` call their fns without a
    // call site the linker sees.
    let lib = "\
pub struct Json;
impl Json {
    pub fn as_u64(&self) -> Option<u64> { None }
}
pub struct Hist;
impl Hist {
    pub fn default_edges() -> Vec<f64> { Vec::new() }
}
pub fn to_sample(x: u32) -> u32 { x }
pub fn pipeline(xs: Vec<u32>, v: Option<Json>, m: Map) {
    let _ = xs.into_iter().map(to_sample);
    let _ = v.and_then(Json::as_u64);
    m.entry(1).or_insert_with(Hist::default_edges);
}
";
    let result = scan(
        &[
            ("crates/z/src/lib.rs", lib),
            (
                "crates/z/tests/it.rs",
                "fn t() { pipeline(vec![], None, m); }\n",
            ),
        ],
        "",
    );
    assert_eq!(r5_findings(&result), Vec::<String>::new());
}

#[test]
fn r5_static_and_thread_local_initializers_are_roots() {
    let lib = "\
thread_local! {
    static KERNEL: Cell<Kernel> = Cell::new(default_kernel());
}
static BASE: u32 = base();
pub fn default_kernel() -> Kernel { Kernel }
pub const fn base() -> u32 { 1 }
";
    let result = scan(&[("crates/t/src/matmul.rs", lib)], "");
    assert_eq!(r5_findings(&result), Vec::<String>::new());
}

#[test]
fn r5_calls_inside_proptest_bodies_are_reached() {
    let lib = "\
pub struct SimOutcome;
impl SimOutcome {
    pub fn served_ids(&self) -> Vec<u64> { Vec::new() }
}
pub fn simulate(n: usize) -> SimOutcome { SimOutcome }
pub fn arb_traffic() -> Traffic { Traffic }
";
    let test = "\
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn conservation(n in 0..5usize, traffic in arb_traffic()) {
        let out = simulate(n);
        prop_assert!(out.served_ids().len() <= n);
    }
}
";
    let result = scan(
        &[
            ("crates/s/src/sim.rs", lib),
            ("crates/s/tests/scheduler_sim.rs", test),
        ],
        "",
    );
    assert_eq!(r5_findings(&result), Vec::<String>::new());
}

#[test]
fn r5_std_named_method_on_an_untyped_receiver_reaches_every_namesake() {
    // `v.get("kind")` on a `Json` the linker cannot type: R5 links it to
    // every workspace `get`, while R1 keeps the std-name exception and
    // does not follow it into `Json::get`'s index.
    let lib = "\
pub struct Json;
impl Json {
    pub fn get(&self, k: &str, v: &[u8]) -> u8 { v[0] }
}
pub struct Server;
impl Server {
    pub fn tick(&mut self) { let v = parse(); v.get(\"kind\"); }
}
";
    let result = scan(
        &[
            ("crates/s/src/lib.rs", lib),
            ("crates/s/tests/it.rs", "fn t(s: Server) { s.tick(); }\n"),
        ],
        R1_CFG,
    );
    assert_eq!(rules(&result), Vec::<&str>::new());
}

#[test]
fn r5_trait_method_bodies_are_roots() {
    let lib = "\
pub struct Lease;
impl Drop for Lease {
    fn drop(&mut self) { release(); }
}
pub trait Engine {
    fn warm(&self) { warm_up(); }
}
pub fn release() {}
pub fn warm_up() {}
";
    let result = scan(&[("crates/m/src/prefix.rs", lib)], "");
    assert_eq!(r5_findings(&result), Vec::<String>::new());
}

#[test]
fn r5_fn_called_only_by_its_own_crates_unit_tests_is_flagged() {
    let lib = "\
pub fn only_tested() {}
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() { only_tested(); }
}
";
    let result = scan(&[("crates/a/src/lib.rs", lib)], "");
    assert_eq!(r5_findings(&result), vec!["crates/a/src/lib.rs:1"]);
}

#[test]
fn r5_fn_called_by_another_crates_unit_test_is_reached() {
    let caller = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { zg_a::helper(); }
}
";
    let result = scan(
        &[
            ("crates/a/src/lib.rs", "pub fn helper() {}\n"),
            ("crates/b/src/lib.rs", caller),
        ],
        "",
    );
    assert_eq!(r5_findings(&result), Vec::<String>::new());
}

#[test]
fn r5_fn_whose_only_caller_is_perfbench_is_reached() {
    let result = scan(
        &[
            ("crates/z/src/pruning.rs", "pub fn select_round() {}\n"),
            ("perfbench/src/tune.rs", "fn round() { select_round(); }\n"),
        ],
        "",
    );
    assert_eq!(r5_findings(&result), Vec::<String>::new());
}

#[test]
fn r5_checks_plain_pub_fns_only() {
    let lib = "\
pub(crate) fn internal() {}
pub(super) fn parent_only() {}
fn private() {}
pub fn exported() {}
";
    let result = scan(&[("crates/a/src/lib.rs", lib)], "");
    assert_eq!(r5_findings(&result), vec!["crates/a/src/lib.rs:4"]);
}
