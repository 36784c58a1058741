//! Per-rule fixture tests: every rule family must fire on a known-bad
//! snippet and stay silent on the corresponding known-good one. These
//! run through [`zg_lint::scan_source`], the same entry the engine uses
//! per file, so they exercise lexing + rules + allowlist filtering
//! end-to-end on in-memory sources.

use zg_lint::{scan_source, Config};

fn rules_for(src: &str) -> Vec<&'static str> {
    scan_source("crates/zg-demo/src/lib.rs", src, &Config::default())
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

// ---------------------------------------------------------------- D1 ---

#[test]
fn d1_bad_hashmap_in_library_code() {
    let src = "use std::collections::HashMap;\n\
               pub fn f() -> HashMap<u32, u32> { HashMap::new() }\n";
    let rules = rules_for(src);
    assert!(!rules.is_empty());
    assert!(rules.iter().all(|&r| r == "D1"), "{rules:?}");
}

#[test]
fn d1_good_btreemap_and_lookalikes() {
    let src = "use std::collections::BTreeMap;\n\
               pub struct FxHashMapLike;\n\
               pub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
    assert!(rules_for(src).is_empty());
}

// ---------------------------------------------------------------- D2 ---

#[test]
fn d2_bad_wall_clock_and_entropy() {
    let src = "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n\
               pub fn g() { let _ = rand::thread_rng(); }\n\
               pub fn h() { let _ = std::time::SystemTime::now(); }\n";
    let rules = rules_for(src);
    assert_eq!(rules.len(), 3, "{rules:?}");
    assert!(rules.iter().all(|&r| r == "D2"));
}

#[test]
fn d2_good_seeded_rng() {
    let src = "use rand::SeedableRng;\n\
               pub fn f(seed: u64) -> rand::rngs::StdRng { rand::rngs::StdRng::seed_from_u64(seed) }\n";
    assert!(rules_for(src).is_empty());
}

#[test]
fn d2_trace_clock_allowlist_is_scoped_to_the_clock_module() {
    // Mirrors the real lint.toml entry: zg-trace's wall_clock() is the one
    // reviewed real-clock source; the same code anywhere else still fires.
    let cfg = Config::parse(
        "[[allow]]\n\
         rule = \"D2\"\n\
         path = \"crates/zg-trace/src/clock.rs\"\n\
         reason = \"the single reviewed real-clock source\"\n",
    )
    .expect("config parses");
    let src = "pub fn wall_clock() { let _ = std::time::Instant::now(); }\n";
    assert!(
        scan_source("crates/zg-trace/src/clock.rs", src, &cfg).is_empty(),
        "the clock module is allowlisted"
    );
    let elsewhere = scan_source("crates/zg-trace/src/tracer.rs", src, &cfg);
    assert!(
        elsewhere.iter().any(|v| v.rule == "D2"),
        "the allowlist must not leak beyond clock.rs: {elsewhere:?}"
    );
}

#[test]
fn d2_good_instrumented_callsites() {
    // The shape tracing instrumentation takes in library crates: spans,
    // counters, and injected clocks — no direct wall-clock reads.
    let src = "\
pub fn step(clock: &zg_trace::Clock) -> f64 {
    let _span = zg_trace::span(\"train.forward\");
    zg_trace::counter_add(\"train.microbatches\", 1.0);
    zg_trace::hist_record(\"gemm.mnk\", 64.0);
    clock()
}
";
    assert!(rules_for(src).is_empty());
}

// ---------------------------------------------------------------- P1 ---

#[test]
fn p1_bad_unjustified_panics() {
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
               pub fn g(x: Option<u32>) -> u32 { x.expect(\"set\") }\n\
               pub fn h() { panic!(\"boom\"); }\n\
               pub fn i() { unreachable!(); }\n\
               pub fn j() { todo!(); }\n\
               pub fn k() { unimplemented!(); }\n";
    let rules = rules_for(src);
    assert_eq!(rules.len(), 6, "{rules:?}");
    assert!(rules.iter().all(|&r| r == "P1"));
}

#[test]
fn p1_good_justified_or_fallible() {
    let src = "\
pub fn f(x: Option<u32>) -> u32 {
    // INVARIANT: caller checked is_some above.
    x.unwrap()
}
pub fn g(x: Option<u32>) -> u32 {
    x.expect(\"set\") // INVARIANT: construction always sets this
}
pub fn h(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}
pub fn i(x: Option<u32>) -> Result<u32, String> {
    x.ok_or_else(|| \"missing\".to_string())
}
";
    assert!(rules_for(src).is_empty());
}

#[test]
fn p1_justification_carries_across_comment_block() {
    // The INVARIANT tag may sit anywhere in the contiguous comment block
    // directly above the flagged line — but a code line breaks the chain.
    let good = "\
pub fn f(x: Option<u32>) -> u32 {
    // INVARIANT: x is Some here because new() always
    // populates it before any call site can observe f.
    x.unwrap()
}
";
    assert!(rules_for(good).is_empty());
    let bad = "\
pub fn f(x: Option<u32>) -> u32 {
    // INVARIANT: stale note about the line below
    let y = x;
    y.unwrap()
}
";
    assert_eq!(rules_for(bad), vec!["P1"]);
}

// ---------------------------------------------------------------- U1 ---

#[test]
fn u1_bad_bare_unsafe() {
    let src = "pub fn f(p: *const f32) -> f32 { unsafe { *p } }\n";
    assert_eq!(rules_for(src), vec!["U1"]);
}

#[test]
fn u1_good_safety_comment() {
    let src = "\
pub fn f(p: *const f32) -> f32 {
    // SAFETY: caller guarantees p is valid for reads and aligned.
    unsafe { *p }
}
";
    assert!(rules_for(src).is_empty());
}

// --------------------------------------------------- test-scope gating ---

#[test]
fn cfg_test_module_is_exempt_from_all_rules() {
    let src = "\
pub fn lib_code() -> u32 { 1 }

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        let _ = std::time::Instant::now();
        m.get(&0).unwrap();
        let p = &1.0f32 as *const f32;
        let _ = unsafe { *p };
    }
}
";
    assert!(rules_for(src).is_empty());
}

#[test]
fn violations_after_test_module_still_fire() {
    let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}

pub fn f(x: Option<u32>) -> u32 { x.unwrap() }
";
    assert_eq!(rules_for(src), vec!["P1"]);
}

// -------------------------------------------------- allowlist handling ---

#[test]
fn allowlist_suppresses_by_file_and_prefix() {
    let cfg = Config::parse(
        "[[allow]]\nrule = \"D1\"\npath = \"crates/zg-demo\"\nreason = \"membership-only\"\n",
    )
    .expect("valid config");
    let src = "use std::collections::HashMap;\n";
    // Covered by the directory prefix: suppressed.
    assert!(scan_source("crates/zg-demo/src/lib.rs", src, &cfg).is_empty());
    // Different crate: still fires.
    assert_eq!(
        scan_source("crates/zg-other/src/lib.rs", src, &cfg).len(),
        1
    );
    // Allow entry is per-rule: a D2 hit in the allowed path still fires.
    let d2 = "pub fn f() { let _ = std::time::Instant::now(); }\n";
    assert_eq!(scan_source("crates/zg-demo/src/lib.rs", d2, &cfg).len(), 1);
}

// ----------------------------------------------------- lexer edge cases ---

#[test]
fn raw_strings_hide_their_contents_from_rules() {
    // Tokens inside r#"..."# (including embedded quotes) are string
    // content, not code — neither D1 nor P1 may fire.
    let src = "pub fn f() -> &'static str {\n    r#\"HashMap::new() panic!(\"not code\") .unwrap()\"#\n}\n";
    assert_eq!(rules_for(src), Vec::<&str>::new());
}

#[test]
fn raw_string_terminator_restores_scanning() {
    // The token after the raw string closes must be visible again.
    let src = "pub fn f() {\n    let _s = r#\"quiet \"inner\" text\"#;\n    let _m = std::collections::HashMap::<u32, u32>::new();\n}\n";
    assert_eq!(rules_for(src), vec!["D1"]);
}

#[test]
fn nested_block_comments_balance() {
    // Rust block comments nest: the first */ closes the INNER comment
    // only. Everything up to the second */ is still comment text, and
    // code after it is scanned again.
    let src = "/* outer /* inner HashMap */ still comment .unwrap() */\npub fn f() { let _ = std::time::Instant::now(); }\n";
    assert_eq!(rules_for(src), vec!["D2"]);
}

#[test]
fn lifetimes_are_not_char_literals() {
    // A naive char-literal scanner would treat `'a` as an unterminated
    // char and swallow the rest of the file, hiding the HashMap.
    let src = "pub fn f<'a>(v: &'a [u32]) -> &'a [u32] {\n    let _m = std::collections::HashMap::<u32, u32>::new();\n    v\n}\n";
    assert_eq!(rules_for(src), vec!["D1"]);
}

#[test]
fn char_literals_hide_contents_but_terminate() {
    // A real char literal (even a quote character) is stripped as
    // content; scanning resumes after it.
    let src = "pub fn f() -> char {\n    let q = '\"';\n    let _m = std::collections::HashMap::<u32, u32>::new();\n    q\n}\n";
    assert_eq!(rules_for(src), vec!["D1"]);
}

#[test]
fn cfg_test_on_impl_block_relaxes_the_whole_impl() {
    let src = "\
pub struct Fixture;
#[cfg(test)]
impl Fixture {
    pub fn must(x: Option<u32>) -> u32 { x.unwrap() }
}
pub fn lib(x: Option<u32>) -> u32 { x.unwrap() }
";
    // Only the non-test `lib` fires.
    assert_eq!(rules_for(src), vec!["P1"]);
}
