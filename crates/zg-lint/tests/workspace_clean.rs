//! The lint pass over the real workspace, as a `#[test]` — this puts the
//! invariant checker inside the tier-1 `cargo test` gate (the `zg-lint`
//! binary run in CI is the same pass with a CLI front-end).

use std::path::Path;

use zg_lint::{find_workspace_root, scan_workspace, Config};

fn workspace() -> (std::path::PathBuf, Config) {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(start).expect("workspace root above zg-lint");
    let cfg_path = root.join("lint.toml");
    let text = std::fs::read_to_string(&cfg_path).expect("lint.toml at workspace root");
    let cfg = Config::parse(&text).expect("lint.toml parses");
    (root, cfg)
}

#[test]
fn workspace_has_no_lint_violations() {
    let (root, cfg) = workspace();
    let result = scan_workspace(&root, &cfg).expect("scan succeeds");
    assert!(
        result.files.len() > 50,
        "scan saw only {} files — scan roots misconfigured?",
        result.files.len()
    );
    assert!(
        result.violations.is_empty(),
        "workspace must stay lint-clean:\n{}",
        zg_lint::report::render(&result, Some(&root))
    );
}

#[test]
fn committed_manifest_matches_the_tree() {
    // The inference-root manifest R2 discovers has one committed copy:
    // `results/lint_graph.json`. Renaming, adding or deleting a root
    // without re-emitting that file (`zg-lint --emit
    // results/lint_graph.json`) fails here.
    let (root, cfg) = workspace();
    let text = std::fs::read_to_string(root.join("results/lint_graph.json"))
        .expect("committed results/lint_graph.json");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("lint_graph.json parses");
    let committed: Vec<(String, String)> = doc["manifest"]
        .as_array()
        .expect("lint_graph.json has a manifest array")
        .iter()
        .map(|e| {
            let field = |k: &str| e[k].as_str().expect("string field").to_string();
            (field("file"), field("function"))
        })
        .collect();
    let result = scan_workspace(&root, &cfg).expect("scan succeeds");
    let emitted: Vec<(String, String)> = result
        .manifest
        .iter()
        .map(|e| (e.file.clone(), e.function.clone()))
        .collect();
    assert_eq!(
        committed, emitted,
        "results/lint_graph.json is stale: re-emit it with `zg-lint --emit results/lint_graph.json`"
    );
    assert!(
        emitted.len() >= 15,
        "expected the discovered inference roots, found {}",
        emitted.len()
    );
    assert!(
        emitted.iter().any(|(_, f)| f.contains("::")),
        "manifest entries must use qualified names"
    );
}

#[test]
fn walk_covers_test_dirs_and_skips_build_output() {
    let (root, cfg) = workspace();
    let result = scan_workspace(&root, &cfg).expect("scan succeeds");
    // tests/, benches/, and examples/ directories are part of the walk
    // (in test scope), so the file-set stays honest.
    for marker in ["/tests/", "/benches/", "/examples/"] {
        assert!(
            result.files.iter().any(|f| f.contains(marker)),
            "walk must include {marker} files, got {} files",
            result.files.len()
        );
    }
    // R5's roots outside `crates/`: the benchmark, the umbrella crate's
    // integration tests and its examples. Losing one of these directories
    // must fail here, not turn every use it holds into an R5 finding.
    for root in [
        "perfbench/src/main.rs",
        "tests/end_to_end.rs",
        "examples/quickstart.rs",
    ] {
        assert!(
            result.files.iter().any(|f| f == root),
            "walk must read {root}"
        );
    }
    for banned in ["target/", "vendor/", "fixtures/"] {
        assert!(
            result.files.iter().all(|f| !f.contains(banned)),
            "walk must skip {banned}"
        );
    }
    // And the graph phase actually linked something non-trivial.
    assert!(result.stats.nodes > 500, "nodes = {}", result.stats.nodes);
    assert!(result.stats.edges > 1000, "edges = {}", result.stats.edges);
}

#[test]
fn report_is_byte_identical_across_runs() {
    let (root, cfg) = workspace();
    let a = scan_workspace(&root, &cfg).expect("first scan");
    let b = scan_workspace(&root, &cfg).expect("second scan");
    assert_eq!(a.files, b.files);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.allowed, b.allowed);
    let ra = zg_lint::report::render(&a, Some(&root));
    let rb = zg_lint::report::render(&b, Some(&root));
    assert_eq!(ra, rb, "rendered reports must be byte-identical");
    let ja = zg_lint::report::to_json(&a).to_string();
    let jb = zg_lint::report::to_json(&b).to_string();
    assert_eq!(ja, jb, "JSON summaries must be byte-identical");
    let ga = zg_lint::report::graph_json(&a);
    let gb = zg_lint::report::graph_json(&b);
    assert_eq!(ga, gb, "emitted graph JSON must be byte-identical");
    assert_eq!(a.manifest, b.manifest);
}
