//! The reachability rule families run over the linked call graph.
//!
//! | id | invariant |
//! |----|-----------|
//! | R1 | no unjustified slice index reachable from the serve roots (`[r1] roots` in lint.toml) |
//! | R2 | every auto-discovered inference root (`[r2] entry_prefixes` match + reaches `Tensor::from_op`) is dominated by a `no_grad` guard on every tape-reaching path |
//! | R4 | every fn calling a `#[target_feature]` `unsafe fn` (transitively through `unsafe` wrappers) is CPUID-gated or `unsafe` itself |
//! | R5 | every plain `pub fn` in a library `src/` is reached from a root: a binary (`src/bin/`, `main.rs`), bench, example, integration test or `perfbench/src` fn, a trait method, an item-level initializer, or a unit test of *another* crate |
//!
//! Panics and wall-clock reads need no graph rule: the lexical P1 and D2
//! flag every such site in library code, whether a root reaches it or not.
//!
//! R2 also *emits* the inference-root manifest — the sorted `(file,
//! qualified function)` set of discovered roots. Its one committed copy is
//! `results/lint_graph.json`, which CI re-emits and diffs.

use crate::config::Config;
use crate::engine::is_test_path;
use crate::graph::CallGraph;
use crate::model::CallKind;
use crate::rules::Violation;

/// One discovered inference root: the `function` (`Type::name` for
/// methods, bare name for free fns) defined in `file`.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// Qualified function name.
    pub function: String,
}

/// Call-graph shape counters, exported into `lint_graph.json`.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    /// Non-test function nodes.
    pub nodes: usize,
    /// Directed call edges.
    pub edges: usize,
    /// Call sites resolved to at least one workspace fn.
    pub resolved_calls: usize,
    /// Call sites with no workspace target.
    pub external_calls: usize,
    /// Nodes reachable from the R1 serve roots.
    pub r1_reachable: usize,
    /// Auto-discovered R2 inference roots.
    pub r2_roots: usize,
    /// `#[target_feature]` unsafe fns (R4 sources).
    pub r4_dangerous: usize,
    /// Plain `pub` library fns R5 checks.
    pub r5_checked: usize,
    /// Nodes reached from R5's roots.
    pub r5_reached: usize,
}

/// Output of the phase-2 analysis.
#[derive(Debug, Default)]
pub struct ReachOutcome {
    /// Findings before allowlist filtering, sorted.
    pub findings: Vec<Violation>,
    /// The emitted manifest: discovered inference roots, sorted by
    /// `(file, function)`.
    pub manifest: Vec<ManifestEntry>,
    pub stats: GraphStats,
}

/// Run R1, R2, R4 and R5 over a linked graph.
pub fn analyze(graph: &CallGraph, config: &Config) -> ReachOutcome {
    let mut out = ReachOutcome {
        stats: GraphStats {
            nodes: graph.nodes.len(),
            edges: graph.edge_count(),
            resolved_calls: graph.resolved_calls,
            external_calls: graph.external_calls,
            ..GraphStats::default()
        },
        ..ReachOutcome::default()
    };
    check_r1(graph, config, &mut out);
    check_r2(graph, config, &mut out);
    check_r4(graph, &mut out);
    check_r5(graph, &mut out);
    out.findings.sort();
    out
}

fn finding(rule: &'static str, path: &str, line: usize, message: String) -> Violation {
    Violation {
        path: path.to_string(),
        line,
        col: 1,
        rule,
        message,
    }
}

/// R1: index safety of the serve hot path. Every unjustified slice-index
/// site in any fn reachable from the configured roots is a finding, with
/// the shortest call chain as a witness.
fn check_r1(graph: &CallGraph, config: &Config, out: &mut ReachOutcome) {
    if config.r1_roots.is_empty() {
        return;
    }
    let mut roots: Vec<usize> = Vec::new();
    for name in &config.r1_roots {
        let ids = graph.find(name);
        if ids.is_empty() {
            out.findings.push(finding(
                "R1",
                "lint.toml",
                1,
                format!(
                    "[r1] root `{name}` does not name any workspace function — \
                     update lint.toml or the code"
                ),
            ));
        }
        roots.extend(ids);
    }
    let reach = graph.reachable(&roots);
    out.stats.r1_reachable = reach.len();
    for &id in &reach {
        let n = &graph.nodes[id];
        let chain = graph
            .witness_path(&roots, id)
            .map(|p| graph.render_chain(&p))
            .unwrap_or_default();
        for site in n.item.index_sites.iter().filter(|s| !s.justified) {
            out.findings.push(finding(
                "R1",
                &n.path,
                site.line + 1,
                format!(
                    "slice index reachable from serve root ({chain}): indexing \
                     can panic on the hot path — use `get(..)`, justify with \
                     `// INVARIANT:`, or add a reviewed R1 allow"
                ),
            ));
        }
    }
}

/// Does this node's body call `from_op` (the autograd tape constructor)?
fn touches_tape(graph: &CallGraph, id: usize) -> bool {
    graph.nodes[id].item.calls.iter().any(|c| match &c.kind {
        CallKind::Free(n) => n == "from_op",
        CallKind::Method { name, .. } | CallKind::Path { name, .. } => name == "from_op",
    })
}

/// R2: no_grad domination of inference roots. Discovery: a non-test fn
/// whose name starts with an `[r2] entry_prefixes` prefix and that can
/// reach `Tensor::from_op` is an inference root. Verification: a root
/// violates when some tape-reaching path avoids every guard (a fn whose
/// body calls `no_grad`). The discovered set is the emitted manifest.
fn check_r2(graph: &CallGraph, config: &Config, out: &mut ReachOutcome) {
    if config.r2_prefixes.is_empty() {
        return;
    }
    let n = graph.nodes.len();
    let touches: Vec<bool> = (0..n).map(|id| touches_tape(graph, id)).collect();
    let guard: Vec<bool> = graph.nodes.iter().map(|nd| nd.item.calls_no_grad).collect();

    // reaches_tape: forward closure over all edges (guards included —
    // discovery asks "does inference happen here", not "is it guarded").
    let mut reaches = touches.clone();
    fixpoint(graph, &mut reaches, |_| true);

    // utr: "unguarded-tape-reachable" — can reach `from_op` without
    // passing through any guard node. Guards never become UTR and never
    // propagate it.
    let mut utr: Vec<bool> = (0..n).map(|id| touches[id] && !guard[id]).collect();
    fixpoint(graph, &mut utr, |id| !guard[id]);

    let mut manifest: Vec<ManifestEntry> = Vec::new();
    for id in 0..n {
        let node = &graph.nodes[id];
        if !reaches[id]
            || !config
                .r2_prefixes
                .iter()
                .any(|p| node.item.name.starts_with(p.as_str()))
        {
            continue;
        }
        manifest.push(ManifestEntry {
            file: node.path.clone(),
            function: node.qname(),
        });
        if utr[id] && !guard[id] {
            let chain = unguarded_witness(graph, id, &touches, &guard)
                .map(|p| graph.render_chain(&p))
                .unwrap_or_default();
            out.findings.push(finding(
                "R2",
                &node.path,
                node.item.line + 1,
                format!(
                    "inference root `{}` reaches the autograd tape without a \
                     `no_grad` guard on the path ({chain}): wrap the tape-touching \
                     region in `no_grad(..)`",
                    node.qname()
                ),
            ));
        }
    }
    manifest.sort_by(|a, b| (&a.file, &a.function).cmp(&(&b.file, &b.function)));
    manifest.dedup();
    out.stats.r2_roots = manifest.len();
    out.manifest = manifest;
}

/// R4: unsafe propagation. `#[target_feature]` unsafe fns are dangerous
/// (calling one without the CPU feature is UB). Every caller must hold a
/// runtime CPUID gate (`is_x86_feature_detected!` in its body, or a call
/// to a detection helper containing one) or be `unsafe` itself — in
/// which case *its* callers inherit the obligation.
fn check_r4(graph: &CallGraph, out: &mut ReachOutcome) {
    let n = graph.nodes.len();
    let mut exposed: Vec<bool> = graph
        .nodes
        .iter()
        .map(|nd| nd.item.is_unsafe && nd.item.has_target_feature)
        .collect();
    out.stats.r4_dangerous = exposed.iter().filter(|&&d| d).count();
    let gated: Vec<bool> = (0..n)
        .map(|id| {
            graph.nodes[id].item.has_cpuid_gate
                || graph.edges[id]
                    .iter()
                    .any(|&c| graph.nodes[c].item.has_cpuid_gate)
        })
        .collect();
    // Unsafe, ungated wrappers around dangerous fns re-export the
    // contract to their own callers.
    loop {
        let mut changed = false;
        for id in 0..n {
            if exposed[id] || gated[id] || !graph.nodes[id].item.is_unsafe {
                continue;
            }
            if graph.edges[id].iter().any(|&c| exposed[c]) {
                exposed[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for id in 0..n {
        let node = &graph.nodes[id];
        if exposed[id] || gated[id] || node.item.is_unsafe {
            continue;
        }
        if let Some(&callee) = graph.edges[id].iter().find(|&&c| exposed[c]) {
            out.findings.push(finding(
                "R4",
                &node.path,
                node.item.line + 1,
                format!(
                    "`{}` calls `#[target_feature]` unsafe fn `{}` without a \
                     runtime CPUID gate: guard the dispatch with \
                     `is_x86_feature_detected!` (or a detection helper) or mark \
                     the fn `unsafe`",
                    node.qname(),
                    graph.nodes[callee].qname()
                ),
            ));
        }
    }
}

/// R5: no unreached library code. Roots are every fn of a binary,
/// bench, example, integration test or perfbench source, every trait
/// method (dispatch the linker cannot follow), and every item-level
/// initializer call. A unit test reaches only *other* crates, so a fn
/// whose one caller is its own crate's tests is dead. Liveness follows
/// the loose edges too: R5 may miss dead code, never flag live code. `pub(crate)` and private fns are rustc's `dead_code`.
fn check_r5(graph: &CallGraph, out: &mut ReachOutcome) {
    let mut queue: Vec<usize> = (0..graph.nodes.len())
        .filter(|&id| graph.nodes[id].item.trait_method || is_binary_src(&graph.nodes[id].path))
        .collect();
    for u in &graph.uses {
        let own = (u.in_test && !is_test_path(&u.path)).then(|| crate_of(&u.path));
        queue.extend(
            u.targets
                .iter()
                .filter(|&&t| own != Some(crate_of(&graph.nodes[t].path))),
        );
    }
    let mut live = vec![false; graph.nodes.len()];
    let mut head = 0;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        if live[id] {
            continue;
        }
        live[id] = true;
        queue.extend(graph.edges[id].iter().chain(&graph.loose_edges[id]));
    }
    out.stats.r5_reached = live.iter().filter(|&&l| l).count();
    for (id, node) in graph.nodes.iter().enumerate() {
        let checked = node.item.is_pub
            && !node.item.trait_method
            && !is_binary_src(&node.path)
            && (node.path.starts_with("src/") || node.path.contains("/src/"));
        if !checked {
            continue;
        }
        out.stats.r5_checked += 1;
        if !live[id] {
            out.findings.push(finding(
                "R5",
                &node.path,
                node.item.line + 1,
                format!(
                    "pub fn `{}` is reached from no binary, bench, example, \
                     test or perfbench source: delete it, or make it \
                     `pub(crate)` if its own crate still uses it",
                    node.qname()
                ),
            ));
        }
    }
}

/// A binary's source: `src/bin/**` or a `main.rs`.
fn is_binary_src(path: &str) -> bool {
    path.contains("src/bin/") || path == "main.rs" || path.ends_with("/main.rs")
}

/// The package a path belongs to: `crates/<name>`, or `""` for the root
/// package (`src/`, `tests/`, `examples/`).
fn crate_of(path: &str) -> &str {
    match path.strip_prefix("crates/") {
        Some(rest) => &path[..path.len() - rest.len() + rest.find('/').unwrap_or(rest.len())],
        None => "",
    }
}

/// Reverse-propagate a boolean property to callers: `set[n] |= any
/// callee in `set``, restricted to nodes passing `carrier`. Runs to a
/// fixpoint (deterministic: pure set semantics).
fn fixpoint(graph: &CallGraph, set: &mut [bool], carrier: impl Fn(usize) -> bool) {
    let mut queue: Vec<usize> = (0..set.len()).filter(|&i| set[i]).collect();
    let mut head = 0;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        for &caller in &graph.redges[id] {
            if !set[caller] && carrier(caller) {
                set[caller] = true;
                queue.push(caller);
            }
        }
    }
}

/// Shortest guard-free path from `root` to a tape-touching node.
fn unguarded_witness(
    graph: &CallGraph,
    root: usize,
    touches: &[bool],
    guard: &[bool],
) -> Option<Vec<usize>> {
    bfs_witness(graph, root, |id| touches[id] && !guard[id], |id| !guard[id])
}

/// Forward BFS from `start` through nodes passing `carrier`, stopping at
/// the first node satisfying `is_target`; returns the path inclusive.
fn bfs_witness(
    graph: &CallGraph,
    start: usize,
    is_target: impl Fn(usize) -> bool,
    carrier: impl Fn(usize) -> bool,
) -> Option<Vec<usize>> {
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut seen = vec![false; graph.nodes.len()];
    seen[start] = true;
    let mut queue = vec![start];
    let mut head = 0;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        if is_target(id) {
            let mut path = vec![id];
            let mut cur = id;
            while let Some(p) = parent[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &c in &graph.edges[id] {
            if !seen[c] && carrier(c) {
                seen[c] = true;
                parent[c] = Some(id);
                queue.push(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::parse_file;

    fn analyze_srcs(srcs: &[(&str, &str)], cfg_text: &str) -> ReachOutcome {
        let files: Vec<_> = srcs.iter().map(|(p, s)| parse_file(p, &lex(s))).collect();
        let graph = CallGraph::link(&files);
        let config = Config::parse(cfg_text).expect("config");
        analyze(&graph, &config)
    }

    /// A binary driving the fixture's library fns, so R5 stays quiet.
    fn bin(calls: &'static str) -> (&'static str, &'static str) {
        ("crates/s/src/bin/main.rs", calls)
    }

    fn rules_of(out: &ReachOutcome) -> Vec<&'static str> {
        out.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn r1_flags_deep_index_with_witness() {
        let out = analyze_srcs(
            &[
                (
                    "crates/s/src/a.rs",
                    "pub struct Server;\nimpl Server {\n    pub fn tick(&mut self) { helper(); }\n}\n",
                ),
                (
                    "crates/s/src/b.rs",
                    "pub fn helper() { deep(); }\npub fn deep(v: &[u32]) -> u32 { v.first().unwrap(); v[0] }\n",
                ),
                bin("fn main(s: Server) { s.tick(); }\n"),
            ],
            "[r1]\nroots = [\"Server::tick\"]\n",
        );
        // The index is R1's; the unwrap beside it is lexical P1's.
        assert_eq!(rules_of(&out), vec!["R1"]);
        assert!(out.findings[0]
            .message
            .contains("Server::tick -> helper -> deep"));
        assert!(out.findings[0].message.contains("slice index"));
    }

    #[test]
    fn r1_missing_root_is_reported() {
        let out = analyze_srcs(
            &[
                ("crates/s/src/a.rs", "pub fn other() {}\n"),
                bin("fn main() { other(); }\n"),
            ],
            "[r1]\nroots = [\"Server::run_batch\"]\n",
        );
        assert_eq!(rules_of(&out), vec!["R1"]);
        assert!(out.findings[0].message.contains("run_batch"));
    }

    #[test]
    fn r2_guarded_root_clean_unguarded_flagged() {
        let srcs = [(
            "crates/m/src/lm.rs",
            "\
pub struct Tensor;
impl Tensor { pub fn from_op() -> Tensor { Tensor } }
pub fn no_grad() {}
pub fn generate() { no_grad(); decode(); }
pub fn generate_raw() { decode(); }
fn decode() { Tensor::from_op(); }
",
        )];
        let srcs = [srcs[0], bin("fn main() { generate(); generate_raw(); }\n")];
        let out = analyze_srcs(&srcs, "[r2]\nentry_prefixes = [\"generate\"]\n");
        // Both roots are discovered, but only the unguarded one is R2.
        assert_eq!(rules_of(&out), vec!["R2"]);
        assert!(out.findings[0].message.contains("generate_raw"));
        assert_eq!(out.manifest.len(), 2);
        assert_eq!(out.manifest[0].function, "generate");
        assert_eq!(out.manifest[1].function, "generate_raw");
    }

    #[test]
    fn r2_guard_in_callee_dominates() {
        let srcs = [(
            "crates/m/src/lm.rs",
            "\
pub struct Tensor;
impl Tensor { pub fn from_op() -> Tensor { Tensor } }
pub fn no_grad() {}
pub fn evaluate_item() { score(); }
fn score() { no_grad(); decode(); }
fn decode() { Tensor::from_op(); }
",
        )];
        let srcs = [srcs[0], bin("fn main() { evaluate_item(); }\n")];
        let out = analyze_srcs(&srcs, "[r2]\nentry_prefixes = [\"evaluate_\"]\n");
        assert!(rules_of(&out).is_empty());
        assert_eq!(out.manifest.len(), 1);
        assert_eq!(out.manifest[0].function, "evaluate_item");
    }

    #[test]
    fn r4_ungated_caller_flagged_gated_and_unsafe_pass() {
        let src = "\
pub fn detect() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }
#[target_feature(enable = \"avx2\")]
unsafe fn mk8x8(p: *const f32) {}
pub fn gated(p: *const f32) { if detect() { unsafe { mk8x8(p) } } }
pub fn ungated(p: *const f32) { unsafe { mk8x8(p) } }
pub unsafe fn wrapper(p: *const f32) { mk8x8(p); }
pub fn calls_wrapper(p: *const f32) { unsafe { wrapper(p) } }
";
        let root = bin("fn main(p: *const f32) { gated(p); ungated(p); calls_wrapper(p); }\n");
        let out = analyze_srcs(&[("crates/t/src/simd.rs", src), root], "");
        // `ungated` calls the dangerous fn directly; `calls_wrapper`
        // inherits the obligation through the unsafe wrapper. `gated`
        // holds a detection-helper gate and passes.
        assert_eq!(rules_of(&out), vec!["R4", "R4"]);
        assert!(out.findings[0].message.contains("`ungated`"));
        assert!(out.findings[1].message.contains("`calls_wrapper`"));
        assert_eq!(out.stats.r4_dangerous, 1);
    }

    #[test]
    fn findings_sorted_by_path_line_rule() {
        let out = analyze_srcs(
            &[
                (
                    "crates/s/src/a.rs",
                    "pub struct Server;\nimpl Server {\n    pub fn tick(&mut self, v: &[u32]) { v[0]; helper(v); }\n}\n",
                ),
                (
                    "crates/b/src/lib.rs",
                    "pub fn helper(v: &[u32]) -> u32 {\n    v[1]\n}\n",
                ),
                bin("fn main(s: Server) { s.tick(); }\n"),
            ],
            "[r1]\nroots = [\"Server::tick\"]\n",
        );
        let keys: Vec<(String, usize, &str)> = out
            .findings
            .iter()
            .map(|f| (f.path.clone(), f.line, f.rule))
            .collect();
        assert_eq!(keys.len(), 2, "{keys:?}");
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
