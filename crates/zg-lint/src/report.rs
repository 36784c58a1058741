//! rustc-style diagnostic rendering and machine-readable JSON summaries.
//! Rendering is pure string building over already-sorted violations, so
//! the report for a given tree is byte-stable across runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::engine::ScanResult;
use crate::rules::{Violation, RULE_IDS};

/// Render violations rustc-style, with the offending source line when the
/// workspace `root` is available to read it from. Every violation is an
/// error.
pub fn render(result: &ScanResult, root: Option<&Path>) -> String {
    let mut out = String::new();
    for v in &result.violations {
        render_one(&mut out, v, root);
    }
    let _ = writeln!(
        out,
        "zg-lint: {} file(s) scanned, {} error(s), {} allowed",
        result.files.len(),
        result.violations.len(),
        result.allowed.len()
    );
    out
}

fn render_one(out: &mut String, v: &Violation, root: Option<&Path>) {
    let _ = writeln!(out, "error[{}]: {}", v.rule, v.message);
    let _ = writeln!(out, "  --> {}:{}:{}", v.path, v.line, v.col);
    if let Some(root) = root {
        if let Ok(src) = std::fs::read_to_string(root.join(&v.path)) {
            if let Some(line) = src.lines().nth(v.line - 1) {
                let gutter = v.line.to_string();
                let pad = " ".repeat(gutter.len());
                let _ = writeln!(out, "{pad} |");
                let _ = writeln!(out, "{gutter} | {}", line.trim_end());
                let _ = writeln!(out, "{pad} |");
            }
        }
    }
    out.push('\n');
}

/// Violation count per rule id, zeros included. Key order is fixed
/// (BTreeMap + the static rule list) for byte-stable output.
fn counts_by_rule(result: &ScanResult) -> serde_json::Value {
    let mut counts: BTreeMap<&str, usize> = RULE_IDS.iter().map(|&r| (r, 0)).collect();
    for v in &result.violations {
        if let Some(slot) = counts.get_mut(v.rule) {
            *slot += 1;
        }
    }
    let mut map = serde_json::Map::new();
    for (rule, n) in counts {
        map.insert(rule.to_string(), serde_json::json!(n));
    }
    serde_json::Value::Object(map)
}

/// JSON summary: per-rule violation counts plus scan totals.
pub fn to_json(result: &ScanResult) -> serde_json::Value {
    let violations: Vec<serde_json::Value> = result
        .violations
        .iter()
        .map(|v| {
            serde_json::json!({
                "rule": v.rule,
                "path": v.path,
                "line": v.line,
                "col": v.col,
            })
        })
        .collect();
    serde_json::json!({
        "files_scanned": result.files.len(),
        "total_violations": result.violations.len(),
        "allowed": result.allowed.len(),
        "by_rule": counts_by_rule(result),
        "violations": violations,
    })
}

/// The `lint_graph.json` document: call-graph shape, per-rule findings,
/// and the emitted inference-root manifest. Committed to `results/` (the
/// manifest's only copy) and diffed in CI so manifest drift fails the
/// build — the serializer (BTreeMap-backed maps, pre-sorted vectors)
/// makes the bytes a pure function of the scanned tree.
pub fn graph_json(result: &ScanResult) -> String {
    let violations: Vec<serde_json::Value> = result
        .violations
        .iter()
        .map(|v| {
            serde_json::json!({
                "rule": v.rule,
                "path": v.path,
                "line": v.line,
                "message": v.message,
            })
        })
        .collect();
    let manifest: Vec<serde_json::Value> = result
        .manifest
        .iter()
        .map(|e| serde_json::json!({ "file": e.file, "function": e.function }))
        .collect();
    // The vendored json! macro only builds flat objects; nested ones are
    // composed from sub-values.
    let graph = serde_json::json!({
        "nodes": result.stats.nodes,
        "edges": result.stats.edges,
        "resolved_calls": result.stats.resolved_calls,
        "external_calls": result.stats.external_calls,
        "r1_reachable": result.stats.r1_reachable,
        "r2_roots": result.stats.r2_roots,
        "r4_dangerous": result.stats.r4_dangerous,
        "r5_checked": result.stats.r5_checked,
        "r5_reached": result.stats.r5_reached,
    });
    let doc = serde_json::json!({
        "schema": "zg-lint/graph-v2",
        "files_scanned": result.files.len(),
        "graph": graph,
        "findings": counts_by_rule(result),
        "allowed": result.allowed.len(),
        "manifest": manifest,
        "violations": violations,
    });
    let mut out = serde_json::to_string_pretty(&doc)
        // INVARIANT: the document is built from plain strings/ints above;
        // serialization cannot fail.
        .unwrap_or_default();
    out.push('\n');
    out
}
