//! The two-phase scan pipeline.
//!
//! Phase 0 walks the workspace, lexes every `.rs` file, and runs the
//! lexical rules (D1/D2/P1/U1). Phase 1 parses each lexed file into its
//! item model ([`crate::model`]); phase 2 links the workspace call graph
//! ([`crate::graph`]), runs the reachability rules R1/R2/R4 and emits the
//! inference-root manifest ([`crate::reach`]). Allowlist filtering and
//! staleness tracking (rule A1) are shared across phases.
//!
//! All ordering is explicit — input files are sorted by path before any
//! rule runs and violations are sorted by `(path, line, rule)` — so two
//! scans over the same tree produce byte-identical reports regardless of
//! directory-walk order.

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::graph::CallGraph;
use crate::lexer::{lex, SourceModel};
use crate::model::{parse_file, FileModel};
use crate::reach::{self, GraphStats, ManifestEntry};
use crate::rules::{check_file, Violation};

/// Directory names never scanned: build output, vendored crates, and
/// lint fixture corpora.
const SKIP_DIRS: [&str; 3] = ["target", "vendor", "fixtures"];

/// Directory names scanned *as test scope*: integration tests, benches,
/// and examples get the same rule relaxation as `#[cfg(test)]` code.
const TEST_DIRS: [&str; 3] = ["tests", "benches", "examples"];

/// Roots scanned relative to the workspace root. `perfbench/src` is the
/// benchmark, a separate Cargo workspace: it is scanned in test scope,
/// so only R5 reads it, as roots.
const SCAN_ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "perfbench/src"];

/// Outcome of a full workspace scan.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Violations not covered by the allowlist, sorted.
    pub violations: Vec<Violation>,
    /// Violations suppressed by lint.toml allow entries, sorted.
    pub allowed: Vec<Violation>,
    /// Workspace-relative paths scanned, sorted.
    pub files: Vec<String>,
    /// The emitted manifest (discovered inference roots), sorted.
    pub manifest: Vec<ManifestEntry>,
    /// Call-graph shape counters.
    pub stats: GraphStats,
}

/// Scan failure (I/O or config).
#[derive(Debug)]
pub struct ScanError(pub String);

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Does this workspace-relative path live in a test-scope directory (or
/// in perfbench)?
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("perfbench/") || path.split('/').any(|seg| TEST_DIRS.contains(&seg))
}

/// Walk the workspace at `root` and run the full two-phase pipeline.
pub fn scan_workspace(root: &Path, config: &Config) -> Result<ScanResult, ScanError> {
    let mut files: Vec<PathBuf> = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    let mut sources: Vec<(String, String)> = Vec::new();
    for full in &files {
        let Ok(rel) = full.strip_prefix(root) else {
            continue;
        };
        let rel = path_to_slash(rel);
        let src = fs::read_to_string(full).map_err(|e| ScanError(format!("reading {rel}: {e}")))?;
        sources.push((rel, src));
    }
    Ok(run_pipeline(sources, config))
}

/// Run the full pipeline over in-memory sources (reachability fixture
/// tests; multi-file). Input order does not matter — the pipeline sorts.
pub fn scan_sources(sources: &[(&str, &str)], config: &Config) -> ScanResult {
    run_pipeline(
        sources
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
        config,
    )
}

/// Check a single in-memory source with the lexical rules only (fixture
/// tests and editor integration; no call graph is linked).
pub fn scan_source(path: &str, src: &str, config: &Config) -> Vec<Violation> {
    let mut model = lex(src);
    if is_test_path(path) {
        force_test_scope(&mut model);
    }
    check_file(path, &model)
        .into_iter()
        .filter(|v| !config.is_allowed(v.rule, path))
        .collect()
}

fn force_test_scope(model: &mut SourceModel) {
    for line in &mut model.lines {
        line.in_test = true;
    }
}

fn run_pipeline(mut sources: Vec<(String, String)>, config: &Config) -> ScanResult {
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    sources.dedup_by(|a, b| a.0 == b.0);

    let mut result = ScanResult::default();
    // Both phases' findings go through one allowlist filter.
    let mut found: Vec<Violation> = Vec::new();
    let mut models: Vec<FileModel> = Vec::new();
    for (path, src) in &sources {
        let mut model = lex(src);
        if is_test_path(path) {
            force_test_scope(&mut model);
        }
        found.extend(check_file(path, &model));
        models.push(parse_file(path, &model));
    }
    let outcome = reach::analyze(&CallGraph::link(&models), config);
    found.extend(outcome.findings);

    let mut matched = vec![false; config.allow.len()];
    for v in found {
        match config.matching_allow(v.rule, &v.path) {
            Some(i) => {
                matched[i] = true;
                result.allowed.push(v);
            }
            None => result.violations.push(v),
        }
    }

    // A1: reviewed exceptions must keep earning their place — an allow
    // entry that no longer suppresses anything is itself a finding.
    for (i, entry) in config.allow.iter().enumerate() {
        if !matched[i] {
            result.violations.push(Violation {
                path: "lint.toml".to_string(),
                line: entry.line.max(1),
                col: 1,
                rule: "A1",
                message: format!(
                    "stale [[allow]] entry: rule {} under `{}` matches no \
                     violation — the exception has rotted; remove it or fix the \
                     rule/path",
                    entry.rule, entry.path
                ),
            });
        }
    }

    result.violations.sort();
    result.allowed.sort();
    result.manifest = outcome.manifest;
    result.stats = outcome.stats;
    result.files = sources.into_iter().map(|(p, _)| p).collect();
    result
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), ScanError> {
    let entries =
        fs::read_dir(dir).map_err(|e| ScanError(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| ScanError(format!("walking {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn path_to_slash(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locate the workspace root from a starting directory by walking up to
/// the first directory containing both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
