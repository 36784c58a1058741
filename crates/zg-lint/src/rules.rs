//! The four lexical rule families enforced over the lexed code view.
//!
//! | id | invariant |
//! |----|-----------|
//! | D1 | no `HashMap`/`HashSet` in non-test library code (iteration order is nondeterministic; use `BTreeMap`/`BTreeSet`/sorted vecs, or allowlist membership-only uses) |
//! | D2 | no wall-clock / OS entropy in library code (`Instant::now`, `SystemTime`, `thread_rng`); randomness must flow through seeded RNGs |
//! | P1 | no `unwrap()` / `expect(..)` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` in non-test library code without an `// INVARIANT:` justification on the same line or the comment block above |
//! | U1 | every `unsafe` must carry a `// SAFETY:` comment on the same line or in the comment block above |
//!
//! D2 and P1 are workspace-wide, so they also cover every call path the
//! graph rules could trace to a wall-clock read or a panic.

use crate::lexer::SourceModel;
use crate::model::justified;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the match in the source line.
    pub col: usize,
    /// Rule id, one of [`RULE_IDS`].
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

// Diagnostic order is part of the output contract: path, then line,
// then rule id (col/message only break exact ties), so multi-rule
// findings on one line render in a stable, documented order.
impl Ord for Violation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.path, self.line, self.rule, self.col, &self.message).cmp(&(
            &other.path,
            other.line,
            other.rule,
            other.col,
            &other.message,
        ))
    }
}

impl PartialOrd for Violation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// All rule ids, in report order: lexical families first, then the
/// call-graph reachability families, then allowlist hygiene.
pub const RULE_IDS: [&str; 9] = ["D1", "D2", "P1", "U1", "R1", "R2", "R4", "R5", "A1"];

/// Run every lexical rule over one lexed file. `path` is
/// workspace-relative and only used for reporting; allowlist filtering
/// happens in the engine, not here.
pub fn check_file(path: &str, model: &SourceModel) -> Vec<Violation> {
    let mut out = Vec::new();
    check_d1(path, model, &mut out);
    check_d2(path, model, &mut out);
    check_p1(path, model, &mut out);
    check_u1(path, model, &mut out);
    out.sort();
    out
}

/// Is the match at `pos..pos+len` a standalone word (not an identifier
/// fragment like `FxHashMap` or `unsafe_name`)?
fn word_bounded(code: &str, pos: usize, len: usize) -> bool {
    let before = code[..pos].chars().next_back();
    let after = code[pos + len..].chars().next();
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
}

/// All word-bounded occurrences of `needle` in `code`, as byte offsets.
fn find_word(code: &str, needle: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(needle) {
        let pos = from + rel;
        if word_bounded(code, pos, needle.len()) {
            hits.push(pos);
        }
        from = pos + needle.len();
    }
    hits
}

fn check_d1(path: &str, model: &SourceModel, out: &mut Vec<Violation>) {
    for (idx, line) in model.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for needle in ["HashMap", "HashSet"] {
            for pos in find_word(&line.code, needle) {
                out.push(Violation {
                    path: path.to_string(),
                    line: idx + 1,
                    col: pos + 1,
                    rule: "D1",
                    message: format!(
                        "`{needle}` in non-test library code: iteration order is \
                         nondeterministic and breaks bit-identical reduction; use \
                         `BTreeMap`/`BTreeSet`/sorted vecs, or allowlist a \
                         membership-only use in lint.toml"
                    ),
                });
            }
        }
    }
}

fn check_d2(path: &str, model: &SourceModel, out: &mut Vec<Violation>) {
    for (idx, line) in model.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for needle in ["Instant::now", "SystemTime", "thread_rng"] {
            for pos in find_word(&line.code, needle) {
                out.push(Violation {
                    path: path.to_string(),
                    line: idx + 1,
                    col: pos + 1,
                    rule: "D2",
                    message: format!(
                        "`{needle}` in library code: wall-clock time and OS entropy \
                         make results run-dependent; thread a seeded RNG / explicit \
                         timestamp through the API instead"
                    ),
                });
            }
        }
    }
}

fn check_p1(path: &str, model: &SourceModel, out: &mut Vec<Violation>) {
    for (idx, line) in model.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for needle in [
            ".unwrap()",
            ".expect(",
            "panic!",
            "unreachable!",
            "todo!",
            "unimplemented!",
        ] {
            let hits: Vec<usize> = if needle.starts_with('.') {
                // Method calls: exact match (keeps `.unwrap_or(..)` legal).
                let mut v = Vec::new();
                let mut from = 0;
                while let Some(rel) = line.code[from..].find(needle) {
                    v.push(from + rel);
                    from += rel + needle.len();
                }
                v
            } else {
                // Macros: word-bounded so `dont_panic!` style names pass.
                find_word(&line.code, needle.trim_end_matches('!'))
                    .into_iter()
                    .filter(|&p| line.code[p..].starts_with(needle))
                    .collect()
            };
            for pos in hits {
                if justified(model, idx, "INVARIANT:") {
                    continue;
                }
                out.push(Violation {
                    path: path.to_string(),
                    line: idx + 1,
                    col: pos + 1,
                    rule: "P1",
                    message: format!(
                        "`{needle}` in non-test library code: return an error or \
                         justify with `// INVARIANT: <why this cannot fail>`",
                        needle = needle.trim_end_matches('(')
                    ),
                });
            }
        }
    }
}

fn check_u1(path: &str, model: &SourceModel, out: &mut Vec<Violation>) {
    for (idx, line) in model.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pos in find_word(&line.code, "unsafe") {
            if justified(model, idx, "SAFETY:") {
                continue;
            }
            out.push(Violation {
                path: path.to_string(),
                line: idx + 1,
                col: pos + 1,
                rule: "U1",
                message: "`unsafe` without a `// SAFETY:` comment on the same line \
                          or in the comment block above: state the invariant that \
                          makes this sound"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Violation> {
        check_file("lib.rs", &lex(src))
    }

    #[test]
    fn d1_fires_on_hashmap_not_on_btreemap() {
        let v = run("use std::collections::HashMap;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D1");
        assert!(run("use std::collections::BTreeMap;\n").is_empty());
        // Identifier fragments do not count.
        assert!(run("struct MyHashMapLike;\n").is_empty());
    }

    #[test]
    fn p1_unwrap_or_is_legal() {
        assert!(run("let x = opt.unwrap_or(3);\n").is_empty());
        assert!(run("let x = opt.unwrap_or_else(f);\n").is_empty());
        let v = run("let x = opt.unwrap();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "P1");
    }

    #[test]
    fn p1_invariant_comment_justifies() {
        assert!(run("// INVARIANT: checked non-empty above\nlet x = opt.unwrap();\n").is_empty());
        assert!(run("let x = opt.unwrap(); // INVARIANT: len checked\n").is_empty());
    }

    #[test]
    fn u1_requires_safety_comment() {
        let v = run("let p = unsafe { *ptr };\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "U1");
        assert!(run("// SAFETY: ptr is valid for reads\nlet p = unsafe { *ptr };\n").is_empty());
    }

    #[test]
    fn u1_covers_target_feature_unsafe_fn() {
        // The SIMD kernels' shape: a cfg/target_feature-gated `unsafe fn`
        // with the SAFETY contract in the comment block directly above
        // the signature (below the attributes) is justified...
        let good = "#[cfg(target_arch = \"x86_64\")]\n\
                    #[target_feature(enable = \"avx2\")]\n\
                    // SAFETY: caller checks AVX2 and passes valid panel pointers\n\
                    unsafe fn mk(kc: usize) {\n}\n";
        assert!(run(good).is_empty());
        // ...and without it the declaration itself is flagged.
        let bad = "#[cfg(target_arch = \"x86_64\")]\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   unsafe fn mk(kc: usize) {\n}\n";
        let v = run(bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "U1");
    }

    #[test]
    fn test_scope_excluded_from_all_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { x.unwrap(); panic!(); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn string_and_comment_content_ignored() {
        assert!(run("let s = \"HashMap unsafe panic!\"; // HashMap in comment\n").is_empty());
    }
}
