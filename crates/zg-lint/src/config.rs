//! `lint.toml` parsing: a hand-rolled subset of TOML (the container has
//! no registry access, so no `toml` crate). Supported grammar:
//!
//! ```toml
//! # comment
//! [r1]                     # serve roots for index reachability (rule R1)
//! roots = ["Server::tick", "ZiGongEngine::execute"]
//!
//! [r2]                     # inference-root discovery prefixes (rule R2)
//! entry_prefixes = ["evaluate_", "generate", "serve_"]
//!
//! [[allow]]                # one allowlist entry
//! rule = "D1"
//! path = "crates/zg-tensor/src/autograd.rs"   # file or directory prefix
//! reason = "membership-only HashSet; never iterated"
//! ```
//!
//! Every `[[allow]]` entry **must** carry a `reason` — the config format
//! itself enforces that suppressions are justified. Any other section or
//! key is rejected.

use std::fmt;

/// One allowlist entry: suppress `rule` under `path` (exact file or
/// directory prefix), with a mandatory human justification.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowEntry {
    /// Rule id, e.g. `"D1"`.
    pub rule: String,
    /// Workspace-relative path; a trailing-slash-free prefix also matches
    /// whole directories (`crates/zg-bench` covers every file under it).
    pub path: String,
    /// Why this suppression is sound.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header in the config file, for
    /// config errors and staleness diagnostics (rule A1). 0 for
    /// hand-built configs.
    pub line: usize,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Allowlist entries.
    pub allow: Vec<AllowEntry>,
    /// R1 serve roots (qualified fn names).
    pub r1_roots: Vec<String>,
    /// R2 inference-root discovery name prefixes.
    pub r2_prefixes: Vec<String>,
}

/// Config parse failure with line context.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// 1-based line in the config file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Section {
    None,
    R1,
    R2,
    Allow,
}

impl Config {
    /// Parse config text. See module docs for the accepted grammar.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = Section::None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                cfg.allow.push(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    reason: String::new(),
                    line: lineno,
                });
                section = Section::Allow;
            } else if line == "[r1]" {
                section = Section::R1;
            } else if line == "[r2]" {
                section = Section::R2;
            } else if line.starts_with('[') {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("unknown section {line}"),
                });
            } else {
                let (key, value) = split_assignment(&line, lineno)?;
                match section {
                    Section::R1 => match key.as_str() {
                        "roots" => cfg.r1_roots = parse_string_array(&value, lineno)?,
                        _ => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("unknown key `{key}` in [r1]"),
                            })
                        }
                    },
                    Section::R2 => match key.as_str() {
                        "entry_prefixes" => cfg.r2_prefixes = parse_string_array(&value, lineno)?,
                        _ => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("unknown key `{key}` in [r2]"),
                            })
                        }
                    },
                    Section::Allow => {
                        // INVARIANT: entering Section::Allow pushes an entry.
                        let entry = cfg.allow.last_mut().expect("allow entry exists");
                        let slot = match key.as_str() {
                            "rule" => &mut entry.rule,
                            "path" => &mut entry.path,
                            "reason" => &mut entry.reason,
                            _ => {
                                return Err(ConfigError {
                                    line: lineno,
                                    message: format!("unknown key `{key}` in [[allow]]"),
                                })
                            }
                        };
                        *slot = parse_string(&value, lineno)?;
                    }
                    Section::None => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("key `{key}` outside any section"),
                        })
                    }
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        for entry in &self.allow {
            if entry.rule.is_empty() || entry.path.is_empty() {
                return Err(ConfigError {
                    line: entry.line,
                    message: "[[allow]] entry needs both `rule` and `path`".into(),
                });
            }
            if entry.reason.is_empty() {
                return Err(ConfigError {
                    line: entry.line,
                    message: format!(
                        "[[allow]] entry for {} / {} has no `reason` — every \
                         suppression must be justified",
                        entry.rule, entry.path
                    ),
                });
            }
        }
        Ok(())
    }

    /// Whether `rule` at `path` is suppressed by an allowlist entry.
    pub fn is_allowed(&self, rule: &str, path: &str) -> bool {
        self.matching_allow(rule, path).is_some()
    }

    /// Index of the first allowlist entry suppressing `rule` at `path`.
    /// Returning the index lets the engine track which entries ever fire
    /// (rule A1).
    pub fn matching_allow(&self, rule: &str, path: &str) -> Option<usize> {
        self.allow.iter().position(|e| {
            e.rule == rule
                && (e.path == path
                    || (path.starts_with(&e.path)
                        && path.as_bytes().get(e.path.len()) == Some(&b'/')))
        })
    }
}

/// Drop a `#`-to-end-of-line comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_assignment(line: &str, lineno: usize) -> Result<(String, String), ConfigError> {
    match line.split_once('=') {
        Some((k, v)) => Ok((k.trim().to_string(), v.trim().to_string())),
        None => Err(ConfigError {
            line: lineno,
            message: format!("expected `key = value`, got `{line}`"),
        }),
    }
}

fn parse_string(value: &str, lineno: usize) -> Result<String, ConfigError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(ConfigError {
            line: lineno,
            message: format!("expected a double-quoted string, got `{value}`"),
        })
    }
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    if !(v.starts_with('[') && v.ends_with(']')) {
        return Err(ConfigError {
            line: lineno,
            message: format!("expected an array of strings, got `{value}`"),
        });
    }
    let inner = v[1..v.len() - 1].trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|s| parse_string(s.trim(), lineno))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
# top comment
[[allow]]
rule = "D1"
path = "crates/x/src/a.rs"   # trailing comment
reason = "lookup only"
"#,
        )
        .expect("parse");
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].path, "crates/x/src/a.rs");
    }

    #[test]
    fn allow_without_reason_rejected() {
        let err = Config::parse("# header\n[[allow]]\nrule = \"D1\"\npath = \"x.rs\"\n")
            .expect_err("must reject");
        assert!(err.message.contains("reason"));
        assert_eq!(err.line, 2, "the error points at the [[allow]] header");
        assert!(err.to_string().starts_with("lint.toml:2: "), "{err}");
    }

    #[test]
    fn unknown_key_rejected() {
        assert!(Config::parse("[[allow]]\nbogus = \"x\"\n").is_err());
        assert!(Config::parse("[weird]\n").is_err());
        assert!(Config::parse("orphan = \"x\"\n").is_err());
        // Sections and keys outside the grammar are errors, not ignored.
        assert!(Config::parse("[rules]\nwarn = [\"A1\"]\n").is_err());
        assert!(Config::parse("[[g1]]\nfile = \"x.rs\"\nfunction = \"f\"\n").is_err());
        assert!(Config::parse("[[allow]]\nrule = \"R1\"\nkind = \"index\"\n").is_err());
    }

    #[test]
    fn allow_prefix_matches_directories() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"D2\"\npath = \"crates/zg-bench\"\nreason = \"timing harness\"\n",
        )
        .expect("parse");
        assert!(cfg.is_allowed("D2", "crates/zg-bench/src/lib.rs"));
        assert!(cfg.is_allowed("D2", "crates/zg-bench/src/bin/t.rs"));
        assert!(!cfg.is_allowed("D2", "crates/zg-benchmark/src/lib.rs"));
        assert!(!cfg.is_allowed("D1", "crates/zg-bench/src/lib.rs"));
    }

    #[test]
    fn r1_and_r2_sections_parse() {
        let cfg = Config::parse(
            "[r1]\nroots = [\"Server::tick\", \"ZiGongEngine::execute\"]\n\n\
             [r2]\nentry_prefixes = [\"evaluate_\", \"generate\"]\n",
        )
        .expect("parse");
        assert_eq!(cfg.r1_roots, vec!["Server::tick", "ZiGongEngine::execute"]);
        assert_eq!(cfg.r2_prefixes, vec!["evaluate_", "generate"]);
        assert!(Config::parse("[r2]\nentry_prefixes = []\n")
            .expect("parse")
            .r2_prefixes
            .is_empty());
        assert!(Config::parse("[r1]\nbogus = []\n").is_err());
        assert!(Config::parse("[r2]\nbogus = []\n").is_err());
    }

    #[test]
    fn allow_entries_record_their_config_line() {
        let cfg = Config::parse(
            "# header\n\n[[allow]]\nrule = \"D1\"\npath = \"x.rs\"\nreason = \"r\"\n",
        )
        .expect("parse");
        assert_eq!(cfg.allow[0].line, 3);
    }
}
