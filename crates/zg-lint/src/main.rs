//! The `zg-lint` binary: scan the workspace and report invariant
//! violations rustc-style.
//!
//! ```text
//! zg-lint [ROOT] [--config PATH] [--json] [--quiet] [--emit PATH]
//! ```
//!
//! * `ROOT` — workspace root (default: walk up from the current dir).
//! * `--config PATH` — lint config (default: `ROOT/lint.toml`).
//! * `--json` — print a machine-readable summary instead of diagnostics.
//! * `--quiet` — suppress per-violation diagnostics, print the summary only.
//! * `--emit PATH` — write the deterministic `lint_graph.json` document
//!   (call-graph stats, per-rule findings, inference-root manifest) to PATH.
//!
//! Every violation is an error: exit code 0 when none remain, 1
//! otherwise, 2 on usage/config errors.

use std::path::PathBuf;
use std::process::ExitCode;

use zg_lint::{config::Config, engine, report};

struct Args {
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    json: bool,
    quiet: bool,
    emit: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        config: None,
        json: false,
        quiet: false,
        emit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--quiet" => args.quiet = true,
            "--config" => {
                let path = it.next().ok_or("--config needs a path")?;
                args.config = Some(PathBuf::from(path));
            }
            "--emit" => {
                let path = it.next().ok_or("--emit needs a path")?;
                args.emit = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: zg-lint [ROOT] [--config PATH] [--json] [--quiet] [--emit PATH]"
                        .to_string(),
                )
            }
            other if !other.starts_with('-') => args.root = Some(PathBuf::from(other)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| engine::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("zg-lint: could not locate a workspace root (Cargo.toml + crates/)");
            return ExitCode::from(2);
        }
    };
    let config_path = args.config.unwrap_or_else(|| root.join("lint.toml"));
    let config = if config_path.is_file() {
        let text = match std::fs::read_to_string(&config_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("zg-lint: reading {}: {e}", config_path.display());
                return ExitCode::from(2);
            }
        };
        match Config::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("zg-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        Config::default()
    };
    let result = match engine::scan_workspace(&root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("zg-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(emit) = &args.emit {
        let path = if emit.is_absolute() {
            emit.clone()
        } else {
            root.join(emit)
        };
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, report::graph_json(&result)) {
            eprintln!("zg-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if args.json {
        println!("{}", report::to_json(&result));
    } else if args.quiet {
        let rendered = report::render(&result, None);
        // Summary is the final line of the rendered report.
        if let Some(last) = rendered.lines().next_back() {
            println!("{last}");
        }
    } else {
        print!("{}", report::render(&result, Some(&root)));
    }

    if result.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
