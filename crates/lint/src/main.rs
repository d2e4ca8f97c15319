//! `fcc-lint` CLI: the determinism & layering gate.
//!
//! ```text
//! fcc-lint [--root DIR] [--json FILE] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean, 1 any finding not suppressed inline with
//! `// fcc-lint: allow(rule) -- reason`, 2 usage/environment error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fcc_lint::{report, workspace, RuleId};

struct Opts {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        json: None,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => opts.root = Some(PathBuf::from(next(&mut args, "--root")?)),
            "--json" => opts.json = Some(PathBuf::from(next(&mut args, "--json")?)),
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                println!(
                    "fcc-lint: workspace determinism & layering linter\n\n\
                     USAGE: fcc-lint [--root DIR] [--json FILE] [--list-rules]\n\n\
                     Findings not suppressed by an inline \
                     `// fcc-lint: allow(rule) -- reason` fail the run."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(opts)
}

fn next(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fcc-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;

    if opts.list_rules {
        for r in RuleId::ALL {
            println!("{:<4} {}", r.code(), r.name());
        }
        return Ok(true);
    }

    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
            workspace::find_root(&cwd).ok_or_else(|| {
                "no workspace root found (run inside the repo or pass --root)".to_string()
            })?
        }
    };
    let (findings, errors) = workspace::run(&root)?;
    for e in &errors {
        eprintln!("fcc-lint: warning: {e}");
    }

    if let Some(json_path) = &opts.json {
        let body = report::render_json(&findings);
        if json_path.as_os_str() == "-" {
            print!("{body}");
        } else {
            if let Some(parent) = json_path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
                }
            }
            std::fs::write(json_path, body)
                .map_err(|e| format!("write {}: {e}", json_path.display()))?;
        }
    }

    for f in &findings {
        println!("{}", f.render_text());
    }
    println!("fcc-lint: {} finding(s)", findings.len());
    if !findings.is_empty() {
        println!("fcc-lint: FAIL — fix, or suppress inline with a reason");
    }
    Ok(findings.is_empty())
}
