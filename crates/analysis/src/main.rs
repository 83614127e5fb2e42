//! `deepum-tidy` command-line front end.
//!
//! Exit codes: 0 = clean, 1 = violations found, 2 = usage or IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use deepum_analysis::{analyze_tree, render_human, render_json, Config};

const USAGE: &str = "\
usage: deepum-tidy [--check] [--json] [--only <lint,..>] [--skip <lint,..>]
                   [--list] [root]

Runs the DeepUM workspace lints over every .rs file under <root>
(default: current directory). See DESIGN.md §10 and §15 for the lint
contract and the suppression grammar.

  --check               explicit check mode (the default; kept for CI readability)
  --json                machine-readable output (pass/file/span per violation)
  --only a,b            run only the named lints
  --skip a,b            run everything except the named lints
  --list                print registered lints and exit
  -h, --help            this text
";

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("deepum-tidy: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut json = false;
    let mut only: Vec<String> = Vec::new();
    let mut skip: Vec<String> = Vec::new();
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--json" => json = true,
            "--list" => {
                for lint in deepum_analysis::lints::LINTS {
                    println!("{:<28} [{:>9}] {}", lint.id, lint.phase, lint.summary);
                }
                return Ok(true);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(true);
            }
            "--only" | "--skip" => {
                let list = args
                    .next()
                    .ok_or_else(|| format!("{arg} needs a comma-separated lint list\n{USAGE}"))?;
                let ids = list.split(',').map(|s| s.trim().to_string());
                if arg == "--only" {
                    only.extend(ids);
                } else {
                    skip.extend(ids);
                }
            }
            _ if arg.starts_with("--only=") || arg.starts_with("--skip=") => {
                let (flag, list) = arg.split_once('=').unwrap_or(("", ""));
                let ids = list.split(',').map(|s| s.trim().to_string());
                if flag == "--only" {
                    only.extend(ids);
                } else {
                    skip.extend(ids);
                }
            }
            _ if arg.starts_with('-') => {
                return Err(format!("unknown flag `{arg}`\n{USAGE}"));
            }
            _ => {
                if root.is_some() {
                    return Err(format!("more than one root given\n{USAGE}"));
                }
                root = Some(PathBuf::from(arg));
            }
        }
    }

    let cfg = if only.is_empty() {
        Config::all()
    } else {
        Config::only(&only)?
    };
    let cfg = cfg.skip(&skip)?;

    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let violations = analyze_tree(&root, &cfg)?;

    if json {
        println!("{}", render_json(&violations));
    } else {
        print!("{}", render_human(&violations));
    }
    Ok(violations.is_empty())
}
