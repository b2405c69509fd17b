//! `plugvolt-lint` — determinism & MSR-safety gate for the workspace.
//!
//! ```text
//! plugvolt-lint [--workspace | --root <path>] [--format human|json|sarif]
//!               [--min-severity <s>] [--rule <id>]... [--list-rules]
//!               [--check-workspace-lints]
//! ```
//!
//! Exit codes: `0` clean (no unsuppressed error-severity findings),
//! `1` gate failed, `2` usage or I/O error.

use plugvolt_analysis::{
    all_rule_metas, check_workspace_lints_opt_in, human_report, json_report, sarif_report,
    scan_workspace, ScanOptions, Severity,
};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Args {
    root: PathBuf,
    format: Format,
    min_severity: Severity,
    only_rules: Vec<String>,
    list_rules: bool,
    check_workspace_lints: bool,
}

fn usage() -> &'static str {
    "plugvolt-lint: determinism & MSR-safety static analysis\n\
     \n\
     USAGE:\n\
     \x20 plugvolt-lint [--workspace] [--root <path>] [--format human|json|sarif]\n\
     \x20               [--min-severity info|warning|error] [--rule <id>]...\n\
     \x20               [--list-rules]\n\
     \n\
     OPTIONS:\n\
     \x20 --workspace        scan the enclosing cargo workspace (default)\n\
     \x20 --root <path>      scan an explicit directory instead\n\
     \x20 --format <f>       report format: human (default), json, sarif\n\
     \x20 --json             shorthand for --format json\n\
     \x20 --min-severity <s> hide findings below this severity in output\n\
     \x20 --rule <id>        run only the named rule (repeatable)\n\
     \x20 --list-rules       print the rule registry and exit\n\
     \x20 --check-workspace-lints\n\
     \x20                    verify every workspace member's Cargo.toml\n\
     \x20                    opts into `[lints] workspace = true`, then exit\n\
     \n\
     Accept a finding with `// plugvolt-lint: allow(<rule-id>) <why>` on\n\
     the offending line or alone on the line above it; a suppression that\n\
     silences nothing is itself a finding (unused-suppression).\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::new(),
        format: Format::Human,
        min_severity: Severity::Info,
        only_rules: Vec::new(),
        list_rules: false,
        check_workspace_lints: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                args.root = PathBuf::from(v);
            }
            "--json" => args.format = Format::Json,
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                args.format = match v.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--min-severity" => {
                let v = it.next().ok_or("--min-severity needs a value")?;
                args.min_severity =
                    Severity::parse(&v).ok_or_else(|| format!("unknown severity `{v}`"))?;
            }
            "--rule" => {
                let v = it.next().ok_or("--rule needs a rule id")?;
                // A typo'd id would otherwise silently run zero rules and
                // report the workspace clean.
                if !all_rule_metas().iter().any(|m| m.id == v) {
                    return Err(format!("unknown rule id `{v}` (see --list-rules)"));
                }
                args.only_rules.push(v);
            }
            "--list-rules" => args.list_rules = true,
            "--check-workspace-lints" => args.check_workspace_lints = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.root.as_os_str().is_empty() {
        args.root = find_workspace_root()?;
    }
    Ok(args)
}

/// Walks upward from the current directory to the first `Cargo.toml`
/// containing a `[workspace]` table.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".into());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for meta in all_rule_metas() {
            println!(
                "{:<28} {:<8} {}",
                meta.id,
                meta.severity.name(),
                meta.summary
            );
        }
        return ExitCode::SUCCESS;
    }
    if args.check_workspace_lints {
        return match check_workspace_lints_opt_in(&args.root) {
            Ok(violations) if violations.is_empty() => {
                println!("workspace lints: every member opts in");
                ExitCode::SUCCESS
            }
            Ok(violations) => {
                for v in &violations {
                    eprintln!("error: {v}");
                }
                eprintln!(
                    "{} member(s) outside the `[workspace.lints]` wall",
                    violations.len()
                );
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let options = ScanOptions {
        only_rules: args.only_rules,
    };
    let mut result = match scan_workspace(&args.root, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    // The gate reads every finding; --min-severity only trims the report.
    let gate_passes = result.passes_gate();
    result.findings.retain(|f| f.severity >= args.min_severity);
    match args.format {
        Format::Json => print!("{}", json_report(&result)),
        Format::Sarif => print!("{}", sarif_report(&result, &all_rule_metas())),
        Format::Human => print!("{}", human_report(&result)),
    }
    if gate_passes {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
