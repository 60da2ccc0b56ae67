//! CLI: `ssfa-lint check [--json | --github]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/config error. Run from the
//! workspace root (what `cargo run -p ssfa-lint` does); `--root`
//! overrides.

use std::path::PathBuf;
use std::process::ExitCode;

use ssfa_lint::{check_workspace, Config};

const USAGE: &str = "\
usage: ssfa-lint <command> [options]

commands:
  check           scan the workspace, print findings, exit 1 if any

options:
  --json          emit the machine-readable report on stdout
  --github        emit GitHub Actions ::error annotations
  --root <path>   workspace root (default: current directory)
  --config <path> lint.toml path (default: <root>/lint.toml)
";

struct Args {
    command: String,
    json: bool,
    github: bool,
    root: PathBuf,
    config: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let mut parsed = Args {
        command,
        json: false,
        github: false,
        root: PathBuf::from("."),
        config: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => parsed.json = true,
            "--github" => parsed.github = true,
            "--root" => parsed.root = PathBuf::from(args.next().ok_or("--root needs a path")?),
            "--config" => {
                parsed.config = Some(PathBuf::from(args.next().ok_or("--config needs a path")?));
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if parsed.json && parsed.github {
        return Err("--json and --github are mutually exclusive".into());
    }
    Ok(parsed)
}

fn load_config(args: &Args) -> Result<Config, String> {
    match &args.config {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Config::parse(&text)
        }
        None => Config::load(&args.root),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ssfa-lint: error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = match load_config(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("ssfa-lint: error: {message}");
            return ExitCode::from(2);
        }
    };
    if args.command != "check" {
        eprintln!(
            "ssfa-lint: error: unknown command `{}`\n\n{USAGE}",
            args.command
        );
        return ExitCode::from(2);
    }
    let result = match check_workspace(&args.root, &config) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("ssfa-lint: error: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if args.json {
        print!("{}", result.to_json());
    } else if args.github {
        print!("{}", result.render_github());
    } else {
        print!("{}", result.render_human());
    }
    if result.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
