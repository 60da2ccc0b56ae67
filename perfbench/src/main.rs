//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Run from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- <args>`.
//! Scratch data goes under `.perfbench/` in the current directory and is
//! removed when the run ends; a traced run leaves its spans in
//! `.perfbench/trace-<workload>-<seed>.jsonl`. The last line of standard
//! output is the JSON result; diagnostics go to standard error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ssfa_perfbench::workloads::{Sizes, Workload, DEFAULT_SEED};
use ssfa_perfbench::{run, Options};

const USAGE: &str = "usage: perfbench --workload <analyze_full|checkpoint_resume|daemon_ingest> \
     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let out = Path::new(".perfbench");
    Ok(Options {
        workload,
        seed,
        seconds,
        traced,
        sizes: Sizes::PAPER,
        work: out.join(format!("work-{}", std::process::id())),
        trace_out: traced.then(|| out.join(format!("trace-{}-{seed}.jsonl", workload.name()))),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&options.work) {
        eprintln!("perfbench: create {}: {e}", options.work.display());
        return ExitCode::FAILURE;
    }
    let scratch = Scratch(options.work.clone());
    let result = run(&options);
    drop(scratch);
    match result {
        Ok(report) => {
            for error in &report.errors {
                eprintln!("perfbench: check failed: {error}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
