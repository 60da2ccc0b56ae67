//! The `ssfa` command-line tool.
//!
//! The on-disk corpus workflow — *build once, analyze many times*:
//!
//! ```text
//! ssfa corpus build --out corpus/ --scale 0.01 --seed 2008
//! ssfa corpus verify corpus/ --deep
//! ssfa corpus analyze corpus/ --source mmap --threads 8
//! ```
//!
//! `build` renders a seeded fleet's support logs into a sharded corpus
//! directory (`ssfa::logs::CorpusWriter`), `verify` re-walks every frame
//! against its checksum and the manifest, and `analyze` runs the staged
//! pipeline over the corpus through a disk-backed source
//! ([`ssfa::FileSource`] or [`ssfa::MmapSource`]) — producing a Table 1
//! report bit-identical to the in-memory simulation path at the same
//! `(scale, seed, style)` (proven by `tests/corpus_differential.rs`).
//!
//! Argument parsing is deliberately hand-rolled: the workspace vendors no
//! CLI crate, and three subcommands do not justify one.

use std::path::PathBuf;
use std::process::ExitCode;

use ssfa::daemon::{AgentConfig, ReplayAgent};
use ssfa::logs::{CascadeStyle, CheckpointReader, CorpusWriter, Strictness};
use ssfa::pipeline::{Sink, Source, TextReportSink};
use ssfa::{FileSource, MmapSource, Pipeline};

const USAGE: &str = "\
usage: ssfa <corpus|checkpoint|agent> <subcommand> [options]
       ssfa --version

  ssfa corpus build --out <dir> [--scale <f>] [--seed <n>] [--style full|raid-only]
                    [--threads <n>] [--segment-shards <n>] [--force]
      Render a seeded fleet once into an on-disk sharded corpus.

  ssfa corpus verify <dir> [--deep]
      Re-walk every shard frame against its checksum and the manifest.
      --deep additionally re-parses every payload as corpus text.

  ssfa corpus analyze <dir> [--source file|mmap] [--threads <n>] [--lenient]
                     [--resume <ckpt-dir>] [--epoch-chunks <n>]
      Run the analysis pipeline over a corpus and print the Table 1 report.
      --resume checkpoints fold epochs into <ckpt-dir> and, when the
      directory already holds a checkpoint for this corpus, restarts from
      the last durable epoch instead of refolding absorbed shards.

  ssfa checkpoint ls <dir>
      List a checkpoint store's manifest: payload schema, corpus
      identity, and every durable epoch.

  ssfa checkpoint verify <dir>
      Re-walk every epoch frame against its checksum and manifest entry.

  ssfa agent replay <dir> --addr <ip:port> --tenant <t> [--session <s>]
                    [--lenient] [--max-attempts <n>] [--backoff-base-ms <n>]
                    [--backoff-cap-ms <n>] [--seed <n>]
      Stream a corpus's shard frames to a running ssfad, reconnecting
      with capped seeded backoff and resuming from the session cursor.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// CLI failures: usage errors print the help text and exit 2; runtime
/// errors print one line and exit 1.
enum CliError {
    Usage(String),
    Run(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn run(args: &[&str]) -> Result<(), CliError> {
    match args {
        ["--version"] => {
            println!("ssfa {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        ["corpus", rest @ ..] => match rest {
            ["build", opts @ ..] => corpus_build(opts),
            ["verify", opts @ ..] => corpus_verify(opts),
            ["analyze", opts @ ..] => corpus_analyze(opts),
            [other, ..] => Err(usage(format!("unknown corpus subcommand `{other}`"))),
            [] => Err(usage("corpus needs a subcommand")),
        },
        ["checkpoint", rest @ ..] => match rest {
            ["ls", opts @ ..] => checkpoint_ls(opts),
            ["verify", opts @ ..] => checkpoint_verify(opts),
            [other, ..] => Err(usage(format!("unknown checkpoint subcommand `{other}`"))),
            [] => Err(usage("checkpoint needs a subcommand")),
        },
        ["agent", rest @ ..] => match rest {
            ["replay", opts @ ..] => agent_replay(opts),
            [other, ..] => Err(usage(format!("unknown agent subcommand `{other}`"))),
            [] => Err(usage("agent needs a subcommand")),
        },
        [other, ..] => Err(usage(format!("unknown command `{other}`"))),
        [] => Err(usage("no command given")),
    }
}

/// A minimal `--flag value` walker over one subcommand's arguments.
struct Opts<'a> {
    args: std::slice::Iter<'a, &'a str>,
}

impl<'a> Opts<'a> {
    fn new(args: &'a [&'a str]) -> Opts<'a> {
        Opts { args: args.iter() }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.args.next().copied()
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| usage(format!("invalid value for {flag}: `{raw}`")))
    }
}

fn parse_style(raw: &str) -> Result<CascadeStyle, CliError> {
    match raw {
        "full" => Ok(CascadeStyle::Full),
        "raid-only" => Ok(CascadeStyle::RaidOnly),
        other => Err(usage(format!(
            "invalid value for --style: `{other}` (expected full or raid-only)"
        ))),
    }
}

fn corpus_build(args: &[&str]) -> Result<(), CliError> {
    let mut out: Option<PathBuf> = None;
    let mut scale = 0.01f64;
    let mut seed = 0u64;
    let mut style = CascadeStyle::RaidOnly;
    let mut threads: Option<usize> = None;
    let mut segment_shards: Option<usize> = None;
    let mut force = false;
    let mut opts = Opts::new(args);
    while let Some(flag) = opts.next() {
        match flag {
            "--out" => out = Some(PathBuf::from(opts.value(flag)?)),
            "--scale" => scale = opts.parse(flag)?,
            "--seed" => seed = opts.parse(flag)?,
            "--style" => style = parse_style(opts.value(flag)?)?,
            "--threads" => threads = Some(opts.parse(flag)?),
            "--segment-shards" => segment_shards = Some(opts.parse(flag)?),
            "--force" => force = true,
            other => return Err(usage(format!("unknown build option `{other}`"))),
        }
    }
    let out = out.ok_or_else(|| usage("build needs --out <dir>"))?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(usage("--scale must be positive"));
    }
    if threads == Some(0) {
        return Err(usage("--threads must be at least 1"));
    }
    if segment_shards == Some(0) {
        return Err(usage("--segment-shards must be at least 1"));
    }

    if force && out.join(ssfa::logs::MANIFEST_NAME).exists() {
        // Only ever removes a directory that demonstrably holds a corpus.
        std::fs::remove_dir_all(&out)
            .map_err(|e| CliError::Run(format!("cannot remove {}: {e}", out.display())))?;
    }

    let mut pipeline = Pipeline::new().scale(scale).seed(seed).cascade_style(style);
    if let Some(threads) = threads {
        pipeline = pipeline.threads(threads);
    }
    let fleet = pipeline.build_fleet();
    let output = pipeline.simulate(&fleet);

    let mut writer = CorpusWriter::new(&out)
        .param("scale", format!("{scale}"))
        .param("source", "ssfa-sim");
    if let Some(n) = segment_shards {
        writer = writer.segment_shards(n);
    }
    let summary = writer
        .write(&fleet, &output, style, seed)
        .map_err(|e| CliError::Run(e.to_string()))?;
    println!("built {}: {summary}", out.display());
    Ok(())
}

fn corpus_verify(args: &[&str]) -> Result<(), CliError> {
    let mut dir: Option<PathBuf> = None;
    let mut deep = false;
    let mut opts = Opts::new(args);
    while let Some(flag) = opts.next() {
        match flag {
            "--deep" => deep = true,
            other if !other.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(other));
            }
            other => return Err(usage(format!("unknown verify option `{other}`"))),
        }
    }
    let dir = dir.ok_or_else(|| usage("verify needs a corpus directory"))?;
    let reader = ssfa::logs::CorpusReader::open(&dir).map_err(|e| CliError::Run(e.to_string()))?;
    let summary = reader
        .verify(deep)
        .map_err(|e| CliError::Run(e.to_string()))?;
    println!("verified {}: {summary}", dir.display());
    Ok(())
}

fn corpus_analyze(args: &[&str]) -> Result<(), CliError> {
    let mut dir: Option<PathBuf> = None;
    let mut source_kind = "file";
    let mut threads: Option<usize> = None;
    let mut lenient = false;
    let mut resume: Option<PathBuf> = None;
    let mut epoch_chunks: Option<usize> = None;
    let mut opts = Opts::new(args);
    while let Some(flag) = opts.next() {
        match flag {
            "--source" => {
                source_kind = match opts.value(flag)? {
                    kind @ ("file" | "mmap") => kind,
                    other => {
                        return Err(usage(format!(
                            "invalid value for --source: `{other}` (expected file or mmap)"
                        )))
                    }
                }
            }
            "--threads" => threads = Some(opts.parse(flag)?),
            "--lenient" => lenient = true,
            "--resume" => resume = Some(PathBuf::from(opts.value(flag)?)),
            "--epoch-chunks" => epoch_chunks = Some(opts.parse(flag)?),
            other if !other.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(other));
            }
            other => return Err(usage(format!("unknown analyze option `{other}`"))),
        }
    }
    let dir = dir.ok_or_else(|| usage("analyze needs a corpus directory"))?;
    if threads == Some(0) {
        return Err(usage("--threads must be at least 1"));
    }
    if epoch_chunks == Some(0) {
        return Err(usage("--epoch-chunks must be at least 1"));
    }
    if epoch_chunks.is_some() && resume.is_none() {
        return Err(usage("--epoch-chunks needs --resume <ckpt-dir>"));
    }

    let mut pipeline = Pipeline::new();
    if let Some(threads) = threads {
        pipeline = pipeline.threads(threads);
    }
    if lenient {
        pipeline = pipeline.strictness(Strictness::Lenient);
    }
    if let Some(n) = epoch_chunks {
        pipeline = pipeline.epoch_chunks(n);
    }

    let run = |source: &dyn Source| pipeline.run_source(source);
    let (study, stats, health) = match source_kind {
        "file" => {
            let source = FileSource::open(&dir).map_err(|e| CliError::Run(e.to_string()))?;
            match &resume {
                Some(ckpt) => pipeline.resume_from(&source, ckpt),
                None => run(&source),
            }
        }
        _ => {
            let source = MmapSource::open(&dir).map_err(|e| CliError::Run(e.to_string()))?;
            match &resume {
                Some(ckpt) => pipeline.resume_from(&source, ckpt),
                None => run(&source),
            }
        }
    }
    .map_err(|e| CliError::Run(e.to_string()))?;

    TextReportSink::new(std::io::stdout().lock())
        .consume(&study, &health)
        .map_err(|e| CliError::Run(e.to_string()))?;
    println!(
        "{} shards in {} chunks, peak resident shard {} bytes of {} corpus bytes",
        health.shards_total, health.chunks_total, stats.max_shard_bytes, stats.total_bytes
    );
    Ok(())
}

/// Shared positional parsing for both `checkpoint` subcommands: one
/// directory, no flags.
fn checkpoint_dir(args: &[&str], what: &str) -> Result<PathBuf, CliError> {
    let mut dir: Option<PathBuf> = None;
    let mut opts = Opts::new(args);
    while let Some(flag) = opts.next() {
        match flag {
            other if !other.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(other));
            }
            other => return Err(usage(format!("unknown {what} option `{other}`"))),
        }
    }
    dir.ok_or_else(|| usage(format!("{what} needs a checkpoint directory")))
}

fn checkpoint_ls(args: &[&str]) -> Result<(), CliError> {
    let dir = checkpoint_dir(args, "checkpoint ls")?;
    let reader = CheckpointReader::open(&dir).map_err(|e| CliError::Run(e.to_string()))?;
    let manifest = reader.manifest();
    println!(
        "checkpoint {}: payload v{}, corpus seed {} style {:?}, {} epoch(s)",
        dir.display(),
        manifest.payload_version,
        manifest.corpus_seed,
        manifest.corpus_style,
        manifest.epochs.len()
    );
    for (index, epoch) in manifest.epochs.iter().enumerate() {
        println!(
            "  epoch {index}: shards {}..{} in {} chunk(s), {} snapshot bytes, checksum {:016x}",
            epoch.shard_start, epoch.shard_end, epoch.chunks, epoch.payload_len, epoch.checksum
        );
    }
    Ok(())
}

fn checkpoint_verify(args: &[&str]) -> Result<(), CliError> {
    let dir = checkpoint_dir(args, "checkpoint verify")?;
    let reader = CheckpointReader::open(&dir).map_err(|e| CliError::Run(e.to_string()))?;
    let bytes = reader.verify().map_err(|e| CliError::Run(e.to_string()))?;
    println!(
        "verified {}: {} epoch(s), {bytes} snapshot bytes",
        dir.display(),
        reader.epoch_count()
    );
    Ok(())
}

fn agent_replay(args: &[&str]) -> Result<(), CliError> {
    let mut dir: Option<PathBuf> = None;
    let mut addr: Option<String> = None;
    let mut config = AgentConfig::clean("", "replay");
    let mut opts = Opts::new(args);
    while let Some(flag) = opts.next() {
        match flag {
            "--addr" => addr = Some(opts.value(flag)?.to_owned()),
            "--tenant" => config.tenant = opts.value(flag)?.to_owned(),
            "--session" => config.session = opts.value(flag)?.to_owned(),
            "--lenient" => config.strictness = Strictness::Lenient,
            "--max-attempts" => config.max_attempts = opts.parse(flag)?,
            "--backoff-base-ms" => config.backoff.base_ms = opts.parse(flag)?,
            "--backoff-cap-ms" => config.backoff.cap_ms = opts.parse(flag)?,
            "--seed" => {
                let seed: u64 = opts.parse(flag)?;
                config.backoff.seed = seed;
                config.fault_seed = seed;
            }
            other if !other.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(other));
            }
            other => return Err(usage(format!("unknown replay option `{other}`"))),
        }
    }
    let dir = dir.ok_or_else(|| usage("replay needs a corpus directory"))?;
    let addr = addr.ok_or_else(|| usage("replay needs --addr <ip:port>"))?;
    if config.tenant.is_empty() {
        return Err(usage("replay needs --tenant <t>"));
    }
    if config.max_attempts == 0 {
        return Err(usage("--max-attempts must be at least 1"));
    }
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| usage(format!("invalid --addr: `{addr}`")))?;

    let agent = ReplayAgent::from_corpus(config, &dir).map_err(CliError::Run)?;
    let total = agent.stream_len();
    let report = agent.run(addr).map_err(|e| CliError::Run(e.to_string()))?;
    match &report.quarantined {
        Some(reason) => println!(
            "tenant quarantined after {}/{total} frames: {reason}",
            report.final_cursor
        ),
        None => println!(
            "replayed {total} frames in {} connection(s)",
            report.connections
        ),
    }
    Ok(())
}
