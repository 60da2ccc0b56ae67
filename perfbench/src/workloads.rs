//! The three workloads and their timed operations.
//!
//! Each operation takes a [`Trace`]: the end-to-end runs pass a disabled
//! one, and the traced run passes the same operation an enabled one to
//! measure the tracing overhead.

use std::hint::black_box;
use std::path::Path;

use ssfa_core::{FindingsReport, StudyFold};
use ssfa_daemon::{AgentConfig, BusConfig, ReplayAgent, Server, ServerConfig};
use ssfa_logs::{CheckpointReader, CheckpointWriter, CorpusReader};
use ssfa_pipeline::{FileSource, MmapSource};

use crate::check::{check, same, tenant_outcome, Outcome};
use crate::mem;
use crate::setup::{self, clear_dir, dir_bytes, Corpus};
use crate::trace::{now, secs_since, Trace};

/// The seed the pins and the documented sizes refer to.
pub const DEFAULT_SEED: u64 = 2008;

/// Tenant and session the replay agent streams as.
pub const TENANT: &str = "perfbench";
/// See [`TENANT`].
pub const SESSION: &str = "replay";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scale-1.0 corpus → `FileSource` → `run_source` → Table 1 → Findings.
    AnalyzeFull,
    /// Scale-0.1 corpus over `MmapSource`: checkpointed cold run, then a
    /// resume from half of its epochs.
    CheckpointResume,
    /// Scale-1.0 corpus replayed into an in-process `ssfad` with a WAL,
    /// then a restart that recovers from the WAL.
    DaemonIngest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AnalyzeFull,
        Workload::CheckpointResume,
        Workload::DaemonIngest,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeFull => "analyze_full",
            Workload::CheckpointResume => "checkpoint_resume",
            Workload::DaemonIngest => "daemon_ingest",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Corpus sizes. [`Sizes::PAPER`] is what the benchmark runs; the
/// benchmark's own tests shrink it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Fleet scale of `analyze_full` and `daemon_ingest` (1.0 = the
    /// paper's ~39,000 systems).
    pub full_scale: f64,
    /// Fleet scale of `checkpoint_resume`: checkpoints hold a cumulative
    /// snapshot per epoch, so their bytes grow quadratically with scale.
    pub checkpoint_scale: f64,
    /// How many times one run builds its corpus; `setup_s` is the median.
    pub setup_reps: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const PAPER: Sizes = Sizes {
        full_scale: 1.0,
        checkpoint_scale: 0.1,
        setup_reps: 3,
    };

    /// The fleet scale `workload` runs at.
    pub fn scale(&self, workload: Workload) -> f64 {
        match workload {
            Workload::CheckpointResume => self.checkpoint_scale,
            Workload::AnalyzeFull | Workload::DaemonIngest => self.full_scale,
        }
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose call failed or whose output failed a check.
    pub failed: u64,
    /// Why they failed.
    pub errors: Vec<String>,
}

impl Ledger {
    /// Records one operation with the check failures it produced.
    pub fn op(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }

    /// Records one operation whose call failed outright.
    pub fn fail(&mut self, error: String) {
        self.op(vec![error]);
    }
}

/// One timed iteration of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The pass that takes the corpus in.
    pub ingest_s: f64,
    /// The pass that follows it.
    pub followup_s: f64,
    /// Peak RSS over the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Retained analysis state per corpus payload byte, when measured.
    pub state_ratio: Option<f64>,
}

/// A workload's set-up output: its corpus, plus the loaded replay agent
/// for `daemon_ingest`.
#[derive(Debug)]
pub struct Prepared {
    /// The corpus.
    pub corpus: Corpus,
    /// The replay agent holding every shard frame.
    pub agent: Option<ReplayAgent>,
}

/// Builds `workload`'s corpus under `work` (and loads its agent).
///
/// # Errors
///
/// Corpus build or agent load errors.
pub fn prepare(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    work: &Path,
    trace: &mut Trace,
) -> Result<Prepared, String> {
    let scale = sizes.scale(workload);
    let corpus = setup::build_corpus(&corpus_dir(work, scale), scale, seed, trace)?;
    let agent = match workload {
        Workload::DaemonIngest => Some(load_agent(&corpus, trace)?),
        Workload::AnalyzeFull | Workload::CheckpointResume => None,
    };
    Ok(Prepared { corpus, agent })
}

/// Where the corpus of fleet scale `scale` lives under `work`.
pub fn corpus_dir(work: &Path, scale: f64) -> std::path::PathBuf {
    work.join(format!("corpus-{scale}"))
}

/// `ReplayAgent::from_corpus`, in the `daemon.agent_load` span.
///
/// # Errors
///
/// The agent's corpus read error.
pub fn load_agent(corpus: &Corpus, trace: &mut Trace) -> Result<ReplayAgent, String> {
    trace.span("daemon.agent_load", |_| {
        ReplayAgent::from_corpus(AgentConfig::clean(TENANT, SESSION), &corpus.dir)
    })
}

/// Runs one iteration of `workload`, recording its operations in
/// `ledger`. `None` when an operation failed before it could be timed.
/// `analyze_full` measures its state ratio only when `measure_state` is
/// set: the value is deterministic and costs a snapshot of the study.
pub fn iterate(
    workload: Workload,
    prepared: &Prepared,
    work: &Path,
    measure_state: bool,
    trace: &mut Trace,
    ledger: &mut Ledger,
) -> Option<Sample> {
    let result = match (workload, &prepared.agent) {
        (Workload::AnalyzeFull, _) => analyze_once(&prepared.corpus, measure_state, trace, ledger),
        (Workload::CheckpointResume, _) => checkpoint_once(&prepared.corpus, work, trace, ledger),
        (Workload::DaemonIngest, Some(agent)) => {
            daemon_once(&prepared.corpus, agent, work, trace, ledger)
        }
        (Workload::DaemonIngest, None) => Err("daemon_ingest was set up without an agent".into()),
    };
    result.map_err(|e| ledger.fail(e)).ok()
}

/// `analyze_full`: corpus open → `run_source` (the ingest pass), then
/// Table 1 and Findings (the follow-up pass).
fn analyze_once(
    corpus: &Corpus,
    measure_state: bool,
    trace: &mut Trace,
    ledger: &mut Ledger,
) -> Result<Sample, String> {
    let pipeline = setup::pipeline(corpus.scale, corpus.seed);
    mem::reset_peak_rss();
    let start = now();
    let run = trace.span("e2e.analyze_ingest", |t| {
        let source = t
            .span("e2e.source_open", |_| FileSource::open(&corpus.dir))
            .map_err(|e| format!("open corpus: {e}"))?;
        t.span("e2e.run_source", |_| pipeline.run_source(&source))
            .map_err(|e| format!("run_source: {e}"))
    });
    let ingest_s = secs_since(start);
    let (study, _stats, health) = run?;
    let start = now();
    let findings = trace.span("e2e.analyze_followup", |t| {
        black_box(t.span("e2e.table1", |_| study.table1()));
        t.span("e2e.findings", |_| FindingsReport::evaluate(&study))
    });
    let followup_s = secs_since(start);
    let peak_rss_mb = mem::peak_rss_mb()?;

    let mut errors = check("analyze_full", &Outcome::offline(&study, &health), corpus);
    if !findings.all_pass() {
        let failed: Vec<u8> = findings.failed().iter().map(|f| f.id).collect();
        errors.push(format!("analyze_full: findings {failed:?} do not hold"));
    }
    ledger.op(errors);
    // The state a durable pass would keep: one snapshot of the analysis.
    let state_ratio = measure_state.then(|| {
        let mut fold = StudyFold::new();
        fold.push(study.input().clone());
        fold.to_snapshot().len() as f64 / corpus.truth.payload_bytes as f64
    });
    Ok(Sample {
        ingest_s,
        followup_s,
        peak_rss_mb,
        state_ratio,
    })
}

/// `checkpoint_resume`: a checkpointed cold run into an empty directory
/// (the ingest pass), then a resume after truncating the checkpoint to
/// half its epochs (the follow-up pass).
fn checkpoint_once(
    corpus: &Corpus,
    work: &Path,
    trace: &mut Trace,
    ledger: &mut Ledger,
) -> Result<Sample, String> {
    let dir = work.join("checkpoint");
    clear_dir(&dir)?;
    let pipeline = setup::pipeline(corpus.scale, corpus.seed);
    let open = |t: &mut Trace| {
        t.span("e2e.mmap_open", |_| MmapSource::open(&corpus.dir))
            .map_err(|e| format!("open corpus: {e}"))
    };
    mem::reset_peak_rss();
    let start = now();
    let cold = trace.span("e2e.checkpoint_cold", |t| {
        let source = open(t)?;
        t.span("e2e.run_source_checkpointed", |_| {
            pipeline.run_source_checkpointed(&source, &dir)
        })
        .map_err(|e| format!("run_source_checkpointed: {e}"))
    });
    let ingest_s = secs_since(start);
    let (cold_study, _, cold_health) = cold?;
    let cold = Outcome::offline(&cold_study, &cold_health);
    ledger.op(check("checkpoint cold", &cold, corpus));
    let checkpoint_bytes = dir_bytes(&dir)?;

    let reader = CheckpointReader::open(&dir).map_err(|e| e.to_string())?;
    let keep = reader.epoch_count() / 2;
    let restored_shards = keep
        .checked_sub(1)
        .map_or(0, |last| reader.manifest().epochs[last].shard_end);
    let mut writer = CheckpointWriter::append_to(&dir).map_err(|e| e.to_string())?;
    writer.truncate_to(keep).map_err(|e| e.to_string())?;

    let start = now();
    let resumed = trace.span("e2e.resume", |t| {
        let source = open(t)?;
        t.span("e2e.resume_from", |_| pipeline.resume_from(&source, &dir))
            .map_err(|e| format!("resume_from: {e}"))
    });
    let followup_s = secs_since(start);
    let peak_rss_mb = mem::peak_rss_mb()?;
    let (study, _, health) = resumed?;
    // A resumed run's health covers only the shards it re-read.
    let manifest = CorpusReader::open(&corpus.dir).map_err(|e| e.to_string())?;
    let mut resumed = Outcome::offline(&study, &health);
    resumed.summary.lines_seen += manifest.manifest().shards[..restored_shards]
        .iter()
        .map(|e| e.line_count)
        .sum::<u64>();
    ledger.op(same("resumed vs cold", &resumed, &cold));
    Ok(Sample {
        ingest_s,
        followup_s,
        peak_rss_mb,
        state_ratio: Some(checkpoint_bytes as f64 / corpus.truth.payload_bytes as f64),
    })
}

/// The daemon configuration: a WAL in `wal`, and a queue that holds the
/// whole stream, so the replay measures absorption and never sheds.
pub fn server_config(wal: &Path, stream_len: u64) -> ServerConfig {
    ServerConfig {
        bus: BusConfig {
            queue_capacity: usize::try_from(stream_len).unwrap_or(usize::MAX),
            ..BusConfig::default()
        },
        wal: Some(wal.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Streams `agent`'s corpus into a fresh server with an empty WAL in
/// `wal` and drains it. Returns the ingest time (first `HELLO` to
/// drained summary), the tenant's outcome, and any check failures;
/// records `daemon.connections` and `daemon.frames_shed`.
///
/// # Errors
///
/// When the server cannot start.
pub fn ingest(
    corpus: &Corpus,
    agent: &ReplayAgent,
    wal: &Path,
    trace: &mut Trace,
) -> Result<(f64, Option<Outcome>, Vec<String>), String> {
    clear_dir(wal)?;
    let server = Server::spawn(server_config(wal, agent.stream_len()))
        .map_err(|e| format!("spawn ssfad: {e}"))?;
    let start = now();
    let replay = trace.span("e2e.replay", |_| agent.run(server.addr()));
    let drained = trace.span("e2e.drain", |_| server.finish());
    let ingest_s = secs_since(start);

    let mut errors = Vec::new();
    match replay {
        Ok(report) => {
            trace.count("daemon.connections", f64::from(report.connections));
            if report.connections != 1 || report.quarantined.is_some() {
                errors.push(format!("replay: {report:?}"));
            }
        }
        Err(e) => errors.push(format!("replay gave up: {e:?}")),
    }
    let shed: u64 = drained.tenants.iter().map(|t| t.stats.frames_shed).sum();
    trace.count("daemon.frames_shed", shed as f64);
    let outcome = tenant_outcome(&drained.tenants, &mut errors);
    if let Some(outcome) = &outcome {
        errors.extend(check("daemon ingest", outcome, corpus));
    }
    Ok((ingest_s, outcome, errors))
}

/// `daemon_ingest`: replay into a fresh WAL-backed server (the ingest
/// pass), then restart a server on that WAL (the follow-up pass: WAL
/// recovery until it accepts connections).
fn daemon_once(
    corpus: &Corpus,
    agent: &ReplayAgent,
    work: &Path,
    trace: &mut Trace,
    ledger: &mut Ledger,
) -> Result<Sample, String> {
    let wal = work.join("wal");
    mem::reset_peak_rss();
    let (ingest_s, ingested, errors) = ingest(corpus, agent, &wal, trace)?;
    let peak_rss_mb = mem::peak_rss_mb()?;
    ledger.op(errors);
    let wal_bytes = dir_bytes(&wal)?;

    let start = now();
    let recovered = trace.span("e2e.wal_recover", |_| {
        Server::spawn(server_config(&wal, agent.stream_len()))
    });
    let followup_s = secs_since(start);
    let recovered = recovered
        .map_err(|e| format!("restart ssfad: {e}"))?
        .finish();
    let mut errors = Vec::new();
    if let (Some(recovered), Some(ingested)) =
        (tenant_outcome(&recovered.tenants, &mut errors), &ingested)
    {
        errors.extend(same("recovered vs ingested", &recovered, ingested));
    }
    ledger.op(errors);
    Ok(Sample {
        ingest_s,
        followup_s,
        peak_rss_mb,
        state_ratio: Some(wal_bytes as f64 / corpus.truth.payload_bytes as f64),
    })
}
