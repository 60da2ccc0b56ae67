//! The traced run's per-layer probes. Each drives one workload's layers
//! through their public calls, one span or running total per layer, and
//! checks what comes out. Every traced run executes all three groups, so
//! every per-layer metric is measured on every traced run; each group
//! reads the corpus of the workload it explains.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use ssfa_core::{FindingsReport, StudyFold, SNAPSHOT_VERSION};
use ssfa_daemon::{
    read_message, write_message, Admission, IngestBus, Message, MessageKind, ReplayAgent,
    WriteAheadLog, DEFAULT_SEGMENT_BYTES,
};
use ssfa_logs::{
    corpus_epoch_digest, CascadeStyle, CheckpointReader, CheckpointWriter, Classifier,
    CorpusReader, Strictness,
};
use ssfa_pipeline::{ChunkPolicy, FileSource, MmapSource, RunHealth, ShardData, Source};

use crate::check::{check, same, tenant_outcome, Outcome};
use crate::mem;
use crate::setup::{self, clear_dir, dir_bytes, Corpus};
use crate::trace::Trace;
use crate::workloads::{ingest, load_agent, server_config, Ledger, SESSION, TENANT};

/// Labels an error with what was being done.
fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Seconds in the span or total `name`; an error if none was recorded.
fn seconds(trace: &Trace, name: &str) -> Result<f64, String> {
    trace
        .seconds(name)
        .ok_or_else(|| format!("trace has no span `{name}`"))
}

/// `analyze_full`'s layers over its scale-1.0 corpus: the engine at one
/// and two threads, then the same stages driven one call at a time on
/// one thread — open, load, feed, finish, fold, Table 1, Findings.
///
/// # Errors
///
/// A call that failed; check failures go to `ledger`.
pub fn analyze(corpus: &Corpus, trace: &mut Trace, ledger: &mut Ledger) -> Result<(), String> {
    let pipeline = setup::pipeline(corpus.scale, corpus.seed);
    let source = FileSource::open(&corpus.dir).map_err(err("open corpus"))?;
    let engine = |t: &mut Trace, name: &'static str, threads: usize| {
        t.span(name, |_| {
            pipeline.clone().threads(threads).run_source(&source)
        })
        .map_err(err(name))
    };
    let (one, _, one_health) = engine(trace, "pipeline.run_source_1t", 1)?;
    let (two, _, two_health) = engine(trace, "pipeline.run_source_2t", setup::THREADS)?;
    let one = Outcome::offline(&one, &one_health);
    let two = Outcome::offline(&two, &two_health);
    ledger.op(check("engine 1 thread", &one, corpus));
    ledger.op(same("engine 2 threads vs 1", &two, &one));

    let source = trace
        .span("pipeline.source_open", |_| FileSource::open(&corpus.dir))
        .map_err(err("open corpus"))?;
    let plan = source.plan_chunks(ChunkPolicy::Auto);
    let mut fold = StudyFold::new();
    let mut lines = 0u64;
    let mut allocs = 0u64;
    for range in plan.iter() {
        let mut classifier = Classifier::with_strictness(Strictness::Strict);
        for shard in range {
            let data = trace.add("pipeline.file_load", || source.load(shard));
            let ShardData::Text(text) = data else {
                return Err("FileSource loaded a shard as parsed lines".to_owned());
            };
            let (fed, n) = mem::count_allocs(|| {
                trace.add("logs.classify_feed", || {
                    classifier.feed_bytes(text.as_bytes())?;
                    classifier.flush_tail()
                })
            });
            fed.map_err(err("feed"))?;
            allocs += n;
        }
        let (partial, health) = trace
            .add("logs.classify_finish", || classifier.finish_with_health())
            .map_err(err("classify finish"))?;
        lines += health.lines_seen;
        trace.add("core.fold_push", || fold.push(partial));
    }
    trace.count("core.fold_state_bytes", fold.to_snapshot().len() as f64);
    trace.count("logs.allocs_per_line", allocs as f64 / lines.max(1) as f64);
    let study = trace.span("core.fold_finish", |_| fold.finish());
    black_box(trace.span("core.table1", |_| study.table1()));
    let findings = trace.span("core.findings", |_| FindingsReport::evaluate(&study));
    let health = RunHealth {
        lines_seen: lines,
        ..RunHealth::default()
    };
    ledger.op(same(
        "staged vs engine",
        &Outcome::offline(&study, &health),
        &one,
    ));
    if !findings.all_pass() {
        ledger.fail("staged: findings do not all hold".to_owned());
    }

    let one_s = seconds(trace, "pipeline.run_source_1t")?;
    trace.count(
        "pipeline.parallel_speedup",
        one_s / seconds(trace, "pipeline.run_source_2t")?,
    );
    let staged: f64 = [
        "pipeline.file_load",
        "logs.classify_feed",
        "logs.classify_finish",
        "core.fold_push",
    ]
    .iter()
    .map(|name| seconds(trace, name))
    .sum::<Result<f64, String>>()?;
    trace.count("pipeline.engine_overhead_s", one_s - staged);
    Ok(())
}

/// `checkpoint_resume`'s layers over its scale-0.1 corpus: mmap loads, a
/// plain and a checkpointed run, checkpoint verify, the restore epoch's
/// read, the final snapshot's decode and encode, and one epoch write.
///
/// # Errors
///
/// A call that failed; check failures go to `ledger`.
pub fn checkpoint(
    corpus: &Corpus,
    work: &Path,
    trace: &mut Trace,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let pipeline = setup::pipeline(corpus.scale, corpus.seed);
    let source = trace
        .span("pipeline.mmap_load", |_| {
            let source = MmapSource::open(&corpus.dir)?;
            for shard in 0..source.shard_count() {
                black_box(source.load(shard));
            }
            Ok::<_, ssfa_logs::CorpusError>(source)
        })
        .map_err(err("mmap corpus"))?;
    let (plain, _, plain_health) = trace
        .span("pipeline.plain_run", |_| pipeline.run_source(&source))
        .map_err(err("run_source"))?;
    let plain = Outcome::offline(&plain, &plain_health);
    ledger.op(check("plain run", &plain, corpus));

    let dir = work.join("layers-checkpoint");
    clear_dir(&dir)?;
    let (cold, _, cold_health) = trace
        .span("pipeline.checkpoint_cold", |_| {
            pipeline.run_source_checkpointed(&source, &dir)
        })
        .map_err(err("run_source_checkpointed"))?;
    ledger.op(same(
        "checkpointed vs plain",
        &Outcome::offline(&cold, &cold_health),
        &plain,
    ));
    trace.count(
        "pipeline.checkpoint_overhead",
        seconds(trace, "pipeline.checkpoint_cold")? / seconds(trace, "pipeline.plain_run")?,
    );

    let reader = CheckpointReader::open(&dir).map_err(err("open checkpoint"))?;
    let epochs = reader.epoch_count();
    trace.count("logs.checkpoint_epochs", epochs as f64);
    trace.count("logs.checkpoint_bytes", dir_bytes(&dir)? as f64);
    trace
        .span("logs.checkpoint_verify", |_| reader.verify())
        .map_err(err("verify checkpoint"))?;
    let restore = (epochs / 2).max(1) - 1;
    black_box(
        trace
            .span("logs.epoch_read", |_| reader.read_epoch(restore))
            .map_err(err("read restore epoch"))?,
    );
    let last = reader
        .read_epoch(epochs - 1)
        .map_err(err("read last epoch"))?;
    let fold = trace
        .span("core.snapshot_decode", |_| StudyFold::from_snapshot(&last))
        .map_err(err("decode snapshot"))?;
    let encoded = trace.span("core.snapshot_encode", |_| fold.to_snapshot());
    ledger.op(if encoded == last {
        same(
            "final snapshot vs plain",
            &Outcome::offline(&fold.finish(), &plain_health),
            &plain,
        )
    } else {
        vec!["snapshot re-encode differs from the stored epoch".to_owned()]
    });

    let store = work.join("layers-epoch");
    clear_dir(&store)?;
    let mut writer = CheckpointWriter::create(
        &store,
        SNAPSHOT_VERSION,
        corpus.seed,
        CascadeStyle::RaidOnly,
    )
    .map_err(err("create epoch store"))?;
    let shards = source.shard_count();
    let digest = corpus_epoch_digest(source.reader().manifest(), 0..shards);
    let chunks = source.plan_chunks(ChunkPolicy::Auto).chunk_count();
    trace
        .span("logs.epoch_write", |_| {
            writer.write_epoch(0..shards, chunks, digest, &encoded)
        })
        .map_err(err("write epoch"))?;
    clear_dir(&dir)?;
    clear_dir(&store)
}

/// `daemon_ingest`'s layers over its scale-1.0 corpus: one replay over
/// loopback (for the connection and shed counts), wire encode and decode
/// of every `DATA` message, WAL appends, bus admission and drain without
/// sockets, and WAL open and replay. `agent` is the already-loaded agent
/// when the traced workload set one up; otherwise one is loaded here.
///
/// # Errors
///
/// A call that failed; check failures go to `ledger`.
pub fn daemon(
    corpus: &Corpus,
    agent: Option<&ReplayAgent>,
    work: &Path,
    trace: &mut Trace,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let wal = work.join("layers-wal");
    let (_, _, errors) = match agent {
        Some(agent) => ingest(corpus, agent, &wal, trace)?,
        None => {
            let agent = load_agent(corpus, trace)?;
            ingest(corpus, &agent, &wal, trace)?
        }
    };
    ledger.op(errors);

    let reader = CorpusReader::open(&corpus.dir).map_err(err("open corpus"))?;
    let frames = (0..reader.shard_count())
        .map(|shard| reader.read_shard_frame(shard))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("read frames"))?;

    let mut wire = Vec::new();
    let mut mismatched = 0usize;
    for (seq, frame) in frames.iter().enumerate() {
        let msg = Message {
            kind: MessageKind::Data,
            seq: seq as u64,
            body: frame.clone(),
        };
        wire.clear();
        trace
            .add("daemon.wire_encode", || write_message(&mut wire, &msg))
            .map_err(err("encode"))?;
        let back = trace
            .add("daemon.wire_decode", || read_message(&mut wire.as_slice()))
            .map_err(err("decode"))?;
        mismatched += usize::from(back != msg);
    }
    ledger.op(if mismatched == 0 {
        Vec::new()
    } else {
        vec![format!("{mismatched} DATA messages did not round-trip")]
    });

    let append_dir = work.join("layers-wal-append");
    clear_dir(&append_dir)?;
    let (log, _) =
        WriteAheadLog::open(&append_dir, DEFAULT_SEGMENT_BYTES).map_err(err("open WAL"))?;
    for (seq, frame) in frames.iter().enumerate() {
        trace
            .add("daemon.wal_append", || {
                log.append(TENANT, Strictness::Strict, SESSION, seq as u64, frame)
            })
            .map_err(err("WAL append"))?;
    }
    drop(log);
    clear_dir(&append_dir)?;

    // Admission on a WAL-backed bus, no sockets; then recovery from it.
    clear_dir(&wal)?;
    let config = server_config(&wal, frames.len() as u64).bus;
    let (log, _) = WriteAheadLog::open(&wal, DEFAULT_SEGMENT_BYTES).map_err(err("open WAL"))?;
    let bus = Arc::new(IngestBus::with_wal(config, Arc::new(log)));
    let admitted = trace.span("daemon.admit", |_| {
        bus.hello(TENANT, SESSION, Strictness::Strict)?;
        let mut refused = 0usize;
        for (seq, frame) in frames.into_iter().enumerate() {
            refused +=
                usize::from(bus.admit(TENANT, SESSION, seq as u64, frame) != Admission::Admitted);
        }
        Ok::<_, String>(refused)
    });
    let drained = trace.span("daemon.drain", |_| bus.drain());
    let mut errors = match admitted {
        Ok(0) => Vec::new(),
        Ok(refused) => vec![format!("bus refused {refused} frames")],
        Err(e) => vec![format!("hello: {e}")],
    };
    let direct = tenant_outcome(&drained, &mut errors);
    if let Some(direct) = &direct {
        errors.extend(check("bus admit", direct, corpus));
    }
    ledger.op(errors);

    let (log, records) = trace
        .span("daemon.wal_open", |_| {
            WriteAheadLog::open(&wal, DEFAULT_SEGMENT_BYTES)
        })
        .map_err(err("reopen WAL"))?;
    let bus = Arc::new(IngestBus::with_wal(config, Arc::new(log)));
    trace.span("daemon.wal_replay", |_| bus.replay_wal(records));
    let mut errors = Vec::new();
    let replayed = tenant_outcome(&bus.drain(), &mut errors);
    if let (Some(direct), Some(replayed)) = (&direct, &replayed) {
        errors.extend(same("WAL replay vs admit", replayed, direct));
    }
    ledger.op(errors);
    clear_dir(&wal)
}
