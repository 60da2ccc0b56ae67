//! `ssfa-perfbench` — the workspace's paper-scale benchmark.
//!
//! Three workloads run the system the way its users do: a full analysis
//! of the paper-scale corpus, a checkpointed run and its resume, and a
//! daemon that ingests the corpus over loopback and then recovers from
//! its write-ahead log. An untraced run reports the end-to-end metrics;
//! a traced run reports per-layer ones. Every run checks the outputs.
//! See `README.md` next to this crate for what each metric means.

#![warn(missing_docs)]

pub mod check;
pub mod layers;
pub mod mem;
pub mod pins;
pub mod report;
pub mod setup;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

use report::{median, Metric, END_TO_END, PER_LAYER};
use setup::Corpus;
use trace::{now, secs_since, Trace};
use workloads::{corpus_dir, iterate, prepare, Ledger, Prepared, Sizes, Workload};

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated fleet and corpus.
    pub seed: u64,
    /// How long to keep repeating the timed operation.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Corpus sizes.
    pub sizes: Sizes,
    /// Scratch directory for corpora, checkpoints and WALs.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose outputs failed a check.
    pub failed: u64,
    /// Why.
    pub errors: Vec<String>,
    /// Each metric with its value.
    pub metrics: Vec<(&'static Metric, f64)>,
}

impl Report {
    /// The result line.
    pub fn json(&self) -> String {
        report::result_json(self.failed == 0, self.attempted, self.failed, &self.metrics)
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// Set-up failures, or a run in which no operation completed.
pub fn run(options: &Options) -> Result<Report, String> {
    if options.traced {
        traced(options)
    } else {
        untraced(options)
    }
}

/// The end-to-end run: set up `setup_reps` times, then repeat the
/// workload's operation for `seconds` and report medians.
fn untraced(o: &Options) -> Result<Report, String> {
    let mut setup = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..o.sizes.setup_reps.max(1) {
        // Release the previous set-up's agent before building again.
        drop(prepared.take());
        let start = now();
        let built = prepare(o.workload, o.seed, &o.sizes, &o.work, &mut Trace::off())?;
        setup.push(secs_since(start));
        prepared = Some(built);
    }
    let prepared = prepared.expect("at least one set-up ran");

    // One untimed warm-up iteration lets the heap and page cache settle;
    // its outputs are still checked, and it measures the state ratio,
    // which is the same on every iteration.
    let mut ledger = Ledger::default();
    let mut run_once = |measure_state| {
        iterate(
            o.workload,
            &prepared,
            &o.work,
            measure_state,
            &mut Trace::off(),
            &mut ledger,
        )
    };
    let state = run_once(true).and_then(|warm| warm.state_ratio);
    let mut samples = Vec::new();
    let start = now();
    loop {
        let sample = run_once(false);
        if let Some(s) = &sample {
            eprintln!(
                "perfbench: {} iteration {}: {s:?}",
                o.workload.name(),
                samples.len()
            );
        }
        samples.extend(sample);
        if secs_since(start) >= o.seconds {
            break;
        }
    }
    let pick = |f: fn(&workloads::Sample) -> f64| {
        let values: Vec<f64> = samples.iter().map(f).collect();
        median(&values)
    };
    let values = [
        median(&setup),
        pick(|s| s.ingest_s),
        pick(|s| s.followup_s),
        pick(|s| s.peak_rss_mb),
        state,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(metric, value)| {
            value
                .map(|v| (metric, v))
                .ok_or_else(|| format!("no value for {}: {:?}", metric.name, ledger.errors))
        })
        .collect::<Result<_, _>>()?;
    Ok(Report {
        attempted: ledger.attempted,
        failed: ledger.failed,
        errors: ledger.errors,
        metrics,
    })
}

/// The corpus of fleet scale `scale`: `prepared`'s when it matches,
/// otherwise built untraced.
fn corpus_at(o: &Options, prepared: &Prepared, scale: f64) -> Result<Corpus, String> {
    if prepared.corpus.scale == scale {
        return Ok(prepared.corpus.clone());
    }
    setup::build_corpus(
        &corpus_dir(&o.work, scale),
        scale,
        o.seed,
        &mut Trace::off(),
    )
}

/// The traced run: the workload's set-up in spans, its operation once
/// untraced and once traced (their difference is the tracing overhead),
/// then every layer group.
fn traced(o: &Options) -> Result<Report, String> {
    let mut trace = Trace::on();
    let mut ledger = Ledger::default();
    let prepared = trace.span("setup", |t| {
        prepare(o.workload, o.seed, &o.sizes, &o.work, t)
    })?;
    let plain = iterate(
        o.workload,
        &prepared,
        &o.work,
        false,
        &mut Trace::off(),
        &mut ledger,
    );
    let traced = trace.span("e2e", |t| {
        iterate(o.workload, &prepared, &o.work, false, t, &mut ledger)
    });
    if let (Some(a), Some(b)) = (plain, traced) {
        let overhead = (b.ingest_s + b.followup_s) - (a.ingest_s + a.followup_s);
        trace.count("trace.overhead_s", overhead);
    }

    let full = corpus_at(o, &prepared, o.sizes.full_scale)?;
    let checkpoint = corpus_at(o, &prepared, o.sizes.checkpoint_scale)?;
    trace.span("layers.analyze_full", |t| {
        layers::analyze(&full, t, &mut ledger)
    })?;
    trace.span("layers.checkpoint_resume", |t| {
        layers::checkpoint(&checkpoint, &o.work, t, &mut ledger)
    })?;
    trace.span("layers.daemon_ingest", |t| {
        layers::daemon(&full, prepared.agent.as_ref(), &o.work, t, &mut ledger)
    })?;

    if let Some(path) = &o.trace_out {
        trace
            .write_to(path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let metrics = PER_LAYER
        .iter()
        .map(|metric| {
            trace
                .count_of(metric.name)
                .or_else(|| {
                    metric
                        .name
                        .strip_suffix("_s")
                        .and_then(|n| trace.seconds(n))
                })
                .map(|v| (metric, v))
                .ok_or_else(|| format!("the traced run did not measure {}", metric.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(Report {
        attempted: ledger.attempted,
        failed: ledger.failed,
        errors: ledger.errors,
        metrics,
    })
}
