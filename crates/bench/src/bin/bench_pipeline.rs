//! Machine-readable pipeline benchmark runner and CI perf-regression gate.
//!
//! Benchmarks the end-to-end pipeline under every execution strategy —
//! monolithic, streaming at chunk size 1, streaming with auto chunking,
//! streaming over an on-disk corpus through both disk-backed sources
//! (`corpus_file`, `corpus_mmap`; the corpus is built once outside the
//! timed region, so these measure pure analysis with simulation and
//! rendering amortized away), and resuming from a half-covered fold
//! checkpoint (`corpus_resume`: every rep restores a staged checkpoint
//! and folds only the uncovered tail, measuring the warm-restart path)
//! — and emits one `BENCH_pipeline.json` with
//! wall time, peak resident corpus bytes, allocations per corpus line,
//! and shard throughput per configuration.
//!
//! The binary installs a counting global allocator for a
//! per-configuration `allocs_per_line` metric (measured in the untimed
//! counters round, so timing reps stay clean), gated against the
//! baseline for the pure-analysis corpus configurations. The absolute
//! zero-allocation parse contract is a tier-1 test instead
//! (`tests/parse_allocs.rs`).
//!
//! Modes:
//!
//! - *(no args)* — run the benches and write the JSON.
//! - `--write-baseline <path>` — also write the results as a gate
//!   baseline (how a new baseline is blessed).
//! - `--check <baseline>` — run the benches, then gate against the
//!   baseline. Every violation names the exact configuration and metric
//!   as a `[config=<name> metric=<metric>]` prefix. The gates:
//!   fail (exit 1) if the baseline was recorded at other run parameters
//!   (a `[metric=params]` violation naming the field), if a gated
//!   configuration's streaming/monolithic wall-time ratio regressed by
//!   more than 25% relative to the baseline's ratio, if any streaming
//!   configuration's peak resident corpus bytes grew at all, or if a
//!   gated configuration's allocations-per-line grew more than 10% over
//!   baseline.
//!
//! The run parameters are fixed: scale 0.01, seed 1988, one thread and
//! five reps (the median wall time is reported), the values the CI
//! baseline records. The one environment knob is `SSFA_BENCH_OUT`, the
//! output path (default `BENCH_pipeline.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ssfa::Pipeline;

/// Fleet scale of every configuration: the scale-0.01 smoke fleet.
const SCALE: f64 = 0.01;

/// Fleet and render seed.
const SEED: u64 = 1988;

/// Worker threads of every streaming configuration.
const THREADS: usize = 1;

/// Timed rounds per configuration; the median is reported.
const REPS: usize = 5;

/// The run parameters a baseline records, checked by `--check`: a
/// baseline's limits only mean something at the parameters it was
/// recorded at.
const PARAMS: [(&str, f64); 4] = [
    ("scale", SCALE),
    ("seed", SEED as f64),
    ("threads", THREADS as f64),
    ("reps", REPS as f64),
];

/// Wall-time regression tolerance on the streaming/monolithic ratio.
const WALL_RATIO_TOLERANCE: f64 = 1.25;

/// Allocations-per-line regression tolerance (relative to baseline, plus
/// a half-allocation absolute slack so tiny counts don't flap).
const ALLOCS_TOLERANCE: f64 = 1.1;

/// Configurations whose wall time is gated as a ratio against
/// [`GATED_REFERENCE`]: the default streaming path plus both disk-backed
/// corpus sources, so an on-disk-path slowdown fails CI like any other.
const GATED_WALL: [&str; 3] = ["streaming_auto", "corpus_file", "corpus_mmap"];

/// The sequential monolithic oracle the ratio gate normalizes against.
const GATED_REFERENCE: &str = "monolithic";

/// Configurations whose peak resident corpus bytes are gated absolutely
/// (peak residency is deterministic for a given `(scale, seed)`).
const GATED_PEAK: [&str; 4] = [
    "streaming_chunk1",
    "streaming_auto",
    "corpus_file",
    "corpus_mmap",
];

/// Configurations whose allocations-per-line are gated against the
/// baseline: the corpus-backed ones, whose counters round is pure
/// disk-to-study analysis — every allocation it makes is parse/classify
/// work, not simulation or rendering.
const GATED_ALLOCS: [&str; 2] = ["corpus_file", "corpus_mmap"];

/// Allocations observed process-wide, via [`CountingAlloc`].
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-delegating allocator that counts allocation calls for the
/// allocations-per-line gate. Counters use `Relaxed` ordering: the
/// counters round is single-threaded at its measurement boundaries.
struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the counter increments have no effect on the
// memory returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim to `System::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim to `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim to `System::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim to `System::realloc`; a grow-in-place
        // is still one allocator round trip, so it counts.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[derive(Debug, Clone)]
struct BenchResult {
    name: &'static str,
    wall_ms: f64,
    peak_bytes: u64,
    total_bytes: u64,
    shards: u64,
    chunks: u64,
    shards_per_sec: f64,
    allocs_per_line: f64,
}

/// A scratch corpus directory, built once per bench process and removed
/// on drop.
struct CorpusDirGuard(std::path::PathBuf);

impl CorpusDirGuard {
    fn build(base: &Pipeline, seed: u64) -> CorpusDirGuard {
        let dir = std::env::temp_dir().join(format!("ssfa-bench-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fleet = base.build_fleet();
        let output = base.simulate(&fleet);
        ssfa::logs::CorpusWriter::new(&dir)
            .write(&fleet, &output, ssfa::logs::CascadeStyle::RaidOnly, seed)
            .expect("bench corpus builds");
        CorpusDirGuard(dir)
    }
}

impl Drop for CorpusDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Stages a half-covered fold checkpoint once (`seed`) and restores it
/// into a scratch directory (`work`) before every resume rep, so each
/// timed rep sees the same mid-run restart: checkpoint open, snapshot
/// decode, and folding only the uncovered tail of the corpus.
struct ResumeStageGuard {
    seed: std::path::PathBuf,
    work: std::path::PathBuf,
}

impl ResumeStageGuard {
    fn build(pipeline: &Pipeline, corpus: &std::path::Path) -> ResumeStageGuard {
        let pid = std::process::id();
        let seed = std::env::temp_dir().join(format!("ssfa-bench-ckpt-seed-{pid}"));
        let work = std::env::temp_dir().join(format!("ssfa-bench-ckpt-work-{pid}"));
        let _ = std::fs::remove_dir_all(&seed);
        let _ = std::fs::remove_dir_all(&work);
        let source = ssfa::FileSource::open(corpus).expect("bench corpus opens");
        pipeline
            .run_source_checkpointed(&source, &seed)
            .expect("checkpoint stages");
        let mut writer = ssfa::logs::checkpoint::CheckpointWriter::append_to(&seed)
            .expect("staged checkpoint reopens");
        let half = (writer.manifest().epochs.len() / 2).max(1);
        writer
            .truncate_to(half)
            .expect("staged checkpoint truncates");
        ResumeStageGuard { seed, work }
    }

    /// Resets the work directory to the staged half-covered checkpoint.
    fn restore(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
        std::fs::create_dir_all(&self.work).expect("work dir creates");
        for entry in std::fs::read_dir(&self.seed).expect("staged dir lists") {
            let entry = entry.expect("staged dir entry");
            std::fs::copy(entry.path(), self.work.join(entry.file_name()))
                .expect("staged file copies");
        }
    }
}

impl Drop for ResumeStageGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.seed);
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// The deterministic (non-wall) side of one configuration's result.
#[derive(Debug, Clone, Copy)]
struct Counters {
    peak_bytes: u64,
    total_bytes: u64,
    shards: u64,
    chunks: u64,
}

fn stream_counters(stats: ssfa::StreamStats, health: &ssfa::RunHealth) -> Counters {
    Counters {
        peak_bytes: stats.max_shard_bytes as u64,
        total_bytes: stats.total_bytes as u64,
        shards: health.shards_total as u64,
        chunks: health.chunks_total as u64,
    }
}

/// Runs all configurations interleaved: one warmup round, then [`REPS`]
/// rounds that time each configuration once per round, reporting the
/// per-configuration median. Interleaving matters because the headline
/// gates are *ratios* between configurations — a machine-wide slow phase
/// (CI neighbors, thermal throttling) that hits one configuration's
/// entire timing block would skew the ratio, while spread across rounds
/// it cancels out. The warmup round doubles as the allocation-counting
/// round (per-rep counting would perturb the timed reps for nothing:
/// allocation counts are deterministic for a given `(scale, seed)`).
fn run_benches() -> Vec<BenchResult> {
    let base = Pipeline::new().scale(SCALE).seed(SEED).threads(THREADS);

    // Monolithic peak residency is the whole parsed corpus; it is
    // deterministic, so measure it once outside the timed rounds. The
    // line count doubles as the per-line allocation divisor for every
    // configuration — all of them classify the same logical corpus.
    let (mono_counters, corpus_lines) = {
        let fleet = base.build_fleet();
        let output = base.simulate(&fleet);
        let book = base.render(&fleet, &output);
        let bytes = book.resident_bytes() as u64;
        (
            Counters {
                peak_bytes: bytes,
                total_bytes: bytes,
                shards: fleet.systems().len() as u64,
                chunks: 1,
            },
            (book.len() as u64).max(1),
        )
    };

    // The corpus-backed configurations analyze a pre-built on-disk corpus
    // of the same (scale, seed) run: built once, outside every timed rep,
    // which is the subsystem's whole point — the timed region is pure
    // disk-to-study analysis.
    let corpus_dir = CorpusDirGuard::build(&base, SEED);
    let corpus_file = ssfa::FileSource::open(&corpus_dir.0).expect("bench corpus opens");
    let corpus_mmap = ssfa::MmapSource::open(&corpus_dir.0).expect("bench corpus maps");

    let p_mono = base.clone();
    let p_chunk1 = base.clone().chunk_systems(1);
    let p_auto = base.clone();
    let p_corpus_file = base.clone();
    let p_corpus_mmap = base.clone();
    let p_resume = base.clone().epoch_chunks(1);
    let resume_stage = ResumeStageGuard::build(&p_resume, &corpus_dir.0);
    let corpus_resume = ssfa::FileSource::open(&corpus_dir.0).expect("bench corpus opens");

    type Runner<'a> = Box<dyn FnMut() -> Counters + 'a>;
    let mut configs: Vec<(&'static str, Runner)> = vec![
        (
            "monolithic",
            Box::new(move || {
                std::hint::black_box(p_mono.run_monolithic().unwrap());
                mono_counters
            }),
        ),
        (
            "streaming_chunk1",
            Box::new(move || {
                let (study, stats, health) = p_chunk1.run().unwrap();
                std::hint::black_box(study);
                stream_counters(stats, &health)
            }),
        ),
        (
            "streaming_auto",
            Box::new(move || {
                let (study, stats, health) = p_auto.run().unwrap();
                std::hint::black_box(study);
                stream_counters(stats, &health)
            }),
        ),
        (
            "corpus_file",
            Box::new(move || {
                let (study, stats, health) = p_corpus_file.run_source(&corpus_file).unwrap();
                std::hint::black_box(study);
                stream_counters(stats, &health)
            }),
        ),
        (
            "corpus_mmap",
            Box::new(move || {
                let (study, stats, health) = p_corpus_mmap.run_source(&corpus_mmap).unwrap();
                std::hint::black_box(study);
                stream_counters(stats, &health)
            }),
        ),
        (
            "corpus_resume",
            Box::new(move || {
                resume_stage.restore();
                let (study, stats, health) = p_resume
                    .resume_from(&corpus_resume, &resume_stage.work)
                    .unwrap();
                std::hint::black_box(study);
                stream_counters(stats, &health)
            }),
        ),
    ];

    let mut counters: Vec<Counters> = Vec::with_capacity(configs.len());
    let mut allocs_per_line: Vec<f64> = Vec::with_capacity(configs.len());
    for (_, run) in &mut configs {
        let before = allocations();
        counters.push(run());
        allocs_per_line.push((allocations() - before) as f64 / corpus_lines as f64);
    }
    let mut walls: Vec<Vec<f64>> = vec![Vec::with_capacity(REPS); configs.len()];
    for _ in 0..REPS {
        for (i, (_, run)) in configs.iter_mut().enumerate() {
            #[expect(
                clippy::disallowed_methods,
                reason = "the perf gate measures wall time"
            )]
            let t = Instant::now();
            run();
            walls[i].push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    configs
        .iter()
        .zip(counters)
        .zip(allocs_per_line)
        .zip(walls)
        .map(
            |((((name, _), counters), allocs_per_line), mut config_walls)| {
                config_walls.sort_by(|a, b| a.total_cmp(b));
                let wall_ms = config_walls[config_walls.len() / 2];
                BenchResult {
                    name,
                    wall_ms,
                    peak_bytes: counters.peak_bytes,
                    total_bytes: counters.total_bytes,
                    shards: counters.shards,
                    chunks: counters.chunks,
                    shards_per_sec: counters.shards as f64 / (wall_ms / 1e3),
                    allocs_per_line,
                }
            },
        )
        .collect()
}

fn to_json(results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ssfa-bench-pipeline/v1\",\n");
    for (key, value) in PARAMS {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    out.push_str("  \"configs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"wall_ms\": {:.3},", r.wall_ms);
        let _ = writeln!(out, "      \"peak_bytes\": {},", r.peak_bytes);
        let _ = writeln!(out, "      \"total_bytes\": {},", r.total_bytes);
        let _ = writeln!(out, "      \"shards\": {},", r.shards);
        let _ = writeln!(out, "      \"chunks\": {},", r.chunks);
        let _ = writeln!(out, "      \"allocs_per_line\": {:.3},", r.allocs_per_line);
        let _ = writeln!(out, "      \"shards_per_sec\": {:.1}", r.shards_per_sec);
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Minimal extraction for the fixed baseline schema this binary itself
/// writes (the container has no JSON dependency): locate the config
/// object by its `"name"` marker, then pull numeric fields from the span
/// up to the object's closing brace.
fn extract_config<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let marker = format!("\"name\": \"{name}\"");
    let start = json.find(&marker)?;
    let end = start + json[start..].find('}')?;
    Some(&json[start..end])
}

fn extract_number(object: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = object.find(&marker)? + marker.len();
    let rest = object[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn baseline_number(json: &str, config: &str, key: &str) -> Result<f64, String> {
    extract_config(json, config)
        .and_then(|obj| extract_number(obj, key))
        .ok_or_else(|| format!("baseline is missing {config}.{key}"))
}

fn result_for<'a>(results: &'a [BenchResult], name: &str) -> &'a BenchResult {
    results
        .iter()
        .find(|r| r.name == name)
        .expect("all configs ran")
}

/// Applies the gate; returns the list of violations (empty = pass). Every
/// violation is prefixed `[config=<name> metric=<metric>]`, or
/// `[metric=params]` for a run-parameter mismatch, so a CI failure names
/// exactly what regressed.
fn check_against_baseline(results: &[BenchResult], baseline: &str) -> Result<Vec<String>, String> {
    // Run parameters first: a baseline recorded at another scale, seed,
    // thread count or rep count has limits that say nothing about this
    // run, so a mismatch is reported alone.
    let mut violations = Vec::new();
    for (key, current) in PARAMS {
        let recorded =
            extract_number(baseline, key).ok_or_else(|| format!("baseline is missing {key}"))?;
        if recorded != current {
            violations.push(format!(
                "[metric=params] baseline was recorded at {key} {recorded}, \
                 this run uses {key} {current}"
            ));
        }
    }
    if !violations.is_empty() {
        return Ok(violations);
    }

    // Wall gates: each gated config's ratio to the monolithic reference,
    // compared ratio-to-ratio so machine speed cancels out.
    let reference_wall = result_for(results, GATED_REFERENCE).wall_ms;
    let baseline_reference_wall = baseline_number(baseline, GATED_REFERENCE, "wall_ms")?;
    for config in GATED_WALL {
        let current_ratio = result_for(results, config).wall_ms / reference_wall;
        let baseline_ratio =
            baseline_number(baseline, config, "wall_ms")? / baseline_reference_wall;
        let limit = baseline_ratio * WALL_RATIO_TOLERANCE;
        if current_ratio > limit {
            violations.push(format!(
                "[config={config} metric=wall_ms] wall-time regression: \
                 {config}/{GATED_REFERENCE} ratio {current_ratio:.3} exceeds baseline \
                 {baseline_ratio:.3} x {WALL_RATIO_TOLERANCE} = {limit:.3}"
            ));
        }
    }

    // Memory gate: peak resident corpus bytes on every streaming config
    // are deterministic for the bench (scale, seed) — any growth fails.
    for config in GATED_PEAK {
        let current = result_for(results, config).peak_bytes as f64;
        let allowed = baseline_number(baseline, config, "peak_bytes")?;
        if current > allowed {
            violations.push(format!(
                "[config={config} metric=peak_bytes] peak-memory regression: \
                 peak {current} bytes exceeds baseline {allowed}"
            ));
        }
    }

    // Allocation gate: the corpus configurations' counters round is pure
    // parse/classify work, so allocations-per-line is a direct hot-path
    // contract; 10% relative tolerance plus half an allocation of
    // absolute slack.
    for config in GATED_ALLOCS {
        let current = result_for(results, config).allocs_per_line;
        let allowed = baseline_number(baseline, config, "allocs_per_line")?;
        let limit = allowed * ALLOCS_TOLERANCE + 0.5;
        if current > limit {
            violations.push(format!(
                "[config={config} metric=allocs_per_line] allocation regression: \
                 {current:.3} allocs/line exceeds baseline {allowed:.3} x \
                 {ALLOCS_TOLERANCE} + 0.5 = {limit:.3}"
            ));
        }
    }
    Ok(violations)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let results = run_benches();
    let json = to_json(&results);

    let out_path = std::env::var("SSFA_BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".into());
    if let Err(err) = std::fs::write(&out_path, &json) {
        eprintln!("bench_pipeline: cannot write {out_path}: {err}");
        return ExitCode::from(2);
    }
    for r in &results {
        eprintln!(
            "{:<22} wall {:>9.3} ms  peak {:>9} B  {:>6} shards in {:>4} chunks  \
             {:>9.1} shards/s  {:>7.2} allocs/line",
            r.name,
            r.wall_ms,
            r.peak_bytes,
            r.shards,
            r.chunks,
            r.shards_per_sec,
            r.allocs_per_line,
        );
    }
    eprintln!("bench_pipeline: wrote {out_path}");

    match args.first().map(String::as_str) {
        None => ExitCode::SUCCESS,
        Some("--write-baseline") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: bench_pipeline --write-baseline <path>");
                return ExitCode::from(2);
            };
            if let Err(err) = std::fs::write(path, &json) {
                eprintln!("bench_pipeline: cannot write baseline {path}: {err}");
                return ExitCode::from(2);
            }
            eprintln!("bench_pipeline: blessed new baseline {path}");
            ExitCode::SUCCESS
        }
        Some("--check") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: bench_pipeline --check <baseline>");
                return ExitCode::from(2);
            };
            let baseline = match std::fs::read_to_string(path) {
                Ok(contents) => contents,
                Err(err) => {
                    eprintln!("bench_pipeline: cannot read baseline {path}: {err}");
                    return ExitCode::from(2);
                }
            };
            match check_against_baseline(&results, &baseline) {
                Ok(violations) if violations.is_empty() => {
                    eprintln!("bench_pipeline: gate passed against {path}");
                    ExitCode::SUCCESS
                }
                Ok(violations) => {
                    for v in &violations {
                        eprintln!("bench_pipeline: GATE FAILURE: {v}");
                    }
                    ExitCode::FAILURE
                }
                Err(err) => {
                    eprintln!("bench_pipeline: malformed baseline {path}: {err}");
                    ExitCode::from(2)
                }
            }
        }
        Some(other) => {
            eprintln!("bench_pipeline: unknown argument {other}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "ssfa-bench-pipeline/v1",
  "scale": 0.01,
  "seed": 1988,
  "threads": 1,
  "reps": 5,
  "configs": [
    {
      "name": "monolithic",
      "wall_ms": 20.000,
      "peak_bytes": 1000000
    },
    {
      "name": "streaming_chunk1",
      "wall_ms": 30.000,
      "peak_bytes": 20000
    },
    {
      "name": "streaming_auto",
      "wall_ms": 21.000,
      "peak_bytes": 20000
    },
    {
      "name": "corpus_file",
      "wall_ms": 18.000,
      "peak_bytes": 20000,
      "allocs_per_line": 4.000
    },
    {
      "name": "corpus_mmap",
      "wall_ms": 16.000,
      "peak_bytes": 20000,
      "allocs_per_line": 3.000
    }
  ]
}
"#;

    fn result(name: &'static str, wall_ms: f64, peak_bytes: u64) -> BenchResult {
        BenchResult {
            name,
            wall_ms,
            peak_bytes,
            total_bytes: peak_bytes * 10,
            shards: 391,
            chunks: 12,
            shards_per_sec: 391.0 / (wall_ms / 1e3),
            allocs_per_line: match name {
                "corpus_file" => 4.0,
                "corpus_mmap" => 3.0,
                _ => 100.0,
            },
        }
    }

    fn sample_results(auto_wall: f64, auto_peak: u64) -> Vec<BenchResult> {
        vec![
            result("monolithic", 20.0, 1_000_000),
            result("streaming_chunk1", 30.0, 20_000),
            result("streaming_auto", auto_wall, auto_peak),
            result("corpus_file", 18.0, 20_000),
            result("corpus_mmap", 16.0, 20_000),
        ]
    }

    fn sample_results_with(name: &'static str, wall_ms: f64, peak_bytes: u64) -> Vec<BenchResult> {
        let mut results = sample_results(21.0, 20_000);
        let slot = results.iter_mut().find(|r| r.name == name).unwrap();
        *slot = result(name, wall_ms, peak_bytes);
        results
    }

    fn check(results: &[BenchResult]) -> Vec<String> {
        check_against_baseline(results, SAMPLE).unwrap()
    }

    #[test]
    fn parses_numbers_out_of_its_own_schema() {
        assert_eq!(
            baseline_number(SAMPLE, "monolithic", "wall_ms").unwrap(),
            20.0
        );
        assert_eq!(
            baseline_number(SAMPLE, "streaming_auto", "peak_bytes").unwrap(),
            20_000.0
        );
        assert_eq!(
            baseline_number(SAMPLE, "corpus_mmap", "allocs_per_line").unwrap(),
            3.0
        );
        assert!(baseline_number(SAMPLE, "nonexistent", "wall_ms").is_err());
    }

    #[test]
    fn round_trips_through_its_own_writer() {
        let json = to_json(&sample_results(21.0, 20_000));
        assert_eq!(
            baseline_number(&json, "streaming_auto", "wall_ms").unwrap(),
            21.0
        );
        assert_eq!(
            baseline_number(&json, "monolithic", "wall_ms").unwrap(),
            20.0
        );
        assert_eq!(
            baseline_number(&json, "streaming_chunk1", "peak_bytes").unwrap(),
            20_000.0
        );
        assert_eq!(
            baseline_number(&json, "corpus_file", "allocs_per_line").unwrap(),
            4.0
        );
    }

    #[test]
    fn gate_passes_at_parity_and_within_tolerance() {
        // Identical ratio: pass.
        assert!(check(&sample_results(21.0, 20_000)).is_empty());
        // 11% slower streaming_auto: inside the 25% band.
        assert!(check(&sample_results(23.3, 20_000)).is_empty());
    }

    #[test]
    fn gate_fails_on_synthetic_2x_slowdown() {
        // streaming_auto at 2x trips its baseline ratio gate.
        let violations = check(&sample_results(42.0, 20_000));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("[config=streaming_auto metric=wall_ms]")
                && violations[0].contains("wall-time regression"),
            "{violations:?}"
        );
    }

    #[test]
    fn gate_fails_on_any_peak_memory_growth() {
        let violations = check(&sample_results(21.0, 20_001));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("[config=streaming_auto metric=peak_bytes]")
                && violations[0].contains("peak-memory regression"),
            "{violations:?}"
        );
    }

    #[test]
    fn gate_fails_on_allocation_growth() {
        let mut results = sample_results(21.0, 20_000);
        results
            .iter_mut()
            .find(|r| r.name == "corpus_mmap")
            .unwrap()
            .allocs_per_line = 4.5; // baseline 3.0 * 1.1 + 0.5 = 3.8
        let violations = check_against_baseline(&results, SAMPLE).unwrap();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("[config=corpus_mmap metric=allocs_per_line]")
                && violations[0].contains("allocation regression"),
            "{violations:?}"
        );
    }

    #[test]
    fn gate_covers_the_disk_backed_corpus_paths() {
        // A 2x wall slowdown on either corpus source trips the ratio gate.
        for config in ["corpus_file", "corpus_mmap"] {
            let violations = check(&sample_results_with(config, 40.0, 20_000));
            assert_eq!(violations.len(), 1, "{config}: {violations:?}");
            assert!(
                violations[0].contains("wall-time regression")
                    && violations[0].contains(&format!("[config={config} metric=wall_ms]")),
                "{config}: {violations:?}"
            );
            // Any peak-bytes growth trips the memory gate.
            let violations = check(&sample_results_with(config, 18.0, 20_001));
            assert_eq!(violations.len(), 1, "{config}: {violations:?}");
            assert!(
                violations[0].contains("peak-memory regression"),
                "{config}: {violations:?}"
            );
        }
    }

    #[test]
    fn gate_rejects_a_baseline_missing_the_allocation_metrics() {
        // A pre-allocation-gate baseline (no allocs_per_line fields) must
        // be a loud configuration error, not a silent pass.
        let legacy = SAMPLE.replace("allocs_per_line", "allocs_per_line_renamed");
        let err = check_against_baseline(&sample_results(21.0, 20_000), &legacy).unwrap_err();
        assert!(err.contains("allocs_per_line"), "{err}");
    }

    #[test]
    fn gate_rejects_a_baseline_missing_the_corpus_configs() {
        // The pre-corpus baseline (no corpus_file/corpus_mmap entries)
        // must be a loud configuration error, not a silent pass.
        let legacy: String = SAMPLE
            .lines()
            .take_while(|line| !line.contains("corpus_file"))
            .map(|line| format!("{line}\n"))
            .collect();
        let err = check_against_baseline(&sample_results(21.0, 20_000), &legacy).unwrap_err();
        assert!(err.contains("corpus_file"), "{err}");
    }

    #[test]
    fn gate_rejects_a_baseline_recorded_at_other_parameters() {
        // A baseline from another run shape must not gate this one, even
        // when every metric would pass against it.
        for (line, other) in [
            ("\"scale\": 0.01,", "\"scale\": 0.004,"),
            ("\"seed\": 1988,", "\"seed\": 7,"),
            ("\"threads\": 1,", "\"threads\": 4,"),
            ("\"reps\": 5,", "\"reps\": 3,"),
        ] {
            let foreign = SAMPLE.replace(line, other);
            let key = line.split('"').nth(1).unwrap();
            let violations =
                check_against_baseline(&sample_results(21.0, 20_000), &foreign).unwrap();
            assert_eq!(violations.len(), 1, "{key}: {violations:?}");
            assert!(
                violations[0].starts_with("[metric=params]")
                    && violations[0].contains(&format!("recorded at {key} ")),
                "{key}: {violations:?}"
            );
        }
        let unrecorded = SAMPLE.replace("\"reps\": 5,\n", "");
        let err = check_against_baseline(&sample_results(21.0, 20_000), &unrecorded).unwrap_err();
        assert!(err.contains("reps"), "{err}");
    }
}
