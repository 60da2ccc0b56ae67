//! The benchmark's own contract: metric names are well formed,
//! `BENCHMARK.json` lists exactly what the workloads emit, and the seed
//! really changes the generated corpus. Workloads run here at a tiny
//! fleet scale; the benchmark itself runs them at the paper's.

use std::path::{Path, PathBuf};

use ssfa_perfbench::report::{Metric, END_TO_END, PER_LAYER};
use ssfa_perfbench::setup::build_corpus;
use ssfa_perfbench::trace::Trace;
use ssfa_perfbench::workloads::{Sizes, Workload};
use ssfa_perfbench::{run, Options};

const TINY: Sizes = Sizes {
    full_scale: 0.004,
    checkpoint_scale: 0.003,
    setup_reps: 1,
};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root")
}

/// The string value of `"key": "..."` at the start of `entry`'s fields.
fn field(entry: &str, key: &str) -> String {
    let at = entry
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("entry has no {key}: {entry}"));
    let rest = &entry[at + key.len() + 2..];
    let open = rest.find('"').expect("string value") + 1;
    let len = rest[open..].find('"').expect("closing quote");
    rest[open..open + len].to_owned()
}

/// `(name, unit, better)` of every entry in one `BENCHMARK.json` list
/// (unit and better are empty for workloads).
fn entries(json: &str, section: &str) -> Vec<(String, String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list ends")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let entry = &entry[..entry.find('}').expect("entry ends")];
            let opt = |key: &str| {
                if entry.contains(&format!("\"{key}\"")) {
                    field(entry, key)
                } else {
                    String::new()
                }
            };
            (field(entry, "name"), opt("unit"), opt("better"))
        })
        .collect()
}

fn as_entries(metrics: &[Metric]) -> Vec<(String, String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let json = benchmark_json();
    let mut seen = std::collections::BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for (name, _, _) in entries(&json, section) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad name `{name}`"
            );
            assert!(seen.insert(name.clone()), "`{name}` is used twice");
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let json = benchmark_json();
    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|e| e.0)
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    assert_eq!(entries(&json, "end_to_end"), as_entries(END_TO_END));
    assert_eq!(entries(&json, "per_layer"), as_entries(PER_LAYER));
}

#[test]
fn every_workload_emits_every_listed_metric() {
    let json = benchmark_json();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let work = scratch(&format!("{}-{traced}", workload.name()));
            let options = Options {
                workload,
                seed: 7,
                seconds: 0.0,
                traced,
                sizes: TINY,
                work: work.clone(),
                trace_out: traced.then(|| work.join("trace.jsonl")),
            };
            std::fs::create_dir_all(&work).expect("scratch dir");
            let report = run(&options).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            // At this scale the statistical Findings may not all hold;
            // every other check must pass.
            assert!(
                report.errors.iter().all(|e| e.contains("findings")),
                "{}: {:?}",
                workload.name(),
                report.errors
            );
            assert!(report.attempted >= 1);
            let emitted: Vec<&str> = report.metrics.iter().map(|(m, _)| m.name).collect();
            let section = if traced { "per_layer" } else { "end_to_end" };
            let listed: Vec<String> = entries(&json, section).into_iter().map(|e| e.0).collect();
            assert_eq!(emitted, listed, "{} traced={traced}", workload.name());
            assert!(report.metrics.iter().all(|(_, v)| v.is_finite()));
            if traced {
                let spans = std::fs::read_to_string(work.join("trace.jsonl")).expect("trace");
                assert!(spans.contains("\"name\":\"pipeline.run_source_1t\""));
            }
            let _ = std::fs::remove_dir_all(&work);
        }
    }
}

/// All segment bytes of the corpus in `dir`, in file-name order.
fn corpus_bytes(dir: &Path) -> Vec<u8> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    files.sort();
    files
        .iter()
        .flat_map(|f| std::fs::read(f).expect("segment"))
        .collect()
}

#[test]
fn the_seed_changes_the_corpus() {
    let work = scratch("seeds");
    let build = |name: &str, seed| {
        let dir = work.join(name);
        build_corpus(&dir, 0.003, seed, &mut Trace::off()).expect("corpus");
        corpus_bytes(&dir)
    };
    let a = build("a", 1);
    let again = build("again", 1);
    let b = build("b", 2);
    assert!(!a.is_empty());
    assert_eq!(a, again, "the same seed must give the same corpus");
    assert_ne!(a, b, "another seed must give another corpus");
    let _ = std::fs::remove_dir_all(&work);
}
