//! Golden snapshot of a small fixed-seed run.
//!
//! Pins two artifacts of `Pipeline::new().scale(0.002).seed(7)`:
//!
//! - `tests/golden/corpus_digest.txt` — FNV-1a/64 digest (plus line and
//!   byte counts) of the rendered monolithic corpus text;
//! - `tests/golden/table1.txt` — the `Study::table1()` rows, one per line;
//! - `tests/golden/corpus_files.txt` — FNV-1a/64 and length of every file
//!   `CorpusWriter` writes for that run (each segment and `MANIFEST`), at
//!   the default packing and at 8 shards per segment;
//!
//! and one of a larger run (`ANALYSIS_SCALE`, `ANALYSIS_SEED`), large
//! enough that all six Figure 5 panels are populated:
//!
//! - `tests/golden/analysis.txt` — every `Study` analytic (Figures 4–7 and
//!   10, the Finding 4 homogeneity and spread tables, per-scope TBF gap
//!   digests) and the `FindingsReport`, all in `{:?}` so each `f64` is
//!   pinned to its exact bits.
//!
//! Any intentional change to the simulator's random streams, the log
//! renderer, the classifier, or the analytics' summation order shows up
//! here first. To regenerate after
//! such a change, run:
//!
//! ```text
//! GOLDEN_REGENERATE=1 cargo test --test golden_snapshot
//! ```
//!
//! then commit the updated files under `tests/golden/` together with the
//! change that moved them (and say why in the commit message).

use std::path::PathBuf;

use ssfa::core::tbf::BURST_THRESHOLD_SECS;
use ssfa::core::{FindingsReport, Scope};
use ssfa::logs::{CascadeStyle, CorpusWriter};
use ssfa::model::{FailureType, SimDuration};
use ssfa::Pipeline;

const SCALE: f64 = 0.002;
const SEED: u64 = 7;
const ANALYSIS_SCALE: f64 = 0.015;
const ANALYSIS_SEED: u64 = 4242;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// FNV-1a over the corpus bytes: dependency-free, stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn check_or_regenerate(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_REGENERATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); see test header",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden snapshot {name} diverged; if intentional, regenerate per the test header"
    );
}

#[test]
fn corpus_digest_matches_golden() {
    let pipeline = Pipeline::new().scale(SCALE).seed(SEED);
    let fleet = pipeline.build_fleet();
    let output = pipeline.simulate(&fleet);
    let text = pipeline.render(&fleet, &output).to_text();
    let actual = format!(
        "fnv1a64: {:016x}\nlines: {}\nbytes: {}\n",
        fnv1a64(text.as_bytes()),
        text.lines().count(),
        text.len(),
    );
    check_or_regenerate("corpus_digest.txt", &actual);
}

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("ssfa-golden-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn corpus_files_match_golden() {
    let pipeline = Pipeline::new().scale(SCALE).seed(SEED);
    let fleet = pipeline.build_fleet();
    let output = pipeline.simulate(&fleet);
    let mut actual = String::new();
    for (label, segment_shards) in [("default", None), ("segment_shards 8", Some(8))] {
        let tmp = TempDir::new(&label.replace(' ', "-"));
        let mut writer = CorpusWriter::new(&tmp.0).param("scale", format!("{SCALE}"));
        if let Some(n) = segment_shards {
            writer = writer.segment_shards(n);
        }
        writer
            .write(&fleet, &output, CascadeStyle::RaidOnly, SEED)
            .unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        actual.push_str(&format!("[{label}]\n"));
        for name in names {
            let bytes = std::fs::read(tmp.0.join(&name)).unwrap();
            actual.push_str(&format!(
                "{name} fnv1a64 {:016x} bytes {}\n",
                fnv1a64(&bytes),
                bytes.len()
            ));
        }
    }
    check_or_regenerate("corpus_files.txt", &actual);
}

#[test]
fn table1_matches_golden() {
    let (study, _, _) = Pipeline::new().scale(SCALE).seed(SEED).run().unwrap();
    let mut actual = String::new();
    for row in study.table1() {
        actual.push_str(&format!("{row:?}\n"));
    }
    check_or_regenerate("table1.txt", &actual);
}

#[test]
fn analysis_matches_golden() {
    let (study, _, _) = Pipeline::new()
        .scale(ANALYSIS_SCALE)
        .seed(ANALYSIS_SEED)
        .run()
        .unwrap();
    let fig5 = study.fig5_panels();
    assert_eq!(fig5.len(), 6, "all six Figure 5 panels are populated");
    let mut out = String::new();
    let mut pin = |name: &str, value: String| out.push_str(&format!("{name}: {value}\n"));
    pin(
        "afr_by_class(true)",
        format!("{:?}", study.afr_by_class(true)),
    );
    pin(
        "afr_by_class(false)",
        format!("{:?}", study.afr_by_class(false)),
    );
    pin(
        "afr_by_environment",
        format!("{:?}", study.afr_by_environment()),
    );
    pin("fig5_panels", format!("{fig5:?}"));
    pin("fig6_panels", format!("{:?}", study.fig6_panels()));
    pin("fig7_panels", format!("{:?}", study.fig7_panels()));
    pin(
        "disk_model_homogeneity(1000)",
        format!("{:?}", study.disk_model_homogeneity(1_000.0)),
    );
    pin(
        "disk_model_spread(50)",
        format!("{:?}", study.disk_model_spread(50.0)),
    );
    for scope in [Scope::Shelf, Scope::RaidGroup] {
        let corr = study.correlation(scope, SimDuration::from_years(1.0));
        pin(&format!("correlation({scope:?}, 1y)"), format!("{corr:?}"));
        let tbf = study.tbf(scope);
        let gaps = FailureType::ALL
            .into_iter()
            .map(|ty| (format!("{ty:?}"), tbf.for_type(ty)))
            .chain([("overall".to_string(), tbf.overall())]);
        for (label, g) in gaps {
            let bits: Vec<u8> = g
                .gaps_secs
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
                .collect();
            pin(
                &format!("tbf({scope:?}, {label})"),
                format!(
                    "gaps {} fnv1a64 {:016x} within_burst {:?}",
                    g.len(),
                    fnv1a64(&bits),
                    g.fraction_within(BURST_THRESHOLD_SECS)
                ),
            );
        }
    }
    pin(
        "findings",
        format!("{:?}", FindingsReport::evaluate(&study)),
    );
    check_or_regenerate("analysis.txt", &out);
}

#[test]
fn snapshot_run_is_thread_count_invariant() {
    // The golden table must not depend on the machine's core count.
    let (a, _, _) = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .threads(1)
        .run()
        .unwrap();
    let (b, _, _) = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .threads(8)
        .run()
        .unwrap();
    assert_eq!(format!("{:?}", a.table1()), format!("{:?}", b.table1()));
}
