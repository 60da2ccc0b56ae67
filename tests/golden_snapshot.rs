//! Golden snapshot of a small fixed-seed run.
//!
//! Pins two artifacts of `Pipeline::new().scale(0.002).seed(7)`:
//!
//! - `tests/golden/corpus_digest.txt` — FNV-1a/64 digest (plus line and
//!   byte counts) of the rendered monolithic corpus text;
//! - `tests/golden/table1.txt` — the `Study::table1()` rows, one per line.
//!
//! Any intentional change to the simulator's random streams, the log
//! renderer, or the classifier shows up here first. To regenerate after
//! such a change, run:
//!
//! ```text
//! GOLDEN_REGENERATE=1 cargo test --test golden_snapshot
//! ```
//!
//! then commit the updated files under `tests/golden/` together with the
//! change that moved them (and say why in the commit message).

use ssfa::Pipeline;

const SCALE: f64 = 0.002;
const SEED: u64 = 7;

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
