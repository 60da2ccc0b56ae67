//! Source-order permutation test for the staged engine: feeding shards to
//! the engine in *any* order must yield a byte-identical report.
//!
//! `tests/insertion_order.rs` proves the analysis structures are
//! insertion-order independent once an `AnalysisInput` exists; this test
//! closes the remaining gap by permuting the order in which the engine
//! *sees* the shards. A wrapper `Source` remaps shard indices through a
//! permutation, so chunk boundaries fall across a shuffled fleet, partials
//! arrive in permuted order, and the reduce stage's single final
//! canonicalization has to restore the one canonical result.

use ssfa::logs::{CascadeStyle, ChunkPlan};
use ssfa::model::SystemId;
use ssfa::pipeline::{ChunkPolicy, ShardData, SimSource, Source};
use ssfa::prelude::*;
use ssfa::Pipeline;

const SCALE: f64 = 0.004;
const SEED: u64 = 11;

/// Remaps shard indices of an inner source through a permutation.
struct PermutedSource<'a> {
    inner: SimSource<'a>,
    order: Vec<usize>,
}

impl Source for PermutedSource<'_> {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    // The inner plan's ranges are a valid contiguous partition of
    // `0..shard_count` either way; which *systems* share a chunk changes
    // with the permutation, which is exactly the point.
    fn plan_chunks(&self, policy: ChunkPolicy) -> ChunkPlan {
        self.inner.plan_chunks(policy)
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        self.inner.load(self.order[shard])
    }

    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        self.inner.system_ids(self.order[shard])
    }

    fn count_lines(&self, shard: usize) -> u64 {
        self.inner.count_lines(self.order[shard])
    }
}

/// Report surfaces whose float accumulations ride on iteration order.
fn render_report(study: &Study) -> String {
    let mut out = String::new();
    for row in study.table1() {
        out.push_str(&format!("{row:?}\n"));
    }
    for (key, breakdown) in study.afr_by_class(true) {
        out.push_str(&format!("{key:?} {breakdown:?}\n"));
    }
    out.push_str(&format!("{:?}\n", study.tbf(Scope::Shelf)));
    out
}

#[test]
fn engine_report_is_identical_under_permuted_source_order() {
    let pipeline = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .threads(4)
        .chunk_systems(3);
    let fleet = pipeline.build_fleet();
    let output = pipeline.simulate(&fleet);
    let source = SimSource::new(&fleet, &output, CascadeStyle::RaidOnly, SEED);
    let n = source.shard_count();
    assert!(n > 4, "fixture too small to permute meaningfully");

    let run = |order: Vec<usize>| {
        let permuted = PermutedSource {
            inner: SimSource::new(&fleet, &output, CascadeStyle::RaidOnly, SEED),
            order,
        };
        let (study, _, health) = pipeline.run_source(&permuted).unwrap();
        assert!(health.is_clean(), "{health}");
        (render_report(&study), health.lines_seen)
    };

    let (baseline, baseline_lines) = run((0..n).collect());
    assert_eq!(
        baseline,
        render_report(&pipeline.run().unwrap().0),
        "identity permutation diverged from Pipeline::run"
    );

    let mut reversed: Vec<usize> = (0..n).collect();
    reversed.reverse();
    let interleaved: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
    let mut rotated: Vec<usize> = (0..n).collect();
    rotated.rotate_left(n / 3);
    for (what, order) in [
        ("reversed", reversed),
        ("interleaved", interleaved),
        ("rotated", rotated),
    ] {
        let (report, lines) = run(order);
        assert_eq!(report, baseline, "report changed under {what} source order");
        assert_eq!(
            lines, baseline_lines,
            "line accounting changed under {what} source order"
        );
    }
}
