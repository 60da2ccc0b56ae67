//! Engine seam tests driven through custom [`Source`] implementations and
//! the [`Sink`] stage — the extension points the trait seams exist for.

use ssfa_logs::{ChunkPlan, FaultSpec, Strictness};
use ssfa_model::{FleetConfig, SystemClass, SystemId};
use ssfa_pipeline::{
    ChunkPolicy, JsonSummarySink, Pipeline, ShardData, Sink, Source, StreamStats, TextReportSink,
};

/// A source with nothing to yield: the engine must short-circuit without
/// planning chunks, spawning workers, or touching `load`.
struct EmptySource;

impl Source for EmptySource {
    fn shard_count(&self) -> usize {
        0
    }

    fn plan_chunks(&self, _policy: ChunkPolicy) -> ChunkPlan {
        ChunkPlan::whole(0)
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        unreachable!("empty source asked to load shard {shard}")
    }

    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        unreachable!("empty source asked for systems of shard {shard}")
    }
}

/// The smallest legal pipeline: one class floored to one system.
fn tiny_pipeline() -> Pipeline {
    Pipeline::new()
        .seed(3)
        .config(
            FleetConfig::paper()
                .only_classes(&[SystemClass::LowEnd])
                .scaled(1e-9),
        )
        .threads(2)
}

#[test]
fn empty_source_yields_a_vacuously_complete_run() {
    for pipeline in [
        Pipeline::new(),
        Pipeline::new().lenient().faults(FaultSpec::uniform(0.01)),
    ] {
        let (study, stats, health) = pipeline.run_source(&EmptySource).unwrap();
        assert!(study.input().failures.is_empty());
        assert!(study.input().topology.systems.is_empty());
        assert_eq!(stats, StreamStats::default());
        assert_eq!(health.shards_total, 0);
        assert_eq!(health.chunks_total, 0);
        assert_eq!(health.coverage(), 1.0, "empty run is vacuously complete");
        assert!(health.is_clean());
    }
}

#[test]
fn empty_source_reports_the_configured_strictness() {
    let (_, _, strict) = Pipeline::new().run_source(&EmptySource).unwrap();
    assert_eq!(strict.strictness, Strictness::Strict);
    let (_, _, lenient) = Pipeline::new().lenient().run_source(&EmptySource).unwrap();
    assert_eq!(lenient.strictness, Strictness::Lenient);
}

#[test]
fn sinks_receive_the_same_run_the_caller_gets_back() {
    let (study, _, health) = tiny_pipeline().run().unwrap();
    let mut sink = TextReportSink::new(Vec::new());
    sink.consume(&study, &health).unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    assert!(
        text.contains(&format!("{health}").lines().next().unwrap().to_owned()),
        "sink text must carry the health audit:\n{text}"
    );
    assert_eq!(
        text.lines().count(),
        study.table1().len() + format!("{health}").lines().count(),
        "one line per Table 1 row plus the audit"
    );

    let mut json = JsonSummarySink::new(Vec::new());
    json.consume(&study, &health).unwrap();
    let text = String::from_utf8(json.into_inner()).unwrap();
    assert!(text.contains("\"schema\": \"ssfa-run-summary/v1\""));
    assert!(text.contains("\"shards_total\": 1"));
    assert!(text.contains("\"coverage\": 1.000000"));
}

#[test]
fn failing_sink_returns_the_writer_error_unswallowed() {
    /// A writer that always refuses.
    struct Refuse;
    impl std::io::Write for Refuse {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let (study, _, health) = tiny_pipeline().run().unwrap();
    let err = TextReportSink::new(Refuse)
        .consume(&study, &health)
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Other);
    assert_eq!(
        err.to_string(),
        "disk full",
        "the writer's error must come back as is"
    );
}
