//! The `Sink` stage: where a finished run's artifacts go.
//!
//! Sinks consume the reduced [`Study`] plus the run's [`RunHealth`]
//! audit and write a report — text for humans, hand-rolled JSON for
//! machines (the workspace is offline; there is deliberately no serde).
//! Call [`Sink::consume`] on the study and health any `Pipeline` entry
//! point returns.

use std::io::Write;

use ssfa_core::Study;

use crate::health::RunHealth;

/// Writes a finished run somewhere.
pub trait Sink {
    /// Consumes one run's results.
    ///
    /// # Errors
    ///
    /// Returns the underlying writer's I/O error unchanged.
    fn consume(&mut self, study: &Study, health: &RunHealth) -> std::io::Result<()>;
}

/// Human-readable report sink: the paper's Table 1 rows (one `Debug` row
/// per line, the same rendering the golden snapshots pin) followed by the
/// run-health audit.
#[derive(Debug)]
pub struct TextReportSink<W: Write> {
    out: W,
}

impl<W: Write> TextReportSink<W> {
    /// A text report writing to `out`.
    pub fn new(out: W) -> TextReportSink<W> {
        TextReportSink { out }
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Sink for TextReportSink<W> {
    fn consume(&mut self, study: &Study, health: &RunHealth) -> std::io::Result<()> {
        for row in study.table1() {
            writeln!(self.out, "{row:?}")?;
        }
        writeln!(self.out, "{health}")?;
        Ok(())
    }
}

/// Machine-readable summary sink: one small JSON object with the run's
/// headline counts and health counters (hand-rolled, schema
/// `ssfa-run-summary/v1`, matching the bench harness's offline-JSON
/// idiom).
#[derive(Debug)]
pub struct JsonSummarySink<W: Write> {
    out: W,
}

impl<W: Write> JsonSummarySink<W> {
    /// A JSON summary writing to `out`.
    pub fn new(out: W) -> JsonSummarySink<W> {
        JsonSummarySink { out }
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Sink for JsonSummarySink<W> {
    fn consume(&mut self, study: &Study, health: &RunHealth) -> std::io::Result<()> {
        let out = &mut self.out;
        writeln!(out, "{{")?;
        writeln!(out, "  \"schema\": \"ssfa-run-summary/v1\",")?;
        writeln!(
            out,
            "  \"systems\": {},",
            study.input().topology.systems.len()
        )?;
        writeln!(out, "  \"lifetimes\": {},", study.input().lifetimes.len())?;
        writeln!(out, "  \"failures\": {},", study.input().failures.len())?;
        writeln!(
            out,
            "  \"disk_years\": {:.3},",
            study.input().total_disk_years()
        )?;
        writeln!(out, "  \"strictness\": \"{:?}\",", health.strictness)?;
        writeln!(out, "  \"shards_total\": {},", health.shards_total)?;
        writeln!(out, "  \"shards_processed\": {},", health.shards_processed)?;
        writeln!(out, "  \"shards_dropped\": {},", health.shards_dropped)?;
        writeln!(out, "  \"chunks_total\": {},", health.chunks_total)?;
        writeln!(
            out,
            "  \"chunks_quarantined\": {},",
            health.chunks_quarantined()
        )?;
        writeln!(out, "  \"coverage\": {:.6},", health.coverage())?;
        writeln!(out, "  \"lines_seen\": {},", health.lines_seen)?;
        writeln!(out, "  \"lines_skipped\": {}", health.lines_skipped_total())?;
        writeln!(out, "}}")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_core::StudyFold;

    fn empty_run() -> (Study, RunHealth) {
        (StudyFold::new().finish(), RunHealth::default())
    }

    #[test]
    fn text_sink_writes_health_even_for_empty_runs() {
        let (study, health) = empty_run();
        let mut sink = TextReportSink::new(Vec::new());
        sink.consume(&study, &health).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("run health"), "missing health audit: {text}");
        assert!(text.contains("100.00% coverage"));
    }

    #[test]
    fn json_sink_emits_balanced_braces_and_counts() {
        let (study, health) = empty_run();
        let mut sink = JsonSummarySink::new(Vec::new());
        sink.consume(&study, &health).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.starts_with("{\n") && text.ends_with("}\n"), "{text}");
        assert!(text.contains("\"schema\": \"ssfa-run-summary/v1\""));
        assert!(text.contains("\"coverage\": 1.000000"));
        assert!(text.contains("\"failures\": 0"));
    }
}
