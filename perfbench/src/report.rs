//! The metrics the benchmark reports, and its one-line JSON result.

use std::fmt::Write as _;

/// One reported metric, as `BENCHMARK.json` lists it.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Every workload's untraced run reports these; what the two passes are
/// depends on the workload (see the benchmark's README).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("ingest_s", "s", "lower"),
    m("followup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("state_bytes_per_corpus_byte", "ratio", "lower"),
];

/// Every traced run reports these. A name ending in `_s` that the trace
/// holds no count for is the total of its spans without the suffix.
pub const PER_LAYER: &[Metric] = &[
    // Set-up.
    m("model.build_fleet_s", "s", "lower"),
    m("sim.simulate_s", "s", "lower"),
    m("logs.corpus_write_s", "s", "lower"),
    m("daemon.agent_load_s", "s", "lower"),
    m("logs.corpus_bytes", "bytes", "lower"),
    m("logs.corpus_lines", "count", "lower"),
    // analyze_full.
    m("pipeline.source_open_s", "s", "lower"),
    m("pipeline.file_load_s", "s", "lower"),
    m("logs.classify_feed_s", "s", "lower"),
    m("logs.classify_finish_s", "s", "lower"),
    m("logs.allocs_per_line", "allocs/line", "lower"),
    m("core.fold_push_s", "s", "lower"),
    m("core.fold_finish_s", "s", "lower"),
    m("core.table1_s", "s", "lower"),
    m("core.findings_s", "s", "lower"),
    m("core.fold_state_bytes", "bytes", "lower"),
    m("pipeline.run_source_1t_s", "s", "lower"),
    m("pipeline.parallel_speedup", "ratio", "higher"),
    m("pipeline.engine_overhead_s", "s", "lower"),
    // checkpoint_resume.
    m("pipeline.plain_run_s", "s", "lower"),
    m("pipeline.checkpoint_overhead", "ratio", "lower"),
    m("pipeline.mmap_load_s", "s", "lower"),
    m("core.snapshot_encode_s", "s", "lower"),
    m("core.snapshot_decode_s", "s", "lower"),
    m("logs.epoch_write_s", "s", "lower"),
    m("logs.epoch_read_s", "s", "lower"),
    m("logs.checkpoint_verify_s", "s", "lower"),
    m("logs.checkpoint_epochs", "count", "lower"),
    m("logs.checkpoint_bytes", "bytes", "lower"),
    // daemon_ingest.
    m("daemon.wire_encode_s", "s", "lower"),
    m("daemon.wire_decode_s", "s", "lower"),
    m("daemon.admit_s", "s", "lower"),
    m("daemon.wal_append_s", "s", "lower"),
    m("daemon.drain_s", "s", "lower"),
    m("daemon.wal_open_s", "s", "lower"),
    m("daemon.wal_replay_s", "s", "lower"),
    m("daemon.frames_shed", "count", "lower"),
    m("daemon.connections", "count", "lower"),
    // The traced run itself.
    m("trace.overhead_s", "s", "lower"),
];

/// The median of `values` (the mean of the middle two for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The result line: `correct`, `attempted`, `failed`, and each metric
/// with its unit. Values print with every digit Rust keeps for them.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&Metric, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (metric, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 2, 0, &[(&END_TO_END[0], 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
