//! Robustness fuzzing for the log parser: arbitrary and corrupted input
//! must never panic, valid lines must survive mutation detection, and the
//! streaming classifier must be insensitive to how shard bytes are
//! chunked (split lines, empty shards, missing trailing newlines).

use proptest::prelude::*;

use ssfa_logs::{
    classify, Classifier, FaultInjector, FaultLedger, FaultSpec, LogBook, LogLine, ShardFate,
};

/// A tiny but complete rendered corpus for shard-boundary fuzzing:
/// topology, a disk install/remove cycle, and RAID failure events.
fn sample_corpus_text(seed: u64) -> String {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<u64, String>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(text) = cache.lock().unwrap().get(&seed) {
        return text.clone();
    }
    use ssfa_model::{Fleet, FleetConfig};
    use ssfa_sim::Simulator;
    let fleet = Fleet::build(&FleetConfig::paper().scaled(0.0005), seed);
    let output = Simulator::default().run(&fleet, seed);
    let text =
        ssfa_logs::render_support_log(&fleet, &output, ssfa_logs::CascadeStyle::Full).to_text();
    cache.lock().unwrap().insert(seed, text.clone());
    text
}

proptest! {
    /// Absolutely any string must parse to `Some`/`None` without panicking.
    #[test]
    fn parse_never_panics_on_arbitrary_input(line in ".{0,200}") {
        let _ = LogLine::parse(&line);
    }

    /// Arbitrary byte soup formatted as "almost a log line" must not panic.
    #[test]
    fn parse_never_panics_on_near_miss_lines(
        host in 0u32..100,
        ts_garbage in "[A-Za-z0-9 :]{0,40}",
        tag in "[a-z.]{0,40}",
        sev in "[a-z]{0,10}",
        payload in ".{0,120}",
    ) {
        let line = format!("sys-{host} {ts_garbage} [{tag}:{sev}]: {payload}");
        let _ = LogLine::parse(&line);
    }

    /// Deleting any single character from a valid rendered line either
    /// fails to parse or parses to a (different but valid) line — never
    /// panics, never misattributes the original.
    #[test]
    fn single_character_deletion_is_detected_or_harmless(
        serial_raw in 0u64..1_000_000,
        t in 0u64..100_000_000,
        idx in 0usize..60,
    ) {
        use ssfa_logs::LogEvent;
        use ssfa_model::{DeviceAddr, DiskInstanceId, SimTime, SystemId};
        let original = LogLine::new(
            SystemId(7),
            SimTime::from_secs(t),
            LogEvent::RaidDiskFailed {
                device: DeviceAddr::new(8, 24),
                serial: DiskInstanceId(serial_raw).serial(),
            },
        );
        let text = original.to_string();
        if idx < text.len() && text.is_char_boundary(idx) && text.is_char_boundary(idx + 1) {
            let mut mutated = String::with_capacity(text.len());
            mutated.push_str(&text[..idx]);
            mutated.push_str(&text[idx + 1..]);
            // Must not panic; if it parses, it must be a structurally valid
            // line (we don't require inequality: deleting e.g. a space can
            // be cosmetic).
            let _ = LogLine::parse(&mutated);
        }
    }

    /// A corpus containing one corrupted line reports that line's number.
    #[test]
    fn corpus_reports_first_bad_line(good_before in 0usize..5, garbage in "[a-z ]{1,30}") {
        use ssfa_logs::LogEvent;
        use ssfa_model::{SimTime, SystemId};
        let good = LogLine::new(
            SystemId(1),
            SimTime::from_secs(3_600),
            LogEvent::FciAdapterReset { adapter: 3 },
        )
        .to_string();
        let mut text = String::new();
        for _ in 0..good_before {
            text.push_str(&good);
            text.push('\n');
        }
        text.push_str(&garbage);
        text.push('\n');
        match LogBook::from_text(&text) {
            Err(ssfa_logs::LogError::Malformed { line_no, .. }) => {
                prop_assert_eq!(line_no, good_before + 1);
            }
            Ok(book) => {
                // The garbage accidentally parsed (extremely unlikely but
                // legal); corpus length then includes it.
                prop_assert!(book.len() >= good_before);
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
        }
    }

    /// Splitting the shard text at *any* byte position — including the
    /// middle of a line or of a multi-byte character — and feeding the two
    /// reads separately classifies identically to the joined corpus.
    #[test]
    fn line_split_across_two_shard_reads_is_lossless(
        seed in 0u64..4,
        split_millis in 0u64..=1_000,
    ) {
        let text = sample_corpus_text(seed);
        let split = (text.len() as u64 * split_millis / 1_000) as usize;
        let expected = classify(&LogBook::from_text(&text).unwrap()).unwrap();

        let mut streaming = Classifier::new();
        streaming.feed_bytes(&text.as_bytes()[..split]).unwrap();
        streaming.feed_bytes(&text.as_bytes()[split..]).unwrap();
        prop_assert_eq!(streaming.finish().unwrap(), expected);
    }

    /// Chunking the shard into many arbitrary-size reads is equally
    /// lossless — the general case of the two-read split.
    #[test]
    fn arbitrary_chunking_is_lossless(
        seed in 0u64..4,
        chunk in 1usize..4_096,
    ) {
        let text = sample_corpus_text(seed);
        let expected = classify(&LogBook::from_text(&text).unwrap()).unwrap();

        let mut streaming = Classifier::new();
        for piece in text.as_bytes().chunks(chunk) {
            streaming.feed_bytes(piece).unwrap();
        }
        prop_assert_eq!(streaming.finish().unwrap(), expected);
    }

    /// A shard whose final line has no trailing newline still classifies
    /// identically: `finish` flushes the buffered tail.
    #[test]
    fn missing_trailing_newline_is_harmless(seed in 0u64..4) {
        let text = sample_corpus_text(seed);
        let trimmed = text.strip_suffix('\n').expect("rendered corpora end in newline");
        let expected = classify(&LogBook::from_text(&text).unwrap()).unwrap();

        let mut streaming = Classifier::new();
        streaming.feed_bytes(trimmed.as_bytes()).unwrap();
        prop_assert_eq!(streaming.finish().unwrap(), expected);
    }

    /// Injector-corrupted corpora fed to a lenient classifier in
    /// arbitrary-size chunks (so corrupted multi-byte sequences split at
    /// any byte position) never panic, and every skip is counted: the
    /// classifier's health matches the injector's ledger exactly.
    #[test]
    fn lenient_classifier_counts_every_skip_under_injection(
        seed in 0u64..4,
        rate_millis in 1u64..=80,
        chunk in 1usize..2_048,
    ) {
        let text = sample_corpus_text(seed);
        let spec = FaultSpec::uniform(rate_millis as f64 / 1_000.0);
        let injector = FaultInjector::new(spec, seed);
        let mut ledger = FaultLedger::default();
        let corrupted = match injector.corrupt_shard(0, 0, &text, &mut ledger) {
            ShardFate::Processed(bytes) => bytes,
            // The whole shard was dropped — nothing reaches the classifier.
            ShardFate::Dropped => return Ok(()),
        };

        let mut streaming = Classifier::lenient();
        for piece in corrupted.chunks(chunk) {
            streaming.feed_bytes(piece).unwrap();
        }
        let (_, health) = streaming.finish_with_health().unwrap();
        prop_assert_eq!(health.lines_seen, ledger.lines_out);
        prop_assert_eq!(health.malformed_skipped, ledger.expect_malformed);
        prop_assert_eq!(health.missing_topology_skipped, ledger.expect_missing_topology);
    }

    /// A non-UTF-8 line containing multi-byte characters, spliced into a
    /// clean corpus and fed in chunks that can split any character (or the
    /// invalid byte itself) across reads: lenient mode never panics,
    /// counts exactly one skip, and recovers the clean corpus's analysis.
    #[test]
    fn corrupted_multibyte_split_is_skipped_and_counted(
        seed in 0u64..4,
        chunk in 1usize..512,
    ) {
        let text = sample_corpus_text(seed);
        let expected = classify(&LogBook::from_text(&text).unwrap()).unwrap();

        // Multi-byte UTF-8 (é, ö, 語) followed by a byte that is invalid
        // in any UTF-8 sequence — the line as a whole cannot decode.
        let first_line_end = text.find('\n').expect("corpus has lines") + 1;
        let mut spliced = text.as_bytes()[..first_line_end].to_vec();
        spliced.extend_from_slice("h\u{e9}llo w\u{f6}rld \u{8a9e}".as_bytes());
        spliced.push(0xFF);
        spliced.push(b'\n');
        spliced.extend_from_slice(&text.as_bytes()[first_line_end..]);

        let mut streaming = Classifier::lenient();
        for piece in spliced.chunks(chunk) {
            streaming.feed_bytes(piece).unwrap();
        }
        let (input, health) = streaming.finish_with_health().unwrap();
        prop_assert_eq!(health.malformed_skipped, 1);
        prop_assert_eq!(health.missing_topology_skipped, 0);
        prop_assert_eq!(input, expected);
    }

    /// Empty shards — empty byte chunks, readers with no content, blank
    /// lines between reads — never panic and contribute nothing.
    #[test]
    fn empty_shards_are_no_ops(blank_lines in 0usize..5) {
        let mut streaming = Classifier::new();
        streaming.feed_bytes(b"").unwrap();
        for _ in 0..blank_lines {
            streaming.feed_bytes(b"\n").unwrap();
        }
        let input = streaming.finish().unwrap();
        prop_assert!(input.lifetimes.is_empty());
        prop_assert!(input.failures.is_empty());
        prop_assert!(input.topology.systems.is_empty());
    }
}
