//! The log corpus: an ordered collection of log lines with text I/O.

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::event::LogLine;

/// Errors from corpus I/O and classification.
#[derive(Debug)]
pub enum LogError {
    /// A line failed to parse.
    Malformed {
        /// 1-based line number within the corpus text.
        line_no: usize,
        /// The offending line, truncated to [`MALFORMED_PREVIEW_CHARS`]
        /// characters (lossily decoded if it was not valid UTF-8).
        line: String,
        /// Byte length of the original, untruncated line.
        bytes: usize,
    },
    /// A failure event referenced topology the corpus never declared.
    MissingTopology {
        /// What was being resolved.
        what: String,
    },
    /// Underlying I/O error.
    Io(io::Error),
}

/// Whether a raw line (no newline) is blank: empty or all ASCII
/// whitespace. Blank lines are not log lines — every reader skips them
/// without counting or parsing them. The rule is ASCII-only because the
/// classifier splits on `\n` and never trims Unicode whitespace, so a
/// line holding only, say, U+00A0 is a malformed line, not a blank one.
pub fn is_blank_line(raw: &[u8]) -> bool {
    raw.iter().all(u8::is_ascii_whitespace)
}

/// How many characters of an offending line a [`LogError::Malformed`]
/// preserves. A corrupted corpus can contain arbitrarily long garbage
/// lines; capping the preview keeps error messages from flooding
/// terminals and CI logs, while the recorded byte length still tells the
/// operator how big the damage was.
pub const MALFORMED_PREVIEW_CHARS: usize = 120;

impl LogError {
    /// A [`LogError::Malformed`] for a raw line, with the preview
    /// truncated to [`MALFORMED_PREVIEW_CHARS`] characters and the
    /// original byte length preserved.
    // lint: alloc-ok error path: the bounded preview copy happens only for
    // unparseable lines, never on well-formed steady-state input
    pub fn malformed(line_no: usize, raw: &[u8]) -> LogError {
        LogError::Malformed {
            line_no,
            line: String::from_utf8_lossy(raw)
                .chars()
                .take(MALFORMED_PREVIEW_CHARS)
                .collect(),
            bytes: raw.len(),
        }
    }
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Malformed {
                line_no,
                line,
                bytes,
            } => {
                write!(f, "malformed log line {line_no}: {line}")?;
                if *bytes != line.len() {
                    write!(f, " … [{bytes} bytes total]")?;
                }
                Ok(())
            }
            LogError::MissingTopology { what } => {
                write!(f, "event references undeclared topology: {what}")
            }
            LogError::Io(e) => write!(f, "log i/o error: {e}"),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// An ordered support-log corpus.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LogBook {
    lines: Vec<LogLine>,
}

impl LogBook {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one line.
    pub fn push(&mut self, line: LogLine) {
        self.lines.push(line);
    }

    /// Appends many lines.
    pub fn extend_lines<I: IntoIterator<Item = LogLine>>(&mut self, lines: I) {
        self.lines.extend(lines);
    }

    /// Sorts lines chronologically (stable, so cascade-internal order at
    /// equal timestamps is preserved).
    pub fn sort_chronological(&mut self) {
        self.lines.sort_by_key(|l| l.at);
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the corpus holds no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Iterates the lines in corpus order.
    pub fn iter(&self) -> std::slice::Iter<'_, LogLine> {
        self.lines.iter()
    }

    /// Iterates the lines emitted by one host.
    pub fn lines_for_host(
        &self,
        host: ssfa_model::SystemId,
    ) -> impl Iterator<Item = &LogLine> + '_ {
        self.lines.iter().filter(move |l| l.host == host)
    }

    /// Iterates the lines within a half-open time window `[from, to)`.
    pub fn lines_between(
        &self,
        from: ssfa_model::SimTime,
        to: ssfa_model::SimTime,
    ) -> impl Iterator<Item = &LogLine> + '_ {
        self.lines.iter().filter(move |l| l.at >= from && l.at < to)
    }

    /// Iterates the lines whose subsystem tag starts with `prefix`
    /// (e.g. `"raid."` for the classification-bearing events).
    pub fn lines_with_tag_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a LogLine> + 'a {
        self.lines
            .iter()
            .filter(move |l| l.event.tag().starts_with(prefix))
    }

    /// Counts lines per subsystem tag.
    pub fn count_by_tag(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for line in &self.lines {
            *counts.entry(line.event.tag()).or_insert(0) += 1;
        }
        counts
    }

    /// Renders the whole corpus as text, one line per event. Lines are
    /// pushed straight into the output buffer via
    /// [`LogLine::render_into`] — no per-line allocation and no `fmt`
    /// machinery.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.lines.len() * 128);
        for line in &self.lines {
            line.render_into(&mut out);
            out.push('\n');
        }
        out
    }

    /// In-memory footprint of the corpus: the sum of every line's
    /// [`LogLine::resident_bytes`]. This is what a pipeline holding the
    /// parsed corpus keeps resident, and the unit the streaming pipeline's
    /// peak-memory statistics are reported in.
    pub fn resident_bytes(&self) -> usize {
        self.lines.iter().map(LogLine::resident_bytes).sum()
    }

    /// Parses a corpus from text. Blank lines (see [`is_blank_line`]) are
    /// skipped; anything else that fails to parse is an error.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] with the offending line number.
    pub fn from_text(text: &str) -> Result<LogBook, LogError> {
        let mut book = LogBook::new();
        for (idx, raw) in text.lines().enumerate() {
            if is_blank_line(raw.as_bytes()) {
                continue;
            }
            match LogLine::parse(raw) {
                Some(line) => book.push(line),
                None => return Err(LogError::malformed(idx + 1, raw.as_bytes())),
            }
        }
        Ok(book)
    }

    /// Writes the corpus to a writer, one [`LogLine::render_into`] line
    /// at a time. Accepts `&mut` writers as well, per the usual
    /// `io::Write` blanket impl.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), LogError> {
        let mut buf = String::new();
        for line in &self.lines {
            buf.clear();
            line.render_into(&mut buf);
            buf.push('\n');
            w.write_all(buf.as_bytes())?;
        }
        Ok(())
    }

    /// Reads a corpus from a buffered reader. Accepts `&mut` readers as
    /// well.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] for unparseable lines and
    /// [`LogError::Io`] for reader failures.
    pub fn read_from<R: BufRead>(r: R) -> Result<LogBook, LogError> {
        let mut book = LogBook::new();
        for (idx, raw) in r.lines().enumerate() {
            let raw = raw?;
            if is_blank_line(raw.as_bytes()) {
                continue;
            }
            match LogLine::parse(&raw) {
                Some(line) => book.push(line),
                None => return Err(LogError::malformed(idx + 1, raw.as_bytes())),
            }
        }
        Ok(book)
    }
}

impl FromIterator<LogLine> for LogBook {
    fn from_iter<I: IntoIterator<Item = LogLine>>(iter: I) -> Self {
        LogBook {
            lines: iter.into_iter().collect(),
        }
    }
}

impl Extend<LogLine> for LogBook {
    fn extend<I: IntoIterator<Item = LogLine>>(&mut self, iter: I) {
        self.lines.extend(iter);
    }
}

impl IntoIterator for LogBook {
    type Item = LogLine;
    type IntoIter = std::vec::IntoIter<LogLine>;

    fn into_iter(self) -> Self::IntoIter {
        self.lines.into_iter()
    }
}

impl<'a> IntoIterator for &'a LogBook {
    type Item = &'a LogLine;
    type IntoIter = std::slice::Iter<'a, LogLine>;

    fn into_iter(self) -> Self::IntoIter {
        self.lines.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogEvent;
    use ssfa_model::{DeviceAddr, SimTime, SystemId};

    fn sample_line(t: u64) -> LogLine {
        LogLine::new(
            SystemId(1),
            SimTime::from_secs(t),
            LogEvent::FciDeviceTimeout {
                device: DeviceAddr::new(8, 24),
            },
        )
    }

    #[test]
    fn text_round_trip_preserves_everything() {
        let mut book = LogBook::new();
        book.push(sample_line(1_000));
        book.push(sample_line(50_000));
        let text = book.to_text();
        let parsed = LogBook::from_text(&text).unwrap();
        assert_eq!(parsed, book);
    }

    #[test]
    fn io_round_trip() {
        let book: LogBook = (0..10).map(|i| sample_line(i * 7_000)).collect();
        let mut buf = Vec::new();
        book.write_to(&mut buf).unwrap();
        let parsed = LogBook::read_from(buf.as_slice()).unwrap();
        assert_eq!(parsed, book);
    }

    #[test]
    fn blank_lines_are_skipped_garbage_is_reported() {
        let book: LogBook = vec![sample_line(3_600)].into_iter().collect();
        let text = format!("\n{}\n\n", book.to_text());
        assert_eq!(LogBook::from_text(&text).unwrap().len(), 1);

        let bad = format!("{}not a log line\n", book.to_text());
        match LogBook::from_text(&bad) {
            Err(LogError::Malformed { line_no, .. }) => assert_eq!(line_no, 2),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn malformed_display_is_bounded_for_huge_lines() {
        let huge = "x".repeat(5_000_000);
        let err = LogError::malformed(7, huge.as_bytes());
        let msg = err.to_string();
        assert!(
            msg.len() < 300,
            "display must not embed the whole line: {} bytes",
            msg.len()
        );
        assert!(
            msg.contains("[5000000 bytes total]"),
            "missing byte-length suffix: {msg}"
        );

        // Short lines keep the original exact message, no suffix.
        let short = LogError::malformed(2, b"not a log line");
        assert_eq!(short.to_string(), "malformed log line 2: not a log line");
    }

    #[test]
    fn sorting_is_stable_for_equal_timestamps() {
        let a = LogLine::new(
            SystemId(1),
            SimTime::from_secs(100),
            LogEvent::FciAdapterReset { adapter: 1 },
        );
        let b = LogLine::new(
            SystemId(1),
            SimTime::from_secs(100),
            LogEvent::FciAdapterReset { adapter: 2 },
        );
        let mut book: LogBook = vec![sample_line(500), a.clone(), b.clone()]
            .into_iter()
            .collect();
        book.sort_chronological();
        let lines: Vec<_> = book.iter().cloned().collect();
        assert_eq!(lines[0], a);
        assert_eq!(lines[1], b);
    }

    #[test]
    fn query_api_filters_correctly() {
        use ssfa_model::SimTime;
        let mk = |host: u32, t: u64, adapter: u8| {
            LogLine::new(
                SystemId(host),
                SimTime::from_secs(t),
                LogEvent::FciAdapterReset { adapter },
            )
        };
        let mut book: LogBook = vec![
            mk(1, 100, 1),
            mk(2, 200, 2),
            mk(1, 300, 3),
            LogLine::new(
                SystemId(1),
                SimTime::from_secs(400),
                LogEvent::FciDeviceTimeout {
                    device: DeviceAddr::new(8, 24),
                },
            ),
        ]
        .into_iter()
        .collect();
        book.sort_chronological();

        assert_eq!(book.lines_for_host(SystemId(1)).count(), 3);
        assert_eq!(book.lines_for_host(SystemId(9)).count(), 0);
        assert_eq!(
            book.lines_between(SimTime::from_secs(150), SimTime::from_secs(400))
                .count(),
            2
        );
        assert_eq!(book.lines_with_tag_prefix("fci.adapter").count(), 3);
        let by_tag = book.count_by_tag();
        assert_eq!(by_tag["fci.adapter.reset"], 3);
        assert_eq!(by_tag["fci.device.timeout"], 1);
    }

    #[test]
    fn collect_and_extend() {
        let mut book: LogBook = (0..3).map(sample_line).collect();
        book.extend((3..5).map(sample_line));
        assert_eq!(book.len(), 5);
        assert!(!book.is_empty());
        assert_eq!((&book).into_iter().count(), 5);
    }
}
