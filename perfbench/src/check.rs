//! Output checks. Every analysis path a workload runs — the offline
//! engine, the checkpointed cold run, the resumed run, the daemon's
//! tenant summary, the recovered daemon — is reduced to one [`Outcome`]
//! and checked against the simulator's ground truth, against the other
//! paths of the same run, and, for the default seed, against pinned
//! Table 1 rows and summary counts.

use ssfa_core::Study;
use ssfa_daemon::TenantReport;
use ssfa_pipeline::{JsonSummarySink, RunHealth, Sink};

use crate::pins;
use crate::setup::Corpus;

/// The `JsonSummarySink` counts the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Systems in the study's topology.
    pub systems: u64,
    /// Disk lifetimes.
    pub lifetimes: u64,
    /// Classified failures.
    pub failures: u64,
    /// Disk-years, as the sink prints them (three decimals).
    pub disk_years: String,
    /// Log lines the run classified.
    pub lines_seen: u64,
}

impl Summary {
    /// Parses the counts out of a `JsonSummarySink` document.
    ///
    /// # Errors
    ///
    /// A missing or malformed field.
    pub fn parse(doc: &[u8]) -> Result<Summary, String> {
        let text = std::str::from_utf8(doc).map_err(|e| format!("summary is not UTF-8: {e}"))?;
        let field = |key: &str| -> Result<&str, String> {
            let prefix = format!("\"{key}\":");
            text.lines()
                .find_map(|line| line.trim().strip_prefix(prefix.as_str()))
                .map(|v| v.trim().trim_end_matches(','))
                .ok_or_else(|| format!("summary has no `{key}`"))
        };
        let number = |key: &str| -> Result<u64, String> {
            let raw = field(key)?;
            raw.parse()
                .map_err(|_| format!("summary `{key}` is not a count: `{raw}`"))
        };
        Ok(Summary {
            systems: number("systems")?,
            lifetimes: number("lifetimes")?,
            failures: number("failures")?,
            disk_years: field("disk_years")?.to_owned(),
            lines_seen: number("lines_seen")?,
        })
    }
}

/// One analysis path's checked output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Table 1 rows, `Debug`-formatted. `None` for the daemon, whose
    /// tenant exposes only its summary document.
    pub table1: Option<Vec<String>>,
    /// Summary counts.
    pub summary: Summary,
    /// Systems, disks, and failures summed over the Table 1 rows.
    table1_totals: Option<[u64; 3]>,
}

impl Outcome {
    /// The outcome of an offline run: Table 1 plus the summary that
    /// `JsonSummarySink` writes for it.
    pub fn offline(study: &Study, health: &RunHealth) -> Outcome {
        let rows = study.table1();
        let totals = rows.iter().fold([0u64; 3], |acc, row| {
            [
                acc[0] + row.systems as u64,
                acc[1] + row.disks as u64,
                acc[2] + row.counts.total(),
            ]
        });
        let mut sink = JsonSummarySink::new(Vec::new());
        sink.consume(study, health)
            .expect("writing to a Vec cannot fail");
        Outcome {
            table1: Some(rows.iter().map(|row| format!("{row:?}")).collect()),
            summary: Summary::parse(&sink.into_inner())
                .expect("JsonSummarySink writes every count"),
            table1_totals: Some(totals),
        }
    }

    /// The outcome of a daemon tenant, from its summary document.
    ///
    /// # Errors
    ///
    /// As [`Summary::parse`].
    pub fn from_summary(doc: &[u8]) -> Result<Outcome, String> {
        Ok(Outcome {
            table1: None,
            summary: Summary::parse(doc)?,
            table1_totals: None,
        })
    }
}

/// Checks `outcome` (labelled `label` in messages) against the corpus's
/// ground truth and, when the corpus's (scale, seed) is pinned, against
/// the pins. Returns one message per mismatch.
pub fn check(label: &str, outcome: &Outcome, corpus: &Corpus) -> Vec<String> {
    let mut errors = Vec::new();
    let s = &outcome.summary;
    let t = &corpus.truth;
    for (what, got, want) in [
        ("systems", s.systems, t.systems),
        ("lifetimes", s.lifetimes, t.lifetimes),
        ("failures", s.failures, t.failures),
        ("lines_seen", s.lines_seen, t.lines),
    ] {
        if got != want {
            errors.push(format!("{label}: {what} {got}, simulator says {want}"));
        }
    }
    match s.disk_years.parse::<f64>() {
        Ok(years) if (years - t.disk_years).abs() <= 1e-3 => {}
        _ => errors.push(format!(
            "{label}: disk_years {}, simulator says {:.3}",
            s.disk_years, t.disk_years
        )),
    }
    if let Some([systems, disks, failures]) = outcome.table1_totals {
        if [systems, disks, failures] != [s.systems, s.lifetimes, s.failures] {
            errors.push(format!(
                "{label}: Table 1 totals {systems}/{disks}/{failures} disagree with the summary"
            ));
        }
    }
    if let Some(pin) = pins::lookup(corpus.scale, corpus.seed) {
        if *s != pin.summary() {
            errors.push(format!(
                "{label}: summary {s:?} differs from the pin {:?}",
                pin.summary()
            ));
        }
        if let Some(rows) = &outcome.table1 {
            if rows
                .iter()
                .map(String::as_str)
                .ne(pin.table1.iter().copied())
            {
                errors.push(format!("{label}: Table 1 differs from the pin: {rows:#?}"));
            }
        }
    }
    errors
}

/// Checks that two paths over the same corpus agree.
pub fn same(label: &str, a: &Outcome, b: &Outcome) -> Vec<String> {
    let mut errors = Vec::new();
    if a.summary != b.summary {
        errors.push(format!(
            "{label}: summaries differ: {:?} vs {:?}",
            a.summary, b.summary
        ));
    }
    if let (Some(x), Some(y)) = (&a.table1, &b.table1) {
        if x != y {
            errors.push(format!("{label}: Table 1 rows differ"));
        }
    }
    errors
}

/// The one tenant a drain should report, as an outcome. A missing,
/// extra, shedding, or quarantined tenant is noted in `errors`.
pub fn tenant_outcome(reports: &[TenantReport], errors: &mut Vec<String>) -> Option<Outcome> {
    match reports {
        [tenant] if tenant.stats.frames_shed == 0 && tenant.quarantined.is_none() => {
            Outcome::from_summary(&tenant.summary)
                .map_err(|e| errors.push(e))
                .ok()
        }
        [tenant] => {
            errors.push(format!(
                "tenant: {:?}, {:?}",
                tenant.stats, tenant.quarantined
            ));
            None
        }
        other => {
            errors.push(format!("expected one tenant, drained {}", other.len()));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_parses_the_sink_document() {
        let doc = b"{\n  \"schema\": \"ssfa-run-summary/v1\",\n  \"systems\": 3,\n  \"lifetimes\": 40,\n  \"failures\": 2,\n  \"disk_years\": 12.500,\n  \"lines_seen\": 99,\n  \"lines_skipped\": 0\n}\n";
        let s = Summary::parse(doc).expect("parses");
        assert_eq!(
            (s.systems, s.lifetimes, s.failures, s.lines_seen),
            (3, 40, 2, 99)
        );
        assert_eq!(s.disk_years, "12.500");
        assert!(Summary::parse(b"{}").is_err());
    }
}
