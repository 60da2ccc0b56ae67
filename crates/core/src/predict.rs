//! Disk-failure prediction from low-layer precursor events — the paper's
//! second future-work direction ("design storage failure prediction
//! algorithms based on component errors", §7).
//!
//! The support log contains more than RAID-layer failures: the SCSI layer
//! reports medium errors as sectors go bad (§2.5). Disks that are about to
//! be failed out accumulate these precursors over their final days, while
//! healthy disks emit them only occasionally. The [`PrecursorPredictor`]
//! raises an alarm when a device accumulates `threshold` medium errors
//! within an `accumulation` window; [`evaluate_predictor`] scores alarms
//! against the corpus's actual disk failures.

use std::collections::BTreeMap;

use ssfa_logs::{AnalysisInput, LogBook, LogEvent};
use ssfa_model::{DeviceAddr, FailureType, HashIndex, SimDuration, SimTime, SystemId};

/// A threshold predictor over per-device medium-error counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecursorPredictor {
    /// Number of medium errors within the accumulation window that raises
    /// an alarm.
    pub threshold: u32,
    /// How far back errors count toward the threshold.
    pub accumulation: SimDuration,
    /// How far ahead an alarm claims a failure will happen (alarms are
    /// scored true if the device's disk fails within this horizon).
    pub horizon: SimDuration,
    /// Cool-down after an alarm before the same device may alarm again
    /// (prevents one error burst from raising a volley of alarms).
    pub cooldown: SimDuration,
}

impl Default for PrecursorPredictor {
    fn default() -> Self {
        PrecursorPredictor {
            threshold: 3,
            accumulation: SimDuration::from_days(30.0),
            horizon: SimDuration::from_days(21.0),
            cooldown: SimDuration::from_days(30.0),
        }
    }
}

/// One raised alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alarm {
    /// System the device belongs to.
    pub system: SystemId,
    /// The device predicted to fail.
    pub device: DeviceAddr,
    /// When the alarm was raised.
    pub at: SimTime,
}

/// Evaluation of a predictor against the corpus's actual disk failures.
#[derive(Debug, Clone)]
pub struct PredictionEval {
    /// The predictor evaluated.
    pub predictor: PrecursorPredictor,
    /// Every alarm raised.
    pub alarms: Vec<Alarm>,
    /// Alarms followed by a disk failure of the same device within the
    /// horizon.
    pub true_positives: usize,
    /// Alarms with no such failure.
    pub false_positives: usize,
    /// Disk failures preceded by at least one true alarm.
    pub detected_failures: usize,
    /// All disk failures in the corpus.
    pub total_failures: usize,
    /// Lead times (alarm → failure) of true positives, in hours.
    pub lead_times_hours: Vec<f64>,
}

impl PredictionEval {
    /// Fraction of alarms that were right.
    pub fn precision(&self) -> Option<f64> {
        let n = self.true_positives + self.false_positives;
        if n == 0 {
            None
        } else {
            Some(self.true_positives as f64 / n as f64)
        }
    }

    /// Fraction of disk failures that were predicted.
    pub fn recall(&self) -> Option<f64> {
        if self.total_failures == 0 {
            None
        } else {
            Some(self.detected_failures as f64 / self.total_failures as f64)
        }
    }

    /// Median warning time before failure, in hours.
    pub fn median_lead_time_hours(&self) -> Option<f64> {
        if self.lead_times_hours.is_empty() {
            return None;
        }
        let mut sorted = self.lead_times_hours.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[sorted.len() / 2])
    }
}

/// Runs the predictor over a corpus and scores it against the classified
/// disk failures.
///
/// The predictor sees only what a real one would: the stream of
/// `disk.ioMediumError` lines, keyed by `(system, device)`. Ground truth
/// comes from `input.failures` (the RAID-layer disk-failure records of the
/// same corpus).
pub fn evaluate_predictor(
    book: &LogBook,
    input: &AnalysisInput,
    predictor: PrecursorPredictor,
) -> PredictionEval {
    // --- Raise alarms ------------------------------------------------------
    let mut recent: HashIndex<(SystemId, DeviceAddr), Vec<SimTime>> = HashIndex::new();
    let mut cooldown_until: HashIndex<(SystemId, DeviceAddr), SimTime> = HashIndex::new();
    let mut alarms: Vec<Alarm> = Vec::new();

    for line in book {
        let LogEvent::DiskMediumError { device, .. } = &line.event else {
            continue;
        };
        let key = (line.host, *device);
        if cooldown_until
            .get(&key)
            .is_some_and(|&until| line.at < until)
        {
            continue;
        }
        let times = recent.entry(key).or_default();
        times.push(line.at);
        let cutoff = line.at.saturating_sub(predictor.accumulation);
        times.retain(|&t| t >= cutoff);
        if times.len() >= predictor.threshold as usize {
            alarms.push(Alarm {
                system: line.host,
                device: *device,
                at: line.at,
            });
            cooldown_until.insert(key, line.at + predictor.cooldown);
            times.clear();
        }
    }

    // --- Score against actual disk failures --------------------------------
    let mut failures_by_device: BTreeMap<(SystemId, DeviceAddr), Vec<SimTime>> = BTreeMap::new();
    let mut total_failures = 0usize;
    for rec in &input.failures {
        if rec.failure_type == FailureType::Disk {
            total_failures += 1;
            failures_by_device
                .entry((rec.system, rec.device))
                .or_default()
                .push(rec.detected_at);
        }
    }
    for times in failures_by_device.values_mut() {
        times.sort_unstable();
    }

    let mut true_positives = 0usize;
    let mut false_positives = 0usize;
    let mut lead_times_hours = Vec::new();
    let mut detected: HashIndex<(SystemId, DeviceAddr, SimTime), bool> = HashIndex::new();

    for alarm in &alarms {
        let key = (alarm.system, alarm.device);
        let hit = failures_by_device.get(&key).and_then(|times| {
            let idx = times.partition_point(|&t| t < alarm.at);
            times
                .get(idx)
                .filter(|&&t| t <= alarm.at + predictor.horizon)
                .copied()
        });
        match hit {
            Some(failure_at) => {
                true_positives += 1;
                lead_times_hours.push(failure_at.duration_since(alarm.at).as_hours());
                detected.insert((alarm.system, alarm.device, failure_at), true);
            }
            None => false_positives += 1,
        }
    }

    PredictionEval {
        predictor,
        alarms,
        true_positives,
        false_positives,
        detected_failures: detected.len(),
        total_failures,
        lead_times_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_logs::{classify, render_support_log_noisy, CascadeStyle, LogLine, NoiseParams};
    use ssfa_model::{Fleet, FleetConfig};
    use ssfa_sim::Simulator;

    fn corpus(noise: NoiseParams) -> (LogBook, AnalysisInput) {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.004), 60);
        let out = Simulator::default().run(&fleet, 60);
        let book = render_support_log_noisy(&fleet, &out, CascadeStyle::Full, noise, 60);
        let input = classify(&book).unwrap();
        (book, input)
    }

    #[test]
    fn predictor_catches_most_failures_on_a_clean_corpus() {
        let (book, input) = corpus(NoiseParams::none());
        let eval = evaluate_predictor(&book, &input, PrecursorPredictor::default());
        assert!(eval.total_failures > 50, "need failures to score against");
        let recall = eval.recall().expect("failures exist");
        assert!(recall > 0.8, "recall {recall}");
        let precision = eval.precision().expect("alarms exist");
        assert!(precision > 0.8, "precision {precision} with zero noise");
        // Hours-to-days of warning: the third precursor lands between
        // 5 minutes and 2 days before the failure depending on how loudly
        // the disk degrades.
        let lead = eval.median_lead_time_hours().expect("true positives exist");
        assert!(lead > 1.0, "median lead {lead}h");
        // Lowering the threshold buys much longer warnings.
        let early = evaluate_predictor(
            &book,
            &input,
            PrecursorPredictor {
                threshold: 2,
                ..PrecursorPredictor::default()
            },
        );
        assert!(early.median_lead_time_hours().unwrap() > lead);
    }

    #[test]
    fn noise_costs_precision_but_not_recall() {
        let (book, input) = corpus(NoiseParams::realistic());
        let default_eval = evaluate_predictor(&book, &input, PrecursorPredictor::default());
        let recall = default_eval.recall().expect("failures exist");
        assert!(recall > 0.75, "recall under noise {recall}");
        let precision = default_eval.precision().expect("alarms exist");
        // Noise produces some false alarms, but a 30-day x3 threshold
        // stays usable.
        assert!(precision > 0.5, "precision under noise {precision}");

        // A hair-trigger threshold drowns in false alarms.
        let trigger_happy = evaluate_predictor(
            &book,
            &input,
            PrecursorPredictor {
                threshold: 1,
                ..PrecursorPredictor::default()
            },
        );
        assert!(
            trigger_happy.precision().expect("alarms exist") < precision,
            "threshold 1 should be less precise"
        );
        // It fires far more alarms (recall can even *drop*: an early noise
        // alarm puts the device in cooldown through its real precursors).
        assert!(trigger_happy.alarms.len() > default_eval.alarms.len() * 2);
    }

    #[test]
    fn cooldown_suppresses_alarm_volleys() {
        let (book, input) = corpus(NoiseParams::none());
        let with_cooldown = evaluate_predictor(&book, &input, PrecursorPredictor::default());
        let without = evaluate_predictor(
            &book,
            &input,
            PrecursorPredictor {
                cooldown: SimDuration::from_secs(1),
                ..PrecursorPredictor::default()
            },
        );
        assert!(without.alarms.len() >= with_cooldown.alarms.len());
    }

    #[test]
    fn empty_corpus_scores_cleanly() {
        let book = LogBook::new();
        let input = AnalysisInput::default();
        let eval = evaluate_predictor(&book, &input, PrecursorPredictor::default());
        assert_eq!(eval.alarms.len(), 0);
        assert_eq!(eval.precision(), None);
        assert_eq!(eval.recall(), None);
        assert_eq!(eval.median_lead_time_hours(), None);
    }

    #[test]
    fn alarms_are_chronological_per_device_stream() {
        let (book, input) = corpus(NoiseParams::none());
        let eval = evaluate_predictor(&book, &input, PrecursorPredictor::default());
        // Lines are scanned in corpus (chronological) order, so alarms are
        // globally ordered too.
        for pair in eval.alarms.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        let _ = LogLine::parse; // keep import used in all cfgs
    }
}
