//! Simulation time: seconds since the start of the study period.
//!
//! The study window runs from 2004-01-01 00:00:00 UTC for 44 months
//! (January 2004 through August 2007). [`SimTime`] is an absolute instant in
//! that window, measured in whole seconds; [`SimDuration`] is a difference of
//! instants. [`CivilDateTime`] converts instants to calendar fields for log
//! rendering, using the proleptic-Gregorian `days_from_civil` algorithm, so
//! the crate needs no external date/time dependency.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Calendar instant of `SimTime::ZERO`: 2004-01-01 00:00:00 UTC.
pub const STUDY_EPOCH: (i32, u8, u8) = (2004, 1, 1);

/// Length of the study window in months (January 2004 .. September 2007).
pub const STUDY_MONTHS: u32 = 44;

/// Seconds per hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds per day.
pub const SECS_PER_DAY: u64 = 86_400;
/// Seconds per (Julian) year, used for annualizing failure rates.
pub const SECS_PER_YEAR: u64 = 31_557_600; // 365.25 days

/// An absolute instant within the study window, in seconds since
/// 2004-01-01 00:00:00 UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The start of the study window.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from a count of seconds since the study epoch.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates an instant from fractional hours since the study epoch.
    pub fn from_hours(hours: f64) -> Self {
        SimTime((hours * SECS_PER_HOUR as f64).round() as u64)
    }

    /// Creates an instant from fractional days since the study epoch.
    pub fn from_days(days: f64) -> Self {
        SimTime((days * SECS_PER_DAY as f64).round() as u64)
    }

    /// Creates an instant from fractional years since the study epoch.
    pub fn from_years(years: f64) -> Self {
        SimTime((years * SECS_PER_YEAR as f64).round() as u64)
    }

    /// Returns the instant as whole seconds since the study epoch.
    #[inline]
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional years since the study epoch.
    #[inline]
    pub fn as_years(self) -> f64 {
        self.0 as f64 / SECS_PER_YEAR as f64
    }

    /// The end of the 44-month study window.
    pub fn study_end() -> SimTime {
        // 44 months = 3 years (2004..2007) + 8 months (Jan..Aug 2007).
        let days = days_from_civil(2007, 9, 1) - days_from_civil(2004, 1, 1);
        SimTime(days as u64 * SECS_PER_DAY)
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Parses a support-log timestamp straight to a [`SimTime`] —
    /// equivalent to `CivilDateTime::parse_log_timestamp(s)?.to_sim_time()`
    /// but fused: the calendar conversion runs once and the weekday
    /// derivation (which the sim-time offset never needs) is skipped.
    /// This is the line parser's hot path.
    pub fn parse_log_timestamp(s: &str) -> Option<SimTime> {
        let (year, month, day, hour, minute, second) = parse_log_fields(s)?;
        let days = days_from_civil(year, month, day) - days_from_civil(2004, 1, 1);
        if days < 0 {
            return None;
        }
        Some(SimTime(
            days as u64 * SECS_PER_DAY
                + hour as u64 * SECS_PER_HOUR
                + minute as u64 * 60
                + second as u64,
        ))
    }

    /// Converts to calendar fields for display.
    pub fn civil(self) -> CivilDateTime {
        let total_days = self.0 / SECS_PER_DAY;
        let tod = self.0 % SECS_PER_DAY;
        let epoch_days = days_from_civil(STUDY_EPOCH.0, STUDY_EPOCH.1, STUDY_EPOCH.2);
        let (year, month, day) = civil_from_days(epoch_days + total_days as i64);
        CivilDateTime {
            year,
            month,
            day,
            hour: (tod / SECS_PER_HOUR) as u8,
            minute: ((tod % SECS_PER_HOUR) / 60) as u8,
            second: (tod % 60) as u8,
            weekday: weekday_from_days(epoch_days + total_days as i64),
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.civil().fmt(f)
    }
}

/// A non-negative span of simulation time, in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration from fractional hours.
    pub fn from_hours(hours: f64) -> Self {
        SimDuration((hours * SECS_PER_HOUR as f64).round() as u64)
    }

    /// Creates a duration from fractional days.
    pub fn from_days(days: f64) -> Self {
        SimDuration((days * SECS_PER_DAY as f64).round() as u64)
    }

    /// Creates a duration from fractional years (365.25-day years).
    pub fn from_years(years: f64) -> Self {
        SimDuration((years * SECS_PER_YEAR as f64).round() as u64)
    }

    /// Returns the duration in whole seconds.
    #[inline]
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / SECS_PER_HOUR as f64
    }

    /// Returns the duration in fractional years.
    #[inline]
    pub fn as_years(self) -> f64 {
        self.0 as f64 / SECS_PER_YEAR as f64
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s < 60 {
            write!(f, "{s}s")
        } else if s < SECS_PER_HOUR {
            write!(f, "{}m{}s", s / 60, s % 60)
        } else if s < SECS_PER_DAY {
            write!(f, "{}h{}m", s / SECS_PER_HOUR, (s % SECS_PER_HOUR) / 60)
        } else {
            write!(
                f,
                "{}d{}h",
                s / SECS_PER_DAY,
                (s % SECS_PER_DAY) / SECS_PER_HOUR
            )
        }
    }
}

/// Calendar fields of a [`SimTime`], for rendering support-log timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CivilDateTime {
    /// Gregorian year, e.g. 2006.
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
    /// Day of month 1..=31.
    pub day: u8,
    /// Hour 0..=23.
    pub hour: u8,
    /// Minute 0..=59.
    pub minute: u8,
    /// Second 0..=59.
    pub second: u8,
    /// Day of week, 0 = Sunday .. 6 = Saturday.
    pub weekday: u8,
}

const WEEKDAY_NAMES: [&str; 7] = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

impl CivilDateTime {
    /// Three-letter weekday name (`Sun`..`Sat`).
    pub fn weekday_name(&self) -> &'static str {
        WEEKDAY_NAMES[self.weekday as usize % 7]
    }

    /// Three-letter month name (`Jan`..`Dec`).
    pub fn month_name(&self) -> &'static str {
        MONTH_NAMES[(self.month as usize - 1) % 12]
    }

    /// Converts calendar fields back to a [`SimTime`].
    ///
    /// Returns `None` for instants before the study epoch.
    pub fn to_sim_time(&self) -> Option<SimTime> {
        let days = days_from_civil(self.year, self.month, self.day) - days_from_civil(2004, 1, 1);
        if days < 0 {
            return None;
        }
        Some(SimTime(
            days as u64 * SECS_PER_DAY
                + self.hour as u64 * SECS_PER_HOUR
                + self.minute as u64 * 60
                + self.second as u64,
        ))
    }

    /// Parses the support-log timestamp layout, e.g.
    /// `Sun Jul 23 05:43:36 PDT 2006`.
    ///
    /// A fixed-offset fast path handles the exact byte layout the renderer
    /// emits (`Www Mmm dd HH:MM:SS TZm yyyy`, day space-padded to width 2);
    /// anything that deviates falls back to the token-by-token parser, so
    /// the accepted language and produced fields are identical either way.
    pub fn parse_log_timestamp(s: &str) -> Option<CivilDateTime> {
        let (year, month, day, hour, minute, second) = parse_log_fields(s)?;
        let epoch_days = days_from_civil(2004, 1, 1);
        let days = days_from_civil(year, month, day);
        let weekday = weekday_from_days(days.max(epoch_days));
        Some(CivilDateTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
            weekday,
        })
    }
}

/// Validated timestamp fields shared by both parse entry points:
/// `(year, month, day, hour, minute, second)`, ranges already checked.
type LogFields = (i32, u8, u8, u8, u8, u8);

/// Field extraction behind [`CivilDateTime::parse_log_timestamp`] and
/// [`SimTime::parse_log_timestamp`]: canonical fixed-offset fast path
/// first, token-by-token fallback for anything else.
fn parse_log_fields(s: &str) -> Option<LogFields> {
    parse_canonical_fields(s).or_else(|| parse_token_fields(s))
}

/// The general timestamp parser: whitespace-separated tokens, the day
/// optionally space-padded.
fn parse_token_fields(s: &str) -> Option<LogFields> {
    let mut parts = s.split_whitespace();
    let _weekday = parts.next()?;
    let month_name = parts.next()?;
    let day: u8 = parts.next()?.parse().ok()?;
    let hms = parts.next()?;
    let _tz = parts.next()?;
    let year: i32 = parts.next()?.parse().ok()?;
    let month = MONTH_NAMES.iter().position(|m| *m == month_name)? as u8 + 1;
    let mut hms_parts = hms.split(':');
    let hour: u8 = hms_parts.next()?.parse().ok()?;
    let minute: u8 = hms_parts.next()?.parse().ok()?;
    let second: u8 = hms_parts.next()?.parse().ok()?;
    if hms_parts.next().is_some() {
        return None;
    }
    check_log_fields((year, month, day, hour, minute, second))
}

/// Fast path for the renderer's canonical layout; `None` means "not
/// canonical, let the general parser decide", never "invalid".
fn parse_canonical_fields(s: &str) -> Option<LogFields> {
    let b = s.as_bytes();
    // 28 bytes = "Www Mmm dd HH:MM:SS TZm yyyy" with a 4-digit year;
    // longer years (or any other layout) take the general path.
    if b.len() != 28 || !s.is_ascii() {
        return None;
    }
    if b[3] != b' '
        || b[7] != b' '
        || b[10] != b' '
        || b[13] != b':'
        || b[16] != b':'
        || b[19] != b' '
        || b[23] != b' '
    {
        return None;
    }
    // Weekday and timezone tokens: contents are ignored (matching the
    // general parser) but must be single whitespace-free tokens.
    if b[..3].iter().chain(&b[20..23]).any(|&c| ascii_space(c)) {
        return None;
    }
    let month = match &b[4..7] {
        b"Jan" => 1,
        b"Feb" => 2,
        b"Mar" => 3,
        b"Apr" => 4,
        b"May" => 5,
        b"Jun" => 6,
        b"Jul" => 7,
        b"Aug" => 8,
        b"Sep" => 9,
        b"Oct" => 10,
        b"Nov" => 11,
        b"Dec" => 12,
        _ => return None,
    };
    let day = match (b[8], digit(b[9])?) {
        (b' ', lo) => lo,
        (hi, lo) => digit(hi)? * 10 + lo,
    };
    let hour = digit(b[11])? * 10 + digit(b[12])?;
    let minute = digit(b[14])? * 10 + digit(b[15])?;
    let second = digit(b[17])? * 10 + digit(b[18])?;
    let year = b[24..]
        .iter()
        .try_fold(0i32, |acc, &c| Some(acc * 10 + digit(c)? as i32))?;
    check_log_fields((year, month, day, hour, minute, second))
}

/// The range checks both parse paths share.
fn check_log_fields(fields: LogFields) -> Option<LogFields> {
    let (_, month, day, hour, minute, second) = fields;
    if month == 0 || day == 0 || day > 31 || hour > 23 || minute > 59 || second > 59 {
        return None;
    }
    Some(fields)
}

/// ASCII bytes `char::is_whitespace` treats as whitespace (the only ones
/// relevant below 0x80): tab, LF, VT, FF, CR, space.
#[inline]
fn ascii_space(c: u8) -> bool {
    matches!(c, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ')
}

/// Decimal digit value of an ASCII byte, or `None`.
#[inline]
fn digit(c: u8) -> Option<u8> {
    c.is_ascii_digit().then(|| c - b'0')
}

impl CivilDateTime {
    /// Appends the support-log timestamp to `out`, byte-for-byte
    /// identical to this type's `Display` (`Sun Jul 23 05:43:36 PDT
    /// 2006`) — the corpus renderer's hot path. Equivalence with
    /// `Display` is pinned by a sweep test below.
    pub fn push_into(&self, out: &mut String) {
        use fmt::Write as _;
        // In-range fields (every rendered study instant) assemble the
        // whole 28-byte canonical layout in one stack buffer and append
        // it with a single push; out-of-range fields (callers with
        // degenerate hand-built values) render through `Display`.
        if self.day >= 1 && self.day <= 31 && self.hour < 24 && self.minute < 60 && self.second < 60
        {
            if let (1000..=9999, 1..=12) = (self.year, self.month) {
                let mut buf = *b"Www Mmm dd HH:MM:SS PDT yyyy";
                buf[..3].copy_from_slice(self.weekday_name().as_bytes());
                buf[4..7].copy_from_slice(self.month_name().as_bytes());
                buf[8] = if self.day < 10 {
                    b' '
                } else {
                    b'0' + self.day / 10
                };
                buf[9] = b'0' + self.day % 10;
                for (at, v) in [(11, self.hour), (14, self.minute), (17, self.second)] {
                    buf[at] = b'0' + v / 10;
                    buf[at + 1] = b'0' + v % 10;
                }
                let mut y = self.year as u16;
                for slot in buf[24..28].iter_mut().rev() {
                    *slot = b'0' + (y % 10) as u8;
                    y /= 10;
                }
                out.push_str(std::str::from_utf8(&buf).expect("canonical layout is ASCII"));
                return;
            }
        }
        write!(out, "{self}").expect("writing to a String never fails");
    }
}

impl fmt::Display for CivilDateTime {
    /// Renders in the support-log layout: `Sun Jul 23 05:43:36 PDT 2006`.
    ///
    /// The study systems logged in a fixed zone; we follow suit with a fixed
    /// `PDT` label as seen in the paper's Figure 3.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {:2} {:02}:{:02}:{:02} PDT {}",
            self.weekday_name(),
            self.month_name(),
            self.day,
            self.hour,
            self.minute,
            self.second,
            self.year
        )
    }
}

/// Days since 1970-01-01 for a proleptic-Gregorian date
/// (Howard Hinnant's `days_from_civil`).
pub fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = if m <= 2 { y - 1 } else { y } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// Day of week for days-since-epoch: 0 = Sunday .. 6 = Saturday.
pub fn weekday_from_days(z: i64) -> u8 {
    // 1970-01-01 was a Thursday (4).
    (((z % 7) + 7 + 4) % 7) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_jan_2004() {
        let c = SimTime::ZERO.civil();
        assert_eq!((c.year, c.month, c.day), (2004, 1, 1));
        assert_eq!((c.hour, c.minute, c.second), (0, 0, 0));
        // 2004-01-01 was a Thursday.
        assert_eq!(c.weekday_name(), "Thu");
    }

    #[test]
    fn study_end_is_sep_2007() {
        let c = SimTime::study_end().civil();
        assert_eq!((c.year, c.month, c.day), (2007, 9, 1));
    }

    #[test]
    fn study_window_is_44_months() {
        let years = SimTime::study_end().as_years();
        assert!((years - 44.0 / 12.0).abs() < 0.01, "window = {years} years");
    }

    #[test]
    fn civil_round_trip_across_leap_years() {
        // 2004 is a leap year; sweep across it day by day.
        for day in 0..1500i64 {
            let z = days_from_civil(2004, 1, 1) + day;
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z);
        }
    }

    #[test]
    fn leap_day_2004_exists() {
        let z = days_from_civil(2004, 2, 29);
        assert_eq!(civil_from_days(z), (2004, 2, 29));
        assert_eq!(civil_from_days(z + 1), (2004, 3, 1));
    }

    #[test]
    fn display_matches_paper_layout() {
        // The paper's Figure 3 shows: "Sun Jul 23 05:43:36 PDT".
        let t = CivilDateTime {
            year: 2006,
            month: 7,
            day: 23,
            hour: 5,
            minute: 43,
            second: 36,
            weekday: 0,
        };
        assert_eq!(t.to_string(), "Sun Jul 23 05:43:36 PDT 2006");
    }

    #[test]
    fn push_into_matches_display_across_the_study_window() {
        // Sweep odd offsets across the whole window so every weekday,
        // month, single/double-digit day, and clock-field padding case
        // is exercised.
        let end = SimTime::study_end().as_secs();
        let mut out = String::new();
        let mut t = 0u64;
        while t < end {
            let civil = SimTime::from_secs(t).civil();
            out.clear();
            civil.push_into(&mut out);
            assert_eq!(out, civil.to_string(), "at t={t}");
            t += 86_399 * 3 + 7; // step ~3 days, drifting through times of day
        }
        // Degenerate field values still match Display.
        let weird = CivilDateTime {
            year: -44,
            month: 12,
            day: 31,
            hour: 0,
            minute: 0,
            second: 59,
            weekday: 6,
        };
        out.clear();
        weird.push_into(&mut out);
        assert_eq!(out, weird.to_string());
    }

    #[test]
    fn jul_23_2006_was_a_sunday() {
        let t = CivilDateTime {
            year: 2006,
            month: 7,
            day: 23,
            hour: 5,
            minute: 43,
            second: 36,
            weekday: 0,
        }
        .to_sim_time()
        .unwrap();
        assert_eq!(t.civil().weekday_name(), "Sun");
    }

    #[test]
    fn timestamp_parse_round_trip() {
        let t = SimTime::from_secs(79_876_543);
        let rendered = t.civil().to_string();
        let parsed = CivilDateTime::parse_log_timestamp(&rendered).unwrap();
        assert_eq!(parsed.to_sim_time().unwrap(), t);
    }

    #[test]
    fn timestamp_parse_rejects_malformed() {
        assert!(CivilDateTime::parse_log_timestamp("not a date").is_none());
        assert!(CivilDateTime::parse_log_timestamp("Sun Jul 23").is_none());
        assert!(CivilDateTime::parse_log_timestamp("Sun Xxx 23 05:43:36 PDT 2006").is_none());
        assert!(CivilDateTime::parse_log_timestamp("Sun Jul 23 25:43:36 PDT 2006").is_none());
    }

    proptest::proptest! {
        /// The canonical fast path returns `None` or exactly the token
        /// parser's fields, the composed `parse_log_fields` equals the token
        /// parser alone, and the fused `SimTime` decode agrees with the
        /// civil-calendar conversion — on arbitrary text and on
        /// near-canonical layouts (free-content weekday/zone tokens,
        /// space- or zero-padded days, out-of-range fields, pre-epoch
        /// years). The month is a real one in 12 of 13 cases, so many
        /// layouts only the token parser accepts are valid timestamps.
        #[test]
        fn timestamp_fast_path_takes_the_token_verdict(
            arbitrary in "[A-Za-z0-9 :+\\-]{0,40}",
            wd in "[A-Za-z\\[]{1,4}",
            junk_month in "[A-Z][a-z]{2}",
            month in 0usize..13,
            day in 0u32..40,
            hour in 0u32..30,
            minute in 0u32..70,
            second in 0u32..70,
            zone in "[A-Z]{2,4}",
            year in 1900u32..2200,
            pad in 0u8..2,
        ) {
            let mon = MONTH_NAMES.get(month).copied().unwrap_or(&junk_month);
            let structured = if pad == 0 {
                format!("{wd} {mon} {day:2} {hour:02}:{minute:02}:{second:02} {zone} {year}")
            } else {
                format!("{wd} {mon} {day:02} {hour:02}:{minute:02}:{second:02} {zone} {year}")
            };
            for ts in [arbitrary, structured] {
                let general = parse_token_fields(&ts);
                if let Some(fast) = parse_canonical_fields(&ts) {
                    proptest::prop_assert_eq!(Some(fast), general, "{:?}", ts);
                }
                proptest::prop_assert_eq!(parse_log_fields(&ts), general, "{:?}", ts);
                let civil = CivilDateTime::parse_log_timestamp(&ts).and_then(|c| c.to_sim_time());
                proptest::prop_assert_eq!(SimTime::parse_log_timestamp(&ts), civil, "{:?}", ts);
            }
        }
    }

    #[test]
    fn duration_display_picks_sane_units() {
        assert_eq!(SimDuration::from_secs(42).to_string(), "42s");
        assert_eq!(SimDuration::from_secs(90).to_string(), "1m30s");
        assert_eq!(SimDuration::from_hours(2.5).to_string(), "2h30m");
        assert_eq!(SimDuration::from_days(1.5).to_string(), "1d12h");
    }

    #[test]
    fn arithmetic_is_saturating_on_subtraction() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_secs(300);
        assert_eq!((a - b).as_secs(), 0);
        assert_eq!((b - a).as_secs(), 200);
        assert_eq!(a.saturating_sub(SimDuration::from_secs(500)), SimTime::ZERO);
    }

    #[test]
    fn unit_conversions_are_consistent() {
        assert_eq!(SimTime::from_hours(1.0).as_secs(), 3600);
        assert_eq!(SimTime::from_days(2.0).as_secs(), 2 * 86_400);
        let one_year = SimDuration::from_years(1.0);
        assert!((one_year.as_years() - 1.0).abs() < 1e-9);
    }
}
