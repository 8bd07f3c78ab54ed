//! Minimal `xsd:dateTime` / `xsd:date` handling.
//!
//! The App Lab data model needs exactly one temporal capability: totally
//! ordered timestamps that round-trip through the lexical forms found in
//! Copernicus metadata (`2017-06-15T00:00:00Z`). We represent instants as
//! seconds since the Unix epoch (UTC); the proleptic-Gregorian conversions
//! are the workspace's one calendar in `applab_array::time`, re-exported
//! here.

/// Seconds since 1970-01-01T00:00:00Z.
pub type EpochSeconds = i64;

pub use applab_array::time::{civil_from_days, days_from_civil};

/// Build an epoch timestamp from calendar components (UTC).
pub fn timestamp(
    year: i64,
    month: u32,
    day: u32,
    hour: u32,
    minute: u32,
    second: u32,
) -> EpochSeconds {
    days_from_civil(year, month, day) * 86_400
        + hour as i64 * 3_600
        + minute as i64 * 60
        + second as i64
}

/// Error parsing a dateTime lexical form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DateTimeParseError(pub String);

impl std::fmt::Display for DateTimeParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid xsd:dateTime: {}", self.0)
    }
}

impl std::error::Error for DateTimeParseError {}

/// Parse `YYYY-MM-DDTHH:MM:SS[.fff][Z|±HH:MM]` or a bare `YYYY-MM-DD`.
/// Fractional seconds are truncated; offsets are applied to produce UTC.
pub fn parse_datetime(s: &str) -> Result<EpochSeconds, DateTimeParseError> {
    let err = || DateTimeParseError(s.to_string());
    let s = s.trim();
    let (date_part, time_part) = match s.split_once('T') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    // Handle a possible leading '-' for negative years.
    let (neg, date_core) = match date_part.strip_prefix('-') {
        Some(stripped) => (true, stripped),
        None => (false, date_part),
    };
    let mut dp = date_core.splitn(3, '-');
    let year: i64 = dp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let year = if neg { -year } else { year };
    let month: u32 = dp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let day: u32 = dp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return Err(err());
    }

    let (mut hour, mut minute, mut second, mut offset) = (0u32, 0u32, 0u32, 0i64);
    if let Some(t) = time_part {
        // Strip timezone.
        let (clock, tz): (&str, Option<&str>) = if let Some(stripped) = t.strip_suffix('Z') {
            (stripped, None)
        } else if let Some(pos) = t.rfind(['+', '-']) {
            if pos > 0 {
                (&t[..pos], Some(&t[pos..]))
            } else {
                (t, None)
            }
        } else {
            (t, None)
        };
        if let Some(tz) = tz {
            let sign = if tz.starts_with('-') { -1 } else { 1 };
            let body = &tz[1..];
            let (h, m) = body.split_once(':').ok_or_else(err)?;
            let h: i64 = h.parse().map_err(|_| err())?;
            let m: i64 = m.parse().map_err(|_| err())?;
            offset = sign * (h * 3600 + m * 60);
        }
        let mut cp = clock.splitn(3, ':');
        hour = cp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        minute = cp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let sec_str = cp.next().unwrap_or("0");
        let sec_str = sec_str.split('.').next().unwrap_or("0");
        second = sec_str.parse().map_err(|_| err())?;
        if hour > 23 || minute > 59 || second > 60 {
            return Err(err());
        }
    }
    Ok(timestamp(year, month, day, hour, minute, second) - offset)
}

/// Format an epoch timestamp as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn format_datetime(t: EpochSeconds) -> String {
    let days = t.div_euclid(86_400);
    let secs = t.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        y,
        m,
        d,
        secs / 3600,
        (secs % 3600) / 60,
        secs % 60
    )
}

/// Format only the date part, `YYYY-MM-DD`.
pub fn format_date(t: EpochSeconds) -> String {
    let (y, m, d) = civil_from_days(t.div_euclid(86_400));
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(timestamp(1970, 1, 1, 0, 0, 0), 0);
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn known_timestamps() {
        // 2017-06-15T00:00:00Z = 1497484800 (verified against `date -d`).
        assert_eq!(timestamp(2017, 6, 15, 0, 0, 0), 1_497_484_800);
        assert_eq!(timestamp(2000, 3, 1, 0, 0, 0), 951_868_800);
    }

    #[test]
    fn parse_full_datetime() {
        assert_eq!(
            parse_datetime("2017-06-15T12:30:45Z").unwrap(),
            1_497_529_845
        );
        assert_eq!(
            parse_datetime("2017-06-15T12:30:45.123Z").unwrap(),
            1_497_529_845
        );
    }

    #[test]
    fn parse_with_offset() {
        // 14:00 at +02:00 is 12:00 UTC.
        assert_eq!(
            parse_datetime("2017-06-15T14:00:00+02:00").unwrap(),
            parse_datetime("2017-06-15T12:00:00Z").unwrap()
        );
        assert_eq!(
            parse_datetime("2017-06-15T10:00:00-02:00").unwrap(),
            parse_datetime("2017-06-15T12:00:00Z").unwrap()
        );
    }

    #[test]
    fn parse_bare_date() {
        assert_eq!(parse_datetime("1970-01-02").unwrap(), 86_400);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_datetime("not a date").is_err());
        assert!(parse_datetime("2017-13-01").is_err());
        assert!(parse_datetime("2017-01-32").is_err());
        assert!(parse_datetime("2017-06-15T25:00:00Z").is_err());
        assert!(parse_datetime("").is_err());
    }

    #[test]
    fn format_roundtrip() {
        for t in [0i64, 1_497_484_800, -86_400, 4_102_444_800] {
            assert_eq!(parse_datetime(&format_datetime(t)).unwrap(), t);
        }
    }
}
