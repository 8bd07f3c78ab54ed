//! CF-convention time axes.
//!
//! NetCDF time coordinates are numbers relative to an epoch declared in the
//! variable's `units` attribute (e.g. `days since 2017-01-01`). The paper's
//! Listing 2 discussion calls this out explicitly: "In the original dataset
//! times are given as numeric values and their meaning is explained in the
//! metadata." This module decodes them to epoch seconds.

use std::fmt;

/// Days since 1970-01-01 for a proleptic Gregorian date (Howard
/// Hinnant's days-from-civil). This dependency-free crate holds the
/// workspace's one calendar; `applab_rdf::datetime` re-exports it.
pub fn days_from_civil(year: i64, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (month as i64 + 9) % 12; // March=0 ... February=11
    let doy = (153 * mp + 2) / 5 + day as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`]: `(year, month, day)`.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// The unit of a CF time axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeUnit {
    Seconds,
    Minutes,
    Hours,
    Days,
}

impl TimeUnit {
    pub fn seconds(&self) -> i64 {
        match self {
            TimeUnit::Seconds => 1,
            TimeUnit::Minutes => 60,
            TimeUnit::Hours => 3_600,
            TimeUnit::Days => 86_400,
        }
    }
}

/// A decoded CF time axis: `<unit> since <date>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeAxis {
    pub unit: TimeUnit,
    /// The `since` origin, in epoch seconds.
    pub origin: i64,
}

/// Error parsing a CF units string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeUnitsError(pub String);

impl fmt::Display for TimeUnitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CF time units: {}", self.0)
    }
}

impl std::error::Error for TimeUnitsError {}

impl TimeAxis {
    /// Parse a CF `units` string like `days since 2017-01-01` or
    /// `seconds since 1970-01-01 00:00:00`.
    pub fn parse(units: &str) -> Result<TimeAxis, TimeUnitsError> {
        let err = || TimeUnitsError(units.to_string());
        let mut parts = units.split_whitespace();
        let unit = match parts.next().ok_or_else(err)?.to_ascii_lowercase().as_str() {
            "second" | "seconds" | "sec" | "secs" | "s" => TimeUnit::Seconds,
            "minute" | "minutes" | "min" | "mins" => TimeUnit::Minutes,
            "hour" | "hours" | "hr" | "hrs" | "h" => TimeUnit::Hours,
            "day" | "days" | "d" => TimeUnit::Days,
            _ => return Err(err()),
        };
        if !parts
            .next()
            .map(|w| w.eq_ignore_ascii_case("since"))
            .unwrap_or(false)
        {
            return Err(err());
        }
        let date = parts.next().ok_or_else(err)?;
        let mut dp = date.splitn(3, '-');
        let year: i64 = dp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let month: u32 = dp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u32 = dp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(err());
        }
        let mut origin = days_from_civil(year, month, day) * 86_400;
        if let Some(clock) = parts.next() {
            let mut cp = clock.splitn(3, ':');
            let h: i64 = cp.next().unwrap_or("0").parse().map_err(|_| err())?;
            let m: i64 = cp.next().unwrap_or("0").parse().map_err(|_| err())?;
            let s: i64 = cp
                .next()
                .unwrap_or("0")
                .split('.')
                .next()
                .unwrap_or("0")
                .parse()
                .map_err(|_| err())?;
            origin += h * 3600 + m * 60 + s;
        }
        Ok(TimeAxis { unit, origin })
    }

    /// Decode an axis value to epoch seconds.
    pub fn decode(&self, value: f64) -> i64 {
        self.origin + (value * self.unit.seconds() as f64).round() as i64
    }

    /// Encode epoch seconds to an axis value.
    pub fn encode(&self, epoch_seconds: i64) -> f64 {
        (epoch_seconds - self.origin) as f64 / self.unit.seconds() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_days_since() {
        let ax = TimeAxis::parse("days since 2017-01-01").unwrap();
        assert_eq!(ax.unit, TimeUnit::Days);
        // 2017-06-15 is 165 days after 2017-01-01.
        assert_eq!(ax.decode(165.0), 1_497_484_800);
        assert_eq!(ax.encode(1_497_484_800), 165.0);
    }

    #[test]
    fn parse_seconds_since_epoch() {
        let ax = TimeAxis::parse("seconds since 1970-01-01 00:00:00").unwrap();
        assert_eq!(ax.origin, 0);
        assert_eq!(ax.decode(12.0), 12);
    }

    #[test]
    fn parse_with_clock_offset() {
        let ax = TimeAxis::parse("hours since 2000-01-01 06:00:00").unwrap();
        assert_eq!(ax.decode(1.0) - ax.decode(0.0), 3600);
        let midnight = TimeAxis::parse("hours since 2000-01-01").unwrap();
        assert_eq!(ax.decode(0.0) - midnight.decode(0.0), 6 * 3600);
    }

    #[test]
    fn unit_aliases() {
        for (alias, unit) in [
            ("sec", TimeUnit::Seconds),
            ("mins", TimeUnit::Minutes),
            ("hrs", TimeUnit::Hours),
            ("d", TimeUnit::Days),
        ] {
            let ax = TimeAxis::parse(&format!("{alias} since 1970-01-01")).unwrap();
            assert_eq!(ax.unit, unit, "{alias}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(TimeAxis::parse("fortnights since 1970-01-01").is_err());
        assert!(TimeAxis::parse("days after 1970-01-01").is_err());
        assert!(TimeAxis::parse("days since yesterday").is_err());
        assert!(TimeAxis::parse("days since 1970-13-01").is_err());
        assert!(TimeAxis::parse("").is_err());
    }

    #[test]
    fn roundtrip_encode_decode() {
        let ax = TimeAxis::parse("days since 2017-01-01").unwrap();
        for v in [0.0, 1.0, 364.0, 365.0] {
            assert_eq!(ax.encode(ax.decode(v)), v);
        }
    }

    #[test]
    fn civil_roundtrip_sweep() {
        // Every 97th day over ±200 years.
        let mut day = days_from_civil(1820, 1, 1);
        let end = days_from_civil(2220, 1, 1);
        while day < end {
            let (y, m, d) = civil_from_days(day);
            assert_eq!(days_from_civil(y, m, d), day);
            day += 97;
        }
    }

    #[test]
    fn leap_years() {
        assert_eq!(
            days_from_civil(2000, 2, 29) + 1,
            days_from_civil(2000, 3, 1)
        );
        assert_eq!(
            days_from_civil(1900, 2, 28) + 1,
            days_from_civil(1900, 3, 1) // 1900 is not a leap year
        );
    }
}
