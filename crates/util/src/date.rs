//! Civil-date arithmetic on a compact day number.
//!
//! The longitudinal analyses in the paper (CMP adoption over time, GVL
//! version history, interpolation with a 30-day fade-out) all operate at
//! day granularity. We represent a date as the number of days since the
//! Unix epoch (1970-01-01), wrapped in the [`Day`] newtype, and convert
//! to and from civil dates using Howard Hinnant's algorithms, which are
//! exact over the entire `i32` year range relevant to us.
//!
//! No external date crate is used; see DESIGN.md ("Dependencies").

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::str::FromStr;

/// A civil date, stored as days since 1970-01-01 (can be negative).
///
/// `Day` is `Copy`, totally ordered, and supports integer-like arithmetic
/// with day counts, which makes it convenient as a key in time series.
///
/// ```
/// use consent_util::date::Day;
/// let gdpr = Day::from_ymd(2018, 5, 25);
/// let ccpa = Day::from_ymd(2020, 1, 1);
/// assert!(gdpr < ccpa);
/// assert_eq!(ccpa - gdpr, 586);
/// assert_eq!(gdpr.to_string(), "2018-05-25");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Day(pub i32);

/// A civil (year, month, day) triple produced by [`Day::ymd`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CivilDate {
    /// Gregorian year.
    pub year: i32,
    /// 1-based month (1 = January).
    pub month: u8,
    /// 1-based day of month.
    pub day: u8,
}

impl Day {
    /// The Unix epoch, 1970-01-01.
    pub const EPOCH: Day = Day(0);

    /// Construct from a civil date. Panics on out-of-range month/day in
    /// debug builds; values are otherwise normalized arithmetically.
    pub fn from_ymd(year: i32, month: u8, day: u8) -> Day {
        debug_assert!((1..=12).contains(&month), "month out of range: {month}");
        debug_assert!((1..=31).contains(&day), "day of month out of range: {day}");
        // Hinnant's days_from_civil.
        let y = i64::from(year) - i64::from(month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = i64::from(month);
        let d = i64::from(day);
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        Day((era * 146097 + doe - 719468) as i32)
    }

    /// Decompose into a civil date (inverse of [`Day::from_ymd`]).
    pub fn ymd(self) -> CivilDate {
        // Hinnant's civil_from_days.
        let z = i64::from(self.0) + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        CivilDate {
            year: (y + i64::from(m <= 2)) as i32,
            month: m as u8,
            day: d as u8,
        }
    }

    /// Year component of the civil date.
    pub fn year(self) -> i32 {
        self.ymd().year
    }

    /// Month component (1-based) of the civil date.
    pub fn month(self) -> u8 {
        self.ymd().month
    }

    /// Day-of-month component (1-based) of the civil date.
    pub fn day_of_month(self) -> u8 {
        self.ymd().day
    }

    /// Day of week, with 0 = Monday … 6 = Sunday (ISO numbering minus one).
    pub fn weekday(self) -> u8 {
        // 1970-01-01 was a Thursday (ISO weekday 4, i.e. index 3).
        (self.0 + 3).rem_euclid(7) as u8
    }

    /// The first day of this date's month.
    pub fn first_of_month(self) -> Day {
        let c = self.ymd();
        Day::from_ymd(c.year, c.month, 1)
    }

    /// The first day of the *next* month.
    pub fn first_of_next_month(self) -> Day {
        let c = self.ymd();
        if c.month == 12 {
            Day::from_ymd(c.year + 1, 1, 1)
        } else {
            Day::from_ymd(c.year, c.month + 1, 1)
        }
    }

    /// Number of days in this date's month.
    pub fn days_in_month(self) -> u8 {
        (self.first_of_next_month() - self.first_of_month()) as u8
    }

    /// True if this date's year is a leap year.
    pub fn is_leap_year(self) -> bool {
        let y = self.year();
        (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
    }

    /// Saturating addition of a day count.
    pub fn saturating_add(self, days: i32) -> Day {
        Day(self.0.saturating_add(days))
    }

    /// Iterate every day in `[self, end)` (empty if `end <= self`).
    pub fn days_until(self, end: Day) -> DayRange {
        DayRange {
            next: self,
            end: end.max(self),
        }
    }

    /// Midpoint between two days (rounds toward the earlier day).
    pub fn midpoint(self, other: Day) -> Day {
        Day(self.0 + (other.0 - self.0) / 2)
    }
}

/// Iterator over a half-open day interval; see [`Day::days_until`].
#[derive(Clone, Debug)]
pub struct DayRange {
    next: Day,
    end: Day,
}

impl Iterator for DayRange {
    type Item = Day;

    fn next(&mut self) -> Option<Day> {
        if self.next < self.end {
            let d = self.next;
            self.next.0 += 1;
            Some(d)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end.0 - self.next.0) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DayRange {}

impl Add<i32> for Day {
    type Output = Day;
    fn add(self, rhs: i32) -> Day {
        Day(self.0 + rhs)
    }
}

impl AddAssign<i32> for Day {
    fn add_assign(&mut self, rhs: i32) {
        self.0 += rhs;
    }
}

impl Sub<i32> for Day {
    type Output = Day;
    fn sub(self, rhs: i32) -> Day {
        Day(self.0 - rhs)
    }
}

impl SubAssign<i32> for Day {
    fn sub_assign(&mut self, rhs: i32) {
        self.0 -= rhs;
    }
}

impl Sub<Day> for Day {
    type Output = i32;
    fn sub(self, rhs: Day) -> i32 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Day {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.ymd();
        write!(f, "{:04}-{:02}-{:02}", c.year, c.month, c.day)
    }
}

impl fmt::Debug for Day {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Day({self})")
    }
}

/// Error returned when parsing an ISO `YYYY-MM-DD` string fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseDayError {
    input: String,
}

impl fmt::Display for ParseDayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ISO date {:?}, expected YYYY-MM-DD", self.input)
    }
}

impl std::error::Error for ParseDayError {}

impl FromStr for Day {
    type Err = ParseDayError;

    fn from_str(s: &str) -> Result<Day, ParseDayError> {
        let err = || ParseDayError {
            input: s.to_owned(),
        };
        let mut parts = s.splitn(3, '-');
        let year: i32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let month: u8 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u8 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if !(1..=12).contains(&month) || day < 1 {
            return Err(err());
        }
        let d = Day::from_ymd(year, month, day);
        if d.day_of_month() != day {
            // e.g. 2020-02-31 normalizes to a different day-of-month.
            return Err(err());
        }
        Ok(d)
    }
}

/// Milliseconds of simulated time inside a single page load or dialog
/// interaction. `SimInstant` is unrelated to wall-clock time; instant 0 is
/// whatever event the owning simulation defines as its origin (typically
/// navigation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SimInstant(pub u64);

impl SimInstant {
    /// Origin of the owning simulation's timeline.
    pub const ZERO: SimInstant = SimInstant(0);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> SimInstant {
        SimInstant(secs * 1000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> SimInstant {
        SimInstant(ms)
    }

    /// Milliseconds since the origin.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Duration elapsed since `earlier`; saturates at zero.
    pub fn since(self, earlier: SimInstant) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimInstant {
    type Output = SimInstant;
    fn add(self, ms: u64) -> SimInstant {
        SimInstant(self.0 + ms)
    }
}

impl AddAssign<u64> for SimInstant {
    fn add_assign(&mut self, ms: u64) {
        self.0 += ms;
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// Key dates from the paper's observation window, used across the
/// experiment harnesses and the synthetic-web generator.
pub mod known {
    use super::Day;

    /// Start of the Netograph record used in the paper (March 2018).
    pub fn observation_start() -> Day {
        Day::from_ymd(2018, 3, 1)
    }

    /// End of the observation window (September 2020).
    pub fn observation_end() -> Day {
        Day::from_ymd(2020, 9, 30)
    }

    /// GDPR came into effect.
    pub fn gdpr_effective() -> Day {
        Day::from_ymd(2018, 5, 25)
    }

    /// CCPA came into effect.
    pub fn ccpa_effective() -> Day {
        Day::from_ymd(2020, 1, 1)
    }

    /// Snapshot date for Table 1 / Figure 5 (May 2020).
    pub fn may_2020_snapshot() -> Day {
        Day::from_ymd(2020, 5, 15)
    }

    /// Snapshot date for Table A.3 (January 2020).
    pub fn jan_2020_snapshot() -> Day {
        Day::from_ymd(2020, 1, 15)
    }

    /// LiveRamp's CMP launch (December 2019).
    pub fn liveramp_launch() -> Day {
        Day::from_ymd(2019, 12, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(
            Day::EPOCH.ymd(),
            CivilDate {
                year: 1970,
                month: 1,
                day: 1
            }
        );
    }

    #[test]
    fn roundtrip_sample_dates() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (2018, 5, 25),
            (2020, 1, 1),
            (2020, 12, 31),
            (1999, 12, 31),
            (2400, 2, 29),
            (1900, 3, 1),
        ] {
            let day = Day::from_ymd(y, m, d);
            let c = day.ymd();
            assert_eq!((c.year, c.month, c.day), (y, m, d));
        }
    }

    #[test]
    fn known_day_numbers() {
        // Verified against `date -d @0` style references.
        assert_eq!(Day::from_ymd(1970, 1, 2).0, 1);
        assert_eq!(Day::from_ymd(1969, 12, 31).0, -1);
        assert_eq!(Day::from_ymd(2000, 1, 1).0, 10957);
        assert_eq!(Day::from_ymd(2020, 1, 1).0, 18262);
    }

    #[test]
    fn weekday_known_values() {
        // 2018-05-25 (GDPR day) was a Friday => index 4.
        assert_eq!(known::gdpr_effective().weekday(), 4);
        // 1970-01-01 was a Thursday => index 3.
        assert_eq!(Day::EPOCH.weekday(), 3);
        // 2020-01-01 was a Wednesday => index 2.
        assert_eq!(known::ccpa_effective().weekday(), 2);
    }

    #[test]
    fn month_boundaries() {
        let d = Day::from_ymd(2020, 2, 14);
        assert_eq!(d.first_of_month(), Day::from_ymd(2020, 2, 1));
        assert_eq!(d.first_of_next_month(), Day::from_ymd(2020, 3, 1));
        assert_eq!(d.days_in_month(), 29);
        assert!(d.is_leap_year());
        let d = Day::from_ymd(2019, 12, 14);
        assert_eq!(d.first_of_next_month(), Day::from_ymd(2020, 1, 1));
        assert_eq!(d.days_in_month(), 31);
        assert!(!d.is_leap_year());
    }

    #[test]
    fn display_and_parse() {
        let d = Day::from_ymd(2018, 5, 25);
        assert_eq!(d.to_string(), "2018-05-25");
        assert_eq!("2018-05-25".parse::<Day>().unwrap(), d);
        assert!("2018-13-01".parse::<Day>().is_err());
        assert!("2018-02-30".parse::<Day>().is_err());
        assert!("oops".parse::<Day>().is_err());
        assert!("2018-05".parse::<Day>().is_err());
    }

    #[test]
    fn range_iteration() {
        let a = Day::from_ymd(2020, 1, 30);
        let b = Day::from_ymd(2020, 2, 2);
        let days: Vec<String> = a.days_until(b).map(|d| d.to_string()).collect();
        assert_eq!(days, ["2020-01-30", "2020-01-31", "2020-02-01"]);
        assert_eq!(b.days_until(a).count(), 0);
        assert_eq!(a.days_until(b).len(), 3);
    }

    #[test]
    fn arithmetic() {
        let d = Day::from_ymd(2020, 2, 28);
        assert_eq!((d + 1).to_string(), "2020-02-29");
        assert_eq!((d + 2).to_string(), "2020-03-01");
        assert_eq!((d - 28).to_string(), "2020-01-31");
        assert_eq!(Day::from_ymd(2020, 3, 1) - d, 2);
        let mut m = d;
        m += 2;
        m -= 1;
        assert_eq!(m.to_string(), "2020-02-29");
        assert_eq!(d.midpoint(d + 10), d + 5);
    }

    #[test]
    fn sim_instant_basics() {
        let t = SimInstant::from_secs(3) + 250;
        assert_eq!(t.as_millis(), 3250);
        assert_eq!(t.as_secs_f64(), 3.25);
        assert_eq!(t.since(SimInstant::from_millis(3000)), 250);
        assert_eq!(SimInstant::from_millis(10).since(t), 0);
        assert_eq!(t.to_string(), "3.250s");
    }
}
