//! A small calendar date-time type.
//!
//! The paper's motivating examples group weather observations by
//! `Day(Time)`, `Month(Time)`, `Year(Time)` and note (§3.6) that calendar
//! granularities form a lattice, not a hierarchy (weeks straddle years).
//! We implement just enough of a proleptic Gregorian calendar to support
//! those functions honestly — day-of-week, ISO-like week numbers, quarters —
//! without pulling in a chrono dependency.

use std::fmt;

/// A Gregorian calendar timestamp with minute precision.
///
/// Ordering is chronological. Invalid dates are rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
    hour: u8,
    minute: u8,
}

const DAYS_IN_MONTH: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// True if `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` (1-12) of `year`.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    if month == 2 && is_leap_year(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

impl Date {
    /// Build a date, validating calendar bounds.
    pub fn new(year: i32, month: u8, day: u8) -> Option<Self> {
        Self::new_at(year, month, day, 0, 0)
    }

    /// Build a timestamp, validating calendar bounds.
    pub fn new_at(year: i32, month: u8, day: u8, hour: u8, minute: u8) -> Option<Self> {
        if !(1..=12).contains(&month)
            || day == 0
            || day > days_in_month(year, month)
            || hour > 23
            || minute > 59
        {
            return None;
        }
        Some(Date {
            year,
            month,
            day,
            hour,
            minute,
        })
    }

    /// Build a date without hour/minute, panicking on invalid input.
    ///
    /// Intended for literals in tests and examples where the date is known
    /// valid at the call site.
    #[expect(
        clippy::panic,
        reason = "documented panicking constructor for known-valid literals"
    )]
    pub fn ymd(year: i32, month: u8, day: u8) -> Self {
        Self::new(year, month, day).unwrap_or_else(|| panic!("invalid date {year}-{month}-{day}"))
    }

    pub fn year(&self) -> i32 {
        self.year
    }

    pub fn month(&self) -> u8 {
        self.month
    }

    pub fn day(&self) -> u8 {
        self.day
    }

    pub fn hour(&self) -> u8 {
        self.hour
    }

    pub fn minute(&self) -> u8 {
        self.minute
    }

    /// Calendar quarter, 1-4.
    pub fn quarter(&self) -> u8 {
        (self.month - 1) / 3 + 1
    }

    /// Days since the epoch 0001-01-01 (day 0), proleptic Gregorian.
    pub fn days_from_epoch(&self) -> i64 {
        let y = i64::from(self.year) - 1;
        let mut days = y * 365 + y / 4 - y / 100 + y / 400;
        for m in 1..self.month {
            days += i64::from(days_in_month(self.year, m));
        }
        days + i64::from(self.day) - 1
    }

    /// Day of week, 0 = Monday .. 6 = Sunday.
    pub fn weekday(&self) -> u8 {
        // 0001-01-01 was a Monday in the proleptic Gregorian calendar.
        (self.days_from_epoch().rem_euclid(7)) as u8
    }

    /// True on Saturday or Sunday — the paper's analysts think in terms of
    /// weekdays vs. weekends (§3.6).
    pub fn is_weekend(&self) -> bool {
        self.weekday() >= 5
    }

    /// Week number within the year, 1-54: the week containing January 1st is
    /// week 1, and weeks begin on Monday.
    ///
    /// Deliberately *not* ISO-8601: the paper's point is that "some weeks are
    /// partly in two years", i.e. weeks do not nest in months or years. This
    /// numbering preserves exactly that property, which the hierarchy tests
    /// in `datacube::hierarchy` rely on.
    pub fn week(&self) -> u8 {
        let jan1 = Date::ymd(self.year, 1, 1);
        let offset = i64::from(jan1.weekday());
        let doy = self.days_from_epoch() - jan1.days_from_epoch();
        ((doy + offset) / 7 + 1) as u8
    }

    /// The date `n` days later (or earlier for negative `n`).
    pub fn plus_days(&self, n: i64) -> Self {
        let mut days = self.days_from_epoch() + n;
        // Convert back from epoch days; fine for the modest ranges the
        // generators use.
        let mut year = 1i32;
        // Jump by 400-year cycles (146097 days), then refine.
        let cycles = days.div_euclid(146_097);
        year += (cycles * 400) as i32;
        days -= cycles * 146_097;
        loop {
            let in_year: i64 = if is_leap_year(year) { 366 } else { 365 };
            if days < in_year {
                break;
            }
            days -= in_year;
            year += 1;
        }
        let mut month = 1u8;
        loop {
            let in_month = i64::from(days_in_month(year, month));
            if days < in_month {
                break;
            }
            days -= in_month;
            month += 1;
        }
        Date {
            year,
            month,
            day: (days + 1) as u8,
            hour: self.hour,
            minute: self.minute,
        }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hour == 0 && self.minute == 0 {
            write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
        } else {
            write!(
                f,
                "{:04}-{:02}-{:02} {:02}:{:02}",
                self.year, self.month, self.day, self.hour, self.minute
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leap_years() {
        assert!(is_leap_year(1996));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(1995));
    }

    #[test]
    fn rejects_invalid_dates() {
        assert!(Date::new(1995, 2, 29).is_none());
        assert!(Date::new(1996, 2, 29).is_some());
        assert!(Date::new(1995, 13, 1).is_none());
        assert!(Date::new(1995, 0, 1).is_none());
        assert!(Date::new(1995, 6, 31).is_none());
        assert!(Date::new_at(1995, 6, 30, 24, 0).is_none());
    }

    #[test]
    fn weekday_known_dates() {
        // 1996-02-26 (ICDE 1996 week, New Orleans) was a Monday.
        assert_eq!(Date::ymd(1996, 2, 26).weekday(), 0);
        // 1995-01-25 (Table 7's sample day) was a Wednesday.
        assert_eq!(Date::ymd(1995, 1, 25).weekday(), 2);
        // 2000-01-01 was a Saturday.
        assert_eq!(Date::ymd(2000, 1, 1).weekday(), 5);
        assert!(Date::ymd(2000, 1, 1).is_weekend());
    }

    #[test]
    fn plus_days_round_trips_across_boundaries() {
        let d = Date::ymd(1995, 12, 31);
        assert_eq!(d.plus_days(1), Date::ymd(1996, 1, 1));
        assert_eq!(d.plus_days(60), Date::ymd(1996, 2, 29));
        assert_eq!(d.plus_days(366), Date::ymd(1996, 12, 31));
        assert_eq!(d.plus_days(-365), Date::ymd(1994, 12, 31));
        for n in [-1000i64, -1, 0, 1, 59, 365, 1461] {
            let e = d.plus_days(n);
            assert_eq!(e.days_from_epoch() - d.days_from_epoch(), n);
        }
    }

    #[test]
    fn weeks_straddle_years() {
        // The paper: "some weeks are partly in two years". 1996-01-01 was a
        // Monday, so the last week of 1995 ends Sunday 1995-12-31 and week 1
        // of 1996 starts cleanly; but 1998-01-01 was a Thursday, so that week
        // contains days of both years.
        let dec31 = Date::ymd(1997, 12, 31); // Wednesday
        let jan1 = Date::ymd(1998, 1, 1); // Thursday
        assert_eq!(dec31.weekday(), 2);
        assert_eq!(jan1.weekday(), 3);
        // Same Monday-started week, different years: weeks do not nest.
        assert_eq!(dec31.week(), 53);
        assert_eq!(jan1.week(), 1);
    }

    #[test]
    fn quarters() {
        assert_eq!(Date::ymd(1995, 1, 1).quarter(), 1);
        assert_eq!(Date::ymd(1995, 3, 31).quarter(), 1);
        assert_eq!(Date::ymd(1995, 4, 1).quarter(), 2);
        assert_eq!(Date::ymd(1995, 12, 31).quarter(), 4);
    }

    #[test]
    fn ordering_is_chronological() {
        let a = Date::new_at(1995, 6, 1, 14, 59).unwrap();
        let b = Date::new_at(1995, 6, 1, 15, 0).unwrap();
        let c = Date::ymd(1995, 6, 2);
        assert!(a < b && b < c);
    }
}

#[cfg(test)]
mod boundary_tests {
    use super::*;

    #[test]
    fn century_and_cycle_boundaries() {
        // 1900 is not a leap year; 2000 is: the Gregorian exceptions.
        assert_eq!(days_in_month(1900, 2), 28);
        assert_eq!(days_in_month(2000, 2), 29);
        // Crossing 1900-02-28 → 03-01 in one step.
        assert_eq!(Date::ymd(1900, 2, 28).plus_days(1), Date::ymd(1900, 3, 1));
        // A full 400-year cycle is exactly 146097 days.
        let a = Date::ymd(1600, 1, 1);
        let b = Date::ymd(2000, 1, 1);
        assert_eq!(b.days_from_epoch() - a.days_from_epoch(), 146_097);
    }

    #[test]
    fn week_one_contains_january_first() {
        for year in [1994, 1995, 1996, 1997, 1998] {
            assert_eq!(Date::ymd(year, 1, 1).week(), 1, "year {year}");
        }
    }

    #[test]
    fn display_both_forms() {
        assert_eq!(Date::ymd(1996, 2, 29).to_string(), "1996-02-29");
        assert_eq!(
            Date::new_at(1996, 2, 29, 7, 5).unwrap().to_string(),
            "1996-02-29 07:05"
        );
    }
}
