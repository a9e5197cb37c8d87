//! Calendar dates, stored as `(year, month, day)` and encoded in 4 bytes.
//!
//! The paper's running example keys the `DailySales` summary table on a
//! 4-byte `date` column (Figure 3). Dates order chronologically and support
//! day arithmetic so the workload generator can produce daily batches.

use std::fmt;

/// A calendar date. Ordering is chronological.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: u16,
    month: u8,
    day: u8,
}

const DAYS_IN_MONTH: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: u16) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

fn days_in_month(year: u16, month: u8) -> u8 {
    if month == 2 && is_leap(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

impl Date {
    /// Construct a date, validating the month and day ranges.
    ///
    /// Returns `None` for out-of-range components (month 0/13, day 0, or a
    /// day past the end of the month, honouring leap years).
    pub fn new(year: u16, month: u8, day: u8) -> Option<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// Construct without validation; panics (debug) on invalid input.
    ///
    /// Convenient for literals in tests and examples.
    #[expect(clippy::expect_used, reason = "invariant in the expect message")]
    pub fn ymd(year: u16, month: u8, day: u8) -> Self {
        Self::new(year, month, day).expect("invalid date literal")
    }

    /// Year component.
    pub fn year(&self) -> u16 {
        self.year
    }

    /// Month component (1-12).
    pub fn month(&self) -> u8 {
        self.month
    }

    /// Day-of-month component (1-31).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// The next calendar day.
    pub fn succ(&self) -> Date {
        let (mut y, mut m, mut d) = (self.year, self.month, self.day);
        if d < days_in_month(y, m) {
            d += 1;
        } else if m < 12 {
            m += 1;
            d = 1;
        } else {
            y += 1;
            m = 1;
            d = 1;
        }
        Date {
            year: y,
            month: m,
            day: d,
        }
    }

    /// The date `n` days after this one.
    pub fn plus_days(&self, n: u32) -> Date {
        let mut cur = *self;
        for _ in 0..n {
            cur = cur.succ();
        }
        cur
    }

    /// Pack into a `u32` that preserves chronological order
    /// (`year * 10_000 + month * 100 + day`). Used by the 4-byte codec.
    pub fn to_packed(&self) -> u32 {
        self.year as u32 * 10_000 + self.month as u32 * 100 + self.day as u32
    }

    /// Inverse of [`Date::to_packed`]. Returns `None` if the packed value does
    /// not denote a valid date.
    pub fn from_packed(packed: u32) -> Option<Self> {
        let year = (packed / 10_000) as u16;
        let month = ((packed / 100) % 100) as u8;
        let day = (packed % 100) as u8;
        Date::new(year, month, day)
    }

    /// Parse `"MM/DD/YYYY"` or `"YYYY-MM-DD"`; two-digit years in the slash
    /// form are interpreted as 19xx, matching the paper's `10/14/96` style.
    pub fn parse(s: &str) -> Option<Self> {
        if let Some((y, rest)) = s.split_once('-') {
            let (m, d) = rest.split_once('-')?;
            return Date::new(y.parse().ok()?, m.parse().ok()?, d.parse().ok()?);
        }
        let mut it = s.split('/');
        let m: u8 = it.next()?.parse().ok()?;
        let d: u8 = it.next()?.parse().ok()?;
        let y_raw: u16 = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        let y = if y_raw < 100 { 1900 + y_raw } else { y_raw };
        Date::new(y, m, d)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_accessors() {
        let d = Date::ymd(1996, 10, 14);
        assert_eq!(d.year(), 1996);
        assert_eq!(d.month(), 10);
        assert_eq!(d.day(), 14);
    }

    #[test]
    fn rejects_invalid() {
        assert!(Date::new(1996, 0, 1).is_none());
        assert!(Date::new(1996, 13, 1).is_none());
        assert!(Date::new(1996, 2, 30).is_none());
        assert!(Date::new(1996, 4, 31).is_none());
        assert!(Date::new(1996, 1, 0).is_none());
    }

    #[test]
    fn leap_years() {
        assert!(Date::new(1996, 2, 29).is_some());
        assert!(Date::new(1997, 2, 29).is_none());
        assert!(Date::new(2000, 2, 29).is_some());
        assert!(Date::new(1900, 2, 29).is_none());
    }

    #[test]
    fn succ_rolls_over() {
        assert_eq!(Date::ymd(1996, 10, 14).succ(), Date::ymd(1996, 10, 15));
        assert_eq!(Date::ymd(1996, 10, 31).succ(), Date::ymd(1996, 11, 1));
        assert_eq!(Date::ymd(1996, 12, 31).succ(), Date::ymd(1997, 1, 1));
        assert_eq!(Date::ymd(1996, 2, 28).succ(), Date::ymd(1996, 2, 29));
        assert_eq!(Date::ymd(1997, 2, 28).succ(), Date::ymd(1997, 3, 1));
    }

    #[test]
    fn plus_days() {
        assert_eq!(Date::ymd(1996, 12, 30).plus_days(3), Date::ymd(1997, 1, 2));
        assert_eq!(Date::ymd(1996, 1, 1).plus_days(0), Date::ymd(1996, 1, 1));
    }

    #[test]
    fn packed_round_trip() {
        let d = Date::ymd(1996, 10, 14);
        assert_eq!(Date::from_packed(d.to_packed()), Some(d));
        assert_eq!(d.to_packed(), 19_961_014);
        assert!(Date::from_packed(19_961_345).is_none());
    }

    #[test]
    fn packed_preserves_order() {
        let a = Date::ymd(1996, 10, 14);
        let b = Date::ymd(1996, 10, 15);
        let c = Date::ymd(1997, 1, 1);
        assert!(a < b && b < c);
        assert!(a.to_packed() < b.to_packed() && b.to_packed() < c.to_packed());
    }

    #[test]
    fn parse_both_forms() {
        assert_eq!(Date::parse("10/14/96"), Some(Date::ymd(1996, 10, 14)));
        assert_eq!(Date::parse("10/14/1996"), Some(Date::ymd(1996, 10, 14)));
        assert_eq!(Date::parse("1996-10-14"), Some(Date::ymd(1996, 10, 14)));
        assert_eq!(Date::parse("14-10"), None);
        assert_eq!(Date::parse("garbage"), None);
        assert_eq!(Date::parse("13/01/96"), None);
    }

    #[test]
    fn display() {
        assert_eq!(Date::ymd(1996, 10, 14).to_string(), "1996-10-14");
    }
}
