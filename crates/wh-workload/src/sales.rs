//! Synthetic sporting-goods sales feed (the paper's running example, at
//! scale).

use wh_types::{Column, DataType, Date, Row, Schema, SplitMix64, Value};
use wh_view::SourceDelta;

/// Configuration of the synthetic feed.
#[derive(Debug, Clone)]
pub struct SalesConfig {
    /// Number of distinct cities (skewed Zipf-ish popularity).
    pub cities: usize,
    /// Number of product lines.
    pub product_lines: usize,
    /// Individual sales generated per day.
    pub sales_per_day: usize,
    /// Probability (per mille) that a day's batch also retracts an earlier
    /// sale — a source *deletion*, exercising summary-table deletes.
    pub correction_per_mille: u32,
    /// RNG seed (fully deterministic output).
    pub seed: u64,
}

impl Default for SalesConfig {
    fn default() -> Self {
        SalesConfig {
            cities: 50,
            product_lines: 8,
            sales_per_day: 500,
            correction_per_mille: 20,
            seed: 0x5157_1997, // SIGMOD '97
        }
    }
}

/// Deterministic generator of daily sales batches.
pub struct SalesGenerator {
    config: SalesConfig,
    rng: SplitMix64,
    day: Date,
    /// Recent sales eligible for later correction (bounded buffer).
    recent: Vec<Row>,
}

const STATES: &[&str] = &["CA", "NY", "TX", "WA", "IL"];
const PRODUCT_LINES: &[&str] = &[
    "golf equip",
    "racquetball",
    "rollerblades",
    "swimming",
    "camping",
    "cycling",
    "running",
    "climbing",
    "skiing",
    "tennis",
];

impl SalesGenerator {
    /// Create a generator starting at `first_day`.
    pub fn new(config: SalesConfig, first_day: Date) -> Self {
        let rng = SplitMix64::seed_from_u64(config.seed);
        SalesGenerator {
            config,
            rng,
            day: first_day,
            recent: Vec::new(),
        }
    }

    /// The source-relation schema: one row per individual sale.
    #[expect(clippy::expect_used, reason = "static schema literal")]
    pub fn source_schema() -> Schema {
        Schema::new(vec![
            Column::new("city", DataType::Char(20)),
            Column::new("state", DataType::Char(2)),
            Column::new("product_line", DataType::Char(12)),
            Column::new("date", DataType::Date),
            Column::new("amount", DataType::Int32),
        ])
        .expect("source schema is valid")
    }

    fn city(&mut self) -> (String, &'static str) {
        // Zipf-ish skew: city popularity ~ 1/(rank+1).
        let n = self.config.cities;
        let weights: f64 = (0..n).map(|i| 1.0 / (i + 1) as f64).sum();
        let mut x: f64 = self.rng.float_below(weights);
        let mut idx = 0;
        for i in 0..n {
            let w = 1.0 / (i + 1) as f64;
            if x < w {
                idx = i;
                break;
            }
            x -= w;
        }
        (format!("city{idx:03}"), STATES[idx % STATES.len()])
    }

    fn sale(&mut self) -> Row {
        let (city, state) = self.city();
        let pl = PRODUCT_LINES[self
            .rng
            .index(self.config.product_lines.min(PRODUCT_LINES.len()))];
        let amount: i64 = self.rng.range_i64(5, 500);
        vec![
            Value::from(city),
            Value::from(state),
            Value::from(pl),
            Value::from(self.day),
            Value::from(amount),
        ]
    }

    /// Generate the next day's batch of source deltas (mostly inserts, a few
    /// corrections), advancing the generator's calendar.
    pub fn next_day(&mut self) -> Vec<SourceDelta> {
        let mut batch = Vec::with_capacity(self.config.sales_per_day + 4);
        for _ in 0..self.config.sales_per_day {
            let row = self.sale();
            // Keep a bounded sample of recent sales for corrections.
            if self.recent.len() < 1024 {
                self.recent.push(row.clone());
            }
            batch.push(SourceDelta::Insert(row));
        }
        // Corrections: retract previously-recorded sales.
        let corrections =
            (self.config.sales_per_day as u32 * self.config.correction_per_mille / 1000) as usize;
        for _ in 0..corrections.min(self.recent.len()) {
            let i = self.rng.index(self.recent.len());
            let row = self.recent.swap_remove(i);
            batch.push(SourceDelta::Delete(row));
        }
        self.day = self.day.succ();
        batch
    }

    /// Generate `days` consecutive daily batches.
    pub fn days(&mut self, days: usize) -> Vec<Vec<SourceDelta>> {
        (0..days).map(|_| self.next_day()).collect()
    }

    /// The next day this generator will produce.
    pub fn current_day(&self) -> Date {
        self.day
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SalesConfig {
        SalesConfig {
            cities: 10,
            product_lines: 4,
            sales_per_day: 100,
            correction_per_mille: 50,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SalesGenerator::new(config(), Date::ymd(1996, 10, 14));
        let mut b = SalesGenerator::new(config(), Date::ymd(1996, 10, 14));
        assert_eq!(a.next_day(), b.next_day());
        assert_eq!(a.next_day(), b.next_day());
    }

    #[test]
    fn batch_shape() {
        let mut g = SalesGenerator::new(config(), Date::ymd(1996, 10, 14));
        let batch = g.next_day();
        let inserts = batch
            .iter()
            .filter(|d| matches!(d, SourceDelta::Insert(_)))
            .count();
        let deletes = batch.len() - inserts;
        assert_eq!(inserts, 100);
        assert_eq!(deletes, 5); // 50 per mille of 100
    }

    #[test]
    fn corrections_retract_real_sales() {
        let mut g = SalesGenerator::new(config(), Date::ymd(1996, 10, 14));
        let batch = g.next_day();
        let inserted: Vec<&Row> = batch
            .iter()
            .filter_map(|d| match d {
                SourceDelta::Insert(r) => Some(r),
                _ => None,
            })
            .collect();
        for d in &batch {
            if let SourceDelta::Delete(r) = d {
                assert!(inserted.contains(&r), "correction must match an insert");
            }
        }
    }

    #[test]
    fn calendar_advances() {
        let mut g = SalesGenerator::new(config(), Date::ymd(1996, 10, 14));
        let batches = g.days(3);
        assert_eq!(batches.len(), 3);
        assert_eq!(g.current_day(), Date::ymd(1996, 10, 17));
        // Each batch is dated with its own day.
        if let SourceDelta::Insert(r) = &batches[2][0] {
            assert_eq!(r[3], Value::from(Date::ymd(1996, 10, 16)));
        } else {
            panic!("first delta should be an insert");
        }
    }

    #[test]
    fn rows_validate_against_source_schema() {
        let mut g = SalesGenerator::new(config(), Date::ymd(1996, 10, 14));
        let schema = SalesGenerator::source_schema();
        for d in g.next_day() {
            let (SourceDelta::Insert(r) | SourceDelta::Delete(r)) = d;
            schema.validate(&r).unwrap();
        }
    }

    #[test]
    fn skew_favors_low_ranked_cities() {
        let mut g = SalesGenerator::new(
            SalesConfig {
                sales_per_day: 2000,
                ..config()
            },
            Date::ymd(1996, 10, 14),
        );
        let batch = g.next_day();
        let count_city0 = batch
            .iter()
            .filter(|d| matches!(d, SourceDelta::Insert(r) if r[0] == Value::from("city000")))
            .count();
        let count_city9 = batch
            .iter()
            .filter(|d| matches!(d, SourceDelta::Insert(r) if r[0] == Value::from("city009")))
            .count();
        assert!(
            count_city0 > count_city9 * 2,
            "{count_city0} vs {count_city9}"
        );
    }
}
