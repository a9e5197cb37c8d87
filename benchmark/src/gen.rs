//! Seeded input generators and their answer oracles.
//!
//! Every maintenance batch is a pure function of `(seed, batch number)`, so
//! the expected `SUM`/`COUNT` at a version is a prefix sum over batch
//! numbers, and the expected final contents are rebuilt after the measured
//! window by replaying the same batches into a plain map — no shadow work
//! sits inside the window.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Mutex;
use wh_types::{Column, DataType, Date, Row, Schema, SplitMix64, Value};
use wh_view::SourceDelta;

const STATES: [&str; 5] = ["CA", "NY", "TX", "WA", "IL"];
const PRODUCT_LINES: [&str; 10] = [
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

/// A stateless hash of two words: the first output of the product's
/// SplitMix64 seeded with both.
fn mix(a: u64, b: u64) -> u64 {
    SplitMix64::seed_from_u64(a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// `SUM(total_sales)` and `COUNT(*)` the view must show at each version,
/// indexed by `vn − first_vn`. The driver appends an entry just before it
/// commits the version; the analyst looks its `session_vn` up after the
/// answer arrived, outside the timed section.
pub struct Totals {
    first_vn: u64,
    by_vn: Mutex<Vec<(i64, i64)>>,
}

impl Totals {
    pub fn new(first_vn: u64, sum: i64, count: i64) -> Self {
        Totals {
            first_vn,
            by_vn: Mutex::new(vec![(sum, count)]),
        }
    }

    /// Record the totals of the next version as the last ones plus a
    /// batch's net effect.
    pub fn push_delta(&self, d_sum: i64, d_count: i64) {
        let mut v = self.by_vn.lock().expect("totals lock is never poisoned");
        let (s, c) = *v.last().expect("totals start non-empty");
        v.push((s + d_sum, c + d_count));
    }

    pub fn at(&self, vn: u64) -> Option<(i64, i64)> {
        let v = self.by_vn.lock().expect("totals lock is never poisoned");
        v.get(vn.checked_sub(self.first_vn)? as usize).copied()
    }
}

/// One maintenance batch and its net effect on the view's totals.
pub struct Batch {
    pub deltas: Vec<SourceDelta>,
    pub d_sum: i64,
    pub d_groups: i64,
}

/// A rolling-window sales feed over a `DailySales`-shaped view (group by
/// city, state, product line and date). Batch `k` brings a new day's
/// groups (group inserts), retires the day that batch `k − lag` brought
/// (group deletes, later garbage), and adds sales to `upd` long-lived
/// groups (group updates), striding so no group is touched twice within a
/// few versions.
pub struct RollGen {
    seed: u64,
    cities: Vec<(Value, Value)>,
    lines: Vec<Value>,
    days: usize,
    day0: Date,
    pub ins: usize,
    pub upd: usize,
    pub lag: u64,
}

impl RollGen {
    pub fn new(
        seed: u64,
        cities: usize,
        lines: usize,
        days: usize,
        ins: usize,
        upd: usize,
    ) -> Self {
        assert!(lines <= PRODUCT_LINES.len() && ins <= cities * lines);
        RollGen {
            seed,
            cities: (0..cities)
                .map(|i| {
                    (
                        Value::from(format!("city{i:03}")),
                        Value::from(STATES[i % STATES.len()]),
                    )
                })
                .collect(),
            lines: PRODUCT_LINES[..lines]
                .iter()
                .map(|&p| Value::from(p))
                .collect(),
            days,
            day0: Date::ymd(1996, 10, 14),
            ins,
            upd,
            lag: 6,
        }
    }

    /// Long-lived groups loaded before the run.
    pub fn base_groups(&self) -> usize {
        self.cities.len() * self.lines.len() * self.days
    }

    /// A date inside the loaded range that splits it roughly in half, for
    /// the pushdown-eligible date predicate.
    pub fn mid_date(&self) -> Date {
        self.day0.plus_days(self.days as u32 / 2)
    }

    fn row(&self, city: usize, line: usize, day: u32, amount: i64) -> Row {
        let (c, s) = &self.cities[city];
        vec![
            c.clone(),
            s.clone(),
            self.lines[line].clone(),
            Value::from(self.day0.plus_days(day)),
            Value::from(amount),
        ]
    }

    fn amount(&self, a: u64, b: u64) -> i64 {
        5 + (mix(self.seed ^ a.wrapping_mul(0x1000_0000_01b3), b) % 495) as i64
    }

    /// Source row of long-lived group `g` carrying `amount`.
    fn base_row(&self, g: usize, amount: i64) -> Row {
        let per_day = self.cities.len() * self.lines.len();
        let (day, within) = (g / per_day, g % per_day);
        self.row(
            within % self.cities.len(),
            within / self.cities.len(),
            day as u32,
            amount,
        )
    }

    /// One source row per long-lived group.
    pub fn initial_rows(&self) -> Vec<Row> {
        (0..self.base_groups())
            .map(|g| self.base_row(g, self.amount(0, g as u64)))
            .collect()
    }

    /// The rows batch `k` adds for its new day (also what batch `k + lag`
    /// retracts).
    fn new_day_rows(&self, k: u64) -> impl Iterator<Item = Row> + '_ {
        let day = self.days as u32 + (k - 1) as u32;
        (0..self.ins).map(move |j| {
            self.row(
                j % self.cities.len(),
                j / self.cities.len(),
                day,
                self.amount(k, j as u64),
            )
        })
    }

    /// Maintenance batch `k ≥ 1`.
    pub fn batch(&self, k: u64) -> Batch {
        let mut b = Batch {
            deltas: Vec::with_capacity(2 * self.ins + self.upd),
            d_sum: 0,
            d_groups: 0,
        };
        for row in self.new_day_rows(k) {
            b.d_sum += row[4].as_int().expect("amount is an integer");
            b.d_groups += 1;
            b.deltas.push(SourceDelta::Insert(row));
        }
        if k > self.lag {
            for row in self.new_day_rows(k - self.lag) {
                b.d_sum -= row[4].as_int().expect("amount is an integer");
                b.d_groups -= 1;
                b.deltas.push(SourceDelta::Delete(row));
            }
        }
        let base = self.base_groups() as u64;
        for i in 0..self.upd as u64 {
            let g = ((k - 1) * self.upd as u64 + i) % base;
            let amount = self.amount(1 << 40 | k, i);
            b.d_sum += amount;
            b.deltas
                .push(SourceDelta::Insert(self.base_row(g as usize, amount)));
        }
        b
    }

    /// What the view must hold once `batches` batches have committed: the
    /// load and the batches replayed into a plain map.
    pub fn model_after(&self, batches: u64) -> Shadow {
        let mut shadow = Shadow::new();
        let loaded: Vec<SourceDelta> = self
            .initial_rows()
            .into_iter()
            .map(SourceDelta::Insert)
            .collect();
        apply_to_shadow(&mut shadow, &loaded, &[0, 1, 2, 3], 4);
        for k in 1..=batches {
            apply_to_shadow(&mut shadow, &self.batch(k).deltas, &[0, 1, 2, 3], 4);
        }
        shadow
    }
}

/// Group key → `(sum, support count)`: what a summary view must hold.
pub type Shadow = HashMap<Vec<Value>, (i64, i64)>;

/// Fold source deltas into a shadow of the view grouped by `group_cols`,
/// summing `measure_col`; groups whose support count reaches zero vanish.
pub fn apply_to_shadow(
    shadow: &mut Shadow,
    deltas: &[SourceDelta],
    group_cols: &[usize],
    measure_col: usize,
) {
    for d in deltas {
        let (row, sign) = match d {
            SourceDelta::Insert(r) => (r, 1),
            SourceDelta::Delete(r) => (r, -1),
        };
        let key: Vec<Value> = group_cols.iter().map(|&c| row[c].clone()).collect();
        let amount = sign * row[measure_col].as_int().expect("measure is an integer");
        match shadow.entry(key) {
            Entry::Vacant(e) => {
                e.insert((amount, sign));
            }
            Entry::Occupied(mut e) => {
                let (sum, count) = e.get_mut();
                *sum += amount;
                *count += sign;
                if *count == 0 {
                    e.remove();
                }
            }
        }
    }
}

/// Compare a full scan of a summary view (rows = group columns, sum,
/// support count) with its shadow; returns a description of the first
/// difference.
pub fn check_view(rows: &[Row], shadow: &Shadow, what: &str) -> Result<(), String> {
    if rows.len() != shadow.len() {
        return Err(format!(
            "{what}: scan has {} rows, model has {}",
            rows.len(),
            shadow.len()
        ));
    }
    for row in rows {
        let k = row.len() - 2;
        let got = (
            row[k].as_int().expect("sum is an integer"),
            row[k + 1].as_int().expect("count is an integer"),
        );
        match shadow.get(&row[..k]) {
            Some(&want) if want == got => {}
            other => {
                return Err(format!(
                    "{what}: group {:?} is {got:?}, model has {other:?}",
                    &row[..k]
                ))
            }
        }
    }
    Ok(())
}

/// The keyed table of `maint_heavy` and its batches, built so that every
/// one of the nine Tables 2–4 arms fires in every batch while each key's
/// visible value stays a closed-form function of the number of committed
/// batches ([`ArmsGen::expected`]).
///
/// Keys fall in two regions. *Stable* keys `0..stable` are updated in
/// stripes: batch `k` rewrites the keys congruent to `k` modulo `stripe`
/// (the first few twice — update-in-place — and the next few as delete then
/// insert — update-after-own-delete). *Ring* keys are grouped in `ring`
/// positions of `width` keys: batch `k` deletes position `k mod ring`
/// (updating a few keys first — mark-own-update-deleted), re-inserts the
/// position deleted two batches earlier (a resurrection when GC has not
/// run in between, a fresh insert otherwise), and inserts-then-deletes two
/// keys of the position deleted one batch earlier (restore-resurrected or
/// remove-own-insert). One scratch key per batch is inserted and deleted in
/// the same transaction.
pub struct ArmsGen {
    seed: u64,
    pub stable: u64,
    pub stripe: u64,
    pub ring: u64,
    pub width: u64,
}

/// Keys per secondary-index group.
pub const GRP: u64 = 8;
/// Keys per batch given each same-transaction treatment.
const TWICE: u64 = 4;

/// One DML call of a `maint_heavy` batch.
pub enum Dml {
    Insert(Row),
    Update(Row),
    Delete(Row),
}

impl ArmsGen {
    pub fn new(seed: u64, stable: u64, stripe: u64, ring: u64, width: u64) -> Self {
        assert!(stable.is_multiple_of(GRP) && width.is_multiple_of(GRP) && ring >= 4);
        assert!(stable / stripe >= 2 * TWICE && width >= 2 * TWICE);
        ArmsGen {
            seed,
            stable,
            stripe,
            ring,
            width,
        }
    }

    pub fn schema() -> Schema {
        Schema::with_key_names(
            vec![
                Column::new("id", DataType::Int64),
                Column::new("grp", DataType::Int32),
                Column::updatable("val", DataType::Int64),
                Column::updatable("hits", DataType::Int64),
            ],
            &["id"],
        )
        .expect("static schema")
    }

    /// Number of keys a reader may ask for (stable plus ring).
    pub fn key_space(&self) -> u64 {
        self.stable + self.ring * self.width
    }

    fn base(&self, id: u64) -> i64 {
        (mix(self.seed, id) % 1_000_000) as i64
    }

    pub fn row(id: u64, val: i64, hits: i64) -> Row {
        vec![
            Value::from(id as i64),
            Value::from((id / GRP) as i64),
            Value::from(val),
            Value::from(hits),
        ]
    }

    /// A key-only row for `read_by_key` / `delete_row`.
    pub fn key_row(id: u64) -> Row {
        vec![
            Value::from(id as i64),
            Value::Null,
            Value::Null,
            Value::Null,
        ]
    }

    pub fn initial_rows(&self) -> Vec<Row> {
        (0..self.key_space())
            .map(|id| Self::row(id, self.base(id), 0))
            .collect()
    }

    fn ring_id(&self, pos: u64, w: u64) -> u64 {
        self.stable + pos * self.width + w
    }

    /// `(val, hits)` of key `id` once `done` batches have committed, or
    /// `None` when the key is then logically absent.
    pub fn expected(&self, id: u64, done: u64) -> Option<(i64, i64)> {
        if id < self.stable {
            // Updated by batches j ≡ id (mod stripe), 1 ≤ j ≤ done.
            let r = id % self.stripe;
            let first = if r == 0 { self.stripe } else { r };
            if done < first {
                return Some((self.base(id), 0));
            }
            let hits = (done - first) / self.stripe + 1;
            let last = first + (hits - 1) * self.stripe;
            return Some((self.base(id) + last as i64, hits as i64));
        }
        let pos = (id - self.stable) / self.width;
        // Deleted by batches j ≡ pos (mod ring), j ≥ 1; back two batches later.
        let first = if pos == 0 { self.ring } else { pos };
        if done < first {
            return Some((self.base(id), 0));
        }
        let last_delete = first + (done - first) / self.ring * self.ring;
        let back = last_delete + 2;
        (back <= done).then(|| (self.base(id) + back as i64, 0))
    }

    /// The DML calls of batch `k ≥ 1`, in order.
    pub fn batch(&self, k: u64) -> Vec<Dml> {
        let mut out =
            Vec::with_capacity((self.stable / self.stripe + 2 * self.width + 32) as usize);
        // Stable stripe.
        let first = k % self.stripe;
        for (i, id) in (first..self.stable)
            .step_by(self.stripe as usize)
            .enumerate()
        {
            let (val, hits) = self
                .expected(id, k)
                .expect("stable keys are always present");
            let row = Self::row(id, val, hits);
            match i as u64 {
                i if i < TWICE => {
                    out.push(Dml::Update(Self::row(id, -1, hits)));
                    out.push(Dml::Update(row));
                }
                i if i < 2 * TWICE => {
                    out.push(Dml::Delete(Self::key_row(id)));
                    out.push(Dml::Insert(row));
                }
                _ => out.push(Dml::Update(row)),
            }
        }
        // Ring: delete this batch's position.
        let pos = k % self.ring;
        for w in 0..self.width {
            let id = self.ring_id(pos, w);
            if w < TWICE {
                out.push(Dml::Update(Self::row(id, -1, 1)));
            }
            out.push(Dml::Delete(Self::key_row(id)));
        }
        // Ring: bring back the position deleted two batches ago.
        if k >= 3 {
            let pos = (k - 2) % self.ring;
            for w in 0..self.width {
                let id = self.ring_id(pos, w);
                out.push(Dml::Insert(Self::row(id, self.base(id) + k as i64, 0)));
            }
        }
        // Ring: insert then delete two keys of last batch's deleted position.
        if k >= 2 {
            let pos = (k - 1) % self.ring;
            for w in 0..2 {
                let id = self.ring_id(pos, w);
                out.push(Dml::Insert(Self::row(id, -2, 0)));
                out.push(Dml::Delete(Self::key_row(id)));
            }
        }
        // A scratch key that lives inside this transaction only.
        let scratch = self.key_space() + k;
        out.push(Dml::Insert(Self::row(scratch, -3, 0)));
        out.push(Dml::Delete(Self::key_row(scratch)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replaying the DML against a plain map must agree with the closed
    /// form at every batch count.
    #[test]
    fn arms_closed_form_matches_replay() {
        let g = ArmsGen::new(7, 160, 10, 4, 8);
        let mut model: HashMap<u64, (i64, i64)> = g
            .initial_rows()
            .iter()
            .map(|r| {
                (
                    r[0].as_int().unwrap() as u64,
                    (r[2].as_int().unwrap(), r[3].as_int().unwrap()),
                )
            })
            .collect();
        for k in 1..=40 {
            for dml in g.batch(k) {
                match dml {
                    Dml::Insert(r) | Dml::Update(r) => {
                        model.insert(
                            r[0].as_int().unwrap() as u64,
                            (r[2].as_int().unwrap(), r[3].as_int().unwrap()),
                        );
                    }
                    Dml::Delete(r) => {
                        model.remove(&(r[0].as_int().unwrap() as u64));
                    }
                }
            }
            for id in 0..g.key_space() + 50 {
                let want = if id < g.key_space() {
                    g.expected(id, k)
                } else {
                    None
                };
                assert_eq!(model.get(&id).copied(), want, "key {id} after batch {k}");
            }
        }
    }

    #[test]
    fn roll_totals_match_shadow() {
        let g = RollGen::new(3, 6, 4, 5, 10, 7);
        let mut shadow = Shadow::new();
        let initial: Vec<SourceDelta> = g
            .initial_rows()
            .into_iter()
            .map(SourceDelta::Insert)
            .collect();
        apply_to_shadow(&mut shadow, &initial, &[0, 1, 2, 3], 4);
        let totals = |s: &Shadow| (s.values().map(|v| v.0).sum::<i64>(), s.len() as i64);
        let (mut sum, mut groups) = totals(&shadow);
        for k in 1..=30 {
            let b = g.batch(k);
            apply_to_shadow(&mut shadow, &b.deltas, &[0, 1, 2, 3], 4);
            sum += b.d_sum;
            groups += b.d_groups;
            assert_eq!((sum, groups), totals(&shadow), "after batch {k}");
        }
    }
}
