//! The production scanner: Table 1 evaluated on encoded records, a page
//! at a time.
//!
//! [`crate::visibility::extract`] is the reference implementation of Table 1
//! (§3.2) and its nVNL generalization (§5), but it requires a fully decoded
//! extended row. On the reader hot path that is wasteful twice over: most
//! tuples in a scan resolve to *current* visibility (no maintenance touched
//! them since the session began), yet every tuple pays full-row decode —
//! including the `n − 1` pre-update sets the session will never look at —
//! and a query usually projects a handful of columns anyway.
//!
//! The extended row codec stores every column at a fixed byte offset
//! (`wh_types::RowCodec::col_byte_range`), so the `(tupleVN_j,
//! operation_j)` pairs can be read straight out of the encoded record: 4
//! little-endian bytes for the version number, 1 byte for the operation
//! code, and one null-bitmap bit per column for slot occupancy.
//! [`BatchScanner`] consumes whole-page [`RecordBatch`]es (see
//! `wh_storage::batch`) whose pairs have been gathered into column-strided
//! `i64` arrays, evaluates Table 1 over those arrays without data-dependent
//! branching in the slot walk, writes the verdicts into a selection bitmap,
//! and decodes *only* the selected records through a precompiled per-column
//! plan — invisible tuples are skipped before any decoding happens, and
//! visible ones decode exactly the projected columns (pre-update columns
//! are substituted per Table 1's note when the session reads a pre-update
//! version).
//!
//! The classifier mirrors `extract` case by case; the
//! `batch_path_matches_reference` tests below lock the two together on the
//! paper's fixtures (Figure 4, Figure 7) and on randomized histories.

use crate::error::VnlResult;
use crate::schema_ext::ExtLayout;
use crate::version::{Operation, VersionNo};
use std::collections::HashSet;
use std::sync::Arc;
use wh_sql::{FilterOp, ScanFilter};
use wh_storage::batch::{FieldSpec, RecordBatch, NULL_SENTINEL};
use wh_types::{DataType, Date, Row, RowCodec, TypeError, TypeResult, Value};

/// Outcome of the byte-level Table 1 test for one encoded record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classified {
    /// The session sees the tuple's current attribute values.
    Current,
    /// The session sees the pre-update version recorded in slot `j`.
    Pre(usize),
    /// The tuple is logically absent at the session's version.
    Ignore,
    /// Case 3: the version the session needs was pushed out of the tuple.
    Expired,
}

/// Gathered operation codes: the raw `Char(1)` byte of
/// [`Operation::code`] widened to `i64` (NULL gathers as
/// [`NULL_SENTINEL`], which matches none of these).
const OP_I: i64 = Operation::Insert.code().as_bytes()[0] as i64;
const OP_U: i64 = Operation::Update.code().as_bytes()[0] as i64;
const OP_D: i64 = Operation::Delete.code().as_bytes()[0] as i64;

/// The gather spec of extended column `c`.
fn field_spec(codec: &RowCodec, c: usize) -> FieldSpec {
    let (offset, width) = codec.col_byte_range(c);
    FieldSpec {
        offset,
        width,
        null_byte: c / 8,
        null_mask: 1 << (c % 8),
    }
}

/// Where the version stamps live in an encoded record, as gather specs
/// `[vn_0, op_0, vn_1, op_1, …]` — the one definition the reader kernel
/// ([`BatchScanner`]) and the whole-relation walker
/// ([`crate::VnlTable::walk_stamps`]) share.
pub(crate) fn stamp_specs(layout: &ExtLayout, codec: &RowCodec) -> Vec<FieldSpec> {
    (0..layout.slots())
        .flat_map(|j| [layout.vn_col(j), layout.op_col(j)].map(|c| field_spec(codec, c)))
        .collect()
}

/// Slot `j`'s `(tupleVN, operation)` of record `i`, read from a batch
/// gathered with [`stamp_specs`]; `None` when the slot is empty — the
/// byte-level twin of [`ExtLayout::slot`].
pub(crate) fn stamp_at(batch: &RecordBatch, i: usize, j: usize) -> Option<(VersionNo, Operation)> {
    let vn = batch.field(2 * j)[i];
    let op = match batch.field(2 * j + 1)[i] {
        OP_I => Operation::Insert,
        OP_U => Operation::Update,
        OP_D => Operation::Delete,
        _ => return None,
    };
    (vn != NULL_SENTINEL).then_some((vn as VersionNo, op))
}

/// One column of the precompiled decode plan: where the bytes live and how
/// to materialize them. Offsets are validated against the record width at
/// plan build, so the per-record decode can skip every bounds check.
#[derive(Debug, Clone, Copy)]
struct ColPlan {
    offset: usize,
    null_byte: usize,
    null_mask: u8,
    ty: DataType,
}

/// Outcome of one batch classification, reused across pages.
#[derive(Debug, Default)]
pub struct BatchClasses {
    /// Per-record Table 1 verdicts, batch order.
    codes: Vec<Classified>,
    /// Selection bitmap: bit `i` set iff record `i` is visible (`Current`
    /// or `Pre`) — the unit the decode stage and the density metric run on.
    select: Vec<u64>,
    /// Number of set bits in `select`.
    selected: usize,
}

impl BatchClasses {
    /// Verdicts in batch order.
    pub fn codes(&self) -> &[Classified] {
        &self.codes
    }

    /// The selection bitmap as 64-bit words, LSB-first.
    pub fn select_words(&self) -> &[u64] {
        &self.select
    }

    /// Number of selected (visible) records.
    pub fn selected(&self) -> usize {
        self.selected
    }

    /// Whether record `i` is selected.
    pub fn is_selected(&self, i: usize) -> bool {
        self.select[i / 64] >> (i % 64) & 1 == 1
    }
}

/// Interned strings already live in the pool beyond this point get
/// bypassed rather than evicted: warehouse scans are Zipfian enough that
/// the first `CAP` distinct values cover nearly every row, and a bounded
/// pool keeps a pathological high-cardinality column from ballooning the
/// scan's footprint.
const STR_POOL_CAP: usize = 1 << 12;

/// Per-scan string-interning pool for the batch decode stage: one
/// [`ColPool`] per output column. Warehouse `Char` columns are
/// low-cardinality (cities, states, product lines), so after the first few
/// pages almost every string decode is a pool hit — an `Arc` refcount bump
/// instead of an allocation + copy. The pool is deliberately per-scan (not
/// global): no cross-scan synchronization, and dropping the scan drops the
/// pool.
#[derive(Debug, Default)]
pub struct StrPool {
    cols: Vec<ColPool>,
}

/// One column's interning state: the hash set plus a one-entry run cache.
///
/// The run cache is the fast path that actually pays: heap order clusters
/// equal values (a relation loaded city-by-city keeps the same city for
/// hundreds of consecutive tuples), and it is keyed on the *raw
/// fixed-width slot bytes* — padding included — so a hit is a single
/// memcmp that skips trimming, UTF-8 validation, and hashing entirely.
/// Only runs' first rows fall through to the set.
#[derive(Debug, Default)]
struct ColPool {
    /// Raw slot bytes of the most recent decode through this column.
    last_raw: Vec<u8>,
    last: Option<Arc<str>>,
    set: HashSet<Arc<str>>,
}

impl ColPool {
    /// Intern the string stored in raw slot bytes `raw` (space-padded to
    /// the column width, as `RowCodec` encodes `Char` slots).
    fn intern(&mut self, raw: &[u8]) -> TypeResult<Arc<str>> {
        if let Some(last) = &self.last {
            if self.last_raw.as_slice() == raw {
                return Ok(Arc::clone(last));
            }
        }
        let trimmed = match raw.iter().rposition(|&b| b != b' ') {
            Some(end) => &raw[..=end],
            None => &raw[..0],
        };
        let s = std::str::from_utf8(trimmed).map_err(|e| TypeError::Codec(e.to_string()))?;
        let interned = match self.set.get(s) {
            Some(hit) => Arc::clone(hit),
            None => {
                let fresh: Arc<str> = Arc::from(s);
                if self.set.len() < STR_POOL_CAP {
                    self.set.insert(Arc::clone(&fresh));
                }
                fresh
            }
        };
        self.last_raw.clear();
        self.last_raw.extend_from_slice(raw);
        self.last = Some(Arc::clone(&interned));
        Ok(interned)
    }
}

/// A compiled [`ScanFilter`] — one pushed-down `column <op> literal`,
/// evaluated on the gathered `i64` image of the column's *version-visible*
/// value before any row decode: gathered-field index of that image per
/// verdict — `fields[0]` for `Current`, `fields[1 + j]` for `Pre(j)` (all the
/// same index when the column is not updatable). `wh_sql::pushdown` decides
/// which WHERE conjuncts are eligible (the column must gather losslessly and
/// never collide with [`NULL_SENTINEL`]).
#[derive(Debug, Clone)]
struct FilterPlan {
    fields: Vec<usize>,
    op: FilterOp,
    literal: i64,
}

/// Batched Table 1 evaluator over gathered version columns, plus a
/// plan-compiled decoder for the selected records.
///
/// Built once per scan from the table's `(ExtLayout, RowCodec)` pair;
/// `Sync`, so one instance serves every partition of a scan. The two-phase shape — classify the whole page into a
/// bitmap, then decode only selected records — is what lets full-scan
/// consumers that never materialize rows (`COUNT(*)`, selectivity probes)
/// skip decoding entirely.
#[derive(Debug, Clone)]
pub struct BatchScanner {
    n_slots: usize,
    /// Gather specs handed to the heap: `[vn_0, op_0, vn_1, op_1, …]`.
    specs: Vec<FieldSpec>,
    /// Decode plan per output column, current version; `None` emits NULL
    /// (sparse projection — see [`BatchScanner::new_sparse`]).
    current_plan: Vec<Option<ColPlan>>,
    /// Same, per pre-update slot `j`.
    pre_plans: Vec<Vec<Option<ColPlan>>>,
    /// Compiled pushed-down predicate filters (usually empty).
    filters: Vec<FilterPlan>,
    record_len: usize,
}

impl BatchScanner {
    /// Build a batch scanner over `layout` for records encoded by `codec`.
    /// `projection` lists the base-schema columns to decode, in output
    /// order; `None` decodes the full base row.
    pub fn new(layout: &ExtLayout, codec: &RowCodec, projection: Option<&[usize]>) -> Self {
        let all: Vec<usize>;
        let projected: &[usize] = match projection {
            Some(cols) => cols,
            None => {
                all = (0..layout.base_schema().arity()).collect();
                &all
            }
        };
        Self::build(
            layout,
            codec,
            &projected.iter().map(|&i| (i, true)).collect::<Vec<_>>(),
            &[],
        )
    }

    /// Build a scanner that emits **full base-arity** rows but only decodes
    /// the columns in `needed` — every other column comes back as
    /// `Value::Null`. This is the SQL executor's projection pushdown: the
    /// row shape stays schema-compatible (expressions address columns by
    /// index) while unreferenced columns skip decoding entirely.
    pub fn new_sparse(layout: &ExtLayout, codec: &RowCodec, needed: &[usize]) -> Self {
        Self::new_sparse_filtered(layout, codec, needed, &[])
    }

    /// [`BatchScanner::new_sparse`] with pushed-down predicate filters:
    /// records whose version-visible filter columns fail any filter are
    /// demoted to [`Classified::Ignore`] during classification, before any
    /// decode. Expiration detection is unaffected — an expired tuple still
    /// reports [`Classified::Expired`] whether or not a filter would have
    /// dropped it: expiration is a visibility fact, decided before any
    /// predicate is looked at.
    pub fn new_sparse_filtered(
        layout: &ExtLayout,
        codec: &RowCodec,
        needed: &[usize],
        filters: &[ScanFilter],
    ) -> Self {
        let cols: Vec<(usize, bool)> = (0..layout.base_schema().arity())
            .map(|i| (i, needed.contains(&i)))
            .collect();
        Self::build(layout, codec, &cols, filters)
    }

    fn build(
        layout: &ExtLayout,
        codec: &RowCodec,
        cols: &[(usize, bool)],
        filters: &[ScanFilter],
    ) -> Self {
        let record_len = codec.encoded_len();
        let plan_for = |ext_col: usize| -> ColPlan {
            let (offset, width) = codec.col_byte_range(ext_col);
            debug_assert!(offset + width <= record_len && ext_col / 8 < record_len);
            ColPlan {
                offset,
                null_byte: ext_col / 8,
                null_mask: 1 << (ext_col % 8),
                ty: codec.schema().columns()[ext_col].ty,
            }
        };
        let mut specs = stamp_specs(layout, codec);
        // Filter columns gather after the version fields: the base image,
        // plus each slot's pre-update copy when the column is updatable
        // (the plan then picks the image matching the record's verdict).
        let filters = filters
            .iter()
            .map(|f| {
                let base_idx = specs.len();
                specs.push(field_spec(codec, layout.base_col(f.column)));
                let mut fields = vec![base_idx];
                match layout.updatable().iter().position(|&u| u == f.column) {
                    Some(u_pos) => {
                        for j in 0..layout.slots() {
                            fields.push(specs.len());
                            specs.push(field_spec(codec, layout.pre_set(j)[u_pos]));
                        }
                    }
                    None => fields.extend(std::iter::repeat_n(base_idx, layout.slots())),
                }
                FilterPlan {
                    fields,
                    op: f.op,
                    literal: f.literal,
                }
            })
            .collect();
        let current_plan = cols
            .iter()
            .map(|&(i, wanted)| wanted.then(|| plan_for(layout.base_col(i))))
            .collect();
        let pre_plans = (0..layout.slots())
            .map(|j| {
                cols.iter()
                    .map(|&(i, wanted)| {
                        wanted.then(|| match layout.updatable().iter().position(|&u| u == i) {
                            Some(u_pos) => plan_for(layout.pre_set(j)[u_pos]),
                            None => plan_for(layout.base_col(i)),
                        })
                    })
                    .collect()
            })
            .collect();
        BatchScanner {
            n_slots: layout.slots(),
            specs,
            current_plan,
            pre_plans,
            filters,
            record_len,
        }
    }

    /// The gather specs to pass to `HeapFile::scan_batches`.
    pub fn specs(&self) -> &[FieldSpec] {
        &self.specs
    }

    /// Classify every record of `batch` — Table 1 / §5 evaluated over the
    /// gathered version columns into `out`. The slot walk is evaluated
    /// with mask/select arithmetic only (no data-dependent branches): a
    /// `contiguous` mask reproduces `extract`'s stop-at-first-empty rule,
    /// and running accumulators carry `j*`, its operation code, and
    /// the oldest recorded VN so no gathered array is indexed by a
    /// data-dependent subscript.
    pub fn classify_batch(
        &self,
        batch: &RecordBatch,
        session_vn: VersionNo,
        out: &mut BatchClasses,
    ) {
        let n = batch.len();
        out.codes.clear();
        out.codes.reserve(n);
        out.select.clear();
        out.select.resize(n.div_ceil(64), 0);
        out.selected = 0;
        let fields: Vec<&[i64]> = (0..self.specs.len())
            .map(|f| &batch.field(f)[..n])
            .collect();
        // Version numbers are 32-bit on disk, so widening the session VN to
        // the gathered i64 domain is lossless.
        let session_vn = session_vn as i64;
        // `i` is a *row* subscript applied to every column-strided slice in
        // `fields`; iterating `fields` itself (clippy's suggestion) would
        // conflate the field axis with the row axis.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let vn1 = fields[0][i];
            let op1 = fields[1][i];
            debug_assert!(vn1 != NULL_SENTINEL, "slot 0 is populated for live tuples");
            let code = if session_vn >= vn1 {
                // Case 1: at or past the newest modification.
                if op1 == OP_D {
                    Classified::Ignore
                } else {
                    Classified::Current
                }
            } else {
                // Case 2/3: walk the older slots branch-free.
                let mut contiguous = true;
                let mut oldest = 0usize;
                let mut vn_oldest = vn1;
                let mut j_star = 0usize;
                let mut op_star = op1;
                for j in 1..self.n_slots {
                    let vn_j = fields[2 * j][i];
                    let op_j = fields[2 * j + 1][i];
                    let valid =
                        vn_j != NULL_SENTINEL && (op_j == OP_I || op_j == OP_U || op_j == OP_D);
                    let recorded = contiguous & valid;
                    contiguous = recorded;
                    oldest = if recorded { j } else { oldest };
                    vn_oldest = if recorded { vn_j } else { vn_oldest };
                    let newer = recorded & (vn_j > session_vn);
                    j_star = if newer { j } else { j_star };
                    op_star = if newer { op_j } else { op_star };
                }
                let slots_full = oldest == self.n_slots - 1;
                if slots_full && j_star == oldest && session_vn + 1 < vn_oldest {
                    Classified::Expired
                } else if op_star == OP_I {
                    Classified::Ignore
                } else {
                    Classified::Pre(j_star)
                }
            };
            // Pushed-down predicate filters: a *visible* record whose
            // version-visible filter image fails any filter (or is NULL —
            // the SQL conjunct would be unknown, not TRUE) is demoted to
            // Ignore before decode. Expired stays Expired: expiration is a
            // visibility fact, raised whatever the predicate says.
            let code = match code {
                Classified::Current | Classified::Pre(_) if !self.filters.is_empty() => {
                    let image = match code {
                        Classified::Pre(j) => 1 + j,
                        _ => 0,
                    };
                    let pass = self.filters.iter().all(|f| {
                        let v = fields[f.fields[image]][i];
                        v != NULL_SENTINEL && f.op.eval(v, f.literal)
                    });
                    if pass {
                        code
                    } else {
                        Classified::Ignore
                    }
                }
                other => other,
            };
            if matches!(code, Classified::Current | Classified::Pre(_)) {
                out.select[i / 64] |= 1u64 << (i % 64);
                out.selected += 1;
            }
            out.codes.push(code);
        }
    }

    /// A fresh interning pool sized to this scanner's output arity. One
    /// pool per scan, reused across batches, so pooled strings survive
    /// page boundaries and the hit rate climbs as the scan proceeds.
    pub fn new_pool(&self) -> StrPool {
        StrPool {
            cols: (0..self.current_plan.len())
                .map(|_| ColPool::default())
                .collect(),
        }
    }

    /// Decode record `i` of `batch` through the precompiled plan for its
    /// verdict (`Current` or `Pre(j)`). Column bytes are read without
    /// bounds checks — the plan was validated against the record width at
    /// build — but value-level checks (UTF-8, date validity) stay. String
    /// columns are interned through `pool` (from [`BatchScanner::new_pool`]).
    pub fn decode_visible(
        &self,
        batch: &RecordBatch,
        i: usize,
        which: Classified,
        pool: &mut StrPool,
    ) -> TypeResult<Row> {
        let plan = match which {
            Classified::Current => &self.current_plan,
            Classified::Pre(j) => &self.pre_plans[j],
            Classified::Ignore | Classified::Expired => {
                unreachable!("decode_visible called on an invisible record") // lint: allow(no-panic) — unreachable by construction (see message)
            }
        };
        let rec = batch.record(i);
        debug_assert_eq!(rec.len(), self.record_len);
        plan.iter()
            .zip(pool.cols.iter_mut())
            .map(|(col, pool)| match col {
                None => Ok(Value::Null),
                Some(p) => decode_planned(p, rec, pool),
            })
            .collect()
    }

    /// Row delivery over a classified batch: decode each selected record,
    /// in batch order, and hand it to `visit`.
    pub(crate) fn visit_selected(
        &self,
        batch: &RecordBatch,
        classes: &BatchClasses,
        pool: &mut StrPool,
        mut visit: impl FnMut(Row) -> VnlResult<()>,
    ) -> VnlResult<()> {
        for (i, &code) in classes.codes().iter().enumerate() {
            if matches!(code, Classified::Current | Classified::Pre(_)) {
                visit(self.decode_visible(batch, i, code, pool)?)?;
            }
        }
        Ok(())
    }
}

/// Decode one planned column from a record image. The caller guarantees
/// `rec.len()` equals the record width the plan was built against.
fn decode_planned(p: &ColPlan, rec: &[u8], pool: &mut ColPool) -> TypeResult<Value> {
    // safety: ColPlan offsets were checked against the record width when
    // the plan was built (`debug_assert` in `build`, and `col_byte_range`
    // derives them from the same codec that produced the record), so every
    // read below is in bounds.
    unsafe {
        if rec.get_unchecked(p.null_byte) & p.null_mask != 0 {
            return Ok(Value::Null);
        }
        let ptr = rec.as_ptr().add(p.offset);
        Ok(match p.ty {
            DataType::UInt8 => Value::Int(i64::from(*ptr)),
            DataType::Int32 => Value::Int(i64::from(i32::from_le_bytes(std::ptr::read_unaligned(
                ptr as *const [u8; 4],
            )))),
            DataType::Int64 => Value::Int(i64::from_le_bytes(std::ptr::read_unaligned(
                ptr as *const [u8; 8],
            ))),
            DataType::Float64 => Value::Float(f64::from_le_bytes(std::ptr::read_unaligned(
                ptr as *const [u8; 8],
            ))),
            DataType::Char(len) => {
                let raw = std::slice::from_raw_parts(ptr, len);
                Value::Str(pool.intern(raw)?)
            }
            DataType::Date => {
                let packed = u32::from_le_bytes(std::ptr::read_unaligned(ptr as *const [u8; 4]));
                Value::Date(
                    Date::from_packed(packed)
                        .ok_or_else(|| TypeError::Codec(format!("bad date {packed}")))?,
                )
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visibility::{extract, Visible};
    use wh_types::rng::SplitMix64;
    use wh_types::schema::daily_sales_schema;
    use wh_types::{Date, Value};

    fn layout(n: usize) -> ExtLayout {
        ExtLayout::new(daily_sales_schema(), n).unwrap()
    }

    fn codec(l: &ExtLayout) -> RowCodec {
        RowCodec::new(l.ext_schema().clone())
    }

    /// Run one encoded record through the batch pipeline (a real one-page
    /// heap and `scan_batches`) and return the batch verdict plus the
    /// decoded row when visible.
    fn batch_verdict(
        scanner: &BatchScanner,
        buf: &[u8],
        vn: VersionNo,
    ) -> (Classified, Option<Row>) {
        use std::sync::Arc;
        use wh_storage::{HeapFile, IoStats};
        let heap = HeapFile::new(buf.len(), Arc::new(IoStats::new())).unwrap();
        heap.insert(buf).unwrap();
        let mut classes = BatchClasses::default();
        let mut verdict = None;
        heap.scan_batches(0..1, scanner.specs(), |batch| {
            assert_eq!(batch.len(), 1);
            scanner.classify_batch(batch, vn, &mut classes);
            let code = classes.codes()[0];
            assert_eq!(
                classes.is_selected(0),
                matches!(code, Classified::Current | Classified::Pre(_)),
                "bitmap disagrees with verdict"
            );
            assert_eq!(classes.selected(), usize::from(classes.is_selected(0)));
            let mut pool = scanner.new_pool();
            let row = classes
                .is_selected(0)
                .then(|| scanner.decode_visible(batch, 0, code, &mut pool).unwrap());
            verdict = Some((code, row));
            Ok(())
        })
        .unwrap();
        verdict.unwrap()
    }

    /// Assert the batch path agrees with the reference `extract` for one
    /// extended row across a range of session versions.
    fn assert_agrees(l: &ExtLayout, ext: &Row, vns: impl Iterator<Item = VersionNo>) {
        let c = codec(l);
        let batched = BatchScanner::new(l, &c, None);
        let buf = c.encode(ext).unwrap();
        for vn in vns {
            let reference = extract(l, ext, vn);
            let (code, row) = batch_verdict(&batched, &buf, vn);
            match (&reference, code) {
                (Visible::Ignore, Classified::Ignore) => {}
                (Visible::Expired, Classified::Expired) => {}
                (Visible::Row(want), Classified::Current | Classified::Pre(_)) => {
                    assert_eq!(row.as_ref(), Some(want), "row mismatch at sessionVN {vn}");
                }
                _ => panic!("vn {vn}: reference {reference:?} vs batch path {code:?}"),
            }
        }
    }

    fn row2(vn: i64, op: &str, city: &str, pl: &str, day: u8, sales: Value, pre: Value) -> Row {
        vec![
            Value::from(vn),
            Value::from(op),
            Value::from(city),
            Value::from("CA"),
            Value::from(pl),
            Value::from(Date::ymd(1996, 10, day)),
            sales,
            pre,
        ]
    }

    #[test]
    fn batch_path_matches_reference_on_figure_4() {
        let l = layout(2);
        let rows = vec![
            row2(
                3,
                "i",
                "San Jose",
                "golf equip",
                14,
                Value::from(10_000),
                Value::Null,
            ),
            row2(
                4,
                "i",
                "San Jose",
                "golf equip",
                15,
                Value::from(1_500),
                Value::Null,
            ),
            row2(
                4,
                "u",
                "Berkeley",
                "racquetball",
                14,
                Value::from(12_000),
                Value::from(10_000),
            ),
            row2(
                4,
                "d",
                "Novato",
                "rollerblades",
                13,
                Value::from(8_000),
                Value::from(8_000),
            ),
        ];
        for ext in &rows {
            assert_agrees(&l, ext, 0..8);
        }
    }

    #[test]
    fn batch_path_matches_reference_on_figure_7() {
        // Figure 7 under 4VNL: insert at VN 3, update at VN 5, delete at VN 6.
        let l = layout(4);
        let mut ext = vec![Value::Null; l.ext_schema().arity()];
        for (i, v) in [
            Value::from("San Jose"),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(Date::ymd(1996, 10, 14)),
            Value::from(10_200),
        ]
        .into_iter()
        .enumerate()
        {
            ext[l.base_col(i)] = v;
        }
        let slots = [
            (6i64, "d", Value::from(10_200)),
            (5, "u", Value::from(10_000)),
            (3, "i", Value::Null),
        ];
        for (j, (vn, op, pre)) in slots.into_iter().enumerate() {
            ext[l.vn_col(j)] = Value::from(vn);
            ext[l.op_col(j)] = Value::from(op);
            ext[l.pre_set(j)[0]] = pre;
        }
        assert_agrees(&l, &ext, 0..10);
    }

    #[test]
    fn batch_path_matches_reference_on_random_histories() {
        // Randomized tuple histories under n ∈ {2, 3, 4}: build a plausible
        // slot stack (descending VNs, newest first, oldest may be an insert)
        // and check every sessionVN around it.
        let mut rng = SplitMix64::seed_from_u64(0xB17E_5CA1);
        for _ in 0..200 {
            let n = 2 + rng.index(3);
            let l = layout(n);
            let mut ext = vec![Value::Null; l.ext_schema().arity()];
            for (i, v) in [
                Value::from("City"),
                Value::from("CA"),
                Value::from("pl"),
                Value::from(Date::ymd(1996, 10, 1)),
                Value::from(rng.range_i64(0, 100_000)),
            ]
            .into_iter()
            .enumerate()
            {
                ext[l.base_col(i)] = v;
            }
            let filled = 1 + rng.index(l.slots());
            let mut vn = 2 + rng.range_i64(0, 20);
            for j in 0..filled {
                let op = match rng.index(3) {
                    0 if j + 1 == filled => "i", // oldest slot may be the birth
                    0 => "u",
                    1 => "u",
                    _ => "d",
                };
                ext[l.vn_col(j)] = Value::from(vn);
                ext[l.op_col(j)] = Value::from(op);
                if op != "i" {
                    ext[l.pre_set(j)[0]] = Value::from(rng.range_i64(0, 100_000));
                }
                vn -= 1 + rng.range_i64(0, 4);
                if vn < 1 {
                    break;
                }
            }
            assert_agrees(&l, &ext, 0..30);
        }
    }

    #[test]
    fn walker_matches_value_level_slots_on_random_histories() {
        // Real maintenance histories under n ∈ {2, 3, 4} — inserts, updates,
        // deletes, resurrections, same-transaction combinations, aborts and
        // GC holes. At every step the walker's byte-level `(rid, vn, op,
        // occupancy)` must equal `ExtLayout::slot` on the decoded row, which
        // is what per-tuple DML still decides by.
        use crate::VnlTable;
        let mut rng = SplitMix64::seed_from_u64(0x57A3_9ED5);
        let key = |k: usize, sales: i64| -> Row {
            vec![
                Value::from(format!("city{k}")),
                Value::from("CA"),
                Value::from("pl"),
                Value::from(Date::ymd(1996, 10, 1)),
                Value::from(sales),
            ]
        };
        // Returns the deepest older-slot occupancy seen, so the test can
        // show the histories did fill the slots.
        let check = |t: &VnlTable| -> u64 {
            let l = t.layout();
            let (mut seen, mut deepest) = (0u64, 0u64);
            t.walk_stamps(|w| {
                let ext = t.storage().read(w.rid).unwrap();
                assert_eq!(w.decode().unwrap(), ext);
                assert_eq!(Some((w.vn, w.op)), l.slot(&ext, 0), "slot 0 at {}", w.rid);
                let older = (1..l.slots()).filter(|&j| l.slot(&ext, j).is_some());
                assert_eq!(w.older_occupied(), older.count() as u64, "at {}", w.rid);
                seen += 1;
                deepest = deepest.max(w.older_occupied());
                Ok(())
            })
            .unwrap();
            assert_eq!(seen, t.storage().len(), "every live tuple, once");
            deepest
        };
        for n in [2, 3, 4] {
            let t = VnlTable::create(daily_sales_schema(), n).unwrap();
            let mut live = [false; 10];
            let mut deepest = 0;
            for round in 0..40 {
                let before = live;
                let txn = t.begin_maintenance().unwrap();
                for _ in 0..1 + rng.index(6) {
                    let k = rng.index(live.len());
                    let row = key(k, rng.range_i64(0, 100_000));
                    if !live[k] {
                        txn.insert(row).unwrap(); // fresh, or a resurrection
                        live[k] = true;
                    } else if rng.index(2) == 0 {
                        txn.update_row(&row).unwrap();
                    } else {
                        txn.delete_row(&row).unwrap();
                        live[k] = false;
                    }
                    deepest = deepest.max(check(&t)); // uncommitted stamps included
                }
                if rng.index(4) == 0 {
                    txn.abort().unwrap();
                    live = before;
                } else {
                    txn.commit().unwrap();
                }
                if round % 5 == 4 {
                    crate::gc::collect(&t).unwrap();
                }
                deepest = deepest.max(check(&t));
            }
            assert_eq!(deepest, n as u64 - 2, "n={n}: every older slot got used");
        }
    }

    #[test]
    fn projection_decodes_only_requested_columns() {
        let l = layout(2);
        let c = codec(&l);
        // Project (total_sales, city) — reversed order, updatable + not.
        let scanner = BatchScanner::new(&l, &c, Some(&[4, 0]));
        let current = row2(
            4,
            "u",
            "Berkeley",
            "racquetball",
            14,
            Value::from(12_000),
            Value::from(10_000),
        );
        let buf = c.encode(&current).unwrap();
        // Current view: post-update total_sales.
        let (code, got) = batch_verdict(&scanner, &buf, 4);
        assert_eq!(code, Classified::Current);
        assert_eq!(
            got.unwrap(),
            vec![Value::from(12_000), Value::from("Berkeley")]
        );
        // Pre-update view: the updatable column swaps to its pre copy.
        let (code, got) = batch_verdict(&scanner, &buf, 3);
        assert_eq!(code, Classified::Pre(0));
        assert_eq!(
            got.unwrap(),
            vec![Value::from(10_000), Value::from("Berkeley")]
        );
    }

    #[test]
    fn batch_classify_mixes_verdicts_across_one_page() {
        // All four Figure 4 rows in one batch: at sessionVN 3 the batch
        // must select rows 0, 2 and 3 (row 1 is pre-insert).
        use std::sync::Arc;
        use wh_storage::{HeapFile, IoStats};
        let l = layout(2);
        let c = codec(&l);
        let batched = BatchScanner::new(&l, &c, None);
        let rows = vec![
            row2(
                3,
                "i",
                "San Jose",
                "golf equip",
                14,
                Value::from(10_000),
                Value::Null,
            ),
            row2(
                4,
                "i",
                "San Jose",
                "golf equip",
                15,
                Value::from(1_500),
                Value::Null,
            ),
            row2(
                4,
                "u",
                "Berkeley",
                "racquetball",
                14,
                Value::from(12_000),
                Value::from(10_000),
            ),
            row2(
                4,
                "d",
                "Novato",
                "rollerblades",
                13,
                Value::from(8_000),
                Value::from(8_000),
            ),
        ];
        let heap = HeapFile::new(c.encoded_len(), Arc::new(IoStats::new())).unwrap();
        for r in &rows {
            heap.insert(&c.encode(r).unwrap()).unwrap();
        }
        let mut classes = BatchClasses::default();
        heap.scan_batches(0..1, batched.specs(), |batch| {
            batched.classify_batch(batch, 3, &mut classes);
            assert_eq!(
                classes.codes(),
                &[
                    Classified::Current,
                    Classified::Ignore,
                    Classified::Pre(0),
                    Classified::Pre(0),
                ]
            );
            assert_eq!(classes.selected(), 3);
            assert_eq!(classes.select_words(), &[0b1101]);
            let mut pool = batched.new_pool();
            let visible: Vec<Row> = (0..batch.len())
                .filter(|&i| classes.is_selected(i))
                .map(|i| {
                    batched
                        .decode_visible(batch, i, classes.codes()[i], &mut pool)
                        .unwrap()
                })
                .collect();
            // Example 3.2's result set, decoded straight off the batch.
            assert_eq!(visible[0][0], Value::from("San Jose"));
            assert_eq!(visible[1][4], Value::from(10_000), "pre-update value");
            assert_eq!(visible[2][4], Value::from(8_000), "pre-delete value");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn pushed_filters_demote_failing_rows_before_decode() {
        // Filter on the *updatable* total_sales column: the kernel must
        // test the version-visible image — the pre-update copy for Pre(0)
        // records — and treat a NULL image as a failed (unknown) conjunct.
        use std::sync::Arc;
        use wh_storage::{HeapFile, IoStats};
        let l = layout(2);
        let c = codec(&l);
        let filter = ScanFilter {
            column: 4,
            op: FilterOp::GtEq,
            literal: 9_000,
        };
        let scanner = BatchScanner::new_sparse_filtered(&l, &c, &[0, 4], &[filter]);
        let rows = vec![
            // Current at sessionVN 3, current value passes.
            row2(
                3,
                "i",
                "San Jose",
                "golf equip",
                14,
                Value::from(10_000),
                Value::Null,
            ),
            // Current, current value fails.
            row2(
                3,
                "i",
                "Vallejo",
                "golf equip",
                15,
                Value::from(1_500),
                Value::Null,
            ),
            // Pre(0) at sessionVN 3: pre-update copy 8000 fails even though
            // the current value 12000 would pass.
            row2(
                4,
                "u",
                "Berkeley",
                "racquetball",
                14,
                Value::from(12_000),
                Value::from(8_000),
            ),
            // Pre(0): pre-update copy 9500 passes even though the current
            // value 500 would fail.
            row2(
                4,
                "u",
                "Novato",
                "rollerblades",
                13,
                Value::from(500),
                Value::from(9_500),
            ),
            // Current with a NULL image: the conjunct is unknown, so the
            // row is filtered out.
            row2(
                3,
                "i",
                "Alameda",
                "golf equip",
                16,
                Value::Null,
                Value::Null,
            ),
        ];
        let heap = HeapFile::new(c.encoded_len(), Arc::new(IoStats::new())).unwrap();
        for r in &rows {
            heap.insert(&c.encode(r).unwrap()).unwrap();
        }
        let mut classes = BatchClasses::default();
        heap.scan_batches(0..1, scanner.specs(), |batch| {
            scanner.classify_batch(batch, 3, &mut classes);
            assert_eq!(
                classes.codes(),
                &[
                    Classified::Current,
                    Classified::Ignore,
                    Classified::Ignore,
                    Classified::Pre(0),
                    Classified::Ignore,
                ]
            );
            assert_eq!(classes.selected(), 2);
            let mut pool = scanner.new_pool();
            let kept: Vec<Row> = (0..batch.len())
                .filter(|&i| classes.is_selected(i))
                .map(|i| {
                    scanner
                        .decode_visible(batch, i, classes.codes()[i], &mut pool)
                        .unwrap()
                })
                .collect();
            assert_eq!(kept[0][0], Value::from("San Jose"));
            assert_eq!(kept[0][4], Value::from(10_000));
            assert_eq!(kept[1][0], Value::from("Novato"));
            assert_eq!(kept[1][4], Value::from(9_500), "pre-update image decoded");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn pushed_filter_on_date_column_uses_packed_order() {
        // sale_date is not updatable, so every verdict reads the same base
        // image; the packed yyyymmdd encoding must preserve calendar order.
        let l = layout(2);
        let c = codec(&l);
        let filter = ScanFilter {
            column: 3,
            op: FilterOp::LtEq,
            literal: i64::from(Date::ymd(1996, 10, 14).to_packed()),
        };
        let scanner = BatchScanner::new_sparse_filtered(&l, &c, &[0, 3], &[filter]);
        let on_cutoff = row2(
            3,
            "i",
            "San Jose",
            "golf equip",
            14,
            Value::from(1),
            Value::Null,
        );
        let after = row2(
            3,
            "i",
            "San Jose",
            "golf equip",
            15,
            Value::from(1),
            Value::Null,
        );
        let (code, row) = batch_verdict(&scanner, &c.encode(&on_cutoff).unwrap(), 3);
        assert_eq!(code, Classified::Current);
        assert_eq!(row.unwrap()[3], Value::from(Date::ymd(1996, 10, 14)));
        let (code, row) = batch_verdict(&scanner, &c.encode(&after).unwrap(), 3);
        assert_eq!(code, Classified::Ignore);
        assert!(row.is_none());
    }

    #[test]
    fn pushed_filters_do_not_mask_expiration() {
        // A tuple whose needed version was pushed out must still classify
        // Expired even when a filter would have rejected it.
        let l = layout(2);
        let c = codec(&l);
        let filter = ScanFilter {
            column: 4,
            op: FilterOp::GtEq,
            literal: i64::MAX,
        };
        let scanner = BatchScanner::new_sparse_filtered(&l, &c, &[4], &[filter]);
        // sessionVN 3 needs a version older than the recorded vn 5 allows
        // (session_vn + 1 < vn_oldest with the slot set full).
        let expired = row2(
            5,
            "u",
            "San Jose",
            "golf equip",
            14,
            Value::from(1),
            Value::from(2),
        );
        let (code, row) = batch_verdict(&scanner, &c.encode(&expired).unwrap(), 3);
        assert_eq!(code, Classified::Expired);
        assert!(row.is_none());
    }

    #[test]
    fn sparse_plan_decodes_needed_columns_full_arity() {
        let l = layout(2);
        let c = codec(&l);
        // Need only city (0) and total_sales (4): full-arity rows with
        // NULLs in the unneeded positions.
        let sparse = BatchScanner::new_sparse(&l, &c, &[0, 4]);
        let current = row2(
            4,
            "u",
            "Berkeley",
            "racquetball",
            14,
            Value::from(12_000),
            Value::from(10_000),
        );
        let buf = c.encode(&current).unwrap();
        let (code, row) = batch_verdict(&sparse, &buf, 4);
        assert_eq!(code, Classified::Current);
        assert_eq!(
            row.unwrap(),
            vec![
                Value::from("Berkeley"),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::from(12_000),
            ]
        );
        // Pre-update view swaps the updatable needed column to its pre copy.
        let (code, row) = batch_verdict(&sparse, &buf, 3);
        assert_eq!(code, Classified::Pre(0));
        assert_eq!(row.unwrap()[4], Value::from(10_000));
    }
}
