//! The production scanner: Table 1 evaluated on encoded records — a page
//! at a time for scans, one record at a time for point reads, index
//! lookups and repair's rebuild.
//!
//! [`crate::visibility::extract`] states Table 1 (§3.2) and its nVNL
//! generalization (§5) over a fully decoded extended row; it is the oracle
//! the tests hold this module to. Decoding every tuple would be wasteful
//! twice over: most tuples resolve to *current* visibility, yet full-row
//! decode pays for the `n − 1` pre-update sets the session will never
//! look at — and a query usually projects a handful of columns anyway.
//!
//! The extended row codec stores every column at a fixed byte offset
//! (`wh_types::RowCodec::col_byte_range`), so the `(tupleVN_j,
//! operation_j)` pairs are read straight out of the encoded record and
//! widened to `i64` by `FieldSpec::read`. One decision function,
//! [`classify_stamps`], evaluates Table 1 over them:
//! [`BatchScanner::classify_batch`] runs it over a page's pairs gathered
//! into column-strided arrays (`wh_storage::batch`), then applies pushed
//! filters into a selection bitmap; [`BatchScanner::classify_record`] runs
//! it over one record's. Only visible records are decoded, through a
//! precompiled per-column plan that reads exactly the projected columns
//! (pre-update columns are substituted per Table 1's note for a
//! pre-update verdict).
//!
//! The `batch_path_matches_reference` tests lock `classify_record`,
//! `classify_batch` and `extract` together on the paper's fixtures
//! (Figure 4, Figure 7) and on randomized histories.

use crate::error::VnlResult;
use crate::schema_ext::ExtLayout;
use crate::version::{Operation, VersionNo};
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;
use wh_sql::{FilterLiteral, FilterOp, RowView, ScanFilter, SqlResult};
use wh_storage::batch::{FieldSpec, RecordBatch, NULL_SENTINEL};
use wh_storage::{StorageError, StorageResult};
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

/// A gathered `(vn, op)` pair as a stamp; `None` when the slot is empty —
/// the byte-level twin of [`ExtLayout::slot`].
fn stamp(vn: i64, op: i64) -> Option<(VersionNo, Operation)> {
    let op = match op {
        OP_I => Operation::Insert,
        OP_U => Operation::Update,
        OP_D => Operation::Delete,
        _ => return None,
    };
    (vn != NULL_SENTINEL).then_some((vn as VersionNo, op))
}

/// Slot `j`'s `(tupleVN, operation)` of record `i`, read from a batch
/// gathered with a scanner's [`BatchScanner::specs`]; `None` when the slot
/// is empty.
pub(crate) fn stamp_at(batch: &RecordBatch, i: usize, j: usize) -> Option<(VersionNo, Operation)> {
    stamp(batch.field(2 * j)[i], batch.field(2 * j + 1)[i])
}

/// Table 1 / §5 for one tuple whose slot 0 is stamped, `slot(j)` reading
/// slot `j`'s `(vn_j, op_j)` — the one production definition of the rule,
/// behind [`BatchScanner::classify_batch`] and
/// [`BatchScanner::classify_record`]. The slot walk is mask/select
/// arithmetic only: a `contiguous` mask reproduces `extract`'s
/// stop-at-first-empty rule, and running accumulators carry `j*`, its
/// operation code and the oldest recorded VN.
#[inline(always)]
fn classify_stamps(
    n_slots: usize,
    session_vn: i64,
    slot: impl Fn(usize) -> (i64, i64),
) -> Classified {
    let (vn1, op1) = slot(0);
    if session_vn >= vn1 {
        // Case 1: at or past the newest modification.
        return if op1 == OP_D {
            Classified::Ignore
        } else {
            Classified::Current
        };
    }
    // Case 2/3: walk the older slots branch-free.
    let mut contiguous = true;
    let mut oldest = 0usize;
    let mut vn_oldest = vn1;
    let mut j_star = 0usize;
    let mut op_star = op1;
    for j in 1..n_slots {
        let (vn_j, op_j) = slot(j);
        let valid = vn_j != NULL_SENTINEL && (op_j == OP_I || op_j == OP_U || op_j == OP_D);
        let recorded = contiguous & valid;
        contiguous = recorded;
        oldest = if recorded { j } else { oldest };
        vn_oldest = if recorded { vn_j } else { vn_oldest };
        let newer = recorded & (vn_j > session_vn);
        j_star = if newer { j } else { j_star };
        op_star = if newer { op_j } else { op_star };
    }
    let slots_full = oldest == n_slots - 1;
    if slots_full && j_star == oldest && session_vn + 1 < vn_oldest {
        Classified::Expired
    } else if op_star == OP_I {
        Classified::Ignore
    } else {
        Classified::Pre(j_star)
    }
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
/// pool. The default (empty) pool interns nothing — each string decodes to
/// a fresh `Arc<str>` — which is what a point read wants: one record has no
/// run to amortize a pool over.
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
        let s = padded_str(raw)?;
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

/// The string stored in raw `Char` slot bytes, space-padded to the column
/// width as `RowCodec` encodes them.
fn padded_str(raw: &[u8]) -> TypeResult<&str> {
    let trimmed = match raw.iter().rposition(|&b| b != b' ') {
        Some(end) => &raw[..=end],
        None => &raw[..0],
    };
    std::str::from_utf8(trimmed).map_err(|e| TypeError::Codec(e.to_string()))
}

/// A compiled [`ScanFilter`] — one pushed-down `column <op> literal`,
/// decided on the column's *version-visible* stored image before any row
/// decode. Images are indexed by verdict — `0` for `Current`, `1 + j` for
/// `Pre(j)` (all the same image when the column is not updatable).
/// `wh_sql::pushdown` decides which WHERE conjuncts are eligible.
#[derive(Debug, Clone)]
enum FilterPlan {
    /// An integer or date column: the gathered field holding each image.
    /// A gathered [`NULL_SENTINEL`] is settled by that field's null bit —
    /// an `Int64` column can store `i64::MIN` itself.
    Int {
        fields: Vec<usize>,
        op: FilterOp,
        literal: i64,
    },
    /// `=` (`eq`) or `<>` on a `Char` column: each image's padded bytes,
    /// compared in the record with the literal padded to the same width.
    Padded {
        images: Vec<ColPlan>,
        eq: bool,
        literal: Box<[u8]>,
    },
}

impl FilterPlan {
    /// Whether record `i` of `batch`, read through `image`, is non-NULL and
    /// satisfies the filter. `fields` are the batch's gathered columns for
    /// `specs`.
    fn passes(
        &self,
        specs: &[FieldSpec],
        fields: &[&[i64]],
        batch: &RecordBatch,
        i: usize,
        image: usize,
    ) -> bool {
        match self {
            FilterPlan::Int {
                fields: at,
                op,
                literal,
            } => {
                let f = at[image];
                let v = fields[f][i];
                let present = v != NULL_SENTINEL || {
                    let spec = &specs[f];
                    batch.record(i)[spec.null_byte] & spec.null_mask == 0
                };
                present && op.eval(v, *literal)
            }
            FilterPlan::Padded {
                images,
                eq,
                literal,
            } => {
                let p = &images[image];
                let rec = batch.record(i);
                rec[p.null_byte] & p.null_mask == 0
                    && (rec[p.offset..p.offset + literal.len()] == **literal) == *eq
            }
        }
    }
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
    /// (sparse projection — see [`BatchScanner::new_sparse_filtered`]).
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
    /// `Value::Null` — with pushed-down predicate filters. This is the SQL
    /// executor's projection pushdown: the row shape stays
    /// schema-compatible (expressions address columns by index) while
    /// unreferenced columns skip decoding entirely. Records whose
    /// version-visible filter columns fail any filter are demoted to
    /// [`Classified::Ignore`] during classification, before any decode.
    /// Expiration detection is unaffected — an expired tuple still reports
    /// [`Classified::Expired`] whether or not a filter would have dropped
    /// it: expiration is a visibility fact, decided before any predicate is
    /// looked at.
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
        // Where the version stamps live, `[vn_0, op_0, vn_1, op_1, …]`: the
        // one definition every stamp reader indexes (fields `2j`, `2j + 1`).
        let mut specs: Vec<FieldSpec> = (0..layout.slots())
            .flat_map(|j| [layout.vn_col(j), layout.op_col(j)].map(|c| field_spec(codec, c)))
            .collect();
        // A filter column's image per verdict: the base column, then each
        // slot's pre-update copy when the column is updatable (the plan
        // then picks the image matching the record's verdict).
        let images = |col: usize| -> Vec<usize> {
            let base = layout.base_col(col);
            let mut cols = vec![base];
            match layout.updatable().iter().position(|&u| u == col) {
                Some(u_pos) => cols.extend((0..layout.slots()).map(|j| layout.pre_set(j)[u_pos])),
                None => cols.extend(std::iter::repeat_n(base, layout.slots())),
            }
            cols
        };
        let filters = filters
            .iter()
            .map(|f| match &f.literal {
                // Integer images gather after the version fields, each
                // distinct column once.
                FilterLiteral::Int(literal) => {
                    let cols = images(f.column);
                    let base_idx = specs.len();
                    specs.push(field_spec(codec, cols[0]));
                    let fields = cols
                        .iter()
                        .map(|&c| {
                            if c == cols[0] {
                                base_idx
                            } else {
                                specs.push(field_spec(codec, c));
                                specs.len() - 1
                            }
                        })
                        .collect();
                    FilterPlan::Int {
                        fields,
                        op: f.op,
                        literal: *literal,
                    }
                }
                FilterLiteral::Padded(bytes) => FilterPlan::Padded {
                    images: images(f.column).into_iter().map(plan_for).collect(),
                    eq: f.op == FilterOp::Eq,
                    literal: bytes.clone(),
                },
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

    /// Classify every record of `batch` — Table 1 / §5
    /// ([`classify_stamps`]) over the gathered version columns, then the
    /// pushed-down filters — into `out`.
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
            debug_assert_ne!(fields[0][i], NULL_SENTINEL, "slot 0 is stamped");
            let code = classify_stamps(self.n_slots, session_vn, |j| {
                (fields[2 * j][i], fields[2 * j + 1][i])
            });
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
                    let pass = self
                        .filters
                        .iter()
                        .all(|f| f.passes(&self.specs, &fields, batch, i, image));
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

    /// Classify one encoded record — the point-read twin of
    /// [`BatchScanner::classify_batch`]: [`classify_stamps`] over the
    /// stamps read straight from `rec` ([`FieldSpec::read`]), with no
    /// pushed filter applied. A record of the wrong width, or one without a
    /// slot-0 stamp, is [`StorageError::Corrupt`].
    pub fn classify_record(&self, rec: &[u8], session_vn: VersionNo) -> StorageResult<Classified> {
        self.stamp_of(rec)?;
        let slot = |j: usize| (self.specs[2 * j].read(rec), self.specs[2 * j + 1].read(rec));
        Ok(classify_stamps(self.n_slots, session_vn as i64, slot))
    }

    /// Slot 0's `(tupleVN, operation)` of one encoded record, read with the
    /// gather specs. A record of the wrong width, or one without a slot-0
    /// stamp, is [`StorageError::Corrupt`].
    pub(crate) fn stamp_of(&self, rec: &[u8]) -> StorageResult<(VersionNo, Operation)> {
        let rec = self
            .checked_record(rec)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        self.slot_of(rec, 0)
            .ok_or_else(|| StorageError::Corrupt("no slot-0 stamp".into()))
    }

    /// Slot `j`'s `(tupleVN, operation)` of a record of this scanner's
    /// width, read with the gather specs; `None` when the slot is empty.
    pub(crate) fn slot_of(&self, rec: &[u8], j: usize) -> Option<(VersionNo, Operation)> {
        stamp(self.specs[2 * j].read(rec), self.specs[2 * j + 1].read(rec))
    }

    /// The current image of the encoded record `rec` as a [`BatchRow`]: what
    /// a maintenance writer decides on, in place under the page latch.
    pub(crate) fn current_row<'a, 'p>(
        &'a self,
        rec: &'a [u8],
        pool: &'a RefCell<&'p mut StrPool>,
    ) -> TypeResult<BatchRow<'a, 'p>> {
        Ok(BatchRow {
            rec: self.checked_record(rec)?,
            plan: &self.current_plan,
            pool,
        })
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

    /// The decode plan for a verdict; `None` for an invisible one.
    fn plan(&self, which: Classified) -> Option<&[Option<ColPlan>]> {
        match which {
            Classified::Current => Some(&self.current_plan),
            Classified::Pre(j) => Some(&self.pre_plans[j]),
            Classified::Ignore | Classified::Expired => None,
        }
    }

    /// `rec`, checked to have the width every plan offset was validated
    /// against: what makes the plans' unchecked reads sound.
    fn checked_record<'a>(&self, rec: &'a [u8]) -> TypeResult<&'a [u8]> {
        if rec.len() != self.record_len {
            return Err(TypeError::Codec(format!(
                "record of {} bytes under a {}-byte plan",
                rec.len(),
                self.record_len
            )));
        }
        Ok(rec)
    }

    /// Decode the encoded record `rec` through the precompiled plan for its
    /// verdict (`Current` or `Pre(j)`; anything else is an error). Value-level
    /// checks (UTF-8, date validity) stay; string columns are interned
    /// through `pool` (from [`BatchScanner::new_pool`]).
    pub fn decode_visible(
        &self,
        rec: &[u8],
        which: Classified,
        pool: &mut StrPool,
    ) -> TypeResult<Row> {
        let plan = self.plan(which).ok_or_else(|| {
            TypeError::Codec(format!("a record classified {which:?} is not visible"))
        })?;
        decode_row(plan, self.checked_record(rec)?, pool)
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
            if classes.is_selected(i) {
                visit(self.decode_visible(batch.record(i), code, pool)?)?;
            }
        }
        Ok(())
    }

    /// The executor's delivery over a classified batch: each selected
    /// record, in batch order, as a borrowed [`BatchRow`] — nothing is
    /// decoded unless `visit` asks.
    pub(crate) fn view_selected(
        &self,
        batch: &RecordBatch,
        classes: &BatchClasses,
        pool: &mut StrPool,
        mut visit: impl FnMut(&BatchRow<'_, '_>) -> VnlResult<()>,
    ) -> VnlResult<()> {
        let pool = RefCell::new(pool);
        for (i, &code) in classes.codes().iter().enumerate() {
            if let Some(plan) = self.plan(code) {
                let rec = self.checked_record(batch.record(i))?;
                visit(&BatchRow {
                    rec,
                    plan,
                    pool: &pool,
                })?;
            }
        }
        Ok(())
    }
}

/// One visible record of a classified batch, viewed in place through the
/// decode plan for its verdict (so a `Pre(j)` row reads slot `j`'s
/// pre-update copies): the executor's [`RowView`] of a session row.
/// Integer and `Char` images are read straight from the record; only
/// `value`/`to_row` build `Value`s, interning strings through the
/// partition's pool. Built only by [`BatchScanner::view_selected`] and
/// [`BatchScanner::current_row`], from a record whose width
/// [`BatchScanner::checked_record`] checked — what the plan's unchecked
/// reads rely on.
pub(crate) struct BatchRow<'a, 'p> {
    rec: &'a [u8],
    plan: &'a [Option<ColPlan>],
    pool: &'a RefCell<&'p mut StrPool>,
}

impl RowView for BatchRow<'_, '_> {
    fn value(&self, col: usize) -> SqlResult<Value> {
        match &self.plan[col] {
            None => Ok(Value::Null),
            Some(p) => Ok(decode_planned(
                p,
                self.rec,
                self.pool.borrow_mut().cols.get_mut(col),
            )?),
        }
    }

    fn int(&self, col: usize) -> Option<i64> {
        let p = self.plan[col].as_ref()?;
        // safety: `BatchScanner::checked_record` checked that `rec` has the
        // record width every ColPlan offset was validated against, so the
        // null byte and the field's `width` bytes at `offset` are in bounds;
        // the field is read unaligned.
        unsafe {
            if self.rec.get_unchecked(p.null_byte) & p.null_mask != 0 {
                return None;
            }
            let ptr = self.rec.as_ptr().add(p.offset);
            match p.ty {
                DataType::UInt8 => Some(i64::from(*ptr)),
                DataType::Int32 => Some(i64::from(i32::from_le_bytes(std::ptr::read_unaligned(
                    ptr.cast::<[u8; 4]>(),
                )))),
                DataType::Int64 => Some(i64::from_le_bytes(std::ptr::read_unaligned(
                    ptr.cast::<[u8; 8]>(),
                ))),
                _ => None,
            }
        }
    }

    fn raw(&self, col: usize) -> Option<&[u8]> {
        let p = self.plan[col].as_ref()?;
        let DataType::Char(len) = p.ty else {
            return None;
        };
        // safety: as in `int` — the width check in
        // `BatchScanner::checked_record` puts the null byte and the `len`
        // padded bytes at `offset` inside `rec`.
        unsafe {
            if self.rec.get_unchecked(p.null_byte) & p.null_mask != 0 {
                return None;
            }
            Some(self.rec.get_unchecked(p.offset..p.offset + len))
        }
    }

    fn to_row(&self) -> SqlResult<Row> {
        Ok(decode_row(
            self.plan,
            self.rec,
            &mut self.pool.borrow_mut(),
        )?)
    }
}

/// Decode a whole record through `plan` (unplanned columns are NULL). The
/// caller checked `rec`'s width ([`BatchScanner::checked_record`]).
fn decode_row(plan: &[Option<ColPlan>], rec: &[u8], pool: &mut StrPool) -> TypeResult<Row> {
    // Sized up front: a collect of `Result`s would grow it.
    let mut row = Vec::with_capacity(plan.len());
    for (c, col) in plan.iter().enumerate() {
        row.push(match col {
            None => Value::Null,
            Some(p) => decode_planned(p, rec, pool.cols.get_mut(c))?,
        });
    }
    Ok(row)
}

/// Decode one planned column from a record image, interning a string
/// through `pool` when there is one. The caller guarantees `rec.len()`
/// equals the record width the plan was built against (see
/// [`BatchScanner::checked_record`]).
fn decode_planned(p: &ColPlan, rec: &[u8], pool: Option<&mut ColPool>) -> TypeResult<Value> {
    // safety: ColPlan offsets fit the record width the plan was built for
    // (`col_byte_range` derives them from the codec, `debug_assert` in
    // `build`), and every caller passes a record that
    // `BatchScanner::checked_record` checked has that width — so every
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
                Value::Str(match pool {
                    Some(pool) => pool.intern(raw)?,
                    None => Arc::from(padded_str(raw)?),
                })
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
            let row = classes.is_selected(0).then(|| {
                scanner
                    .decode_visible(batch.record(0), code, &mut pool)
                    .unwrap()
            });
            verdict = Some((code, row));
            Ok(())
        })
        .unwrap();
        verdict.unwrap()
    }

    /// Assert the record path and the batch path agree with each other and
    /// with the reference `extract` for one extended row across a range of
    /// session versions.
    fn assert_agrees(l: &ExtLayout, ext: &Row, vns: impl Iterator<Item = VersionNo>) {
        let c = codec(l);
        let batched = BatchScanner::new(l, &c, None);
        let buf = c.encode(ext).unwrap();
        let mut pool = batched.new_pool();
        for vn in vns {
            let reference = extract(l, ext, vn);
            let (code, row) = batch_verdict(&batched, &buf, vn);
            let single = batched.classify_record(&buf, vn).unwrap();
            assert_eq!(single, code, "record path vs batch path at sessionVN {vn}");
            let single_row = matches!(single, Classified::Current | Classified::Pre(_))
                .then(|| batched.decode_visible(&buf, single, &mut pool).unwrap());
            assert_eq!(single_row, row, "record-path row at sessionVN {vn}");
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
        // Miri interprets every gather and decode: fewer histories there.
        let cases = if cfg!(miri) { 12 } else { 200 };
        for _ in 0..cases {
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
        // GC holes. At every step the walker's byte-level `(rid, vn, op)` must
        // equal `ExtLayout::slot` on the decoded row, which is what per-tuple
        // DML still decides by.
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
                seen += 1;
                deepest = deepest.max(older.count() as u64);
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
            // Miri: enough rounds to fill every slot, not the full sweep.
            for round in 0..if cfg!(miri) { 12 } else { 40 } {
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
    fn record_path_reports_a_bad_width_or_a_missing_stamp_as_corrupt() {
        let l = layout(2);
        let c = codec(&l);
        let scanner = BatchScanner::new(&l, &c, None);
        let live = row2(3, "i", "X", "p", 1, Value::from(1), Value::Null);
        let buf = c.encode(&live).unwrap();
        assert_eq!(scanner.classify_record(&buf, 3), Ok(Classified::Current));
        let corrupt = |r| matches!(r, Err(StorageError::Corrupt(_)));
        assert!(corrupt(scanner.classify_record(&buf[1..], 3)), "short");
        let mut unstamped = live.clone();
        unstamped[l.vn_col(0)] = Value::Null;
        let buf = c.encode(&unstamped).unwrap();
        assert!(corrupt(scanner.classify_record(&buf, 3)), "no slot-0 VN");
        let mut unstamped = live;
        unstamped[l.op_col(0)] = Value::Null;
        let buf = c.encode(&unstamped).unwrap();
        assert!(corrupt(scanner.classify_record(&buf, 3)), "no slot-0 op");
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
                        .decode_visible(batch.record(i), classes.codes()[i], &mut pool)
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
            literal: FilterLiteral::Int(9_000),
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
                        .decode_visible(batch.record(i), classes.codes()[i], &mut pool)
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
            literal: FilterLiteral::Int(i64::from(Date::ymd(1996, 10, 14).to_packed())),
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
            literal: FilterLiteral::Int(i64::MAX),
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

    /// `(k Int32, tiny UInt8, big Int64 updatable, tag Char(4) updatable)`
    /// under 2VNL.
    fn typed_layout() -> ExtLayout {
        use wh_types::{Column, Schema};
        let schema = Schema::with_key_names(
            vec![
                Column::new("k", DataType::Int32),
                Column::new("tiny", DataType::UInt8),
                Column::updatable("big", DataType::Int64),
                Column::updatable("tag", DataType::Char(4)),
            ],
            &["k"],
        )
        .unwrap();
        ExtLayout::new(schema, 2).unwrap()
    }

    /// An extended `typed_layout` row: slot 0 `(vn, op)`, current
    /// `(big, tag)`, and slot 0's pre-update `(big, tag)`.
    fn typed_row(
        l: &ExtLayout,
        k: i64,
        vn: i64,
        op: &str,
        cur: [Value; 2],
        pre: [Value; 2],
    ) -> Row {
        let mut ext = vec![Value::Null; l.ext_schema().arity()];
        ext[l.base_col(0)] = Value::from(k);
        ext[l.base_col(1)] = Value::from(200 + k);
        ext[l.vn_col(0)] = Value::from(vn);
        ext[l.op_col(0)] = Value::from(op);
        let [big, tag] = cur;
        ext[l.base_col(2)] = big;
        ext[l.base_col(3)] = tag;
        let [pre_big, pre_tag] = pre;
        ext[l.pre_set(0)[0]] = pre_big;
        ext[l.pre_set(0)[1]] = pre_tag;
        ext
    }

    /// The verdicts of `rows` in one batch at `session_vn`.
    fn classify_rows(
        scanner: &BatchScanner,
        c: &RowCodec,
        rows: &[Row],
        vn: VersionNo,
    ) -> Vec<Classified> {
        use std::sync::Arc;
        use wh_storage::{HeapFile, IoStats};
        let heap = HeapFile::new(c.encoded_len(), Arc::new(IoStats::new())).unwrap();
        for r in rows {
            heap.insert(&c.encode(r).unwrap()).unwrap();
        }
        let mut classes = BatchClasses::default();
        let mut codes = Vec::new();
        heap.scan_batches(0..1, scanner.specs(), |batch| {
            scanner.classify_batch(batch, vn, &mut classes);
            codes = classes.codes().to_vec();
            Ok(())
        })
        .unwrap();
        codes
    }

    #[test]
    fn pushed_int64_filter_reads_a_stored_min_as_a_value_not_null() {
        // The gathered image of a stored i64::MIN is the NULL sentinel; the
        // null bit, not the image, says which it is. `big <= 0` keeps a
        // stored i64::MIN — current or pre-update — and drops a NULL.
        let l = typed_layout();
        let c = codec(&l);
        let filter = ScanFilter {
            column: 2,
            op: FilterOp::LtEq,
            literal: FilterLiteral::Int(0),
        };
        let scanner = BatchScanner::new_sparse_filtered(&l, &c, &[0], &[filter]);
        let tag = || Value::from("t");
        let min = || Value::from(i64::MIN);
        let rows = vec![
            typed_row(&l, 0, 3, "i", [min(), tag()], [Value::Null, Value::Null]),
            typed_row(
                &l,
                1,
                3,
                "i",
                [Value::Null, tag()],
                [Value::Null, Value::Null],
            ),
            // Pre(0) at sessionVN 3: the pre-image is i64::MIN, the current
            // value 5 would fail.
            typed_row(&l, 2, 4, "u", [Value::from(5), tag()], [min(), tag()]),
            // Pre(0): the current i64::MIN would pass, the pre-image is NULL.
            typed_row(&l, 3, 4, "u", [min(), tag()], [Value::Null, tag()]),
            typed_row(
                &l,
                4,
                3,
                "i",
                [Value::from(1), tag()],
                [Value::Null, Value::Null],
            ),
        ];
        assert_eq!(
            classify_rows(&scanner, &c, &rows, 3),
            [
                Classified::Current,
                Classified::Ignore,
                Classified::Pre(0),
                Classified::Ignore,
                Classified::Ignore,
            ]
        );
    }

    #[test]
    fn pushed_char_filter_compares_padded_version_visible_bytes() {
        // `tag = 'ab'` and `tag <> 'ab'` on padded bytes: a prefix ('a') and
        // an extension ('abc') of the literal are different strings, NULL
        // passes neither, and a Pre(0) row is judged by its pre-image.
        let l = typed_layout();
        let c = codec(&l);
        let padded = |op| ScanFilter {
            column: 3,
            op,
            literal: FilterLiteral::Padded((*b"ab  ").into()),
        };
        let big = || Value::from(1);
        let rows = vec![
            typed_row(
                &l,
                0,
                3,
                "i",
                [big(), Value::from("ab")],
                [Value::Null, Value::Null],
            ),
            typed_row(
                &l,
                1,
                3,
                "i",
                [big(), Value::from("a")],
                [Value::Null, Value::Null],
            ),
            typed_row(
                &l,
                2,
                3,
                "i",
                [big(), Value::from("abc")],
                [Value::Null, Value::Null],
            ),
            typed_row(
                &l,
                3,
                3,
                "i",
                [big(), Value::Null],
                [Value::Null, Value::Null],
            ),
            // Pre(0): current 'ab' would pass `=`, the pre-image 'abcd' fails.
            typed_row(
                &l,
                4,
                4,
                "u",
                [big(), Value::from("ab")],
                [big(), Value::from("abcd")],
            ),
        ];
        let eq = BatchScanner::new_sparse_filtered(&l, &c, &[0], &[padded(FilterOp::Eq)]);
        let ne = BatchScanner::new_sparse_filtered(&l, &c, &[0], &[padded(FilterOp::NotEq)]);
        use Classified::{Current, Ignore, Pre};
        assert_eq!(
            classify_rows(&eq, &c, &rows, 3),
            [Current, Ignore, Ignore, Ignore, Ignore]
        );
        assert_eq!(
            classify_rows(&ne, &c, &rows, 3),
            [Ignore, Current, Current, Ignore, Pre(0)]
        );
    }

    #[test]
    fn row_view_reads_typed_images_in_place() {
        // The executor's view of a selected record: `int`/`raw` read the
        // version-visible bytes unaligned and in place, and agree with the
        // decoded row — NULLs included, pre-images for a Pre(0) verdict.
        let l = typed_layout();
        let c = codec(&l);
        let scanner = BatchScanner::new(&l, &c, None);
        let rows = vec![
            typed_row(
                &l,
                7,
                3,
                "i",
                [Value::from(i64::MIN), Value::from("ab")],
                [Value::Null, Value::Null],
            ),
            typed_row(
                &l,
                -8,
                3,
                "i",
                [Value::Null, Value::Null],
                [Value::Null, Value::Null],
            ),
            typed_row(
                &l,
                9,
                4,
                "u",
                [Value::from(5), Value::from("wxyz")],
                [Value::from(-6), Value::from("")],
            ),
        ];
        use std::sync::Arc;
        use wh_storage::{HeapFile, IoStats};
        let heap = HeapFile::new(c.encoded_len(), Arc::new(IoStats::new())).unwrap();
        for r in &rows {
            heap.insert(&c.encode(r).unwrap()).unwrap();
        }
        let mut classes = BatchClasses::default();
        let mut pool = scanner.new_pool();
        let mut seen = Vec::new();
        heap.scan_batches(0..1, scanner.specs(), |batch| {
            scanner.classify_batch(batch, 3, &mut classes);
            scanner
                .view_selected(batch, &classes, &mut pool, |row| {
                    let decoded = row.to_row().unwrap();
                    for (col, want) in decoded.iter().enumerate().take(3) {
                        assert_eq!(row.int(col), want.as_int(), "col {col}");
                        assert_eq!(row.value(col).unwrap(), *want);
                    }
                    let raw = row.raw(3).map(|b| String::from_utf8(b.to_vec()).unwrap());
                    seen.push((row.int(0), row.int(1), row.int(2), raw));
                    Ok(())
                })
                .unwrap();
            Ok(())
        })
        .unwrap();
        let padded = |s: &str| Some(s.to_string());
        assert_eq!(
            seen,
            [
                (Some(7), Some(207), Some(i64::MIN), padded("ab  ")),
                (Some(-8), Some(192), None, None),
                (Some(9), Some(209), Some(-6), padded("    ")),
            ]
        );
    }

    #[test]
    fn sparse_plan_decodes_needed_columns_full_arity() {
        let l = layout(2);
        let c = codec(&l);
        // Need only city (0) and total_sales (4): full-arity rows with
        // NULLs in the unneeded positions.
        let sparse = BatchScanner::new_sparse_filtered(&l, &c, &[0, 4], &[]);
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
