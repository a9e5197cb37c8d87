//! Page-level batch accessor: column-strided gathers over copied records.
//!
//! The heap's page loop copies a page's live records into a
//! [`RecordBatch`] in one dense `memcpy` (the only work under the latch)
//! and then, off-latch, *gathers* the version fields every record shares —
//! the `(tupleVN_j, operation_j)` pairs of the 2VNL/nVNL layout — into
//! column-strided `i64` arrays. The Table-1 visibility test then runs as
//! tight loops over those arrays (see `wh_vnl::scan::BatchScanner`), the
//! maintenance-side walks read slot 0's stamp from the same arrays (see
//! `wh_vnl::VnlTable::walk_stamps`), and only the records a consumer keeps
//! are decoded at all.
//!
//! The batch is storage-schema-agnostic: callers describe each field to
//! gather with a [`FieldSpec`] (byte offset, width, null-bitmap position),
//! which the heap validates against the record width once per scan.

use crate::error::{StorageError, StorageResult};
use crate::page::Rid;

/// Sentinel gathered for a NULL field. Version numbers and operation bytes
/// are small non-negative values, so `i64::MIN` is unambiguous.
pub const NULL_SENTINEL: i64 = i64::MIN;

/// One fixed-width field to gather from every record of a batch.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    /// Byte offset of the field within the record (including the null
    /// bitmap prefix).
    pub offset: usize,
    /// Field width in bytes: 1 (u8), 4 (i32/u32 LE) or 8 (i64 LE).
    pub width: usize,
    /// Byte of the null bitmap holding this field's null bit.
    pub null_byte: usize,
    /// Mask selecting the null bit within that byte.
    pub null_mask: u8,
}

impl FieldSpec {
    /// Check the spec stays inside a record of `record_len` bytes and has
    /// a gatherable width. Run once per scan, so a spec that does not fit
    /// fails the scan up front rather than [`FieldSpec::read`] per record.
    pub fn validate(&self, record_len: usize) -> StorageResult<()> {
        let ok = matches!(self.width, 1 | 4 | 8)
            && self
                .offset
                .checked_add(self.width)
                .is_some_and(|end| end <= record_len)
            && self.null_byte < record_len;
        if ok {
            Ok(())
        } else {
            Err(StorageError::RecordTooLarge(self.offset + self.width))
        }
    }

    /// The field's value in `record`, widened to `i64`: width 1
    /// zero-extends (`u8`), width 4 sign-extends (`i32` LE), width 8 loads
    /// an `i64` LE; a set null bit reads as [`NULL_SENTINEL`]. The one
    /// definition of a gathered field — [`RecordBatch::gather`] is this
    /// per record, and single-record readers call it directly. Panics if
    /// the spec does not fit `record` (see [`FieldSpec::validate`]).
    #[inline(always)]
    pub fn read(&self, record: &[u8]) -> i64 {
        if record[self.null_byte] & self.null_mask != 0 {
            return NULL_SENTINEL;
        }
        // The slices have the arrays' lengths, so the conversions cannot
        // fail and compile to plain loads.
        let at = self.offset;
        match self.width {
            1 => i64::from(record[at]),
            4 => i32::from_le_bytes(record[at..at + 4].try_into().unwrap_or_default()).into(),
            _ => i64::from_le_bytes(record[at..at + 8].try_into().unwrap_or_default()),
        }
    }
}

/// The live records of one page, copied out dense, plus their gathered
/// field columns. Reused across pages by the scan driver to amortize
/// allocations.
#[derive(Debug, Default)]
pub struct RecordBatch {
    page_no: u32,
    record_len: usize,
    slots: Vec<u16>,
    bytes: Vec<u8>,
    fields: Vec<Vec<i64>>,
}

impl RecordBatch {
    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Page this batch was copied from.
    pub fn page_no(&self) -> u32 {
        self.page_no
    }

    /// The slot numbers of the copied records, in batch order.
    pub fn slots(&self) -> &[u16] {
        &self.slots
    }

    /// The RID record `i` was copied from.
    pub fn rid(&self, i: usize) -> Rid {
        Rid::new(self.page_no, self.slots[i])
    }

    /// The raw bytes of record `i`.
    pub fn record(&self, i: usize) -> &[u8] {
        &self.bytes[i * self.record_len..(i + 1) * self.record_len]
    }

    /// Gathered column `f` (one `i64` per record; NULLs are
    /// [`NULL_SENTINEL`]).
    pub fn field(&self, f: usize) -> &[i64] {
        &self.fields[f]
    }

    /// Reset for refilling from a new page (called under the page latch —
    /// keep it trivial).
    pub(crate) fn begin(&mut self, page_no: u32, record_len: usize, capacity: usize) {
        self.page_no = page_no;
        self.record_len = record_len;
        self.slots.clear();
        self.bytes.clear();
        self.slots.reserve(capacity);
        self.bytes.reserve(capacity * record_len);
    }

    /// Append one live record (called under the page latch).
    pub(crate) fn push_record(&mut self, slot: u16, record: &[u8]) {
        self.slots.push(slot);
        self.bytes.extend_from_slice(record);
    }

    /// Append a dense run of records `[0, count)` in one copy (the
    /// fast path for fully-live pages; called under the page latch).
    pub(crate) fn push_dense(&mut self, count: u16, data: &[u8]) {
        self.slots.extend(0..count);
        self.bytes.extend_from_slice(data);
    }

    /// Gather the requested fields into column-strided arrays
    /// ([`FieldSpec::read`] per record). Runs *after* the page latch is
    /// released: it touches only the copied bytes. `specs` must have been
    /// validated against `record_len`.
    pub(crate) fn gather(&mut self, specs: &[FieldSpec]) {
        let rl = self.record_len;
        self.fields.resize_with(specs.len(), Vec::new);
        for (spec, col) in specs.iter().zip(&mut self.fields) {
            debug_assert!(spec.validate(rl).is_ok());
            col.clear();
            col.extend(self.bytes.chunks_exact(rl).map(|rec| spec.read(rec)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(offset: usize, width: usize, bit: usize) -> FieldSpec {
        FieldSpec {
            offset,
            width,
            null_byte: bit / 8,
            null_mask: 1 << (bit % 8),
        }
    }

    /// Records: 1 bitmap byte, then a u8 field and an i64 field.
    fn record(bitmap: u8, a: u8, b: i64) -> Vec<u8> {
        let mut r = vec![bitmap, a];
        r.extend_from_slice(&b.to_le_bytes());
        r
    }

    #[test]
    fn gather_reads_fields_and_nulls() {
        let mut batch = RecordBatch::default();
        batch.begin(7, 10, 4);
        batch.push_record(0, &record(0, 5, -1));
        batch.push_record(2, &record(0b10, 9, 1 << 40));
        batch.push_record(3, &record(0b01, 9, 3));
        let specs = [spec(1, 1, 0), spec(2, 8, 1)];
        for s in &specs {
            s.validate(10).unwrap();
        }
        batch.gather(&specs);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.page_no(), 7);
        assert_eq!(batch.slots(), &[0, 2, 3]);
        assert_eq!(batch.rid(1), Rid::new(7, 2));
        assert_eq!(batch.field(0), &[5, 9, NULL_SENTINEL]);
        assert_eq!(batch.field(1), &[-1, NULL_SENTINEL, 3]);
        assert_eq!(batch.record(1)[1], 9);
    }

    #[test]
    fn gather_i32_field_sign_extends() {
        let mut batch = RecordBatch::default();
        batch.begin(0, 5, 1);
        let mut r = vec![0u8];
        r.extend_from_slice(&(-7i32).to_le_bytes());
        batch.push_record(4, &r);
        batch.gather(&[spec(1, 4, 3)]);
        assert_eq!(batch.field(0), &[-7]);
    }

    #[test]
    fn read_widens_each_width_at_unaligned_offsets() {
        // Bitmap byte, then u8 at 1, i32 at 2, i64 at 6, i64 at 14 — none
        // of the multi-byte fields sits on its natural alignment.
        let mut rec = vec![0b1000u8, 0xF0];
        rec.extend_from_slice(&(-7i32).to_le_bytes());
        rec.extend_from_slice(&(-(1i64 << 40)).to_le_bytes());
        rec.extend_from_slice(&i64::MAX.to_le_bytes());
        let (byte, word, long, null) =
            (spec(1, 1, 0), spec(2, 4, 1), spec(6, 8, 2), spec(14, 8, 3));
        for s in [byte, word, long, null] {
            s.validate(rec.len()).unwrap();
        }
        assert_eq!(byte.read(&rec), 0xF0, "u8 zero-extends");
        assert_eq!(word.read(&rec), -7, "i32 sign-extends");
        assert_eq!(long.read(&rec), -(1i64 << 40));
        assert_eq!(null.read(&rec), NULL_SENTINEL, "a set null bit wins");
        // The gather is `read` per record.
        let mut batch = RecordBatch::default();
        batch.begin(0, rec.len(), 1);
        batch.push_record(0, &rec);
        batch.gather(&[byte, word, long, null]);
        assert_eq!(
            (0..4).map(|f| batch.field(f)[0]).collect::<Vec<_>>(),
            [0xF0, -7, -(1i64 << 40), NULL_SENTINEL]
        );
    }

    #[test]
    fn reuse_resets_columns() {
        let mut batch = RecordBatch::default();
        batch.begin(0, 10, 2);
        batch.push_record(0, &record(0, 1, 2));
        batch.gather(&[spec(1, 1, 0)]);
        assert_eq!(batch.field(0), &[1]);
        batch.begin(1, 10, 2);
        batch.push_dense(2, &[record(0, 3, 4), record(0, 5, 6)].concat());
        batch.gather(&[spec(1, 1, 0)]);
        assert_eq!(batch.slots(), &[0, 1]);
        assert_eq!(batch.field(0), &[3, 5]);
    }

    #[test]
    fn validate_rejects_out_of_range_specs() {
        assert!(spec(8, 4, 0).validate(10).is_err(), "field past the end");
        assert!(spec(0, 3, 0).validate(10).is_err(), "odd width");
        assert!(
            FieldSpec {
                offset: 0,
                width: 1,
                null_byte: 10,
                null_mask: 1
            }
            .validate(10)
            .is_err(),
            "null byte past the end"
        );
        assert!(spec(2, 8, 7).validate(10).is_ok());
    }
}
