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
    /// a gatherable width. Run once per scan, so the per-record loops can
    /// use unchecked indexing.
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

    /// Gather the requested fields into column-strided arrays. Runs
    /// *after* the page latch is released: it touches only the copied
    /// bytes. `specs` must have been validated against `record_len`.
    pub(crate) fn gather(&mut self, specs: &[FieldSpec]) {
        let n = self.slots.len();
        self.fields.resize_with(specs.len(), Vec::new);
        for (f, spec) in specs.iter().enumerate() {
            let col = &mut self.fields[f];
            col.clear();
            col.reserve(n);
            let rl = self.record_len;
            let bytes = &self.bytes[..];
            debug_assert!(bytes.len() == n * rl);
            debug_assert!(spec.offset + spec.width <= rl && spec.null_byte < rl);
            for i in 0..n {
                let base = i * rl;
                // safety: `begin`/`push_*` maintain `bytes.len() == n * rl`,
                // and `FieldSpec::validate` proved `null_byte < rl` and
                // `offset + width <= rl`, so every index below is in
                // bounds for record `i`.
                let v = unsafe {
                    if bytes.get_unchecked(base + spec.null_byte) & spec.null_mask != 0 {
                        NULL_SENTINEL
                    } else {
                        let p = bytes.as_ptr().add(base + spec.offset);
                        match spec.width {
                            1 => i64::from(*p),
                            4 => i64::from(i32::from_le_bytes(std::ptr::read_unaligned(
                                p as *const [u8; 4],
                            ))),
                            _ => i64::from_le_bytes(std::ptr::read_unaligned(p as *const [u8; 8])),
                        }
                    }
                };
                col.push(v);
            }
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
