//! Rows and the fixed-width row codec.
//!
//! Tuples are stored as a null bitmap followed by fixed-width column slots,
//! so a tuple of schema `S` always occupies `ceil(arity/8) + payload_width(S)`
//! bytes. Fixed slots are what make the paper's two required DBMS properties
//! (§4) easy to guarantee in the storage layer: updates happen **in place**
//! (the new image is exactly as wide as the old), and a short page latch
//! suffices to prevent readers from seeing a torn tuple.

use crate::date::Date;
use crate::error::{TypeError, TypeResult};
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// A materialized tuple: one [`Value`] per schema column.
pub type Row = Vec<Value>;

/// Encoder/decoder between [`Row`]s and fixed-width byte images for a given
/// schema.
#[derive(Debug, Clone)]
pub struct RowCodec {
    schema: Schema,
    /// Byte offset of each column slot within the payload area.
    offsets: Vec<usize>,
    bitmap_len: usize,
    payload_len: usize,
}

impl RowCodec {
    /// Build a codec for `schema`.
    pub fn new(schema: Schema) -> Self {
        let mut offsets = Vec::with_capacity(schema.arity());
        let mut off = 0;
        for c in schema.columns() {
            offsets.push(off);
            off += c.ty.byte_width();
        }
        let bitmap_len = schema.arity().div_ceil(8);
        RowCodec {
            schema,
            offsets,
            bitmap_len,
            payload_len: off,
        }
    }

    /// The schema this codec serves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total stored size of one tuple: null bitmap + fixed payload.
    pub fn encoded_len(&self) -> usize {
        self.bitmap_len + self.payload_len
    }

    /// Encode `row` (validated against the schema) into its byte image.
    pub fn encode(&self, row: &[Value]) -> TypeResult<Vec<u8>> {
        self.schema.validate(row)?;
        let mut buf = vec![0u8; self.encoded_len()];
        for (i, (col, val)) in self.schema.columns().iter().zip(row).enumerate() {
            if val.is_null() {
                buf[i / 8] |= 1 << (i % 8);
            } else {
                write_value(&mut buf[self.bitmap_len + self.offsets[i]..], col.ty, val);
            }
        }
        Ok(buf)
    }

    /// Overwrite column `i` of the byte image `buf` with `val`, which is
    /// validated as [`RowCodec::encode`] validates it; on an error `buf` is
    /// unchanged. The slot and the null bit are written as `encode` writes
    /// them, so a patched image is the encoding of the patched row.
    pub fn encode_col(&self, buf: &mut [u8], i: usize, val: &Value) -> TypeResult<()> {
        self.check_len(buf)?;
        let col = &self.schema.columns()[i];
        col.check(val)?;
        let (at, width) = self.col_byte_range(i);
        if val.is_null() {
            buf[i / 8] |= 1 << (i % 8);
            buf[at..at + width].fill(0);
        } else {
            buf[i / 8] &= !(1 << (i % 8));
            write_value(&mut buf[at..], col.ty, val);
        }
        Ok(())
    }

    /// Copy column `from`'s slot and null bit over column `to`'s in the byte
    /// image `buf`: a version slot moving within its record. The two columns
    /// must have one type.
    pub fn move_col(&self, buf: &mut [u8], from: usize, to: usize) -> TypeResult<()> {
        self.check_len(buf)?;
        let cols = self.schema.columns();
        if cols[from].ty != cols[to].ty {
            return Err(TypeError::Codec(format!(
                "cannot move {} into {}",
                cols[from].ty, cols[to].ty
            )));
        }
        let (src, width) = self.col_byte_range(from);
        let (dst, _) = self.col_byte_range(to);
        buf.copy_within(src..src + width, dst);
        let null = buf[from / 8] >> (from % 8) & 1;
        buf[to / 8] = buf[to / 8] & !(1 << (to % 8)) | null << (to % 8);
        Ok(())
    }

    /// `Ok` when `buf` is one record of this codec's width.
    fn check_len(&self, buf: &[u8]) -> TypeResult<()> {
        if buf.len() != self.encoded_len() {
            return Err(TypeError::Codec(format!(
                "expected {} bytes, got {}",
                self.encoded_len(),
                buf.len()
            )));
        }
        Ok(())
    }

    /// Decode a byte image produced by [`RowCodec::encode`].
    pub fn decode(&self, buf: &[u8]) -> TypeResult<Row> {
        self.check_len(buf)?;
        let mut row = Vec::with_capacity(self.schema.arity());
        for i in 0..self.schema.arity() {
            row.push(self.decode_slot(buf, i)?);
        }
        Ok(row)
    }

    /// Decode only column `i` from a byte image of this codec's width.
    ///
    /// This is the projection-pushdown primitive: scans that need a handful
    /// of columns (or just the version-number slots of an extended 2VNL
    /// tuple) can skip materializing the full row.
    pub fn decode_col(&self, buf: &[u8], i: usize) -> TypeResult<Value> {
        self.check_len(buf)?;
        if i >= self.schema.arity() {
            return Err(TypeError::Codec(format!(
                "column {i} out of range for arity {}",
                self.schema.arity()
            )));
        }
        self.decode_slot(buf, i)
    }

    /// Byte offset of column `i`'s fixed slot within a tuple image (bitmap
    /// included), with its width. Exposes the layout to byte-level readers.
    pub fn col_byte_range(&self, i: usize) -> (usize, usize) {
        let ty = self.schema.columns()[i].ty;
        (self.bitmap_len + self.offsets[i], ty.byte_width())
    }

    fn decode_slot(&self, buf: &[u8], i: usize) -> TypeResult<Value> {
        if buf[i / 8] & (1 << (i % 8)) != 0 {
            return Ok(Value::Null);
        }
        let slot = &buf[self.bitmap_len + self.offsets[i]..];
        Ok(match self.schema.columns()[i].ty {
            DataType::UInt8 => Value::Int(slot[0] as i64),
            DataType::Int32 => {
                Value::Int(i32::from_le_bytes(slot[..4].try_into().unwrap_or_default()) as i64)
            }
            DataType::Int64 => {
                Value::Int(i64::from_le_bytes(slot[..8].try_into().unwrap_or_default()))
            }
            DataType::Float64 => {
                Value::Float(f64::from_le_bytes(slot[..8].try_into().unwrap_or_default()))
            }
            DataType::Char(n) => {
                let raw = &slot[..n];
                let trimmed = match raw.iter().rposition(|&b| b != b' ') {
                    Some(last) => &raw[..=last],
                    None => &raw[..0],
                };
                Value::Str(
                    std::str::from_utf8(trimmed)
                        .map_err(|e| TypeError::Codec(e.to_string()))?
                        .into(),
                )
            }
            DataType::Date => {
                let packed = u32::from_le_bytes(slot[..4].try_into().unwrap_or_default());
                Value::Date(
                    Date::from_packed(packed)
                        .ok_or_else(|| TypeError::Codec(format!("bad date {packed}")))?,
                )
            }
        })
    }
}

/// An admitted non-NULL `val` of type `ty`, written at the start of `slot`
/// and padded to the type's width.
fn write_value(slot: &mut [u8], ty: DataType, val: &Value) {
    match (ty, val) {
        (DataType::UInt8, Value::Int(v)) => slot[0] = *v as u8,
        (DataType::Int32, Value::Int(v)) => {
            slot[..4].copy_from_slice(&(*v as i32).to_le_bytes());
        }
        (DataType::Int64, Value::Int(v)) => slot[..8].copy_from_slice(&v.to_le_bytes()),
        (DataType::Float64, Value::Float(v)) => slot[..8].copy_from_slice(&v.to_le_bytes()),
        (DataType::Float64, Value::Int(v)) => {
            slot[..8].copy_from_slice(&(*v as f64).to_le_bytes());
        }
        (DataType::Char(n), Value::Str(s)) => {
            slot[..s.len()].copy_from_slice(s.as_bytes());
            slot[s.len()..n].fill(b' ');
        }
        (DataType::Date, Value::Date(d)) => {
            slot[..4].copy_from_slice(&d.to_packed().to_le_bytes());
        }
        #[expect(clippy::unreachable, reason = "unreachable by construction")]
        _ => unreachable!("validate() admitted an unstorable value"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{daily_sales_schema, Column};

    fn sample_row() -> Row {
        vec![
            Value::from("San Jose"),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(Date::ymd(1996, 10, 14)),
            Value::from(10_000),
        ]
    }

    #[test]
    fn round_trip() {
        let codec = RowCodec::new(daily_sales_schema());
        let row = sample_row();
        let buf = codec.encode(&row).unwrap();
        assert_eq!(codec.decode(&buf).unwrap(), row);
    }

    #[test]
    fn encoded_len_is_bitmap_plus_payload() {
        let codec = RowCodec::new(daily_sales_schema());
        // 5 columns -> 1 bitmap byte; payload 42 bytes (Figure 3).
        assert_eq!(codec.encoded_len(), 43);
    }

    #[test]
    fn nulls_round_trip() {
        let codec = RowCodec::new(daily_sales_schema());
        let row = vec![
            Value::Null,
            Value::from("CA"),
            Value::Null,
            Value::from(Date::ymd(1996, 1, 1)),
            Value::Null,
        ];
        let buf = codec.encode(&row).unwrap();
        assert_eq!(codec.decode(&buf).unwrap(), row);
    }

    #[test]
    fn char_padding_trimmed() {
        let codec = RowCodec::new(daily_sales_schema());
        let row = sample_row();
        let buf = codec.encode(&row).unwrap();
        let decoded = codec.decode(&buf).unwrap();
        assert_eq!(decoded[0], Value::from("San Jose")); // not "San Jose     ..."
    }

    #[test]
    fn empty_string_round_trips() {
        let schema = Schema::new(vec![Column::new("s", DataType::Char(4))]).unwrap();
        let codec = RowCodec::new(schema);
        let buf = codec.encode(&[Value::from("")]).unwrap();
        assert_eq!(codec.decode(&buf).unwrap(), vec![Value::from("")]);
    }

    #[test]
    fn wrong_length_buffer_rejected() {
        let codec = RowCodec::new(daily_sales_schema());
        assert!(matches!(codec.decode(&[0u8; 7]), Err(TypeError::Codec(_))));
    }

    #[test]
    fn encode_validates() {
        let codec = RowCodec::new(daily_sales_schema());
        assert!(codec.encode(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn all_types_round_trip() {
        let schema = Schema::new(vec![
            Column::new("a", DataType::UInt8),
            Column::new("b", DataType::Int32),
            Column::new("c", DataType::Int64),
            Column::updatable("d", DataType::Float64),
            Column::new("e", DataType::Char(8)),
            Column::new("f", DataType::Date),
        ])
        .unwrap();
        let codec = RowCodec::new(schema);
        let row = vec![
            Value::Int(200),
            Value::Int(-123_456),
            Value::Int(1 << 40),
            Value::Float(2.5),
            Value::from("abc"),
            Value::from(Date::ymd(2001, 2, 3)),
        ];
        let buf = codec.encode(&row).unwrap();
        assert_eq!(codec.decode(&buf).unwrap(), row);
    }

    #[test]
    fn decode_col_agrees_with_full_decode() {
        let codec = RowCodec::new(daily_sales_schema());
        let row = sample_row();
        let buf = codec.encode(&row).unwrap();
        let full = codec.decode(&buf).unwrap();
        for (i, expected) in full.iter().enumerate() {
            assert_eq!(&codec.decode_col(&buf, i).unwrap(), expected);
        }
        assert!(codec.decode_col(&buf, row.len()).is_err());
        assert!(codec.decode_col(&buf[..10], 0).is_err());
    }

    #[test]
    fn col_byte_range_locates_fixed_slots() {
        let codec = RowCodec::new(daily_sales_schema());
        let row = sample_row();
        let buf = codec.encode(&row).unwrap();
        // total_sales (Int32) sits at a fixed offset in every image.
        let (off, width) = codec.col_byte_range(4);
        assert_eq!(width, 4);
        assert_eq!(
            i32::from_le_bytes(buf[off..off + width].try_into().unwrap()),
            10_000
        );
    }

    /// Patching a column of an image yields the encoding of the patched
    /// row, and a rejected value leaves the image as it was.
    #[test]
    fn encode_col_patches_what_encode_writes() {
        let codec = RowCodec::new(daily_sales_schema());
        let row = sample_row();
        let mut buf = codec.encode(&row).unwrap();
        let patches = [
            (0, Value::from("Berkeley")),
            (2, Value::Null),
            (2, Value::from("rollerblades")),
            (4, Value::Null),
            (4, Value::from(-7)),
            (3, Value::from(Date::ymd(1997, 5, 1))),
        ];
        let mut expect = row;
        for (i, v) in patches {
            codec.encode_col(&mut buf, i, &v).unwrap();
            expect[i] = v;
            assert_eq!(buf, codec.encode(&expect).unwrap(), "column {i}");
        }
        let before = buf.clone();
        for (i, bad) in [
            (0, Value::from("a city name far too long")),
            (4, Value::from("x")),
            (4, Value::from(1i64 << 40)),
        ] {
            let err = codec.encode_col(&mut buf, i, &bad).unwrap_err();
            let mut row = expect.clone();
            row[i] = bad;
            assert_eq!(Err(err), codec.encode(&row));
            assert_eq!(buf, before);
        }
        assert!(codec.encode_col(&mut buf[..5], 0, &Value::Null).is_err());
    }

    /// Moving a column carries its bytes and its null bit.
    #[test]
    fn move_col_carries_value_and_null_bit() {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("b", DataType::Int32),
            Column::new("c", DataType::Char(3)),
        ])
        .unwrap();
        let codec = RowCodec::new(schema);
        let mut buf = codec
            .encode(&[Value::from(5), Value::Null, Value::from("x")])
            .unwrap();
        codec.move_col(&mut buf, 0, 1).unwrap();
        let moved = [Value::from(5), Value::from(5), Value::from("x")];
        assert_eq!(buf, codec.encode(&moved).unwrap());
        codec.encode_col(&mut buf, 0, &Value::Null).unwrap();
        codec.move_col(&mut buf, 0, 1).unwrap();
        let nulls = [Value::Null, Value::Null, Value::from("x")];
        assert_eq!(buf, codec.encode(&nulls).unwrap());
        assert!(codec.move_col(&mut buf, 2, 0).is_err(), "types differ");
    }

    #[test]
    fn int_stored_in_float_column_decodes_as_float() {
        let schema = Schema::new(vec![Column::new("x", DataType::Float64)]).unwrap();
        let codec = RowCodec::new(schema);
        let buf = codec.encode(&[Value::Int(5)]).unwrap();
        assert_eq!(codec.decode(&buf).unwrap(), vec![Value::Float(5.0)]);
    }
}
