//! Randomized tests: the fixed-width row codec must round-trip every valid
//! row of every schema, and its length accounting must hold exactly — the
//! in-place-update requirement of paper §4 depends on it.
//!
//! Inputs are generated with the deterministic [`SplitMix64`] generator, so
//! every run exercises the same cases (no external proptest dependency).
#![allow(clippy::expect_used)]

use wh_types::{Column, DataType, Date, Row, RowCodec, Schema, SplitMix64, Value};

fn random_datatype(rng: &mut SplitMix64) -> DataType {
    match rng.next_below(6) {
        0 => DataType::UInt8,
        1 => DataType::Int32,
        2 => DataType::Int64,
        3 => DataType::Float64,
        4 => DataType::Char(rng.range_i64(1, 24) as usize),
        _ => DataType::Date,
    }
}

fn random_value_for(rng: &mut SplitMix64, ty: DataType) -> Value {
    // ~1 in 4 values are NULL, as in the original distribution.
    if rng.chance(1, 4) {
        return Value::Null;
    }
    match ty {
        DataType::UInt8 => Value::Int(rng.range_i64(0, 256)),
        DataType::Int32 => Value::Int(rng.range_i64(i32::MIN as i64, i32::MAX as i64)),
        DataType::Int64 => Value::Int(rng.next_u64() as i64),
        DataType::Float64 => {
            if rng.chance(1, 2) {
                Value::Float(rng.next_u64() as i64 as f64)
            } else {
                Value::Float((rng.next_f64() - 0.5) * 2e12)
            }
        }
        DataType::Char(n) => {
            let len = rng.next_below(n as u64 + 1) as usize;
            let mut s: String = (0..len)
                .map(|_| (b' ' + rng.next_below(95) as u8) as char)
                .collect();
            // Trailing spaces are padding, not content; they would not
            // round-trip, so trim them like the original filter did.
            while s.ends_with(' ') {
                s.pop();
            }
            Value::Str(s.into())
        }
        DataType::Date => Value::Date(Date::ymd(
            rng.range_i64(1900, 2100) as u16,
            rng.range_i64(1, 13) as u8,
            rng.range_i64(1, 29) as u8,
        )),
    }
}

fn random_schema_and_row(rng: &mut SplitMix64) -> (Schema, Row) {
    let arity = rng.range_i64(1, 10) as usize;
    let types: Vec<DataType> = (0..arity).map(|_| random_datatype(rng)).collect();
    let columns: Vec<Column> = types
        .iter()
        .enumerate()
        .map(|(i, &ty)| {
            if i % 2 == 0 {
                Column::new(format!("c{i}"), ty)
            } else {
                Column::updatable(format!("c{i}"), ty)
            }
        })
        .collect();
    let schema = Schema::new(columns).expect("unique names");
    let row: Row = types.iter().map(|&ty| random_value_for(rng, ty)).collect();
    (schema, row)
}

#[test]
fn encode_decode_round_trips() {
    let mut rng = SplitMix64::seed_from_u64(0x0C0D_EC01);
    for _ in 0..256 {
        let (schema, row) = random_schema_and_row(&mut rng);
        let codec = RowCodec::new(schema);
        let buf = codec.encode(&row).unwrap();
        assert_eq!(buf.len(), codec.encoded_len());
        let decoded = codec.decode(&buf).unwrap();
        assert_eq!(decoded.len(), row.len());
        for (d, r) in decoded.iter().zip(&row) {
            assert_eq!(d, r, "column mismatch");
        }
    }
}

#[test]
fn encoded_len_is_schema_constant() {
    let mut rng = SplitMix64::seed_from_u64(0x0C0D_EC02);
    for _ in 0..256 {
        let (schema, row) = random_schema_and_row(&mut rng);
        let codec = RowCodec::new(schema.clone());
        let expected = schema.arity().div_ceil(8) + schema.payload_width();
        assert_eq!(codec.encoded_len(), expected);
        // Every encoded row of this schema has the same width — the
        // precondition for in-place updates.
        let buf = codec.encode(&row).unwrap();
        let nulls: Row = vec![Value::Null; schema.arity()];
        let buf2 = codec.encode(&nulls).unwrap();
        assert_eq!(buf.len(), buf2.len());
    }
}

#[test]
fn in_place_overwrite_is_total() {
    let mut rng = SplitMix64::seed_from_u64(0x0C0D_EC03);
    for _ in 0..256 {
        let (schema, row) = random_schema_and_row(&mut rng);
        // Decoding after overwriting one image with another never sees a mix.
        let codec = RowCodec::new(schema.clone());
        let nulls: Row = vec![Value::Null; schema.arity()];
        let mut slot = codec.encode(&nulls).unwrap();
        let image = codec.encode(&row).unwrap();
        slot.copy_from_slice(&image);
        let decoded = codec.decode(&slot).unwrap();
        for (d, r) in decoded.iter().zip(&row) {
            assert_eq!(d, r);
        }
    }
}
