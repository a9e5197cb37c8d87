//! Property tests for the on-disk page codec: every `Value` type must
//! survive serialize → flush → evict → fault-in → deserialize unchanged,
//! both within one process (buffer-pool reload) and across a simulated
//! restart (checkpoint + reopen). A final test pins the batch gather path
//! to the scalar byte path on pages that went through an evict/reload
//! cycle, so the two scan kernels cannot drift on disk-resident data.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wh_storage::{FieldSpec, HeapFile, IoStats, Table, VersionMeta};
use wh_types::schema::{Column, DataType, Schema};
use wh_types::{Date, Row, SplitMix64, Value};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — unique-name counter only
    let dir = std::env::temp_dir().join(format!("wh-codec-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One column of every storable [`DataType`].
fn all_types_schema() -> Schema {
    Schema::new(vec![
        Column::new("tiny", DataType::UInt8),
        Column::new("i32", DataType::Int32),
        Column::new("i64", DataType::Int64),
        Column::updatable("f64", DataType::Float64),
        Column::new("name", DataType::Char(12)),
        Column::new("day", DataType::Date),
    ])
    .unwrap()
}

/// Edge-case rows: numeric extremes, empty / full-width / shared-`Arc`
/// strings, float specials that must round-trip bit-exactly, and NULL in
/// every column position (the null bitmap is part of the stored image, so
/// a disk round-trip must preserve each bit).
fn edge_rows() -> Vec<Row> {
    let interned: Arc<str> = Arc::from("interned");
    let mut rows = vec![
        vec![
            Value::Int(0),
            Value::Int(i32::MIN as i64),
            Value::Int(i64::MIN),
            Value::Float(f64::MIN_POSITIVE),
            Value::Str(Arc::clone(&interned)),
            Value::Date(Date::ymd(1996, 10, 14)),
        ],
        vec![
            Value::Int(255),
            Value::Int(i32::MAX as i64),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::from(""),
            Value::Date(Date::ymd(2026, 8, 8)),
        ],
        vec![
            Value::Int(7),
            Value::Int(-1),
            Value::Int(1 << 40),
            Value::Float(f64::MAX),
            Value::from("twelve chars"),
            Value::Date(Date::ymd(2000, 2, 29)),
        ],
        // The same Arc<str> appears in two rows: on disk they are
        // independent images, and both must decode to the same text.
        vec![
            Value::Int(1),
            Value::Int(0),
            Value::Int(0),
            Value::Float(1.5),
            Value::Str(interned),
            Value::Date(Date::ymd(1999, 12, 31)),
        ],
    ];
    // NULL in each single column, then all-NULL.
    for i in 0..6 {
        let mut row = rows[0].clone();
        row[i] = Value::Null;
        rows.push(row);
    }
    rows.push(vec![Value::Null; 6]);
    rows
}

#[test]
fn every_value_type_survives_evict_reload_and_restart() {
    let dir = temp_dir("types");
    let table = Table::create_backed(
        "AllTypes",
        all_types_schema(),
        &dir,
        4,
        Arc::new(IoStats::new()),
    )
    .unwrap();
    let rows = edge_rows();
    let rids: Vec<_> = rows.iter().map(|r| table.insert(r).unwrap()).collect();

    // Within-process cycle: flush, drop every resident page, fault back in.
    table.heap().flush_all().unwrap();
    table.heap().evict_all().unwrap();
    for (rid, expected) in rids.iter().zip(&rows) {
        assert_eq!(&table.read(*rid).unwrap(), expected, "after evict/reload");
    }

    // Simulated restart: checkpoint, drop all in-memory state, reopen.
    table
        .heap()
        .checkpoint(VersionMeta {
            current_vn: 1,
            maintenance_active: false,
            recovery_floor: 1,
            gc_horizon: 1,
        })
        .unwrap();
    drop(table);
    let reopened = Table::open_backed(
        "AllTypes",
        all_types_schema(),
        &dir,
        4,
        Arc::new(IoStats::new()),
    )
    .unwrap();
    for (rid, expected) in rids.iter().zip(&rows) {
        assert_eq!(&reopened.read(*rid).unwrap(), expected, "after restart");
    }
    assert_eq!(reopened.len(), rows.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

fn random_value(rng: &mut SplitMix64, ty: DataType) -> Value {
    if rng.next_below(8) == 0 {
        return Value::Null;
    }
    match ty {
        DataType::UInt8 => Value::Int(rng.range_inclusive_u64(0, 255) as i64),
        DataType::Int32 => Value::Int(rng.next_u64() as i32 as i64),
        DataType::Int64 => Value::Int(rng.next_u64() as i64),
        DataType::Float64 => Value::Float(rng.next_u64() as i64 as f64 / 128.0),
        DataType::Char(n) => {
            let len = rng.range_inclusive_u64(0, n as u64) as usize;
            let s: String = (0..len)
                .map(|_| (b'a' + rng.next_below(26) as u8) as char)
                .collect();
            Value::from(s.as_str())
        }
        DataType::Date => Value::Date(Date::ymd(
            1990 + rng.next_below(40) as u16,
            1 + rng.next_below(12) as u8,
            1 + rng.next_below(28) as u8,
        )),
    }
}

#[test]
fn random_rows_survive_eviction_pressure_and_restart() {
    let mut rng = SplitMix64::seed_from_u64(0xD15C_C0DE);
    for round in 0..8 {
        let dir = temp_dir("rand");
        let schema = all_types_schema();
        let types: Vec<DataType> = schema.columns().iter().map(|c| c.ty).collect();
        // Capacity 2 keeps the pool under constant eviction pressure, so
        // most reads below fault pages back in from disk.
        let table = Table::create_backed("Rand", schema.clone(), &dir, 2, Arc::new(IoStats::new()))
            .unwrap();
        let n = rng.range_inclusive_u64(20, 200);
        let mut model = Vec::new();
        for _ in 0..n {
            let row: Row = types.iter().map(|&ty| random_value(&mut rng, ty)).collect();
            let rid = table.insert(&row).unwrap();
            model.push((rid, row));
        }
        table.heap().flush_all().unwrap();
        table.heap().evict_all().unwrap();
        for (rid, expected) in &model {
            assert_eq!(&table.read(*rid).unwrap(), expected, "round {round}");
        }
        table
            .heap()
            .checkpoint(VersionMeta {
                current_vn: 1,
                maintenance_active: false,
                recovery_floor: 1,
                gc_horizon: 1,
            })
            .unwrap();
        drop(table);
        let reopened =
            Table::open_backed("Rand", schema, &dir, 2, Arc::new(IoStats::new())).unwrap();
        for (rid, expected) in &model {
            assert_eq!(
                &reopened.read(*rid).unwrap(),
                expected,
                "round {round} after restart"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Batch gather ≡ scalar byte scan on pages that went to disk and came
/// back. Records mimic the 2VNL layout the batch path exists for: a null
/// bitmap byte, a u8 operation flag, and an i64 version number.
#[test]
fn batch_scan_matches_byte_scan_after_evict_reload() {
    let dir = temp_dir("batch");
    let record_len = 10usize;
    let heap = HeapFile::create_backed(record_len, &dir, 2, Arc::new(IoStats::new())).unwrap();
    let mut rng = SplitMix64::seed_from_u64(0xBA7C_5CA9);
    for _ in 0..500 {
        let mut rec = vec![0u8; record_len];
        // Bit 1 marks the i64 field NULL in ~1/8 of records.
        rec[0] = if rng.next_below(8) == 0 { 0b10 } else { 0 };
        rec[1] = rng.next_u64() as u8;
        rec[2..10].copy_from_slice(&(rng.next_u64() as i64).to_le_bytes());
        heap.insert(&rec).unwrap();
    }
    heap.flush_all().unwrap();
    heap.evict_all().unwrap();

    // Scalar path: decode both fields straight from the record bytes.
    let mut scalar: Vec<(u32, u16, i64, i64)> = Vec::new();
    heap.scan(|rid, rec| {
        let flag = i64::from(rec[1]);
        let vn = if rec[0] & 0b10 != 0 {
            wh_storage::NULL_SENTINEL
        } else {
            i64::from_le_bytes(rec[2..10].try_into().unwrap())
        };
        scalar.push((rid.page, rid.slot, flag, vn));
        Ok(())
    })
    .unwrap();

    // Batch path over the same (evicted, reloaded) pages.
    let specs = [
        FieldSpec {
            offset: 1,
            width: 1,
            null_byte: 0,
            null_mask: 0b01,
        },
        FieldSpec {
            offset: 2,
            width: 8,
            null_byte: 0,
            null_mask: 0b10,
        },
    ];
    let mut batched: Vec<(u32, u16, i64, i64)> = Vec::new();
    heap.scan_batches(0..heap.page_count(), &specs, |batch| {
        for i in 0..batch.len() {
            batched.push((
                batch.page_no(),
                batch.slots()[i],
                batch.field(0)[i],
                batch.field(1)[i],
            ));
        }
        Ok(())
    })
    .unwrap();

    scalar.sort_unstable();
    batched.sort_unstable();
    assert_eq!(scalar, batched);
    assert_eq!(scalar.len(), 500);
    std::fs::remove_dir_all(&dir).ok();
}
