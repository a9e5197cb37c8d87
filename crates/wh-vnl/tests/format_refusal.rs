//! A directory in the version-1 on-disk format — byte-serial FNV-1a
//! checksums, a zero where a page block now carries its format — is
//! refused with a typed `Corrupt` error: by restart recovery through its
//! checkpoint record, and by the buffer pool on the bare page file. It is
//! never served as data and never read as an empty table.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use wh_storage::{BufferPool, CheckpointMeta, Page, StorageError, META_FILE, PAGES_FILE};
use wh_types::{Column, DataType, Schema, Value};
use wh_vnl::{checkpoint, create_durable, recover_from_disk, VnlError};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — unique-name counter only
    let dir = std::env::temp_dir().join(format!("wh-format-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int64),
            Column::updatable("v", DataType::Int64),
        ],
        &["k"],
    )
    .unwrap()
}

fn row(k: i64, v: i64) -> Vec<Value> {
    vec![Value::from(k), Value::from(v)]
}

/// The version-1 checksum: FNV-1a 64 over the parts, one byte at a time.
fn fnv1a_64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Rewrite a directory's checkpoint record and every written page block
/// the way the version-1 code laid them out. Returns the blocks rewritten.
fn rewrite_as_version_1(dir: &Path, record_len: usize) -> usize {
    let meta_path = dir.join(META_FILE);
    let mut meta = std::fs::read(&meta_path).unwrap();
    assert_eq!(meta.len(), 56);
    meta[8..12].copy_from_slice(&1u32.to_le_bytes());
    let sum = fnv1a_64(&[&meta[..48]]);
    meta[48..56].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&meta_path, &meta).unwrap();

    let capacity = Page::new(record_len).unwrap().capacity() as usize;
    let block_len = 40 + capacity.div_ceil(4) + capacity * record_len;
    let pages_path = dir.join(PAGES_FILE);
    let mut pages = std::fs::read(&pages_path).unwrap();
    let mut rewritten = 0;
    for block in pages.chunks_exact_mut(block_len) {
        if block.iter().all(|&b| b == 0) {
            continue; // never written
        }
        block[20..24].copy_from_slice(&0u32.to_le_bytes()); // reserved in v1
        let sum = fnv1a_64(&[&block[..32], &block[40..]]);
        block[32..40].copy_from_slice(&sum.to_le_bytes());
        rewritten += 1;
    }
    std::fs::write(&pages_path, &pages).unwrap();
    rewritten
}

#[test]
fn a_version_1_directory_is_refused_not_read() {
    let dir = temp_dir("v1");
    let table = create_durable("T", schema(), 2, &dir, usize::MAX).unwrap();
    let keys = 0..600i64;
    let initial: Vec<_> = keys.clone().map(|k| row(k, k)).collect();
    table.load_initial(&initial).unwrap();
    checkpoint(&table).unwrap();
    // Rewrite every row, so the second checkpoint flushes every page again
    // and both shadow blocks of every page hold an image. (A page flushed
    // once has one never-written block; with the other block unreadable it
    // reads as never written, like a page whose first write tore — that is
    // why the checkpoint record's format check comes first on restart.)
    let txn = table.begin_maintenance().unwrap();
    for k in keys.clone() {
        txn.update_row(&row(k, -k)).unwrap();
    }
    txn.commit().unwrap();
    checkpoint(&table).unwrap();
    drop(table);

    // As written, the directory recovers: the refusal below is the format.
    let (table, _) = recover_from_disk("T", schema(), 2, &dir, usize::MAX).unwrap();
    let session = table.begin_session();
    assert_eq!(session.count().unwrap(), keys.end as u64);
    session.finish();
    drop(table);

    let record_len = CheckpointMeta::read(&dir).unwrap().record_len as usize;
    let blocks = rewrite_as_version_1(&dir, record_len);
    match recover_from_disk("T", schema(), 2, &dir, usize::MAX) {
        Err(VnlError::Storage(StorageError::Corrupt(msg))) => {
            assert!(msg.contains("unknown format version"), "{msg}");
        }
        Err(e) => panic!("version-1 directory refused with the wrong error: {e:?}"),
        Ok(_) => panic!("version-1 directory recovered as a table"),
    }

    let pool = BufferPool::open_backed(record_len, &dir.join(PAGES_FILE), 16).unwrap();
    assert!(pool.page_count() > 1);
    assert_eq!(
        blocks,
        2 * pool.page_count() as usize,
        "both blocks of every page"
    );
    for page_no in 0..pool.page_count() {
        match pool.fetch(page_no) {
            Err(StorageError::Corrupt(_)) => {}
            Err(e) => panic!("page {page_no}: wrong error {e:?}"),
            Ok(_) => panic!("page {page_no} of a version-1 file was served"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
