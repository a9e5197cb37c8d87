//! The checkpoint metadata record: version-state globals persisted
//! atomically at checkpoint end.
//!
//! A checkpoint is *fuzzy*: the version snapshot `V` is captured at
//! checkpoint **begin**, then dirty pages flush while readers and the
//! maintenance writer keep running, and only at the **end** is this record
//! written — temp file, fsync, atomic rename, directory fsync — making the
//! checkpoint real.
//! Any maintenance activity that lands on disk mid-flush carries
//! `tupleVN > V` and is uniformly rolled back by the §7 recovery pass, so
//! the record needs no page LSNs, no dirty-page table, no log anchors: just
//! the version globals as of `V`.
//!
//! A crash between begin and the rename leaves the *previous* record intact
//! (rename is atomic), so recovery always finds some complete checkpoint —
//! or none, which is an explicit "nothing durable yet" state.
//!
//! This record is also the durable form of the one-tuple `Version` mirror
//! relation: the mirror itself is *not* persisted as a table, it is
//! reconstructed from these fields on recovery.

use crate::disk::checksum;
use crate::error::{StorageError, StorageResult};
use std::path::{Path, PathBuf};
use wh_types::fail_point;

/// `"2VNLCKPT"` as a little-endian u64.
const MAGIC: u64 = u64::from_le_bytes(*b"2VNLCKPT");

/// On-disk record format version. Version 1 carried a byte-serial FNV-1a
/// checksum; a version-1 directory is refused as unknown.
const FORMAT: u32 = 2;

/// Encoded size: 48 payload bytes + 8 checksum.
const LEN: usize = 56;

/// File name of the checkpoint record within a durable table's directory.
pub const META_FILE: &str = "checkpoint.meta";

/// The version-state globals a checkpoint persists (fields as of the
/// begin-snapshot `V`, except `page_count`/`record_len`, which describe the
/// page file for validation on reopen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// `currentVN` at checkpoint begin — the recovery target version.
    pub current_vn: u64,
    /// Whether a maintenance transaction was active at begin. Recovery
    /// clears it after the slot-reconstruction pass.
    pub maintenance_active: bool,
    /// The recovery fence at begin; restored, then possibly raised further
    /// by the §7 pass.
    pub recovery_floor: u64,
    /// The GC/lease horizon at begin (min active session VN clamped to
    /// `current_vn`): telemetry for the recovery report — sessions do not
    /// survive a restart, so it constrains nothing afterwards.
    pub gc_horizon: u64,
    /// Pages allocated at checkpoint end. Validation only — recovery sizes
    /// the heap from the page-file length, which may exceed this when
    /// post-checkpoint allocations were stolen to disk.
    pub page_count: u32,
    /// Record width of the page file, validated against the reopening
    /// table's codec.
    pub record_len: u32,
}

impl CheckpointMeta {
    fn meta_path(dir: &Path) -> PathBuf {
        dir.join(META_FILE)
    }

    fn encode(&self) -> [u8; LEN] {
        let mut buf = [0u8; LEN];
        buf[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        buf[8..12].copy_from_slice(&FORMAT.to_le_bytes());
        buf[12..16].copy_from_slice(&self.record_len.to_le_bytes());
        buf[16..24].copy_from_slice(&self.current_vn.to_le_bytes());
        buf[24..32].copy_from_slice(&self.recovery_floor.to_le_bytes());
        buf[32..40].copy_from_slice(&self.gc_horizon.to_le_bytes());
        buf[40..44].copy_from_slice(&self.page_count.to_le_bytes());
        buf[44] = u8::from(self.maintenance_active);
        let sum = checksum(&[&buf[0..48]]);
        buf[48..56].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Persist the record atomically: write a temp file, fsync it, rename
    /// over the live record, fsync the directory. The rename is the commit
    /// point of the whole checkpoint, and it is durable only once the
    /// directory is synced: the caller raises the GC reclaim ceiling as
    /// soon as this returns, which is safe only if a power loss can no
    /// longer bring the older record back.
    pub fn write(&self, dir: &Path) -> StorageResult<()> {
        // trace: the checkpoint's commit point — span it under the caller.
        let _ts = wh_obs::trace_span!("storage.ckpt.meta_commit");
        fail_point!("storage.ckpt.meta");
        let tmp = dir.join(format!("{META_FILE}.tmp"));
        let buf = self.encode();
        let file = std::fs::File::create(&tmp).map_err(StorageError::io)?;
        use std::io::Write as _;
        (&file).write_all(&buf).map_err(StorageError::io)?;
        file.sync_all().map_err(StorageError::io)?;
        drop(file);
        std::fs::rename(&tmp, Self::meta_path(dir)).map_err(StorageError::io)?;
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(StorageError::io)
    }

    /// Load and validate the checkpoint record. A missing file is the
    /// explicit "no checkpoint has ever completed" error.
    pub fn read(dir: &Path) -> StorageResult<CheckpointMeta> {
        // trace: restart's first read — span it under the restart root.
        let _ts = wh_obs::trace_span!("storage.ckpt.meta_read");
        fail_point!("storage.disk.read");
        let path = Self::meta_path(dir);
        let buf = match std::fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StorageError::Corrupt(format!(
                    "no checkpoint record at {}: nothing durable to recover",
                    path.display()
                )))
            }
            Err(e) => return Err(StorageError::io(e)),
        };
        let corrupt = |what: &str| StorageError::Corrupt(format!("checkpoint record: {what}"));
        if buf.len() != LEN {
            return Err(corrupt("wrong length"));
        }
        let field_u64 =
            |r: std::ops::Range<usize>| u64::from_le_bytes(buf[r].try_into().unwrap_or_default());
        let field_u32 =
            |r: std::ops::Range<usize>| u32::from_le_bytes(buf[r].try_into().unwrap_or_default());
        if field_u64(0..8) != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if field_u32(8..12) != FORMAT {
            return Err(corrupt("unknown format version"));
        }
        if checksum(&[&buf[0..48]]) != field_u64(48..56) {
            return Err(corrupt("checksum mismatch"));
        }
        Ok(CheckpointMeta {
            current_vn: field_u64(16..24),
            maintenance_active: buf[44] != 0,
            recovery_floor: field_u64(24..32),
            gc_horizon: field_u64(32..40),
            page_count: field_u32(40..44),
            record_len: field_u32(12..16),
        })
    }
}

/// The version-state globals the caller captured at checkpoint **begin**
/// (before any page flushed — the ordering the fuzzy-checkpoint argument
/// rests on). The heap adds the page-file facts at checkpoint end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMeta {
    /// `currentVN` at begin.
    pub current_vn: u64,
    /// `maintenanceActive` at begin.
    pub maintenance_active: bool,
    /// Recovery fence at begin.
    pub recovery_floor: u64,
    /// GC/lease horizon at begin.
    pub gc_horizon: u64,
}

/// What a completed checkpoint did (surfaced through `wh-vnl` and the
/// `report_durability` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Dirty pages written by the flush pass.
    pub pages_flushed: u64,
    /// The begin-snapshot version the checkpoint is consistent at.
    pub checkpoint_vn: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed); // ordering: id-alloc Relaxed — unique-name counter only
        let dir = std::env::temp_dir().join(format!("wh-ckpt-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> CheckpointMeta {
        CheckpointMeta {
            current_vn: 17,
            maintenance_active: true,
            recovery_floor: 3,
            gc_horizon: 15,
            page_count: 42,
            record_len: 128,
        }
    }

    #[test]
    fn round_trip() {
        let dir = temp_dir("rt");
        sample().write(&dir).unwrap();
        assert_eq!(CheckpointMeta::read(&dir).unwrap(), sample());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = temp_dir("rw");
        sample().write(&dir).unwrap();
        let newer = CheckpointMeta {
            current_vn: 18,
            maintenance_active: false,
            ..sample()
        };
        newer.write(&dir).unwrap();
        assert_eq!(CheckpointMeta::read(&dir).unwrap(), newer);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_corrupt_records_error() {
        let dir = temp_dir("bad");
        assert!(matches!(
            CheckpointMeta::read(&dir),
            Err(StorageError::Corrupt(_))
        ));
        sample().write(&dir).unwrap();
        // Flip a payload byte: checksum catches it.
        let path = dir.join(META_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            CheckpointMeta::read(&dir),
            Err(StorageError::Corrupt(_))
        ));
        // Truncation is caught before field decoding.
        std::fs::write(&path, &bytes[..30]).unwrap();
        assert!(matches!(
            CheckpointMeta::read(&dir),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_file_is_ignored() {
        let dir = temp_dir("tmp");
        sample().write(&dir).unwrap();
        // A crash between tmp-write and rename leaves a tmp file behind;
        // reads only ever look at the live record.
        std::fs::write(dir.join(format!("{META_FILE}.tmp")), b"garbage").unwrap();
        assert_eq!(CheckpointMeta::read(&dir).unwrap(), sample());
        std::fs::remove_dir_all(&dir).ok();
    }
}
