//! File-backed page store: a stable on-disk codec for the slotted-page
//! layout, with checksummed headers and **shadow-paired blocks** as the
//! torn-write defense.
//!
//! The durability tier deliberately carries *no* write-ahead log — §7 of the
//! paper shows the tuple version slots alone reconstruct any mid-maintenance
//! state, so the only on-disk invariant the page store must defend is that
//! every *individual page* read back is some complete page image that was
//! once written (never a half-written hybrid). Shadow pairing gives exactly
//! that: each page owns two fixed-size block slots and a monotone sequence
//! number; writes alternate slots, so a write torn by a crash damages at
//! most the newer copy and the elder complete image survives. Cross-page
//! consistency is the checkpoint/recovery layer's problem, not this file's.
//!
//! Block layout (little-endian):
//!
//! ```text
//! header  0..8   magic        "2VNLPAGE"
//!         8..12  page_no      u32
//!        12..16  record_len   u32
//!        16..18  live         u16   (validation only; recomputed on load)
//!        18..20  retired      u16   (validation only; recomputed on load)
//!        20..24  format       u32   (2; any other value is refused)
//!        24..32  seq          u64   (monotone per page; picks the winner)
//!        32..40  checksum     u64   (`checksum` over bytes 0..32, then 40..)
//! states  2 bits per slot, capacity.div_ceil(4) bytes
//! data    capacity × record_len bytes
//! ```
//!
//! The checksum covers every byte of the block except its own field. It
//! reads the block as little-endian `u64` words dealt round-robin to four
//! independent lanes (so four multiply chains run at once), then folds the
//! lanes and the byte tail into one `u64` (`checksum` below).
//!
//! A read whose caller knows the page's `seq` (the buffer pool does after
//! any write or earlier fault of the page) reads and verifies **one
//! block**, `seq % 2`, and takes it if its header carries that `seq`.
//! Otherwise, or if that block fails, it reads both and verifies the newer
//! by header `seq` first, the elder only if that fails. Either way the
//! verdict is the one decoding both blocks and keeping the highest verified
//! `seq` gives: a verified block's `seq` is the one it was written with,
//! the elder's is no higher, and no block holds a verified `seq` above the
//! one the pool knows (`bufpool` module docs).

use crate::error::{StorageError, StorageResult};
use crate::page::Page;
use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use wh_types::fail_point;

/// `"2VNLPAGE"` as a little-endian u64.
const MAGIC: u64 = u64::from_le_bytes(*b"2VNLPAGE");

/// On-disk block format version (header bytes 20..24). Version 1 had a
/// byte-serial FNV-1a checksum and a zero here.
const FORMAT: u32 = 2;

/// Header bytes per block (see module docs for the field map).
const HEADER_LEN: usize = 40;

/// Independent multiply chains in [`checksum`].
const LANES: usize = 4;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Per-lane start values (the FNV offset basis, then arbitrary odd
/// constants), so equal words in different lanes do not cancel.
const LANE_SEEDS: [u64; LANES] = [
    0xcbf2_9ce4_8422_2325,
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
];

/// One lane step. For a fixed `word` it is a bijection of `lane` (xor,
/// multiply by an odd constant and xor-shift are each invertible), and for
/// a fixed `lane` a bijection of `word`: so damage confined to one word
/// always changes that lane's final value. The shift folds the high bits
/// back down, which plain multiply-xor never does — a flip of bit 63 would
/// otherwise only ever flip bit 63.
#[inline(always)]
fn mix(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(FNV_PRIME);
    x ^ (x >> 29)
}

/// The storage tier's checksum (page blocks and `checkpoint.meta`).
/// Hand-rolled after PostgreSQL's lane-parallel FNV page checksum; not
/// cryptographic, but any single damaged word is always detected (see
/// [`mix`]) and it runs four lanes at once instead of one byte at a time.
///
/// `parts` are read as one stream of little-endian words, word `i` going
/// to lane `i % 4`. Every part but the last must be a whole number of
/// 32-byte rounds. What is left of the last part — up to three words, then
/// up to seven bytes — is absorbed after the rounds, and the fold mixes in
/// the total length, each lane, and the zero-padded byte tail.
pub(crate) fn checksum(parts: &[&[u8]]) -> u64 {
    let absorb = |lanes: &mut [u64; LANES], words: &[[u8; 8]]| {
        for (lane, w) in lanes.iter_mut().zip(words) {
            *lane = mix(*lane, u64::from_le_bytes(*w));
        }
    };
    let mut lanes = LANE_SEEDS;
    let mut len = 0u64;
    let mut tail = [0u8; 8];
    for (i, part) in parts.iter().enumerate() {
        let (words, bytes) = part.as_chunks::<8>();
        let (rounds, spare) = words.as_chunks::<LANES>();
        debug_assert!(
            i + 1 == parts.len() || (spare.is_empty() && bytes.is_empty()),
            "only the last part may end mid-round"
        );
        for round in rounds {
            absorb(&mut lanes, round);
        }
        absorb(&mut lanes, spare);
        tail[..bytes.len()].copy_from_slice(bytes);
        len += part.len() as u64;
    }
    let mut h = mix(LANE_SEEDS[0], len);
    for lane in lanes {
        h = mix(h, lane);
    }
    mix(h, u64::from_le_bytes(tail))
}

/// Checksum of a block: bytes `0..32`, then everything after the header.
fn block_sum(block: &[u8]) -> u64 {
    checksum(&[&block[..32], &block[HEADER_LEN..]])
}

/// Store `block`'s checksum in its header.
fn seal(block: &mut [u8]) {
    let sum = block_sum(block);
    block[32..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

/// The `N`-byte header field at byte `at` of a block.
fn field<const N: usize>(block: &[u8], at: usize) -> [u8; N] {
    block[at..at + N].try_into().unwrap_or([0; N])
}

/// The `seq` a block's header claims (verified or not).
fn header_seq(block: &[u8]) -> u64 {
    u64::from_le_bytes(field(block, 24))
}

thread_local! {
    /// This thread's fault buffer (one block, or both on the fallback),
    /// reused so that a page fault allocates nothing.
    static READ_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A page-granular file of shadow-paired blocks, addressed by page number.
///
/// All I/O goes through positioned reads/writes (`read_at`/`write_at`), so
/// the file needs no seek state and concurrent flushes of different pages
/// never interfere.
#[derive(Debug)]
pub struct DiskFile {
    file: File,
    record_len: usize,
    /// Slots per page for this record width (fixed by `record_len`).
    capacity: usize,
    /// Bytes per block: header + packed states + data.
    block_len: usize,
}

impl DiskFile {
    fn layout(record_len: usize) -> StorageResult<(usize, usize)> {
        // Validate the width the same way `Page::new` does.
        let probe = Page::new(record_len)?;
        let capacity = probe.capacity() as usize;
        let block_len = HEADER_LEN + capacity.div_ceil(4) + capacity * record_len;
        Ok((capacity, block_len))
    }

    /// Create a new (empty, truncated) page file.
    pub fn create(path: &Path, record_len: usize) -> StorageResult<Self> {
        let (capacity, block_len) = Self::layout(record_len)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(StorageError::io)?;
        Ok(DiskFile {
            file,
            record_len,
            capacity,
            block_len,
        })
    }

    /// Open an existing page file for records of `record_len` bytes.
    pub fn open(path: &Path, record_len: usize) -> StorageResult<Self> {
        let (capacity, block_len) = Self::layout(record_len)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(StorageError::io)?;
        Ok(DiskFile {
            file,
            record_len,
            capacity,
            block_len,
        })
    }

    /// Byte stride of one page's region (both shadow blocks).
    fn stride(&self) -> u64 {
        2 * self.block_len as u64
    }

    /// Number of pages the file has ever begun writing. Recovery sizes the
    /// heap from this — **not** from checkpoint metadata — because pages
    /// allocated after the last checkpoint may have been stolen (evicted)
    /// to disk and their above-checkpoint tuples still need the §7 rollback
    /// pass to run over them.
    pub fn page_count(&self) -> StorageResult<u32> {
        let len = self.file.metadata().map_err(StorageError::io)?.len();
        Ok(len.div_ceil(self.stride()) as u32)
    }

    /// Write `page`'s image as sequence number `seq`, into the shadow slot
    /// `seq % 2`. The caller owns seq monotonicity per page (the buffer
    /// pool's frame counter); alternating slots means the previous complete
    /// image is never overwritten by the write that might tear.
    pub fn write_page(&self, page_no: u32, page: &Page, seq: u64) -> StorageResult<()> {
        // trace: real I/O — span each page write under the flush/checkpoint.
        let _ts = wh_obs::trace_span!("storage.disk.write");
        fail_point!("storage.disk.write");
        let block = self.encode_block(page_no, page, seq);
        let offset = u64::from(page_no) * self.stride() + (seq % 2) * self.block_len as u64;
        self.file
            .write_all_at(&block, offset)
            .map_err(StorageError::io)?;
        wh_obs::counter!("storage.disk.page_writes").inc();
        Ok(())
    }

    /// The block image of `page` as sequence number `seq`, checksum sealed.
    fn encode_block(&self, page_no: u32, page: &Page, seq: u64) -> Vec<u8> {
        let mut block = Vec::with_capacity(self.block_len);
        block.extend_from_slice(&MAGIC.to_le_bytes());
        block.extend_from_slice(&page_no.to_le_bytes());
        block.extend_from_slice(&(self.record_len as u32).to_le_bytes());
        block.extend_from_slice(&page.live().to_le_bytes());
        block.extend_from_slice(&page.retired().to_le_bytes());
        block.extend_from_slice(&FORMAT.to_le_bytes());
        block.extend_from_slice(&seq.to_le_bytes());
        block.extend_from_slice(&[0u8; 8]); // checksum, sealed below
        block.extend_from_slice(&page.pack_states());
        block.extend_from_slice(page.data_bytes());
        debug_assert_eq!(block.len(), self.block_len);
        seal(&mut block);
        block
    }

    /// Load page `page_no` into `page`, overwriting it in place, and return
    /// the sequence number of the image loaded: the intact shadow block
    /// with the highest sequence number.
    ///
    /// `known` is the page's `seq` if the caller knows it: then block
    /// `known % 2` alone is read and taken if it verifies with that `seq`.
    /// Otherwise both are read and the newer by header `seq` is verified
    /// first (block 0 on a tie), the elder only if that fails (module docs).
    ///
    /// Returns `Ok(None)` for a page that was allocated but never flushed
    /// (region beyond EOF or still all-zero) — recovery treats it as empty,
    /// which is exactly what the §7 rollback would leave: everything on an
    /// unflushed page postdates the checkpoint VN. Both blocks present but
    /// invalid is real corruption and errors. After `Ok(None)` or an error,
    /// `page` holds no particular image.
    pub fn read_page(
        &self,
        page_no: u32,
        known: Option<u64>,
        page: &mut Page,
    ) -> StorageResult<Option<u64>> {
        // trace: real I/O — span each fault-in under the caller's span.
        let _ts = wh_obs::trace_span!("storage.disk.read");
        fail_point!("storage.disk.read");
        wh_obs::counter!("storage.disk.page_reads").inc();
        let base = u64::from(page_no) * self.stride();
        let len = self.block_len;
        READ_BUF.with_borrow_mut(|buf| {
            buf.resize(2 * len, 0);
            if let Some(seq) = known {
                let block = &mut buf[..len];
                self.read_full(block, base + (seq % 2) * len as u64)?;
                if header_seq(block) == seq && self.decode_block(page_no, block, page).is_ok() {
                    return Ok(Some(seq));
                }
            }
            self.read_full(buf, base)?;
            let (first, second) = buf.split_at(len);
            let (newer, elder) = if header_seq(second) > header_seq(first) {
                (second, first)
            } else {
                (first, second)
            };
            for block in [newer, elder] {
                if let Ok(seq) = self.decode_block(page_no, block, page) {
                    return Ok(Some(seq));
                }
            }
            if [first, second].iter().any(|b| b.iter().all(|&x| x == 0)) {
                return Ok(None); // never written (or only a torn first write)
            }
            Err(StorageError::Corrupt(format!(
                "page {page_no}: both shadow blocks fail validation"
            )))
        })
    }

    /// Fill `buf` from byte `offset` of the file. Bytes past EOF read as
    /// zero, which decodes the same as a never-written block.
    fn read_full(&self, buf: &mut [u8], offset: u64) -> StorageResult<()> {
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = self
                .file
                .read_at(&mut buf[filled..], offset + filled as u64)
                .map_err(StorageError::io)?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf[filled..].fill(0);
        Ok(())
    }

    /// Verify `block` as page `page_no`'s and load it into `page`; returns
    /// its `seq`.
    fn decode_block(&self, page_no: u32, block: &[u8], page: &mut Page) -> StorageResult<u64> {
        let corrupt = |what: &str| StorageError::Corrupt(format!("page {page_no}: {what}"));
        if u64::from_le_bytes(field(block, 0)) != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if u32::from_le_bytes(field(block, 20)) != FORMAT {
            return Err(corrupt("unknown format version"));
        }
        if block_sum(block) != u64::from_le_bytes(field(block, 32)) {
            return Err(corrupt("checksum mismatch"));
        }
        if u32::from_le_bytes(field(block, 8)) != page_no {
            return Err(corrupt("header page number does not match offset"));
        }
        if u32::from_le_bytes(field(block, 12)) as usize != self.record_len {
            return Err(corrupt("record width does not match file"));
        }
        let states_len = self.capacity.div_ceil(4);
        let states = &block[HEADER_LEN..HEADER_LEN + states_len];
        let data = &block[HEADER_LEN + states_len..];
        page.load_disk_parts(states, data)?;
        let counts = (
            u16::from_le_bytes(field(block, 16)),
            u16::from_le_bytes(field(block, 18)),
        );
        if (page.live(), page.retired()) != counts {
            return Err(corrupt("occupancy counts disagree with state map"));
        }
        Ok(header_seq(block))
    }

    /// Flush OS buffers for the page file (checkpoint end only — steal +
    /// no-force means ordinary evictions never fsync).
    pub fn sync(&self) -> StorageResult<()> {
        self.file.sync_all().map_err(StorageError::io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wh_types::SplitMix64;

    pub(crate) fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed); // ordering: id-alloc Relaxed — unique-name counter only
        std::env::temp_dir().join(format!("wh-disk-{tag}-{}-{n}.whd", std::process::id()))
    }

    /// `read_page` into a fresh page, as `(image, seq)`.
    fn read(d: &DiskFile, page_no: u32, known: Option<u64>) -> StorageResult<Option<(Page, u64)>> {
        let mut page = Page::new(d.record_len).unwrap();
        Ok(d.read_page(page_no, known, &mut page)?
            .map(|seq| (page, seq)))
    }

    /// `decode_block` into a fresh page, as `(image, seq)`.
    fn decode(d: &DiskFile, page_no: u32, block: &[u8]) -> StorageResult<(Page, u64)> {
        let mut page = Page::new(d.record_len).unwrap();
        let seq = d.decode_block(page_no, block, &mut page)?;
        Ok((page, seq))
    }

    fn sample_page(record_len: usize, records: &[&[u8]]) -> Page {
        let mut p = Page::new(record_len).unwrap();
        for r in records {
            p.insert(r).unwrap().unwrap();
        }
        p
    }

    #[test]
    fn round_trip_preserves_records_and_states() {
        let path = temp_path("rt");
        let d = DiskFile::create(&path, 8).unwrap();
        let mut p = sample_page(8, &[&[1u8; 8], &[2u8; 8], &[3u8; 8]]);
        p.delete(0, 0).unwrap();
        p.retire(0, 1).unwrap();
        d.write_page(0, &p, 1).unwrap();
        let (back, seq) = read(&d, 0, None).unwrap().unwrap();
        assert_eq!(seq, 1);
        assert_eq!((back.live(), back.retired()), (1, 1));
        assert_eq!(back.read(0, 2).unwrap(), &[3u8; 8]);
        assert!(back.read(0, 0).is_err(), "deleted slot stays deleted");
        assert!(back.read(0, 1).is_err(), "retired slot stays invisible");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn higher_seq_wins_between_shadow_blocks() {
        let path = temp_path("seq");
        let d = DiskFile::create(&path, 16).unwrap();
        d.write_page(0, &sample_page(16, &[&[1u8; 16]]), 1).unwrap();
        d.write_page(0, &sample_page(16, &[&[2u8; 16], &[2u8; 16]]), 2)
            .unwrap();
        let (back, seq) = read(&d, 0, None).unwrap().unwrap();
        assert_eq!((seq, back.live()), (2, 2));
        // A third write lands back in slot 1's position and wins again.
        d.write_page(0, &sample_page(16, &[&[3u8; 16]]), 3).unwrap();
        let (back, seq) = read(&d, 0, None).unwrap().unwrap();
        assert_eq!((seq, back.live()), (3, 1));
        assert_eq!(back.read(0, 0).unwrap(), &[3u8; 16]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_newer_block_falls_back_to_elder() {
        let path = temp_path("torn");
        let d = DiskFile::create(&path, 16).unwrap();
        d.write_page(0, &sample_page(16, &[&[7u8; 16]]), 2).unwrap();
        d.write_page(0, &sample_page(16, &[&[8u8; 16]]), 3).unwrap();
        // Tear the seq-3 image (shadow slot 1): flip bytes mid-block.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&[0xAA; 32], d.block_len as u64 + 60)
            .unwrap();
        let (back, seq) = read(&d, 0, None).unwrap().unwrap();
        assert_eq!(seq, 2, "elder complete image survives the tear");
        assert_eq!(back.read(0, 0).unwrap(), &[7u8; 16]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn both_blocks_corrupt_is_an_error() {
        let path = temp_path("corrupt");
        let d = DiskFile::create(&path, 16).unwrap();
        d.write_page(0, &sample_page(16, &[&[1u8; 16]]), 1).unwrap();
        d.write_page(0, &sample_page(16, &[&[2u8; 16]]), 2).unwrap();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&[0xFF; 16], 4).unwrap();
        f.write_all_at(&[0xFF; 16], d.block_len as u64 + 4).unwrap();
        assert!(matches!(read(&d, 0, None), Err(StorageError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritten_page_reads_as_none() {
        let path = temp_path("none");
        let d = DiskFile::create(&path, 16).unwrap();
        assert!(read(&d, 0, None).unwrap().is_none(), "beyond EOF");
        d.write_page(3, &sample_page(16, &[&[1u8; 16]]), 1).unwrap();
        assert!(read(&d, 1, None).unwrap().is_none(), "hole inside the file");
        assert!(read(&d, 3, None).unwrap().is_some());
        assert_eq!(d.page_count().unwrap(), 4, "count from file size");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_sees_previous_writes() {
        let path = temp_path("reopen");
        {
            let d = DiskFile::create(&path, 32).unwrap();
            d.write_page(0, &sample_page(32, &[&[9u8; 32]]), 5).unwrap();
            d.sync().unwrap();
        }
        let d = DiskFile::open(&path, 32).unwrap();
        let (back, seq) = read(&d, 0, None).unwrap().unwrap();
        assert_eq!((seq, back.read(0, 0).unwrap()[0]), (5, 9));
        // Wrong record width is caught by the header, not silently decoded.
        let wrong = DiskFile::open(&path, 16).unwrap();
        assert!(read(&wrong, 0, None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_golden_vectors() {
        // Pinned outputs: any drift in the lane step, the lane count, the
        // seeds or the fold changes the on-disk format and must fail here.
        let meta: Vec<u8> = (0u8..48).collect();
        let block: Vec<u8> = (0..4163u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(checksum(&[b""]), 0x9445_43a6_2c59_e9ac);
        assert_eq!(checksum(&[b"a"]), 0xc1fb_fe56_bcde_9cdc);
        assert_eq!(checksum(&[&meta]), 0xdfc7_76fd_de4d_04ca);
        assert_eq!(checksum(&[&block]), 0xd9e0_90b6_0dda_9011);
        // Whole 32-byte rounds may be split off the front without changing
        // the digest (how a block skips its own checksum field).
        assert_eq!(checksum(&[&block[..32], &block[32..]]), checksum(&[&block]));
        assert_eq!(checksum(&[&meta[..32], &meta[32..]]), checksum(&[&meta]));
    }

    /// A full page of records that differ from every other `salt`'s, with
    /// one retired and one deleted slot so the state map is not uniform.
    fn full_page(record_len: usize, salt: u8) -> Page {
        let mut p = Page::new(record_len).unwrap();
        let mut i = 0u8;
        while p
            .insert(&vec![salt.wrapping_mul(97) ^ i; record_len])
            .unwrap()
            .is_some()
        {
            i = i.wrapping_add(1);
        }
        p.retire(0, 3).unwrap();
        p.delete(0, 5).unwrap();
        p
    }

    /// `record_len` 24 leaves a 3-byte tail after the block's last whole
    /// word: 40 + 43 state bytes + 170 × 24 data bytes = 4163.
    const TAIL_WIDTH: usize = 24;

    #[test]
    fn every_single_bit_flip_fails_verification() {
        let path = temp_path("flip");
        let d = DiskFile::create(&path, TAIL_WIDTH).unwrap();
        let block = d.encode_block(0, &full_page(TAIL_WIDTH, 1), 7);
        assert_eq!(block.len() % 8, 3);
        assert!(decode(&d, 0, &block).is_ok());
        let mut b = block.clone();
        for bit in 0..block.len() * 8 {
            b[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode(&d, 0, &b).is_err(),
                "flip of bit {bit} (byte {}) went undetected",
                bit / 8
            );
            b[bit / 8] ^= 1 << (bit % 8);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn another_format_is_refused_even_under_a_valid_checksum() {
        let path = temp_path("format");
        let d = DiskFile::create(&path, TAIL_WIDTH).unwrap();
        for format in [0u32, 1, 3] {
            let mut b = d.encode_block(0, &full_page(TAIL_WIDTH, 1), 1);
            b[20..24].copy_from_slice(&format.to_le_bytes());
            seal(&mut b);
            match decode(&d, 0, &b) {
                Err(StorageError::Corrupt(msg)) => assert!(msg.contains("format"), "{msg}"),
                other => panic!("format {format} decoded: {:?}", other.map(|(_, s)| s)),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn any_overwritten_word_fails_verification() {
        let path = temp_path("word");
        let d = DiskFile::create(&path, TAIL_WIDTH).unwrap();
        let block = d.encode_block(0, &full_page(TAIL_WIDTH, 2), 9);
        let mut rng = SplitMix64::seed_from_u64(0x0BAD_C0DE);
        for at in (0..=block.len() - 8).step_by(8) {
            for _ in 0..4 {
                let noise = rng.next_u64().to_le_bytes();
                if noise[..] == block[at..at + 8] {
                    continue;
                }
                let mut b = block.clone();
                b[at..at + 8].copy_from_slice(&noise);
                assert!(
                    decode(&d, 0, &b).is_err(),
                    "random word at byte {at} went undetected"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_write_torn_at_any_sector_boundary_reads_as_the_elder_image() {
        let path = temp_path("tear");
        let d = DiskFile::create(&path, TAIL_WIDTH).unwrap();
        let (old, elder, new) = (
            full_page(TAIL_WIDTH, 1),
            full_page(TAIL_WIDTH, 2),
            full_page(TAIL_WIDTH, 3),
        );
        // Seq 1 lands in shadow slot 1 and seq 2 in slot 0; seq 3 goes back
        // to slot 1, over the seq-1 image, and tears there. A reader that
        // knows seq 2 (the write failed) or seq 3 (the write returned, and
        // the block tore later) reads the elder image too.
        d.write_page(0, &old, 1).unwrap();
        d.write_page(0, &elder, 2).unwrap();
        let old_block = d.encode_block(0, &old, 1);
        let new_block = d.encode_block(0, &new, 3);
        for cut in (512..d.block_len).step_by(512) {
            for (prefix, suffix) in [(&new_block, &old_block), (&old_block, &new_block)] {
                let mut torn = prefix.clone();
                torn[cut..].copy_from_slice(&suffix[cut..]);
                d.file.write_all_at(&torn, d.block_len as u64).unwrap();
                for known in [None, Some(2), Some(3)] {
                    let (back, seq) = read(&d, 0, known).unwrap().unwrap();
                    assert_eq!(seq, 2, "tear at byte {cut}, known {known:?}");
                    assert_eq!(back.data_bytes(), elder.data_bytes(), "tear at byte {cut}");
                    assert_eq!(back.pack_states(), elder.pack_states());
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_known_block_with_bit_rot_falls_back_to_the_elder_image() {
        let path = temp_path("rot");
        let d = DiskFile::create(&path, TAIL_WIDTH).unwrap();
        let (elder, newer) = (full_page(TAIL_WIDTH, 4), full_page(TAIL_WIDTH, 5));
        d.write_page(0, &elder, 2).unwrap();
        d.write_page(0, &newer, 3).unwrap();
        let sound = d.encode_block(0, &newer, 3);
        let mut page = Page::new(TAIL_WIDTH).unwrap(); // reused, as by a scan's ring
        for byte in (0..d.block_len).step_by(97) {
            let mut rotten = sound.clone();
            rotten[byte] ^= 0x10;
            d.file.write_all_at(&rotten, d.block_len as u64).unwrap();
            assert_eq!(
                d.read_page(0, Some(3), &mut page).unwrap(),
                Some(2),
                "byte {byte}"
            );
            assert_eq!(page.data_bytes(), elder.data_bytes(), "byte {byte}");
            assert_eq!(page.pack_states(), elder.pack_states());
        }
        d.file.write_all_at(&sound, d.block_len as u64).unwrap();
        assert_eq!(d.read_page(0, Some(3), &mut page).unwrap(), Some(3));
        assert_eq!(page.data_bytes(), newer.data_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_known_seq_reads_only_its_own_block() {
        // Outside the pool's invariant on purpose: block 1 verifies with a
        // seq above the one the reader knows. A known-seq read takes block 0
        // without looking at block 1; a read without one takes block 1.
        let path = temp_path("own");
        let d = DiskFile::create(&path, TAIL_WIDTH).unwrap();
        let (two, three) = (full_page(TAIL_WIDTH, 6), full_page(TAIL_WIDTH, 7));
        d.write_page(0, &two, 2).unwrap();
        d.write_page(0, &three, 3).unwrap();
        let (back, seq) = read(&d, 0, Some(2)).unwrap().unwrap();
        assert_eq!((seq, back.data_bytes()), (2, two.data_bytes()));
        let (back, seq) = read(&d, 0, None).unwrap().unwrap();
        assert_eq!((seq, back.data_bytes()), (3, three.data_bytes()));
        // The known block is taken only under the known seq: block 1 now
        // verifies with seq 1, so a reader that knows seq 3 falls back.
        let one = full_page(TAIL_WIDTH, 8);
        d.write_page(0, &one, 1).unwrap();
        let (back, seq) = read(&d, 0, Some(3)).unwrap().unwrap();
        assert_eq!((seq, back.data_bytes()), (2, two.data_bytes()));
        std::fs::remove_file(&path).ok();
    }

    /// The selection rule `read_page` had before it verified the newer
    /// block first, kept as the oracle: decode every written block, keep
    /// the highest verified seq (block 0 on a tie) and load it into
    /// `page`; two written blocks that both fail are corruption.
    fn decode_both(
        d: &DiskFile,
        page_no: u32,
        blocks: [&[u8]; 2],
        page: &mut Page,
    ) -> StorageResult<Option<u64>> {
        let mut best: Option<(&[u8], u64)> = None;
        let mut invalid = 0usize;
        for block in blocks {
            if block.iter().all(|&b| b == 0) {
                continue;
            }
            match decode(d, page_no, block) {
                Ok((_, seq)) => {
                    if best.is_none_or(|(_, s)| seq > s) {
                        best = Some((block, seq));
                    }
                }
                Err(_) => invalid += 1,
            }
        }
        if best.is_none() && invalid == 2 {
            return Err(StorageError::Corrupt("both blocks invalid".into()));
        }
        best.map(|(block, _)| d.decode_block(page_no, block, page))
            .transpose()
    }

    /// The `seq`s the pool's invariant lets a reader know for these
    /// blocks: the last write it saw succeed was `s`, into block `s % 2`,
    /// and every other write came before. So the other block does not
    /// verify with a `seq` of `s` or more, and block `s % 2` verifies with
    /// `s` unless it was damaged (or lost) after the write.
    fn allowed_known(d: &DiskFile, page_no: u32, blocks: &[Vec<u8>; 2]) -> Vec<u64> {
        let verified = blocks
            .each_ref()
            .map(|b| decode(d, page_no, b).ok().map(|(_, seq)| seq));
        (1..=16u64)
            .filter(|&s| {
                let (own, other) = (verified[(s % 2) as usize], verified[(1 - s % 2) as usize]);
                own.is_none_or(|v| v == s) && other.is_none_or(|v| v < s)
            })
            .collect()
    }

    /// A read's outcome in comparable form: the image and seq, `None`, or
    /// a `Corrupt` refusal (any other error fails the test).
    type Verdict = Result<Option<(u64, Vec<u8>, Vec<u8>)>, ()>;

    fn verdict(read: StorageResult<Option<u64>>, page: &Page) -> Verdict {
        match read {
            Ok(hit) => Ok(hit.map(|seq| (seq, page.pack_states(), page.data_bytes().to_vec()))),
            Err(StorageError::Corrupt(_)) => Err(()),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    const BLOCK_STATES: [&str; 8] = [
        "never written",
        "valid",
        "torn",
        "seq raised by corruption",
        "wrong page_no",
        "wrong record_len",
        "wrong format",
        "zero header over a body",
    ];

    /// One shadow block of page `page_no` in state `BLOCK_STATES[state]`.
    fn block_in_state(
        d: &DiskFile,
        page_no: u32,
        state: usize,
        images: &[Page],
        rng: &mut SplitMix64,
    ) -> Vec<u8> {
        let seq = 1 + rng.next_below(4);
        let image = &images[rng.index(images.len())];
        let mut b = d.encode_block(page_no, image, seq);
        match state {
            0 => b.fill(0),
            1 => {}
            2 => {
                let other = d.encode_block(page_no, &images[rng.index(images.len())], seq + 1);
                let cut = 512 * (1 + rng.index((d.block_len - 1) / 512));
                if rng.chance(1, 2) {
                    b[cut..].copy_from_slice(&other[cut..]);
                } else {
                    b[..cut].copy_from_slice(&other[..cut]);
                }
            }
            3 => b[24..32].copy_from_slice(&(seq + 1 + rng.next_below(8)).to_le_bytes()),
            4 => b = d.encode_block(page_no + 1, image, seq),
            5 => {
                b[12..16].copy_from_slice(&(d.record_len as u32 + 8).to_le_bytes());
                seal(&mut b);
            }
            6 => {
                let format = if rng.chance(1, 2) { 1u32 } else { 3 };
                b[20..24].copy_from_slice(&format.to_le_bytes());
                seal(&mut b);
            }
            _ => b[..HEADER_LEN].fill(0),
        }
        b
    }

    #[test]
    fn newer_first_reads_what_decoding_both_reads() {
        let path = temp_path("pairs");
        let d = DiskFile::create(&path, TAIL_WIDTH).unwrap();
        let images = [
            full_page(TAIL_WIDTH, 1),
            full_page(TAIL_WIDTH, 2),
            sample_page(TAIL_WIDTH, &[&[9u8; TAIL_WIDTH]]),
        ];
        let page_no = 1;
        let base = u64::from(page_no) * d.stride();
        let mut rng = SplitMix64::seed_from_u64(0x5EED_B10C);
        let mut pairs_seen = std::collections::HashSet::new();
        let mut outcomes = [0usize; 3]; // image, never written, corrupt
        let mut known_paths = [0usize; 2]; // own block taken, fallback

        // Every read loads into one page, as a scan's fault loads into the
        // page its ring took back: stale contents must never leak through.
        let mut page = Page::new(TAIL_WIDTH).unwrap();
        let mut oracle = Page::new(TAIL_WIDTH).unwrap();
        for case in 0..3000 {
            let states = [rng.index(BLOCK_STATES.len()), rng.index(BLOCK_STATES.len())];
            let blocks = states.map(|s| block_in_state(&d, page_no, s, &images, &mut rng));
            d.file.write_all_at(&blocks[0], base).unwrap();
            d.file
                .write_all_at(&blocks[1], base + d.block_len as u64)
                .unwrap();
            let both = decode_both(&d, page_no, [&blocks[0], &blocks[1]], &mut oracle);
            let want = verdict(both, &oracle);
            let allowed = allowed_known(&d, page_no, &blocks);
            for known in std::iter::once(None).chain(allowed.iter().copied().map(Some)) {
                let got = verdict(d.read_page(page_no, known, &mut page), &page);
                assert!(
                    got == want,
                    "case {case}: blocks ({}, {}), known seq {known:?}: read_page {:?} vs decode-both {:?}",
                    BLOCK_STATES[states[0]],
                    BLOCK_STATES[states[1]],
                    got.as_ref().map(|h| h.as_ref().map(|(seq, ..)| *seq)),
                    want.as_ref().map(|h| h.as_ref().map(|(seq, ..)| *seq)),
                );
                if let Some(s) = known {
                    let own = decode(&d, page_no, &blocks[(s % 2) as usize]);
                    known_paths[usize::from(own.is_err())] += 1;
                }
            }
            pairs_seen.insert(states);
            outcomes[match want {
                Ok(Some(_)) => 0,
                Ok(None) => 1,
                Err(()) => 2,
            }] += 1;
        }
        assert_eq!(
            pairs_seen.len(),
            BLOCK_STATES.len().pow(2),
            "every pair drawn"
        );
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "every verdict reached: {outcomes:?}"
        );
        assert!(
            known_paths.iter().all(|&n| n > 0),
            "known-seq reads both took their own block and fell back: {known_paths:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}
