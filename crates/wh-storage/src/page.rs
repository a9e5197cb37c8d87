//! Fixed-slot pages and record identifiers.

use crate::error::{StorageError, StorageResult};

/// Page payload size in bytes. Records never span pages.
pub const PAGE_SIZE: usize = 4096;

/// Record identifier: page number plus slot within the page. Because updates
/// are performed in place (paper §4), a tuple's RID is stable for its entire
/// physical lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page number within the heap file.
    pub page: u32,
    /// Slot number within the page.
    pub slot: u16,
}

impl Rid {
    /// Construct a RID.
    pub fn new(page: u32, slot: u16) -> Self {
        Rid { page, slot }
    }
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.page, self.slot)
    }
}

/// Occupancy state of one slot.
///
/// `Retired` is the epoch-reclamation limbo: the record has been unlinked
/// from every index and is invisible to readers and scans, but the slot is
/// not reusable until the GC's grace period elapses — a reader that
/// resolved this slot's rid before the retire may still dereference it, and
/// must find the *old* bytes, never a reused record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Live,
    Retired,
}

/// A page of fixed-width record slots.
///
/// All records in a heap file share one width, so a page is a byte array of
/// `capacity` slots plus a per-slot state array. The page itself carries no
/// latch — the heap file wraps each page in an `RwLock`, which plays the
/// role of the paper's short-duration latch.
#[derive(Debug)]
pub struct Page {
    record_len: usize,
    capacity: u16,
    state: Vec<SlotState>,
    live: u16,
    retired: u16,
    data: Box<[u8]>,
}

impl Page {
    /// Create an empty page for records of `record_len` bytes.
    pub fn new(record_len: usize) -> StorageResult<Self> {
        if record_len == 0 || record_len > PAGE_SIZE {
            return Err(StorageError::RecordTooLarge(record_len));
        }
        let capacity = (PAGE_SIZE / record_len) as u16;
        Ok(Page {
            record_len,
            capacity,
            state: vec![SlotState::Free; capacity as usize],
            live: 0,
            retired: 0,
            data: vec![0u8; capacity as usize * record_len].into_boxed_slice(),
        })
    }

    /// Slots per page for this record width.
    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// Occupied slots.
    pub fn live(&self) -> u16 {
        self.live
    }

    /// Slots retired but not yet released (waiting out a GC grace period).
    pub fn retired(&self) -> u16 {
        self.retired
    }

    /// Whether the page has a free slot. Retired slots are *not* free —
    /// they hold their old bytes until released.
    pub fn has_room(&self) -> bool {
        self.live + self.retired < self.capacity
    }

    /// Record width this page stores.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    fn check_record(&self, record: &[u8]) -> StorageResult<()> {
        if record.len() != self.record_len {
            return Err(StorageError::RecordLength {
                expected: self.record_len,
                got: record.len(),
            });
        }
        Ok(())
    }

    fn slot_range(&self, slot: u16) -> std::ops::Range<usize> {
        let start = slot as usize * self.record_len;
        start..start + self.record_len
    }

    /// Insert into the first free slot; returns the slot number, or `None`
    /// when the page is full.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<Option<u16>> {
        self.check_record(record)?;
        let Some(slot) = self.state.iter().position(|&s| s == SlotState::Free) else {
            return Ok(None);
        };
        let slot = slot as u16;
        let range = self.slot_range(slot);
        self.data[range].copy_from_slice(record);
        self.state[slot as usize] = SlotState::Live;
        self.live += 1;
        Ok(Some(slot))
    }

    /// Read the record in `slot`. Retired slots read as gone (`NoSuchSlot`)
    /// — which is sound for a reader holding a pre-retire rid, because a
    /// retired record was GC-eligible and therefore invisible at every
    /// live session's version anyway. What the retired state *prevents* is
    /// the slot being reused before the grace period, which would make
    /// this read return a different tuple's bytes for the old rid.
    pub fn read(&self, page_no: u32, slot: u16) -> StorageResult<&[u8]> {
        if slot >= self.capacity || self.state[slot as usize] != SlotState::Live {
            return Err(StorageError::NoSuchSlot {
                page: page_no,
                slot,
            });
        }
        Ok(&self.data[self.slot_range(slot)])
    }

    /// Overwrite the record in `slot` **in place**. The replacement must have
    /// the same width — the invariant 2VNL's rewrite approach depends on.
    pub fn update_in_place(&mut self, page_no: u32, slot: u16, record: &[u8]) -> StorageResult<()> {
        self.check_record(record)?;
        if slot >= self.capacity || self.state[slot as usize] != SlotState::Live {
            return Err(StorageError::NoSuchSlot {
                page: page_no,
                slot,
            });
        }
        let range = self.slot_range(slot);
        self.data[range].copy_from_slice(record);
        Ok(())
    }

    /// Free the record in `slot` (immediate physical delete, no grace
    /// period — for callers that know no concurrent reader holds the rid).
    pub fn delete(&mut self, page_no: u32, slot: u16) -> StorageResult<()> {
        if slot >= self.capacity || self.state[slot as usize] != SlotState::Live {
            return Err(StorageError::NoSuchSlot {
                page: page_no,
                slot,
            });
        }
        self.state[slot as usize] = SlotState::Free;
        self.live -= 1;
        Ok(())
    }

    /// Retire the record in `slot`: make it invisible to reads and scans
    /// but keep the slot unavailable for reuse until [`Page::release`].
    pub fn retire(&mut self, page_no: u32, slot: u16) -> StorageResult<()> {
        if slot >= self.capacity || self.state[slot as usize] != SlotState::Live {
            return Err(StorageError::NoSuchSlot {
                page: page_no,
                slot,
            });
        }
        self.state[slot as usize] = SlotState::Retired;
        self.live -= 1;
        self.retired += 1;
        Ok(())
    }

    /// Release a retired slot for reuse — only after the GC's epoch grace
    /// period has elapsed.
    pub fn release(&mut self, page_no: u32, slot: u16) -> StorageResult<()> {
        if slot >= self.capacity || self.state[slot as usize] != SlotState::Retired {
            return Err(StorageError::NoSuchSlot {
                page: page_no,
                slot,
            });
        }
        self.state[slot as usize] = SlotState::Free;
        self.retired -= 1;
        Ok(())
    }

    /// Iterate over `(slot, record)` pairs of live slots.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        self.state
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == SlotState::Live)
            .map(move |(i, _)| (i as u16, &self.data[self.slot_range(i as u16)]))
    }

    /// Raw record bytes of the whole page, in slot order — the disk codec's
    /// data region. Free/retired slots contribute their stale bytes; the
    /// packed state map decides what is live on reload.
    pub(crate) fn data_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Pack the per-slot states two bits each (`00` free, `01` live, `10`
    /// retired), slot `i` at byte `i / 4`, bits `(i % 4) * 2` — the disk
    /// codec's state region.
    pub(crate) fn pack_states(&self) -> Vec<u8> {
        let mut out = vec![0u8; (self.capacity as usize).div_ceil(4)];
        for (i, &s) in self.state.iter().enumerate() {
            let bits = match s {
                SlotState::Free => 0u8,
                SlotState::Live => 1,
                SlotState::Retired => 2,
            };
            out[i / 4] |= bits << ((i % 4) * 2);
        }
        out
    }

    /// Overwrite this page with its disk-codec regions, in place: a page
    /// fault reuses the buffers of a page it took back from the pool.
    /// `live`/`retired` are recomputed from the unpacked states; the caller
    /// validates them against the on-disk header as a corruption check. On
    /// an error the page holds a partial image and must be loaded again.
    pub(crate) fn load_disk_parts(
        &mut self,
        packed_states: &[u8],
        data: &[u8],
    ) -> StorageResult<()> {
        let expected_states = (self.capacity as usize).div_ceil(4);
        if packed_states.len() != expected_states || data.len() != self.data.len() {
            return Err(StorageError::Corrupt(format!(
                "disk page regions malformed: {} state bytes (want {expected_states}), {} data bytes (want {})",
                packed_states.len(),
                data.len(),
                self.data.len(),
            )));
        }
        (self.live, self.retired) = (0, 0);
        for i in 0..self.capacity as usize {
            let bits = (packed_states[i / 4] >> ((i % 4) * 2)) & 0b11;
            self.state[i] = match bits {
                0 => SlotState::Free,
                1 => {
                    self.live += 1;
                    SlotState::Live
                }
                2 => {
                    self.retired += 1;
                    SlotState::Retired
                }
                _ => {
                    return Err(StorageError::Corrupt(format!(
                        "disk page slot {i} has invalid state bits {bits:#b}"
                    )))
                }
            };
        }
        self.data.copy_from_slice(data);
        Ok(())
    }

    /// Copy every live record into `batch` — the only batch-path work done
    /// under the page latch. Fully-live pages take the dense single-copy
    /// fast path.
    pub(crate) fn fill_batch(&self, page_no: u32, batch: &mut crate::batch::RecordBatch) {
        batch.begin(page_no, self.record_len, self.live as usize);
        if self.live == self.capacity {
            batch.push_dense(self.capacity, &self.data);
        } else {
            for (slot, record) in self.iter() {
                batch.push_record(slot, record);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_from_record_len() {
        let p = Page::new(43).unwrap();
        assert_eq!(p.capacity(), (4096 / 43) as u16);
        assert!(Page::new(0).is_err());
        assert!(Page::new(5000).is_err());
        assert_eq!(Page::new(4096).unwrap().capacity(), 1);
    }

    #[test]
    fn insert_read_round_trip() {
        let mut p = Page::new(4).unwrap();
        let s = p.insert(&[1, 2, 3, 4]).unwrap().unwrap();
        assert_eq!(p.read(0, s).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(p.live(), 1);
    }

    #[test]
    fn insert_fills_then_rejects() {
        let mut p = Page::new(2048).unwrap();
        assert!(p.insert(&[0u8; 2048]).unwrap().is_some());
        assert!(p.insert(&[0u8; 2048]).unwrap().is_some());
        assert_eq!(p.insert(&[0u8; 2048]).unwrap(), None);
        assert!(!p.has_room());
    }

    #[test]
    fn wrong_width_rejected() {
        let mut p = Page::new(4).unwrap();
        assert!(matches!(
            p.insert(&[1, 2, 3]),
            Err(StorageError::RecordLength {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn update_in_place_preserves_slot() {
        let mut p = Page::new(4).unwrap();
        let s = p.insert(&[1, 1, 1, 1]).unwrap().unwrap();
        p.update_in_place(0, s, &[2, 2, 2, 2]).unwrap();
        assert_eq!(p.read(0, s).unwrap(), &[2, 2, 2, 2]);
        assert!(p.update_in_place(0, s, &[9, 9]).is_err());
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = Page::new(4).unwrap();
        let a = p.insert(&[1, 1, 1, 1]).unwrap().unwrap();
        let _b = p.insert(&[2, 2, 2, 2]).unwrap().unwrap();
        p.delete(0, a).unwrap();
        assert!(p.read(0, a).is_err());
        let c = p.insert(&[3, 3, 3, 3]).unwrap().unwrap();
        assert_eq!(c, a); // first-fit reuse
    }

    #[test]
    fn double_delete_errors() {
        let mut p = Page::new(4).unwrap();
        let s = p.insert(&[0u8; 4]).unwrap().unwrap();
        p.delete(0, s).unwrap();
        assert!(matches!(
            p.delete(0, s),
            Err(StorageError::NoSuchSlot { .. })
        ));
    }

    #[test]
    fn retired_slot_is_invisible_but_not_reusable() {
        let mut p = Page::new(4).unwrap();
        let a = p.insert(&[1, 1, 1, 1]).unwrap().unwrap();
        p.retire(0, a).unwrap();
        assert_eq!((p.live(), p.retired()), (0, 1));
        assert!(p.read(0, a).is_err(), "retired reads as gone");
        assert!(p.iter().next().is_none(), "retired excluded from scans");
        let b = p.insert(&[2, 2, 2, 2]).unwrap().unwrap();
        assert_ne!(b, a, "retired slot must not be reused");
        assert!(p.retire(0, a).is_err(), "double retire");
        p.release(0, a).unwrap();
        assert_eq!(p.retired(), 0);
        assert!(p.release(0, a).is_err(), "double release");
        let c = p.insert(&[3, 3, 3, 3]).unwrap().unwrap();
        assert_eq!(c, a, "released slot is first-fit reusable");
    }

    #[test]
    fn retired_slots_count_against_room() {
        let mut p = Page::new(2048).unwrap();
        let a = p.insert(&[1u8; 2048]).unwrap().unwrap();
        p.insert(&[2u8; 2048]).unwrap().unwrap();
        p.retire(0, a).unwrap();
        assert!(!p.has_room(), "a retired slot is not room");
        assert_eq!(p.insert(&[3u8; 2048]).unwrap(), None);
        p.release(0, a).unwrap();
        assert!(p.has_room());
        assert!(p.insert(&[3u8; 2048]).unwrap().is_some());
    }

    #[test]
    fn fill_batch_copies_live_records() {
        let mut p = Page::new(4).unwrap();
        let a = p.insert(&[1, 0, 0, 0]).unwrap().unwrap();
        let b = p.insert(&[2, 0, 0, 0]).unwrap().unwrap();
        p.insert(&[3, 0, 0, 0]).unwrap().unwrap();
        p.delete(0, a).unwrap();
        p.retire(0, b).unwrap();
        let mut batch = crate::batch::RecordBatch::default();
        p.fill_batch(9, &mut batch);
        assert_eq!(batch.page_no(), 9);
        assert_eq!(batch.slots(), &[2]);
        assert_eq!(batch.record(0), &[3, 0, 0, 0]);
    }

    #[test]
    fn fill_batch_dense_page_fast_path() {
        let mut p = Page::new(1024).unwrap();
        for i in 0..4u8 {
            p.insert(&[i; 1024]).unwrap().unwrap();
        }
        assert_eq!(p.live(), p.capacity());
        let mut batch = crate::batch::RecordBatch::default();
        p.fill_batch(0, &mut batch);
        assert_eq!(batch.slots(), &[0, 1, 2, 3]);
        for i in 0..4usize {
            assert!(batch.record(i).iter().all(|&x| x == i as u8));
        }
    }

    #[test]
    fn loading_over_a_used_page_equals_loading_a_fresh_one() {
        let mut src = Page::new(512).unwrap();
        for i in 0..8u8 {
            src.insert(&[i; 512]).unwrap().unwrap();
        }
        src.delete(0, 2).unwrap();
        src.retire(0, 5).unwrap();
        let mut used = Page::new(512).unwrap();
        used.insert(&[0xEE; 512]).unwrap().unwrap();
        used.retire(0, 0).unwrap();
        let mut fresh = Page::new(512).unwrap();
        for page in [&mut used, &mut fresh] {
            page.load_disk_parts(&src.pack_states(), src.data_bytes())
                .unwrap();
            assert_eq!((page.live(), page.retired()), (6, 1));
            assert_eq!(page.pack_states(), src.pack_states());
            assert_eq!(page.data_bytes(), src.data_bytes());
        }
        let bad = [0xFFu8; 2];
        assert!(used.load_disk_parts(&bad, src.data_bytes()).is_err());
    }

    #[test]
    fn iter_yields_occupied_only() {
        let mut p = Page::new(4).unwrap();
        let a = p.insert(&[1, 0, 0, 0]).unwrap().unwrap();
        let b = p.insert(&[2, 0, 0, 0]).unwrap().unwrap();
        p.delete(0, a).unwrap();
        let got: Vec<_> = p.iter().map(|(s, r)| (s, r[0])).collect();
        assert_eq!(got, vec![(b, 2)]);
    }
}
