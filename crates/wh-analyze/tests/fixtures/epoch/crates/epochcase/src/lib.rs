// Fixture: the `epoch-discipline` rule, seeded with the PR-4 fence-bug
// shape — a public entry reaches a raw-access sink through a helper with
// no EpochPin or latch on the path, so a RID probed by the sink can be
// reclaimed and reused between probe and fetch. Line numbers are asserted
// by ../../../../fixture.rs — edit with care.

pub struct HeapFile;

impl HeapFile {
    /// Raw-access sink: resolves RIDs against reclaimable storage. Its own
    /// body is exempt — the obligation sits with every caller.
    pub fn scan(&self, visit: Visitor) -> Result<(), Error> {
        let _ = visit;
        Ok(())
    }
}

pub fn audit(heap: &HeapFile) -> Result<(), Error> {
    collect_rows(heap) // exposes collect_rows with no protection
}

fn collect_rows(heap: &HeapFile) -> Result<(), Error> {
    heap.scan(note_row) // line 23: epoch-discipline (unprotected path)
}

pub fn audit_pinned(heap: &HeapFile, epochs: &EpochRegistry) -> Result<(), Error> {
    let _pin = epochs.pin();
    heap.scan(note_row) // fine: epoch pinned earlier in this function
}

pub fn audit_latched(heap: &HeapFile, page: &RwLock<Page>) -> Result<(), Error> {
    let _g = read_latch(page);
    heap.scan(note_row) // fine: latch held earlier in this function
}

pub fn audit_suppressed(heap: &HeapFile) -> Result<(), Error> {
    // lint: allow(epoch-discipline) — fixture: the caller's contract re-validates every RID at fetch time
    heap.scan(note_row)
}

pub struct VnlTable;

impl VnlTable {
    /// Raw-access sink: the whole-relation stamp walker hands out RIDs and
    /// does not pin — the obligation sits with every caller.
    pub fn walk_stamps(&self, visit: Visitor) -> Result<(), Error> {
        let _ = visit;
        Ok(())
    }
}

pub fn sweep(table: &VnlTable) -> Result<(), Error> {
    table.walk_stamps(note_row) // line 53: epoch-discipline (unpinned walker call)
}

pub fn sweep_pinned(table: &VnlTable, epochs: &EpochRegistry) -> Result<(), Error> {
    let _pin = epochs.pin();
    table.walk_stamps(note_row) // fine: the walk and what follows its RIDs share the pin
}

// A private callee whose rustfmt'd signature carries a comma inside a
// generic and a trailing comma: its arity is 2, so `update`'s call
// resolves to it and the walk inside is reachable from a public entry.
pub fn update(table: &VnlTable, seen: &HashMap<u32, u32>) -> Result<(), Error> {
    cursor(table, seen)
}

fn cursor(
    table: &VnlTable,
    seen: &HashMap<u32, u32>,
) -> Result<(), Error> {
    let _ = seen;
    table.walk_stamps(note_row) // line 73: epoch-discipline (through a trailing-comma signature)
}
