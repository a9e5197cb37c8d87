// Fixture: root-package library with one latch-order violation.
// Line numbers are asserted by ../../fixture.rs — edit with care.

pub fn latch_then_registry(table: &Table) {
    let _guard = write_latch(&table.page);
    let _snap = table.indexes_snapshot(); // line 6: latch-order
}

pub fn registry_then_latch(table: &Table) {
    let _snap = table.indexes_snapshot(); // fine: snapshot-first order
    let _guard = write_latch(&table.page);
}

// lint: allow(no-such-rule) — line 14: pragma naming no rule
// lint: allow(latch-order) — line 15: pragma that suppresses nothing
