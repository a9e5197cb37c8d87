// Fixture: root-package library with one violation per encapsulation rule.
// Line numbers are asserted by ../../fixture.rs — edit with care.

pub fn poke(core: &VersionCore) -> u64 {
    core.recovery_floor // line 5: version-encapsulation
}

pub fn method_ok(core: &VersionCore) -> u64 {
    core.recovery_floor() // fine: accessor call
}

pub fn latch_then_registry(table: &Table) {
    let _guard = write_latch(&table.page);
    let _snap = table.indexes_snapshot(); // line 14: latch-order
}

pub fn registry_then_latch(table: &Table) {
    let _snap = table.indexes_snapshot(); // fine: snapshot-first order
    let _guard = write_latch(&table.page);
}
