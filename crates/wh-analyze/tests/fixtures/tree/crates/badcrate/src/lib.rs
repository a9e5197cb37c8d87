// Fixture: a library crate seeded with ordering and failpoint violations
// plus the exemption cases that must NOT fire. Line numbers are asserted
// by the integration test.

pub fn bare_load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed) // line 6: atomic-protocol (no ordering tag)
}

pub fn justified_load(a: &AtomicU64) -> u64 {
    // ordering: fixture Relaxed — monotone counter, guards no other data
    a.load(Ordering::Relaxed)
}

pub fn fires() -> Result<(), Error> {
    fail_point!("fixture.not.registered"); // line 15: failpoint-registry + failpoint-trace
    fail_point!("vnl.version.begin"); // line 16: failpoint-trace (registered but uncovered)
    Ok(())
}

pub fn covered_by_span() -> Result<(), Error> {
    let _ts = wh_obs::trace_span!("fixture.covered");
    fail_point!("vnl.version.begin"); // fine: span opened earlier in this fn
    Ok(())
}

pub fn covered_by_timed_span() -> Result<(), Error> {
    let _ts = wh_obs::timed_span!("fixture.timed", "fixture.timed_ns");
    fail_point!("vnl.version.begin"); // fine: a timed span is a span
    Ok(())
}

pub fn covered_by_marker() -> Result<(), Error> {
    // trace: fixture — the caller's ambient txn span covers this leaf.
    fail_point!("vnl.version.begin"); // fine: adjacent trace marker
    Ok(())
}

pub fn cmp_is_fine(a: i32, b: i32) -> std::cmp::Ordering {
    a.cmp(&b)
}

pub fn classifies(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire) // line 43: atomic-protocol (no atomic method, still needs a tag)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic_and_skip_ordering_comments() {
        let v: Option<u32> = None;
        assert!(std::panic::catch_unwind(|| v.unwrap()).is_err());
        let a = AtomicU64::new(0);
        a.store(1, Ordering::SeqCst);
    }
}
