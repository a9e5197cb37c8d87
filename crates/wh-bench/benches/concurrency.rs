//! E10 — reader throughput while the maintenance transaction runs, per
//! concurrency-control scheme (§6 comparison).
//!
//! For every scheme, a writer holds an in-flight maintenance transaction
//! that has already updated every tuple; the benchmark measures a reader
//! session doing point reads against that state. Under S2PL the reads
//! abort (lock timeout) — their cost is the timeout itself, which is the
//! phenomenon being measured, so S2PL is benchmarked with a much shorter
//! timeout and reported separately.
#![allow(clippy::unwrap_used)]

use std::time::Duration;
use wh_bench::micro::Micro;
use wh_cc::{ConcurrencyScheme, Mv2plStore, S2plStore, TwoV2plStore};
use wh_vnl::VnlStore;

const KEYS: u64 = 1_024;

fn bench_read_during_maintenance(m: &mut Micro) {
    // Schemes where readers proceed: 2V2PL, MV2PL, 2VNL.
    let v2: Box<dyn ConcurrencyScheme> =
        Box::new(TwoV2plStore::populate(KEYS, Duration::from_millis(50)).unwrap());
    let mv: Box<dyn ConcurrencyScheme> = Box::new(Mv2plStore::populate(KEYS).unwrap());
    let vnl: Box<dyn ConcurrencyScheme> = Box::new(VnlStore::populate(KEYS, 2).unwrap());
    for scheme in [&v2, &mv, &vnl] {
        let mut writer = scheme.begin_writer();
        for k in 0..KEYS {
            writer.update(k, 1).unwrap();
        }
        // Writer stays open: maintenance is mid-flight.
        let mut k = 0u64;
        let mut reader = scheme.begin_reader();
        m.bench(
            format!("reads_during_active_maintenance/{}_read", scheme.name()),
            || {
                k = (k + 7) % KEYS;
                reader.read(k).unwrap()
            },
        );
        reader.finish();
        writer.abort().unwrap();
    }

    // S2PL: the read blocks until timeout — measure the abort latency with a
    // deliberately small timeout so the bench finishes.
    let s2 = S2plStore::populate(KEYS, Duration::from_micros(200)).unwrap();
    let mut writer = s2.begin_writer();
    for k in 0..KEYS {
        writer.update(k, 1).unwrap();
    }
    let mut k = 0u64;
    m.bench("S2PL_read_aborts_during_maintenance", || {
        k = (k + 7) % KEYS;
        let mut reader = s2.begin_reader();
        let err = reader.read(k).unwrap_err();
        reader.finish();
        err
    });
    writer.commit().unwrap();
}

fn bench_session_begin_cost(m: &mut Micro) {
    // 2VNL session begin/end: one Version-relation read, no locks.
    let vnl = VnlStore::populate(KEYS, 2).unwrap();
    m.bench("2VNL_session_begin_finish", || {
        let r = vnl.begin_reader();
        r.finish();
    });
}

fn main() {
    let mut m = Micro::new();
    bench_read_during_maintenance(&mut m);
    bench_session_begin_cost(&mut m);
    m.finish();
}
