//! Head-to-head run of the §6 lineup — strict 2PL, 2V2PL, MV2PL, and 2VNL —
//! on the same one-writer/many-readers warehouse workload, printing the
//! blocking, throughput, I/O, and storage profile of each. This is
//! experiment E10's table (EXPERIMENTS.md): one batch writer updates every
//! tuple each round while reader sessions stream point reads, heavily
//! enough that 2V2PL's certify starves ("readers delay writers").
//!
//! ```sh
//! cargo run --release --example scheme_comparison
//! ```

use warehouse_2vnl::bench::{all_schemes, mixed_run, print_table};

fn main() {
    let (keys, readers, reads_per_session, rounds) = (512, 4, 256, 8);
    println!(
        "one maintenance writer ({rounds} rounds over {keys} tuples) vs {readers} reader threads x {reads_per_session} reads/session\n"
    );
    let mut rows = Vec::new();
    for scheme in all_schemes(keys) {
        let r = mixed_run(scheme.as_ref(), keys, readers, reads_per_session, rounds);
        rows.push(vec![
            r.scheme.clone(),
            format!("{:.0}", r.reads_ok as f64 / r.elapsed.as_secs_f64() / 1e3),
            r.reads_failed.to_string(),
            format!("{}/{rounds}", r.commits),
            r.cc.reader_blocks.to_string(),
            r.cc.writer_blocks.to_string(),
            r.cc.commit_delays.to_string(),
            format!("{:.2}ms", r.cc.commit_delay_ns as f64 / 1e6),
            r.cc.aborts.to_string(),
            (r.io.page_reads + r.io.page_writes).to_string(),
            r.storage_bytes.to_string(),
        ]);
    }
    print_table(
        &[
            "scheme",
            "reads/ms",
            "reads failed",
            "commits",
            "reader blocks",
            "writer blocks",
            "commit delays",
            "delay total",
            "aborts",
            "page I/Os",
            "storage B",
        ],
        &rows,
    );
    println!(
        "\n2VNL: zero blocks, zero delays, all commits — and old versions live inside\n\
         the tuples instead of a version pool."
    );
}
