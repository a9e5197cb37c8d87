//! From a run's [`Outcome`] to named numbers.
//!
//! End-to-end metrics come from the untraced run. Per-layer metrics come
//! from the traced run: a delta of the product's own registry over the
//! window where the product counts the thing, a ladder probe (a timed
//! public call) where it does not, and the harness's spans for calls only
//! the harness sees whole (`begin_maintenance`, a warehouse commit).

use crate::run::Outcome;
use crate::spec::spec;
use crate::stats::peak_rss_mb;
use crate::trace::self_times;

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics. Rates and percentiles are over the part of each
/// side's window that passed the environment check (see `run::Side`).
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let (read, maint) = (o.read.judged(), o.maint.judged());
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => o.setup_s,
            "read_ops_per_s" => read.per_s(),
            "read_p50_ms" => read.lat.quantile_ms(0.50),
            "read_p99_ms" => read.lat.quantile_ms(0.99),
            "maint_rows_per_s" => maint.per_s(),
            "maint_txn_p50_ms" => maint.lat.quantile_ms(0.50),
            "maint_txn_p90_ms" => maint.lat.quantile_ms(0.90),
            "space_amp" => o.space_amp,
            "peak_rss_mb" => peak_rss_mb(),
            other => unreachable!("no rule for end-to-end metric {other}"),
        }
    };
    spec()
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), value(&m.name), m.unit.as_str()))
        .collect()
}

pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let l = o
        .ladder
        .as_ref()
        .expect("per-layer metrics need the traced run's ladder");
    let (rr, rm) = (&o.reg_read, &o.reg_maint);
    // GC also runs after the window; its pass time is read over the
    // process's lifetime (set-up collects nothing).
    let life = wh_obs::registry::global().snapshot();
    let c = |s: &wh_obs::Snapshot, name: &str| s.counter(name) as f64;
    let hist_mean_us = |s: &wh_obs::Snapshot, name: &str| s.histogram(name).mean() / 1e3;
    // Registry deltas cover the whole window, whatever the check said.
    let read_s = o.read.whole.interval_ns as f64 / 1e9;
    let arm = |suffix: &str| c(rm, &format!("vnl.maintenance.arm.{suffix}"));
    let dml: f64 = [
        "insert_tuple",
        "resurrect_tuple",
        "update_after_own_delete",
        "update_saving_pre",
        "update_in_place",
        "mark_deleted",
        "remove_own_insert",
        "restore_resurrected",
        "mark_own_update_deleted",
    ]
    .iter()
    .map(|a| arm(a))
    .sum();
    let index_ops: f64 = [
        "hash.inserts",
        "hash.removes",
        "ordered.inserts",
        "ordered.removes",
    ]
    .iter()
    .map(|n| c(rm, &format!("index.{n}")))
    .sum();
    let stmts = l.stmts.max(1) as f64;
    let driver_spans = self_times(&o.maint.tracer);
    // Mean duration in microseconds of the driver's spans called `name`.
    let span_mean_us = |name: &str| {
        driver_spans
            .iter()
            .find(|s| s.0 == name)
            .map_or(0.0, |&(_, count, total, _)| {
                ratio(total as f64, count as f64) / 1e3
            })
    };
    // Driver time inside product calls (everything but `client.*` phases
    // and the enclosing `op.maint`) over the wall time of its recorder-on
    // slices.
    let driver_product_ns: u64 = driver_spans
        .iter()
        .filter(|s| s.0.starts_with("vnl.") || s.0.starts_with("view."))
        .map(|s| s.2)
        .sum();
    let repaired = c(rr, "vnl.resilience.repair.repaired");

    let value = |name: &str| -> f64 {
        match name {
            "sql.parse_us" => l.parse_us,
            "sql.pushdown_us" => l.pushdown_us,
            "sql.exec_self_ms" => (l.rung3_ns - l.rung2_ns) / stmts / 1e6,
            "sql.rows_in_per_row_out" => {
                ratio(c(rr, "sql.exec.scan.rows_in"), c(rr, "sql.exec.rows_out"))
            }
            "sql.pushed_conjunct_share" => l.pushed_conjunct_share,
            "vnl.session_begin_us" => l.session_begin_us,
            "vnl.scan_self_ns_per_tuple" => ratio(l.rung2_ns - l.rung1_ns, l.physical as f64),
            "vnl.scan_visible_share" => ratio(l.visible as f64, l.physical as f64),
            "vnl.lookup_us" => l.lookup_us,
            "vnl.expired_per_1k_sessions" => {
                1e3 * ratio(
                    c(rr, "vnl.reader.expirations"),
                    c(rr, "vnl.reader.sessions"),
                )
            }
            "vnl.repair.repaired_share" => ratio(
                repaired,
                repaired + c(rr, "vnl.resilience.repair.restarted"),
            ),
            "vnl.repair.wasted_rows" => c(rr, "vnl.resilience.repair.wasted_rows"),
            "vnl.maint.begin_us" => span_mean_us("vnl.maint.begin"),
            "vnl.maint.insert_us" => hist_mean_us(rm, "vnl.maintenance.insert_ns"),
            "vnl.maint.update_us" => hist_mean_us(rm, "vnl.maintenance.update_ns"),
            "vnl.maint.delete_us" => hist_mean_us(rm, "vnl.maintenance.delete_ns"),
            "vnl.maint.commit_us" => span_mean_us("vnl.commit"),
            "vnl.maint.pre_image_share" => ratio(
                arm("update_saving_pre"),
                arm("update_saving_pre") + arm("update_in_place") + arm("update_after_own_delete"),
            ),
            "vnl.delta.retained" => rm.gauge("vnl.delta.retained") as f64,
            "vnl.delta.evicted" => c(rm, "vnl.delta.evicted"),
            "vnl.gc.pass_ms" => life.histogram("vnl.gc.pass_ns").mean() / 1e6,
            "vnl.gc.reclaimed_per_pass" => ratio(o.bg.gc_reclaimed as f64, o.bg.gc_passes as f64),
            "vnl.gc.scanned_per_reclaimed" => {
                ratio(o.bg.gc_scanned as f64, o.bg.gc_reclaimed as f64)
            }
            "vnl.gc.retired_backlog_max" => o.bg.gc_backlog_max as f64,
            "vnl.durable.checkpoint_ms" => ratio(o.bg.ckpt_ns as f64, o.bg.ckpts as f64) / 1e6,
            "vnl.durable.checkpoint_max_ms" => o.bg.ckpt_max_ns as f64 / 1e6,
            "vnl.durable.recover_ms" => o.bg.recover_ms,
            "view.summarize_ns_per_delta" => l.summarize_ns_per_delta,
            "view.propagate_self_us_per_group" => l.propagate_self_us_per_group,
            "view.source_deltas_per_group" => l.source_deltas_per_group,
            "index.lookup_eq_us" => l.lookup_eq_us,
            "index.probes_per_lookup" => l.probes_per_lookup,
            "index.maint_ops_per_dml" => ratio(index_ops, dml),
            "storage.gather_ns_per_tuple" => ratio(l.rung1_ns, l.physical as f64),
            "storage.pages_per_read_op" => l.pages_per_op,
            "storage.pool.hit_rate" => ratio(
                c(rr, "storage.pool.hits"),
                c(rr, "storage.pool.hits") + c(rr, "storage.pool.misses"),
            ),
            "storage.pool.evictions_per_s" => ratio(c(rr, "storage.pool.evictions"), read_s),
            "storage.pool.flushes_per_s" => ratio(c(rr, "storage.pool.flushes"), read_s),
            "storage.pool.miss_fetch_us" => l.miss_fetch_us,
            "storage.disk.page_reads_per_s" => ratio(c(rr, "storage.disk.page_reads"), read_s),
            "storage.disk.page_writes_per_s" => ratio(c(rr, "storage.disk.page_writes"), read_s),
            "storage.disk.write_amp" => ratio(
                c(rm, "storage.disk.page_writes") * wh_storage::PAGE_SIZE as f64,
                dml * o.base_row_bytes as f64,
            ),
            "storage.ckpt.pages_flushed_per_ckpt" => {
                ratio(o.bg.ckpt_pages as f64, o.bg.ckpts as f64)
            }
            "storage.latch.read_wait_us_per_op" => ratio(
                rr.histogram("storage.latch.read_wait_ns").sum as f64 / 1e3,
                o.read.attempts as f64,
            ),
            "storage.latch.write_wait_us_per_txn" => ratio(
                rm.histogram("storage.latch.write_wait_ns").sum as f64 / 1e3,
                o.maint.attempts as f64,
            ),
            "types.decode_ns_per_row" => l.decode_ns_per_row,
            "types.encode_ns_per_row" => l.encode_ns_per_row,
            "obs.trace_overhead_pct" => o.read.tracer.tally.overhead_pct(),
            "client.maint_late_p90_ms" => o.maint.late.quantile_ms(0.90),
            // Waiting for a due time is the harness's, not the program's.
            "client.cpu_busy_share" => {
                ratio(o.cpu_s - o.maint.waited_ns as f64 / 1e9, o.wall_s) / 2.0
            }
            "client.unresolved_share" => o.unresolved_share(),
            "client.read_samples" => o.read.judged().lat.count() as f64,
            "client.maint_samples" => o.maint.judged().lat.count() as f64,
            "share.read.storage" => ratio(l.rung1_ns, l.rung3_ns),
            "share.read.vnl" => ratio(l.rung2_ns - l.rung1_ns, l.rung3_ns),
            "share.read.sql" => ratio(l.rung3_ns - l.rung2_ns, l.rung3_ns),
            "share.driver.product" => {
                ratio(driver_product_ns as f64, o.maint.tracer.on_wall_ns as f64)
            }
            other => unreachable!("no rule for per-layer metric {other}"),
        }
    };
    spec()
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), value(&m.name), m.unit.as_str()))
        .collect()
}
