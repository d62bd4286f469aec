//! Per-layer metrics shared by the workloads that run a layer, computed
//! from a traced phase's spans and the layer's own counters.

use std::time::Duration;

use td_registry::RegistryStats;
use td_shard::ShardedAggregate;

use crate::global_ooo::Backend;
use crate::stats::{self, Report};
use crate::trace::Analysis;

/// What the sharded engine did during the traced phase.
pub(crate) struct EngineRun<'a> {
    pub engine: &'a ShardedAggregate<Backend>,
    /// Epoch-cache `(hits, rebuilds)` during the phase.
    pub cache: (u64, u64),
    /// On-CPU time of the shard worker threads during the phase.
    pub busy_ns: u64,
    pub elapsed: Duration,
    pub summary_bits: u64,
}

/// `shard.*` and `backend.*` metrics.
pub(crate) fn engine(report: &mut Report, a: &Analysis, run: &EngineRun) {
    let shards = run.engine.shard_stats();
    let applied = shards.iter().map(|s| s.applied);
    let (lo, hi) = (applied.clone().min(), applied.max());
    let (hits, rebuilds) = run.cache;
    let shard_items = a.items("shard", "observe_batch").max(1) as f64;
    let backend_items = a.items("backend", "observe_batch").max(1) as f64;
    let backend_ticks: u64 = a.of("backend", "observe_batch").map(|s| s.ticks).sum();
    let query = stats::tail(&mut a.durations("shard", "try_query"));
    report.metric(
        "shard.observe_batch_ns_per_item",
        a.total_ns("shard", "observe_batch") as f64 / shard_items,
        "ns",
    );
    report.metric(
        "shard.blocked_pushes",
        shards.iter().map(|s| s.blocked_pushes).sum::<u64>() as f64,
        "count",
    );
    if let (Some(lo), Some(hi)) = (lo, hi) {
        report.metric(
            "shard.applied_skew",
            hi as f64 / lo.max(1) as f64 - 1.0,
            "ratio",
        );
    }
    report.metric(
        "shard.worker_busy_frac",
        run.busy_ns as f64 / (run.elapsed.as_nanos() as f64 * shards.len() as f64),
        "ratio",
    );
    report.metric("shard.query_us_p50", query.p50 / 1e3, "us");
    report.metric("shard.query_us_p99", query.tail / 1e3, "us");
    report.metric(
        "shard.cache_hit_frac",
        hits as f64 / (hits + rebuilds).max(1) as f64,
        "ratio",
    );
    report.metric(
        "backend.observe_batch_ns_per_item",
        a.total_ns("backend", "observe_batch") as f64 / backend_items,
        "ns",
    );
    report.metric(
        "backend.items_per_call",
        backend_items / a.calls("backend", "observe_batch").max(1) as f64,
        "count",
    );
    report.metric(
        "backend.items_per_distinct_tick",
        backend_items / backend_ticks.max(1) as f64,
        "count",
    );
    report.metric(
        "backend.merge_us",
        stats::median(&mut a.durations("backend", "merge_from")) / 1e3,
        "us",
    );
    report.metric(
        "backend.query_ns",
        stats::median(&mut a.durations("backend", "query")),
        "ns",
    );
    report.metric("backend.summary_bits", run.summary_bits as f64, "bits");
    report.stamp("shard_query_samples", query.n);
    report.stamp("shard_query_tail_quantile", query.tail_q);
}

/// `registry.*` metrics. `reserved` is the key count the registry's
/// columns were sized for; `slack_rel_mean` the mean eviction slack
/// relative to the estimate over the checked answers.
pub(crate) fn registry(
    report: &mut Report,
    a: &Analysis,
    rs: &RegistryStats,
    reserved: u64,
    slack_rel_mean: f64,
) {
    let query = stats::tail(&mut a.durations("registry", "query_key"));
    let live = rs.live_keys.max(1) as f64;
    report.metric(
        "registry.ingest_ns_per_item",
        a.total_ns("registry", "observe_keyed_batch") as f64
            / a.items("registry", "observe_keyed_batch").max(1) as f64,
        "ns",
    );
    report.metric(
        "registry.sweep_visits_per_item",
        rs.sweep_visits as f64 / rs.touches_total.max(1) as f64,
        "count",
    );
    report.metric("registry.query_key_ns_p50", query.p50, "ns");
    report.metric("registry.query_key_ns_p99", query.tail, "ns");
    report.metric("registry.live_keys", rs.live_keys as f64, "count");
    report.metric(
        "registry.bytes_per_live_key",
        rs.resident_bytes as f64 / live,
        "B",
    );
    report.metric(
        "registry.bytes_per_slot",
        rs.resident_bytes as f64 / rs.slots.max(reserved as usize) as f64,
        "B",
    );
    report.metric("registry.evictions", rs.evictions as f64, "count");
    report.metric("registry.evicted_slack_rel_mean", slack_rel_mean, "ratio");
    report.stamp("registry_query_samples", query.n);
    report.stamp("registry_query_tail_quantile", query.tail_q);
}

/// `trace.*` metrics: the ingest-rate drop from the untraced to the
/// traced phase, and the share of the traced loop no layer span covers.
pub(crate) fn tracing(
    report: &mut Report,
    a: &Analysis,
    spans: usize,
    plain_rate: f64,
    traced_rate: f64,
) {
    report.metric(
        "trace.overhead_frac",
        1.0 - traced_rate / plain_rate,
        "ratio",
    );
    if let Some(root) = a.of("bench", "loop").next() {
        report.metric(
            "trace.unattributed_frac",
            a.self_ns("bench") as f64 / root.dur_ns() as f64,
            "ratio",
        );
    }
    report.metric("trace.spans", spans as f64, "count");
}
