//! The timedecay pipeline benchmark.
//!
//! One command runs one named workload against the public APIs of
//! `td-reorder`, `td-shard`, `td-registry`, `td-persist` and the
//! `td-wbmh` / `td-forward` backends, checks sampled answers against
//! exact oracles, and prints its metrics as one JSON line:
//!
//! * `global_ooo` — one global WBMH (POLYD α=1, ε=0.02) aggregate behind a
//!   2-shard engine and a 4-source bounded-lateness reorder stage,
//!   closed loop, after a sparse history fed during set-up (the stream
//!   is 2^30 ticks old when a run starts, so the summary's size does not
//!   depend on how far the run gets). Reorder, shard scatter/drain and
//!   WBMH batch ingest do the work; the registry and the WAL do none.
//! * `keyed_durable` — Zipf(1.1) tenants over 1M keys, one
//!   `ForwardDecaySum<Exponential>` per key in a `KeyedRegistry` with
//!   eviction, behind `DurableAggregate::open_keyed` on a `DirStorage`;
//!   closed loop, 10% point queries, crash recovery timed on copies of
//!   the store taken through the run. Registry, WAL and checkpoints do
//!   the work; reorder and shard none.
//! * `read_mix` — open loop at a fixed op rate: 90% reads split between
//!   `query_key` over 4M resident keys and `try_query` on a 2-shard
//!   WBMH engine, 10% small writes to both.
//!
//! `--trace 0` reports the end-to-end metrics ([`END_TO_END`]);
//! `--trace 1` runs the workload twice — untraced, then with spans
//! recorded at every layer boundary — and reports the per-layer
//! metrics ([`PER_LAYER`]). `trace.unattributed_frac` is the share of
//! the traced loop's wall time no layer span covers; the layers' self
//! times add up to the wall time within it (expected below 0.1).
//!
//! Every workload reports every end-to-end metric; where a workload's
//! layers have no direct counterpart the metric is defined on what it
//! does have:
//!
//! * `ingest_items_per_s` — closed-loop workloads: items per second at
//!   the stated batch size, the clock stopped after a flush and a
//!   barrier (`global_ooo` reports the median over windows of eight
//!   feed periods). `read_mix`: items written per second of write
//!   service time.
//! * `query_p50_us` / `query_p99_us` — the median and the highest
//!   percentile up to p99 with at least ten samples beyond it, per
//!   window of 1000 queries; the median is the median over windows,
//!   the tail the lower quartile over windows. `read_mix` times each
//!   read from when it was due.
//! * `answer_rel_err_p99` — p99 of `|answer − truth| / max(truth, 1)`
//!   over a fixed, seed-determined sample of answers.
//! * `bytes_per_key` — registry resident bytes per live key;
//!   `global_ooo` has one key, its summary's bytes (paper cost model).
//! * `recover_s` — `keyed_durable`: `open_keyed` (checkpoint plus WAL
//!   tail), the median over the recoveries spread across the run.
//!   `read_mix`: restoring the registry from its checkpoint, the median
//!   of three. `global_ooo`: restoring a single-stream WBMH checkpoint (the
//!   merged serving summary's checkpoint is refused on restore; the
//!   run stamp records the error).
//! * Failed operations (ops_failed_frac = `failed / attempted`) are the
//!   result line's `failed` and `attempted`, not a metric: a metric
//!   that is 0 when all is well has no relative bound.

pub mod gen;
pub mod global_ooo;
pub mod keyed_durable;
mod layers;
pub mod read_mix;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

use stats::{json_num, json_str, Report};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["global_ooo", "keyed_durable", "read_mix"];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ingest_items_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("answer_rel_err_p99", "ratio"),
    ("bytes_per_key", "B"),
    ("peak_rss_mb", "MiB"),
    ("recover_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not run
/// reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("loadgen.late_p99_us", "us"),
    ("loadgen.query_samples", "count"),
    ("reorder.self_ns_per_item", "ns"),
    ("reorder.buffered_items_max", "count"),
    ("reorder.watermark_lag_ticks_p99", "ticks"),
    ("reorder.folded_mass_frac", "ratio"),
    ("reorder.release_items_per_call", "count"),
    ("shard.observe_batch_ns_per_item", "ns"),
    ("shard.blocked_pushes", "count"),
    ("shard.applied_skew", "ratio"),
    ("shard.worker_busy_frac", "ratio"),
    ("shard.single_thread_ratio", "ratio"),
    ("shard.query_us_p50", "us"),
    ("shard.query_us_p99", "us"),
    ("shard.cache_hit_frac", "ratio"),
    ("backend.observe_batch_ns_per_item", "ns"),
    ("backend.items_per_call", "count"),
    ("backend.items_per_distinct_tick", "count"),
    ("backend.merge_us", "us"),
    ("backend.query_ns", "ns"),
    ("backend.summary_bits", "bits"),
    ("registry.ingest_ns_per_item", "ns"),
    ("registry.sweep_visits_per_item", "count"),
    ("registry.query_key_ns_p50", "ns"),
    ("registry.query_key_ns_p99", "ns"),
    ("registry.live_keys", "count"),
    ("registry.bytes_per_live_key", "B"),
    ("registry.bytes_per_slot", "B"),
    ("registry.evictions", "count"),
    ("registry.evicted_slack_rel_mean", "ratio"),
    ("persist.self_ns_per_item", "ns"),
    ("persist.checkpoint_ms_p50", "ms"),
    ("persist.checkpoint_ms_max", "ms"),
    ("persist.checkpoints", "count"),
    ("persist.bytes_written_per_item", "B"),
    ("persist.wal_tail_len_max", "count"),
    ("persist.recover_records_replayed", "count"),
    ("persist.recover_ns_per_record", "ns"),
    ("persist.restore_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether to produce the per-layer (traced) metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Input sizes and cadences. [`Scale::full`] is what the benchmark
/// runs; [`Scale::tiny`] keeps the self-tests fast and stops every
/// workload after a fixed amount of work, so counts repeat exactly.
#[derive(Debug, Clone)]
pub struct Scale {
    /// `global_ooo`: arrivals per feed period.
    pub ooo_arrivals: usize,
    /// `global_ooo`: one `try_query` every this many chunks.
    pub ooo_query_every: usize,
    /// `global_ooo`: periods whose answers feed `answer_rel_err_p99`,
    /// each with input of its own (later periods replay the first and
    /// are checked sparsely).
    pub ooo_rel_err_periods: u64,
    /// `global_ooo`: in those periods, one answer is sampled every this
    /// many chunks.
    pub ooo_sample_every: usize,
    /// `keyed_durable`: key population.
    pub kd_keys: u64,
    /// `keyed_durable`: items per feed period.
    pub kd_items: usize,
    /// `keyed_durable`: items per `observe_keyed_batch` call.
    pub kd_batch: usize,
    /// `keyed_durable`: WAL records between checkpoints.
    pub kd_checkpoint_every: u64,
    /// `keyed_durable`: records logged after the last checkpoint before
    /// the crash, so recovery replays a fixed tail.
    pub kd_tail_records: u64,
    /// `keyed_durable` / `read_mix`: one key in this many is sampled
    /// and checked against its own exact oracle.
    pub sample_one_in: u64,
    /// `read_mix`: resident keys loaded during setup.
    pub rm_keys: u64,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Stop after this many feed periods (`global_ooo`,
    /// `keyed_durable`), if set.
    pub max_periods: Option<u64>,
    /// Stop after this many ops (`read_mix`), if set.
    pub max_ops: Option<u64>,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            ooo_arrivals: 1 << 18,
            ooo_query_every: 64,
            ooo_rel_err_periods: 2,
            ooo_sample_every: 16,
            kd_keys: 1 << 20,
            kd_items: 1 << 20,
            kd_batch: 256,
            kd_checkpoint_every: 8192,
            kd_tail_records: 1024,
            sample_one_in: 64,
            rm_keys: 4 << 20,
            setup_reps: 15,
            max_periods: None,
            max_ops: None,
        }
    }

    /// Small sizes with a fixed work budget, for the self-tests.
    pub fn tiny() -> Scale {
        Scale {
            ooo_arrivals: 1 << 12,
            ooo_query_every: 16,
            ooo_rel_err_periods: 4,
            ooo_sample_every: 4,
            kd_keys: 1 << 12,
            kd_items: 1 << 13,
            kd_batch: 64,
            kd_checkpoint_every: 32,
            kd_tail_records: 8,
            sample_one_in: 16,
            rm_keys: 1 << 13,
            setup_reps: 2,
            max_periods: Some(6),
            max_ops: Some(2000),
        }
    }
}

/// Where runs keep their stores and span dumps: `perfbench-out/` under
/// the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench-out")
}

/// Runs one workload. Per-layer metrics when `args.trace`, else
/// end-to-end metrics.
pub fn run(args: &Args, scale: &Scale) -> Report {
    let secs = Duration::from_secs_f64(args.seconds);
    let mut report = match args.workload.as_str() {
        "global_ooo" => global_ooo::run(args.seed, secs, args.trace, scale),
        "keyed_durable" => keyed_durable::run(args.seed, secs, args.trace, scale),
        "read_mix" => read_mix::run(args.seed, secs, args.trace, scale),
        other => unreachable!("workload {other} validated by Args::parse"),
    };
    report.stamp("seed", args.seed);
    report.stamp("seconds", json_num(args.seconds));
    report.stamp("trace", args.trace);
    report.stamp("nproc", td_bench::host_parallelism());
    report.stamp("cpu", json_str(&td_bench::cpu_model()));
    let _ = std::fs::create_dir_all(out_dir());
    report.stamp("store_fs", json_str(&stats::fs_type(&out_dir())));
    report
}

/// Longest traced phase: spans stay in memory until the run ends.
const TRACED_MAX: Duration = Duration::from_secs(3);

/// Splits a traced run's budget into its untraced and traced phases:
/// half each, the traced one at most [`TRACED_MAX`].
pub fn trace_split(budget: Duration) -> (Duration, Duration) {
    let traced = (budget / 2).min(TRACED_MAX);
    (budget - traced, traced)
}

/// Spans written out per traced run; the metrics cover all of them.
const SPAN_DUMP_LIMIT: usize = 20_000;

/// Writes the first spans of the traced run to
/// `perfbench-out/spans-<workload>-seed<seed>.jsonl` and stamps the
/// path.
pub fn write_spans(a: &trace::Analysis, workload: &str, seed: u64, report: &mut Report) {
    let dir = out_dir();
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| a.write_jsonl(&path, SPAN_DUMP_LIMIT));
    match written {
        Ok(()) => report.stamp("spans_file", json_str(&path.display().to_string())),
        Err(e) => report.stamp("spans_file_error", json_str(&e.to_string())),
    }
}

/// Fills in every metric of `table` the workload did not set with 0,
/// in table order.
pub fn complete(report: &mut Report, table: &[(&'static str, &'static str)]) {
    let mut out = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = report.get(name).unwrap_or(0.0);
        out.push(stats::Metric { name, value, unit });
    }
    report.metrics = out;
}

/// The stamp line printed before the result.
pub fn stamp_json(workload: &str, report: &Report) -> String {
    let fields: Vec<String> = report
        .stamp
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"stamp\": {{\"workload\": {}, {}}}}}",
        json_str(workload),
        fields.join(", ")
    )
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
