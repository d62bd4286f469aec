//! E13b — td-shard scaling: ingest throughput of the sharded serving
//! engine at 1/2/4/8 worker shards, and query latency on a read-heavy
//! (90/10) workload, where every query is served as the sum of the
//! per-shard answers (mode `served`: a barrier plus one backend query
//! per shard, no clone and no merge). Writes `BENCH_shard.json`.
//!
//! The ingest numbers are only meaningful relative to
//! `host_parallelism` (recorded in the JSON): when the host has fewer
//! hardware threads than shards plus the coordinator, the worker
//! threads time-slice the CPUs, so treat the 1-shard row as the
//! intercept and the wider rows as measuring coordination overhead.

use std::time::Instant;

use td_bench::Table;
use td_ceh::CascadedEh;
use td_counters::ExpCounter;
use td_decay::{Exponential, Polynomial, StreamAggregate, Time};
use td_shard::ShardedAggregate;
use td_wbmh::Wbmh;

const N_ITEMS: usize = 1_000_000;
const CHUNK: usize = 4096;
const QUERY_OPS: usize = 2_000;

/// Same bursty shape as E12: same-tick runs that `observe_batch`
/// coalesces, ~10 items per tick on average.
fn bursty_items(n: usize) -> Vec<(Time, u64)> {
    let mut items = Vec::with_capacity(n);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut t = 0u64;
    while items.len() < n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t += 1 + x % 3;
        let burst = 1 + (x >> 17) % 20;
        for j in 0..burst {
            if items.len() == n {
                break;
            }
            items.push((t, (x >> 23).wrapping_add(j) % 8));
        }
    }
    items
}

struct IngestRow {
    backend: &'static str,
    shards: usize,
    items_per_sec: f64,
}

struct QueryRow {
    backend: &'static str,
    shards: usize,
    p50_ns: f64,
    p99_ns: f64,
}

/// Feeds the whole stream through a K-shard engine in `CHUNK`-item
/// batches and times ingest end-to-end *including drain*: the clock
/// stops only after a query forces the applied == submitted barrier.
/// Best of two passes (fresh engine each) to shed scheduler outliers.
fn ingest_items_per_sec<B>(shards: usize, items: &[(Time, u64)], make: impl Fn() -> B + Copy) -> f64
where
    B: StreamAggregate + Clone + Send + 'static,
{
    let t_end = items.last().map(|&(t, _)| t).unwrap_or(0) + 1;
    let mut best = 0.0f64;
    for _ in 0..2 {
        let mut engine = ShardedAggregate::new(shards, make);
        let t0 = Instant::now();
        for chunk in items.chunks(CHUNK) {
            engine.observe_batch(chunk);
        }
        std::hint::black_box(engine.query(t_end));
        let rate = items.len() as f64 / t0.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

/// Runs the 90/10 read-heavy phase on an already-loaded engine: out of
/// every ten ops, nine queries and one small ingest batch (so the next
/// query waits at the barrier for the workers to apply it). Returns
/// per-query latencies in nanoseconds.
fn read_heavy_latencies<B>(engine: &mut ShardedAggregate<B>, mut t: Time) -> Vec<f64>
where
    B: StreamAggregate + Clone + Send + 'static,
{
    let mut lat = Vec::with_capacity(QUERY_OPS);
    let mut acc = 0.0;
    let mut i = 0usize;
    while lat.len() < QUERY_OPS {
        if i % 10 == 9 {
            t += 1;
            engine.observe_batch(&[(t, 3), (t, 5)]);
        } else {
            let t0 = Instant::now();
            acc += engine.query(t + 1);
            lat.push(t0.elapsed().as_nanos() as f64);
        }
        i += 1;
    }
    std::hint::black_box(acc);
    lat
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn bench_backend<B>(
    name: &'static str,
    items: &[(Time, u64)],
    make: impl Fn() -> B + Copy,
    ingest_rows: &mut Vec<IngestRow>,
    query_rows: &mut Vec<QueryRow>,
) where
    B: StreamAggregate + Clone + Send + 'static,
{
    for &shards in &[1usize, 2, 4, 8] {
        let rate = ingest_items_per_sec(shards, items, make);
        ingest_rows.push(IngestRow {
            backend: name,
            shards,
            items_per_sec: rate,
        });
    }

    // Query phase at the serving-typical shard count.
    let shards = 4;
    let t_end = items.last().map(|&(t, _)| t).unwrap_or(0);
    let mut engine = ShardedAggregate::new(shards, make);
    for chunk in items.chunks(CHUNK) {
        engine.observe_batch(chunk);
    }
    let mut lat = read_heavy_latencies(&mut engine, t_end);
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    query_rows.push(QueryRow {
        backend: name,
        shards,
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
    });
}

fn main() {
    let host_parallelism = td_bench::host_parallelism();
    let cpu = td_bench::cpu_model();
    println!(
        "E13b: td-shard scaling, 1e6-item bursty stream, \
         host_parallelism={host_parallelism}, cpu={cpu}\n"
    );

    let items = bursty_items(N_ITEMS);
    let mut ingest_rows = Vec::new();
    let mut query_rows = Vec::new();

    bench_backend(
        "exp-counter",
        &items,
        || ExpCounter::new(Exponential::new(0.001)),
        &mut ingest_rows,
        &mut query_rows,
    );
    bench_backend(
        "ceh",
        &items,
        || CascadedEh::new(Polynomial::new(1.0), 0.05),
        &mut ingest_rows,
        &mut query_rows,
    );
    bench_backend(
        "wbmh",
        &items,
        || Wbmh::new(Polynomial::new(1.0), 0.05, 1 << 24),
        &mut ingest_rows,
        &mut query_rows,
    );

    let mut table = Table::new(&["backend", "shards", "ingest Mitems/s", "vs 1 shard"]);
    for row in &ingest_rows {
        let base = ingest_rows
            .iter()
            .find(|r| r.backend == row.backend && r.shards == 1)
            .map(|r| r.items_per_sec)
            .unwrap_or(row.items_per_sec);
        table.row(&[
            row.backend.into(),
            format!("{}", row.shards),
            format!("{:.2}", row.items_per_sec / 1e6),
            format!("{:.2}x", row.items_per_sec / base),
        ]);
    }
    table.print();

    let mut qtable = Table::new(&["backend", "shards", "p50 us", "p99 us"]);
    for row in &query_rows {
        qtable.row(&[
            row.backend.into(),
            format!("{}", row.shards),
            format!("{:.1}", row.p50_ns / 1e3),
            format!("{:.1}", row.p99_ns / 1e3),
        ]);
    }
    println!("\n90/10 read-heavy workload, answers summed over the live shards:\n");
    qtable.print();

    // Every row carries the host identity (see `td_bench::hostinfo`):
    // scaling rows copied out of context are otherwise uninterpretable.
    let host = td_bench::hostinfo::json_fragment();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {host_parallelism},\n  \"cpu\": \"{cpu}\",\n  \"ingest\": [\n"
    ));
    for (i, r) in ingest_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"shards\": {}, \"items_per_sec\": {:.0}, {host}}}{}\n",
            r.backend,
            r.shards,
            r.items_per_sec,
            if i + 1 == ingest_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"query\": [\n");
    for (i, r) in query_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"shards\": {}, \"mode\": \"served\", \
             \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, {host}}}{}\n",
            r.backend,
            r.shards,
            r.p50_ns,
            r.p99_ns,
            if i + 1 == query_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = "BENCH_shard.json";
    std::fs::write(path, &json).expect("write BENCH_shard.json");
    println!("\nwrote {path}");
}
