//! `keyed_durable`: per-tenant decayed rates that survive a crash.
//!
//! Zipf(1.1) draws over 1M keys, in time order, feed fixed-size
//! `observe_keyed_batch` calls into a `KeyedRegistry` of
//! `ForwardDecaySum<Exponential>` (eviction on) behind
//! `DurableAggregate::open_keyed` on a `DirStorage`, group commit by
//! `SyncPolicy::IntervalTicks`, closed loop; one op in ten is a
//! `query_key` on a Zipf-drawn key. Every second checkpoint, a fixed
//! tail of records after it, the store is flushed and `open_keyed`
//! recovery is timed on a copy of its directory — what a process
//! killed right then leaves on disk — so the recoveries are spread
//! across the run while ingest goes on in the original store.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use td_conformance::{Oracle, Rng};
use td_decay::checkpoint::RestoreError;
use td_decay::{Exponential, Time};
use td_forward::ForwardDecaySum;
use td_persist::{
    DirStorage, DurabilityOptions, DurableAggregate, RecoveryStats, StoreOptions, SyncPolicy,
};
use td_registry::{KeyAnswer, KeyedRegistry, RegistryOptions};

use crate::gen::{key_of, mix, Zipf};
use crate::stats::{self, Report};
use crate::trace::{self, span, Analysis, CountingStorage, Traced};
use crate::{layers, Scale};

/// Per-tick decay rate of every key.
pub const LAMBDA: f64 = 2e-4;
/// Zipf exponent of key popularity.
pub const ZIPF_S: f64 = 1.1;
/// Items per tick.
pub const ITEMS_PER_TICK: usize = 32;
/// A key is evicted once all it could still answer is at most this.
pub const EVICTION_THRESHOLD: f64 = 0.01;
/// Slots the eviction sweep visits per ingest call.
pub const SWEEP_PER_INGEST: usize = 32;
/// Group commit: fsync once stream time has moved this many ticks.
pub const SYNC_TICKS: u64 = 1024;
/// One op in this many is a query op.
pub const QUERY_ONE_IN: u64 = 10;
/// `query_key` calls per query op (one read of a few tenants' rates;
/// long enough to time without the clock's own cost dominating).
pub const KEYS_PER_QUERY: usize = 8;
/// Periods whose end-of-period answers feed `answer_rel_err_p99`.
const REL_ERR_PERIODS: u64 = 4;
/// Recoveries timed at the end of a traced run.
const RECOVER_REPS: usize = 5;
/// The untraced run recovers a copy of the store once every this many
/// checkpoints, `kd_tail_records` records after the checkpoint.
const CRASH_EVERY_CHECKPOINTS: u64 = 2;

type Reg = Traced<KeyedRegistry<ForwardDecaySum<Exponential>>>;
type Store = DurableAggregate<Reg>;

fn registry(keys: u64) -> Reg {
    Traced::new(
        "registry",
        KeyedRegistry::new(
            RegistryOptions {
                expected_keys: keys as usize,
                eviction_threshold: EVICTION_THRESHOLD,
                sweep_per_ingest: SWEEP_PER_INGEST,
                ..RegistryOptions::default()
            },
            || ForwardDecaySum::new(Exponential::new(LAMBDA)),
        ),
    )
}

fn open(
    dir: &Path,
    written: &Arc<AtomicU64>,
    scale: &Scale,
) -> Result<(Store, RecoveryStats), RestoreError> {
    let storage = CountingStorage::new(DirStorage::open(dir)?, written.clone());
    let opts = DurabilityOptions {
        store: StoreOptions {
            segment_bytes: 8 << 20,
            sync: SyncPolicy::IntervalTicks(SYNC_TICKS),
        },
        checkpoint_every_records: scale.kd_checkpoint_every,
    };
    let keys = scale.kd_keys;
    DurableAggregate::open_keyed(Box::new(storage), opts, move || registry(keys))
}

/// One period of keyed traffic, replayed with times shifted by `span`.
struct Pool {
    items: Vec<(u64, Time, u64)>,
    span: Time,
    /// Indices of items whose key is sampled (checked against its own
    /// exact oracle).
    sampled: Vec<usize>,
    /// Zipf-drawn keys for the `query_key` ops.
    query_keys: Vec<u64>,
}

fn pool(seed: u64, scale: &Scale) -> Pool {
    let mut rng = Rng::new(seed ^ 0x000_0002);
    let zipf = Zipf::new(scale.kd_keys, ZIPF_S);
    // Sampled keys come from below the head (one in `sample_one_in`
    // ranks from 1024 on), so each oracle stays small. They include
    // keys that are evicted and come back: their answers miss the
    // evicted mass, which is the error this workload's aggregate makes
    // (per-key forward decay is otherwise exact to a few ulps).
    let lo = 1024.min(scale.kd_keys / 64);
    let sampled_as = |rank: u64| rank >= lo && mix(rank ^ seed).is_multiple_of(scale.sample_one_in);
    let mut items = Vec::with_capacity(scale.kd_items);
    let mut sampled = Vec::new();
    for i in 0..scale.kd_items {
        let rank = zipf.draw(&mut rng);
        if sampled_as(rank) {
            sampled.push(i);
        }
        items.push((
            key_of(rank, seed),
            (i / ITEMS_PER_TICK) as Time,
            rng.range(1, 100),
        ));
    }
    let query_keys = (0..4096)
        .map(|_| key_of(zipf.draw(&mut rng), seed))
        .collect();
    Pool {
        span: scale.kd_items.div_ceil(ITEMS_PER_TICK) as Time,
        items,
        sampled,
        query_keys,
    }
}

/// The benchmark's own exact state for the sampled keys.
#[derive(Default)]
struct Oracles {
    keys: BTreeMap<u64, Oracle<Exponential>>,
    rel_errs: Vec<f64>,
    slack_rel: Vec<f64>,
}

impl Oracles {
    fn feed(&mut self, pool: &Pool, offset: Time) {
        for &i in &pool.sampled {
            let (key, t, f) = pool.items[i];
            self.keys
                .entry(key)
                .or_insert_with(|| Oracle::new(Exponential::new(LAMBDA)))
                .observe(t + offset, f);
        }
    }

    /// Checks every sampled key's answer at `q` against its oracle.
    fn check(&mut self, reg: &Reg, q: Time, keep_errs: bool, report: &mut Report) {
        for (&key, oracle) in &self.keys {
            let a = reg.get().query_key(key, q);
            let truth = oracle.decayed_sum(q);
            report.check_or(a.admits(truth, 1e-9 * truth.max(1.0)), || {
                format!("key {key:#x} at {q}: {a:?} vs truth {truth}")
            });
            if keep_errs {
                self.rel_errs.push(stats::rel_err(a.estimate, truth));
            }
            if a.estimate >= 1.0 {
                self.slack_rel.push(a.evicted_slack / a.estimate);
            }
        }
    }
}

struct Phase {
    store: Store,
    dir: PathBuf,
    written: Arc<AtomicU64>,
    items: u64,
    records: u64,
    elapsed: Duration,
    query_us: Vec<f64>,
    periods: u64,
    wal_tail_max: u64,
    oracles: Oracles,
    /// Seconds each in-loop recovery took.
    recover_secs: Vec<f64>,
}

impl Phase {
    fn rate(&self) -> f64 {
        self.items as f64 / self.elapsed.as_secs_f64()
    }
}

fn store_dir(tag: &str) -> PathBuf {
    crate::out_dir().join(format!("kd-{}-{tag}", std::process::id()))
}

/// A store opened on an empty directory.
struct Fresh {
    store: Store,
    dir: PathBuf,
    written: Arc<AtomicU64>,
    /// Seconds `open_keyed` took.
    secs: f64,
}

fn fresh_store(tag: &str, scale: &Scale, report: &mut Report) -> Option<Fresh> {
    let dir = store_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let written = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let opened = open(&dir, &written, scale);
    let secs = t0.elapsed().as_secs_f64();
    report.check_or(opened.is_ok(), || {
        format!("open_keyed on {dir:?}: {:?}", opened.as_ref().err())
    });
    opened.ok().map(|(store, _)| Fresh {
        store,
        dir,
        written,
        secs,
    })
}

/// Ingests for `budget` (oracle checks and recoveries off the clock).
/// With `crash`, times recoveries as the module describes.
fn measure(
    pool: &Pool,
    budget: Duration,
    scale: &Scale,
    fresh: Fresh,
    crash: bool,
    report: &mut Report,
) -> Phase {
    let Fresh {
        mut store,
        dir,
        written,
        ..
    } = fresh;
    let traced = trace::enabled();
    let mut buf = Vec::with_capacity(scale.kd_batch);
    let (mut items, mut records, mut ops, mut periods) = (0u64, 0u64, 0u64, 0u64);
    let mut query_us = Vec::new();
    let mut wal_tail_max = 0;
    let mut oracles = Oracles::default();
    let mut clock: Time = 0;
    let mut qi = 0usize;
    let mut paused = Duration::ZERO;
    let (mut tails, mut recover_secs) = (0u64, Vec::new());
    let start = Instant::now();
    let root = span("bench", "loop");
    while scale.max_periods.is_none_or(|m| periods < m) {
        let offset = periods * pool.span;
        for batch in pool.items.chunks(scale.kd_batch) {
            {
                let _g = span("loadgen", "batch");
                buf.clear();
                buf.extend(batch.iter().map(|&(k, t, f)| (k, t + offset, f)));
                clock = buf[buf.len() - 1].1;
            }
            let logged = {
                let _g = span("persist", "observe_keyed_batch");
                store.observe_keyed_batch(&buf)
            };
            let account = span("loadgen", "account");
            report.check_or(logged.is_ok(), || {
                format!("observe_keyed_batch: {logged:?}")
            });
            items += buf.len() as u64;
            records += 1;
            ops += 1;
            if traced {
                wal_tail_max = wal_tail_max.max(store.wal_tail_len());
            }
            account.end();
            if ops % QUERY_ONE_IN == QUERY_ONE_IN - 1 {
                let t0 = Instant::now();
                for _ in 0..KEYS_PER_QUERY {
                    let key = pool.query_keys[qi % pool.query_keys.len()];
                    qi += 1;
                    let a: KeyAnswer = {
                        let _g = span("registry", "query_key");
                        store.inner().get().query_key(key, clock)
                    };
                    report.check_or(a.estimate.is_finite() && a.estimate >= 0.0, || {
                        format!("query_key {key:#x}: {a:?}")
                    });
                }
                query_us.push(t0.elapsed().as_secs_f64() * 1e6);
                ops += 1;
            }
            if crash && store.wal_tail_len() == scale.kd_tail_records {
                tails += 1;
                if tails.is_multiple_of(CRASH_EVERY_CHECKPOINTS) {
                    let t0 = Instant::now();
                    let keys = oracles.keys.keys().copied().collect();
                    let secs = recover_image(&mut store, &dir, keys, clock + 1, scale, report);
                    recover_secs.extend(secs);
                    paused += t0.elapsed();
                }
            }
        }
        // End of a period: check every sampled key against its oracle
        // (off the clock).
        let t0 = Instant::now();
        {
            let _g = span("oracle", "check");
            oracles.feed(pool, offset);
            oracles.check(store.inner(), clock + 1, periods < REL_ERR_PERIODS, report);
        }
        paused += t0.elapsed();
        periods += 1;
        // A crashing run goes on until it has tried one recovery.
        if start.elapsed() - paused >= budget && (!crash || tails >= CRASH_EVERY_CHECKPOINTS) {
            break;
        }
    }
    let flushed = {
        let _g = span("persist", "flush");
        store.flush()
    };
    report.check_or(flushed.is_ok(), || format!("flush: {flushed:?}"));
    let elapsed = start.elapsed() - paused;
    root.end();
    Phase {
        store,
        dir,
        written,
        items,
        records,
        elapsed,
        query_us,
        periods,
        wal_tail_max,
        oracles,
        recover_secs,
    }
}

/// A sampled key's answer, bit for bit.
type Bits = (u64, u64, u64, u64, u64);

/// Flushes `store`, copies its directory, and times [`reopen`] on the
/// copy (checked against `store`); the copy is removed again.
fn recover_image(
    store: &mut Store,
    dir: &Path,
    keys: Vec<u64>,
    q: Time,
    scale: &Scale,
    report: &mut Report,
) -> Option<f64> {
    let flushed = store.flush();
    report.check_or(flushed.is_ok(), || format!("flush: {flushed:?}"));
    let before = Snapshot::take(store, keys, q);
    let image = dir.with_extension("image");
    let _ = std::fs::remove_dir_all(&image);
    let copied = copy_dir(dir, &image);
    report.check_or(copied.is_ok(), || format!("copy {dir:?}: {copied:?}"));
    let secs = copied.ok().and_then(|()| {
        let written = Arc::new(AtomicU64::new(0));
        reopen(&image, &written, &before, scale, report).map(|(_, secs, _)| secs)
    });
    let _ = std::fs::remove_dir_all(&image);
    secs
}

/// Copies the files of directory `from` into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// A store's answers for the sampled keys at `q`, and its counts, just
/// before it is dropped.
struct Snapshot {
    keys: Vec<u64>,
    q: Time,
    bits: Vec<Bits>,
    live_keys: usize,
    evictions: u64,
}

impl Snapshot {
    fn take(store: &Store, keys: Vec<u64>, q: Time) -> Snapshot {
        let reg = store.inner().get();
        let bits = keys
            .iter()
            .map(|&k| {
                let a = reg.query_key(k, q);
                (
                    k,
                    a.estimate.to_bits(),
                    a.bound.lower.to_bits(),
                    a.bound.upper.to_bits(),
                    a.evicted_slack.to_bits(),
                )
            })
            .collect();
        let stats = reg.stats();
        Snapshot {
            keys,
            q,
            bits,
            live_keys: stats.live_keys,
            evictions: stats.evictions,
        }
    }
}

/// Times `open_keyed` on the dropped store in `dir` and checks the
/// recovered store against `before`: every sampled key bit for bit, the
/// same live keys and evictions, exactly `kd_tail_records` records
/// replayed.
fn reopen(
    dir: &Path,
    written: &Arc<AtomicU64>,
    before: &Snapshot,
    scale: &Scale,
    report: &mut Report,
) -> Option<(Store, f64, RecoveryStats)> {
    let t0 = Instant::now();
    let opened = {
        let _g = span("persist", "open_keyed");
        open(dir, written, scale)
    };
    let secs = t0.elapsed().as_secs_f64();
    match opened {
        Ok((recovered, rs)) => {
            let after = Snapshot::take(&recovered, before.keys.clone(), before.q);
            report.check_or(
                after.bits == before.bits
                    && after.live_keys == before.live_keys
                    && after.evictions == before.evictions
                    && rs.records_replayed == scale.kd_tail_records,
                || {
                    format!(
                        "recovery differs: {} of {} sampled keys match, live {} vs {}, \
                         replayed {}",
                        after
                            .bits
                            .iter()
                            .zip(&before.bits)
                            .filter(|(a, b)| a == b)
                            .count(),
                        before.bits.len(),
                        after.live_keys,
                        before.live_keys,
                        rs.records_replayed
                    )
                },
            );
            Some((recovered, secs, rs))
        }
        Err(e) => {
            report.check_or(false, || format!("open_keyed recovery: {e:?}"));
            None
        }
    }
}

/// The traced run's crash: logs a fixed tail after a fresh checkpoint,
/// drops the store, and recovers it [`RECOVER_REPS`] times. Returns the
/// last recovery's stats.
fn crash_and_recover(
    phase: Phase,
    pool: &Pool,
    scale: &Scale,
    report: &mut Report,
) -> Option<RecoveryStats> {
    let Phase {
        mut store,
        dir,
        written,
        oracles,
        periods,
        ..
    } = phase;
    let ckpt = store.checkpoint_now();
    report.check_or(ckpt.is_ok(), || format!("checkpoint_now: {ckpt:?}"));
    let offset = periods * pool.span;
    let mut clock = 0;
    for batch in pool
        .items
        .chunks(scale.kd_batch)
        .take(scale.kd_tail_records as usize)
    {
        let buf: Vec<(u64, Time, u64)> =
            batch.iter().map(|&(k, t, f)| (k, t + offset, f)).collect();
        clock = buf[buf.len() - 1].1;
        let logged = store.observe_keyed_batch(&buf);
        report.check_or(logged.is_ok(), || {
            format!("tail observe_keyed_batch: {logged:?}")
        });
    }
    let flushed = store.flush();
    report.check_or(flushed.is_ok(), || format!("tail flush: {flushed:?}"));
    let before = Snapshot::take(&store, oracles.keys.keys().copied().collect(), clock + 1);
    drop(store);

    let mut rstats = None;
    for _ in 0..RECOVER_REPS {
        if let Some((_, _, rs)) = reopen(&dir, &written, &before, scale, report) {
            rstats = Some(rs);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    rstats
}

/// Runs the workload.
pub fn run(seed: u64, budget: Duration, traced: bool, scale: &Scale) -> Report {
    let mut report = Report::default();
    let pool = pool(seed, scale);
    report.stamp("keys", scale.kd_keys);
    report.stamp("zipf_s", ZIPF_S);
    report.stamp("period_items", pool.items.len());
    report.stamp("batch_items", scale.kd_batch);
    report.stamp("items_per_tick", ITEMS_PER_TICK);
    report.stamp("lambda", LAMBDA);
    report.stamp("eviction_threshold", EVICTION_THRESHOLD);
    report.stamp("sync_interval_ticks", SYNC_TICKS);
    report.stamp("checkpoint_every_records", scale.kd_checkpoint_every);
    report.stamp("tail_records", scale.kd_tail_records);
    report.stamp("query_one_in", QUERY_ONE_IN);
    report.stamp("keys_per_query", KEYS_PER_QUERY);
    if traced {
        run_traced(&pool, seed, budget, scale, &mut report);
    } else {
        run_untraced(&pool, budget, scale, &mut report);
    }
    report
}

fn run_untraced(pool: &Pool, budget: Duration, scale: &Scale, report: &mut Report) {
    let mut setups = Vec::new();
    let mut kept: Option<Fresh> = None;
    for rep in 0..scale.setup_reps {
        let fresh = fresh_store(&format!("setup{rep}"), scale, report);
        if let Some(old) = kept.take() {
            let dir = old.dir.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        setups.extend(fresh.as_ref().map(|f| f.secs));
        kept = fresh;
    }
    let Some(fresh) = kept else {
        return;
    };
    let mut phase = measure(pool, budget, scale, fresh, true, report);
    let peak = stats::peak_rss_mb();
    let rs = phase.store.inner().get().stats();
    let rate = phase.rate();
    let lat = stats::windowed_tail(&phase.query_us, stats::LATENCY_WINDOW);
    let mut errs = std::mem::take(&mut phase.oracles.rel_errs);
    report.stamp("periods", phase.periods);
    report.stamp("items", phase.items);
    report.stamp("records", phase.records);
    report.stamp("query_samples", lat.n);
    report.stamp("query_tail_quantile", lat.tail_q);
    report.stamp("rel_err_samples", errs.len());
    report.stamp("sampled_keys", phase.oracles.keys.len());
    report.stamp("live_keys", rs.live_keys);
    report.stamp("evictions", rs.evictions);
    report.stamp("recoveries", phase.recover_secs.len());
    let mut recover_secs = std::mem::take(&mut phase.recover_secs);
    let Phase { store, dir, .. } = phase;
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    report.metric("setup_s", stats::median(&mut setups), "s");
    report.metric("ingest_items_per_s", rate, "1/s");
    report.metric("query_p50_us", lat.p50, "us");
    report.metric("query_p99_us", lat.tail, "us");
    report.metric(
        "answer_rel_err_p99",
        stats::quantile(&mut errs, 0.99),
        "ratio",
    );
    report.metric(
        "bytes_per_key",
        rs.resident_bytes as f64 / rs.live_keys.max(1) as f64,
        "B",
    );
    report.metric("peak_rss_mb", peak, "MiB");
    report.metric("recover_s", stats::median(&mut recover_secs), "s");
}

fn run_traced(pool: &Pool, seed: u64, budget: Duration, scale: &Scale, report: &mut Report) {
    let (plain_budget, traced_budget) = crate::trace_split(budget);
    let Some(fresh) = fresh_store("plain", scale, report) else {
        return;
    };
    let plain = measure(pool, plain_budget, scale, fresh, false, report);
    let plain_rate = plain.rate();
    let dir = plain.dir.clone();
    drop(plain);
    let _ = std::fs::remove_dir_all(dir);

    let Some(fresh) = fresh_store("traced", scale, report) else {
        return;
    };
    trace::take_spans();
    trace::set_enabled(true);
    let mut phase = measure(pool, traced_budget, scale, fresh, false, report);
    let a = Analysis::new(trace::take_spans());
    let written_loop = phase.written.load(Ordering::Relaxed);
    let rs = phase.store.inner().get().stats();
    let slack_rel = std::mem::take(&mut phase.oracles.slack_rel);
    let (items, rate, wal_tail_max) = (phase.items, phase.rate(), phase.wal_tail_max);
    let query_ops = phase.query_us.len();
    let recovered = crash_and_recover(phase, pool, scale, report);
    trace::set_enabled(false);
    let r = Analysis::new(trace::take_spans());

    // A checkpoint is the part of the triggering durable call beyond
    // its registry ingest: encode plus atomic write.
    let mut ingest_by_parent = std::collections::HashMap::new();
    for s in a.of("registry", "observe_keyed_batch") {
        *ingest_by_parent.entry(s.parent).or_insert(0u64) += s.dur_ns();
    }
    let mut ckpt_ms: Vec<f64> = a
        .of("registry", "save_checkpoint")
        .filter_map(|c| a.by_id(c.parent))
        .map(|p| (p.dur_ns() - ingest_by_parent.get(&p.id).copied().unwrap_or(0)) as f64 / 1e6)
        .collect();
    let restore_ns = r.total_ns("registry", "restore_checkpoint") as f64 / RECOVER_REPS as f64;
    let open_ns = r.total_ns("persist", "open_keyed") as f64 / RECOVER_REPS as f64;
    let replayed = recovered.map_or(0, |s| s.records_replayed);

    report.metric("loadgen.query_samples", query_ops as f64, "count");
    let slack_rel_mean = slack_rel.iter().sum::<f64>() / slack_rel.len().max(1) as f64;
    layers::registry(report, &a, &rs, scale.kd_keys, slack_rel_mean);
    report.metric(
        "persist.self_ns_per_item",
        a.self_ns("persist") as f64 / items as f64,
        "ns",
    );
    report.metric(
        "persist.checkpoint_ms_p50",
        stats::median(&mut ckpt_ms),
        "ms",
    );
    report.metric(
        "persist.checkpoint_ms_max",
        ckpt_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.metric("persist.checkpoints", ckpt_ms.len() as f64, "count");
    report.metric(
        "persist.bytes_written_per_item",
        written_loop as f64 / items as f64,
        "B",
    );
    report.metric("persist.wal_tail_len_max", wal_tail_max as f64, "count");
    report.metric("persist.recover_records_replayed", replayed as f64, "count");
    report.metric(
        "persist.recover_ns_per_record",
        (open_ns - restore_ns) / replayed.max(1) as f64,
        "ns",
    );
    report.metric("persist.restore_ms", restore_ns / 1e6, "ms");
    layers::tracing(report, &a, a.len() + r.len(), plain_rate, rate);
    report.stamp("traced_items", items);
    report.stamp("untraced_items_per_s", stats::json_num(plain_rate));
    crate::write_spans(&a, "keyed_durable", seed, report);
}
