//! `global_ooo`: one global aggregate over out-of-order input.
//!
//! Four sources feed `push_batch` chunks into a bounded-lateness
//! reorder stage (lateness 64, beyond-bound items folded) in front of a
//! 2-shard engine of WBMH (POLYD α=1) backends, closed loop, with one
//! `try_query` every fixed number of chunks, timed once the shard
//! workers have applied everything pushed (the wait off the clock).
//! The stage is built the way `ShardedAggregate::reordered` builds it,
//! with the span-recording wrapper between the stage and the engine,
//! and is fed the feed's sparse history during set-up, so the stream is
//! old when a run starts.

use std::time::{Duration, Instant};

use td_conformance::Oracle;
use td_decay::{Checkpoint, ErrorBound, Polynomial, StorageAccounting, StreamAggregate, Time};
use td_reorder::{LatenessPolicy, Reorderer};
use td_shard::ShardedAggregate;
use td_wbmh::Wbmh;

use crate::gen::{OooFeed, SOURCES};
use crate::stats::{self, Report};
use crate::trace::{self, span, Analysis, Traced};
use crate::{layers, Scale};

/// WBMH accuracy target of the global aggregate: fine enough that a
/// query's merge of the shards' summaries, not the hand-off to the
/// shard workers (whose wake-up time varies with the host's load), sets
/// the query's latency.
pub const EPSILON: f64 = 0.02;
/// Items per `push_batch` call.
pub const CHUNK: usize = 32;
/// Lateness bound of the reorder stage, in ticks.
pub const LATENESS: u64 = 64;
/// Shard workers (no more than the 2 hardware threads of the reference
/// host).
pub const SHARDS: usize = 2;
const MAX_AGE: Time = 1 << 34;
/// Restores timed for `recover_s` after each ingest-rate window (off
/// the clock), so the samples span the whole run.
const RESTORES_PER_WINDOW: usize = 4;

pub(crate) type Backend = Traced<Wbmh<Polynomial>>;
pub(crate) type Engine = Traced<ShardedAggregate<Backend>>;
type Stage = Reorderer<Engine>;

pub(crate) fn decay() -> Polynomial {
    Polynomial::new(1.0)
}

pub(crate) fn backend(epsilon: f64) -> Backend {
    Traced::new("backend", Wbmh::new(decay(), epsilon, MAX_AGE))
}

/// Builds the stage and feeds it `history`, chunk by chunk round robin
/// over the sources, then waits until the engine has applied all the
/// stage released.
fn build(history: &[(Time, u64)], report: &mut Report) -> Stage {
    let engine = Traced::new("shard", ShardedAggregate::new(SHARDS, || backend(EPSILON)));
    let mut stage = Reorderer::with_sources(
        engine,
        Box::new(decay()),
        LATENESS,
        LatenessPolicy::Fold,
        SOURCES,
    )
    .on_watermark(Box::new(|e: &mut Engine, w| e.get().publish_watermark(w)));
    for (i, c) in history.chunks(CHUNK).enumerate() {
        let pushed = stage.push_batch(i % SOURCES, c);
        report.check_or(pushed.is_ok(), || format!("history push_batch: {pushed:?}"));
    }
    let w = stage.watermark();
    let applied = stage.inner().get().try_query(w);
    report.check_or(
        applied.as_ref().is_ok_and(|a| a.degraded.is_empty()),
        || format!("history try_query at W={w}: {applied:?}"),
    );
    stage
}

/// An answer recorded in the loop and checked against the oracle after
/// it: `arrived` chunks of period `period` had been pushed.
struct Check {
    period: u64,
    arrived: usize,
    q: Time,
    est: f64,
    bound: ErrorBound,
}

/// Periods per ingest-rate window.
const WINDOW_PERIODS: u64 = 8;

struct Phase {
    stage: Stage,
    items: u64,
    mass: u64,
    elapsed: Duration,
    /// Items per second of each window of [`WINDOW_PERIODS`] periods.
    window_rates: Vec<f64>,
    query_us: Vec<f64>,
    checks: Vec<Check>,
    periods: u64,
    buffered_max: u64,
    lag_ticks: Vec<f64>,
    /// Summary bits once the first `ooo_rel_err_periods` periods are
    /// in (or at the end, if the run stopped sooner): a fixed point of
    /// the stream, so the size does not depend on run length.
    summary_bits: u64,
}

impl Phase {
    /// The median window rate; the whole-run rate when the run was too
    /// short for three windows.
    fn rate(&self) -> f64 {
        if self.window_rates.len() >= 3 {
            stats::median(&mut self.window_rates.clone())
        } else {
            self.items as f64 / self.elapsed.as_secs_f64()
        }
    }
}

fn measure(
    feed: &OooFeed,
    budget: Duration,
    scale: &Scale,
    mut probe: Option<&mut RestoreProbe>,
    report: &mut Report,
) -> Phase {
    // Set-up is not traced.
    let traced = trace::enabled();
    trace::set_enabled(false);
    let mut stage = build(&feed.history, report);
    trace::set_enabled(traced);
    let mut buf: Vec<(Time, u64)> = Vec::with_capacity(CHUNK);
    let (mut items, mut mass, mut chunks, mut periods) = (0u64, 0u64, 0usize, 0u64);
    let mut query_us = Vec::new();
    let mut checks = Vec::new();
    let mut buffered_max = 0;
    let mut lag_ticks = Vec::new();
    let mut summary_bits = None;
    let mut window_rates = Vec::new();
    // Answers of the last query, kept for the final check when their
    // period is not otherwise recorded.
    let mut latest = Vec::new();
    // Waits for the shard workers before timed queries, kept off the
    // ingest clock.
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    let mut window = (start, 0u64, paused);
    let root = span("bench", "loop");
    while scale.max_periods.is_none_or(|m| periods < m) {
        let (pool, offset) = (feed.pool(periods), feed.start(periods));
        for (arrived, &(source, a, b)) in pool.chunks.iter().enumerate() {
            {
                let _g = span("loadgen", "chunk");
                buf.clear();
                buf.extend(pool.items[a..b].iter().map(|&(t, f)| (t + offset, f)));
                items += buf.len() as u64;
                mass += buf.iter().map(|&(_, f)| f).sum::<u64>();
                chunks += 1;
            }
            let pushed = {
                let mut g = span("reorder", "push_batch");
                g.count(buf.len() as u64, 0);
                stage.push_batch(source, &buf)
            };
            let account = span("loadgen", "account");
            report.check_or(pushed.is_ok(), || format!("push_batch: {pushed:?}"));
            if traced {
                let s = stage.stats();
                buffered_max = buffered_max.max(s.buffered_items);
                lag_ticks.push((s.max_seen - s.watermark) as f64);
            }
            account.end();
            let sampling = periods < scale.ooo_rel_err_periods;
            let query = chunks.is_multiple_of(scale.ooo_query_every);
            // The first periods also sample answers in between, so
            // `answer_rel_err_p99` rests on thousands of answers.
            if query || (sampling && chunks.is_multiple_of(scale.ooo_sample_every)) {
                let w = stage.watermark();
                if query {
                    let waited = Instant::now();
                    {
                        let _g = span("shard", "drain");
                        drain(stage.inner().get());
                    }
                    paused += waited.elapsed();
                    let t0 = Instant::now();
                    let answer = {
                        let _g = span("shard", "try_query");
                        stage.inner().get().try_query(w)
                    };
                    query_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    report.check_or(
                        answer
                            .as_ref()
                            .is_ok_and(|a| a.degraded.is_empty() && a.complete_up_to == w),
                        || format!("try_query at W={w}: {answer:?}"),
                    );
                }
                // The same state with the stage's fold-widened envelope:
                // buffered items all lie above W, so the truth at W and
                // W+1 is that of the items arrived so far.
                let keep = sampling || periods.is_power_of_two();
                latest.clear();
                for q in [w, w + 1] {
                    let (est, bound) = {
                        let _g = span("reorder", "query_with_bound");
                        stage.query_with_bound(q)
                    };
                    let check = Check {
                        period: periods,
                        arrived: arrived + 1,
                        q,
                        est,
                        bound,
                    };
                    if keep {
                        checks.push(check);
                    } else {
                        latest.push(check);
                    }
                }
            }
        }
        periods += 1;
        if periods == scale.ooo_rel_err_periods {
            summary_bits = Some(stage.inner().get().storage_bits());
        }
        if periods.is_multiple_of(WINDOW_PERIODS) {
            let now = Instant::now();
            let clock = (now - window.0) - (paused - window.2);
            window_rates.push((items - window.1) as f64 / clock.as_secs_f64());
            if let Some(p) = probe.as_deref_mut() {
                p.time(RESTORES_PER_WINDOW, report);
            }
            window = (Instant::now(), items, paused);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    // Stop the clock only once everything pushed is queryable.
    {
        let _g = span("reorder", "flush");
        stage.flush();
    }
    let w = stage.watermark();
    let drained = {
        let _g = span("shard", "try_query");
        stage.inner().get().try_query(w)
    };
    report.check_or(
        drained
            .as_ref()
            .is_ok_and(|a| a.degraded.is_empty() && a.complete_up_to == w),
        || format!("final try_query at W={w}: {drained:?}"),
    );
    let elapsed = start.elapsed() - paused;
    root.end();
    checks.append(&mut latest);
    let summary_bits = summary_bits.unwrap_or_else(|| stage.inner().get().storage_bits());
    Phase {
        stage,
        items,
        mass,
        elapsed,
        window_rates,
        query_us,
        checks,
        periods,
        buffered_max,
        lag_ticks,
        summary_bits,
    }
}

/// Longest [`drain`] wait; a shard still behind after it shows up as a
/// failed (wedged or degraded) query.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// Waits until every shard worker has applied all it was sent, so a
/// timed `try_query` finds its barrier already passed and costs its
/// merge. How long a parked worker takes to wake up is the host's
/// scheduling (on a virtual machine it swings by milliseconds with the
/// load of other tenants), not the engine's work; `read_mix` times the
/// barrier and the merge together.
fn drain(engine: &ShardedAggregate<Backend>) {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while engine.shard_stats().iter().any(|s| s.applied < s.submitted) && Instant::now() < deadline
    {
        std::thread::yield_now();
    }
}

/// Checks recorded answers against the exact oracle: every answer of
/// the first `ooo_rel_err_periods` periods (their relative errors are
/// returned), then the last answer of each power-of-two period and of
/// the final period, so the oracle's cost stays bounded.
///
/// The truth of an answer is the decayed sum of every item arrived
/// before it, at its true time: the history, whole earlier periods, and
/// the arrived prefix of its own period.
fn verify(feed: &OooFeed, checks: &[Check], scale: &Scale, report: &mut Report) -> Vec<f64> {
    let mut history = Oracle::new(decay());
    history.observe_batch(&feed.history);
    let mut fed = 0u64;
    let last = checks.last().map(|c| c.period);
    let mut errs = Vec::new();
    let mut part = Vec::new();
    let mut part_period = u64::MAX;
    let mut part_arrived = 0usize;
    let mut last_arrived = vec![0usize; last.map_or(0, |p| p as usize + 1)];
    for c in checks {
        last_arrived[c.period as usize] = c.arrived;
    }
    for c in checks {
        let in_rel = c.period < scale.ooo_rel_err_periods;
        let period_last = c.arrived == last_arrived[c.period as usize];
        if !in_rel && !(period_last && (c.period.is_power_of_two() || Some(c.period) == last)) {
            continue;
        }
        while fed < c.period {
            let shift = feed.start(fed);
            let whole: Vec<(Time, u64)> = feed
                .pool(fed)
                .tick_mass
                .iter()
                .map(|&(t, m)| (t + shift, m))
                .collect();
            history.observe_batch(&whole);
            fed += 1;
        }
        let pool = feed.pool(c.period);
        if part_period != c.period {
            part = vec![0u64; pool.span as usize];
            part_period = c.period;
            part_arrived = 0;
        }
        for &(_, a, b) in &pool.chunks[part_arrived..c.arrived] {
            for &(t, f) in &pool.items[a..b] {
                part[t as usize] += f;
            }
        }
        part_arrived = c.arrived;
        let shift = feed.start(c.period);
        let mut recent = Oracle::new(decay());
        recent.observe_batch(
            &part
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m > 0)
                .map(|(t, &m)| (t as Time + shift, m))
                .collect::<Vec<_>>(),
        );
        let truth = history.decayed_sum(c.q) + recent.decayed_sum(c.q);
        report.check_or(c.bound.admits(c.est, truth, 1e-9 * truth.max(1.0)), || {
            format!(
                "period {} chunk {} q {}: answer {} outside {:?} of truth {truth}",
                c.period, c.arrived, c.q, c.est, c.bound
            )
        });
        if in_rel {
            errs.push(stats::rel_err(c.est, truth));
        }
    }
    errs
}

/// The same in-order feed through one WBMH on this thread, after the
/// history, for `budget` or `max_periods`: items per second.
fn single_thread_rate(feed: &OooFeed, budget: Duration, max_periods: Option<u64>) -> f64 {
    let mut w = Wbmh::new(decay(), EPSILON, MAX_AGE);
    w.observe_batch(&feed.history);
    let mut buf = Vec::with_capacity(1024);
    let (mut items, mut period) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < budget && max_periods.is_none_or(|m| period < m) {
        let offset = feed.start(period);
        for c in feed.pool(period).sorted.chunks(1024) {
            buf.clear();
            buf.extend(c.iter().map(|&(t, f)| (t + offset, f)));
            w.observe_batch(&buf);
            items += c.len() as u64;
        }
        period += 1;
    }
    std::hint::black_box(w.query(feed.start(period)));
    items as f64 / start.elapsed().as_secs_f64()
}

/// Restores a checkpoint of one WBMH fed the history and the first
/// periods in order — the state a supervised shard worker restores —
/// and checks the first restored answer is bit-identical.
struct RestoreProbe {
    bytes: Vec<u8>,
    q: Time,
    want: f64,
    secs: Vec<f64>,
}

impl RestoreProbe {
    fn new(feed: &OooFeed, periods: u64) -> Self {
        let mut w = backend(EPSILON);
        w.observe_batch(&feed.history);
        for p in 0..periods.max(1) {
            let shifted: Vec<(Time, u64)> = feed
                .pool(p)
                .sorted
                .iter()
                .map(|&(t, f)| (t + feed.start(p), f))
                .collect();
            w.observe_batch(&shifted);
        }
        let q = feed.start(periods.max(1));
        RestoreProbe {
            bytes: w.save_checkpoint(),
            q,
            want: w.query(q),
            secs: Vec::new(),
        }
    }

    fn time(&mut self, reps: usize, report: &mut Report) {
        for _ in 0..reps {
            let mut fresh = backend(EPSILON);
            let t0 = Instant::now();
            let restored = fresh.restore_checkpoint(&self.bytes);
            self.secs.push(t0.elapsed().as_secs_f64());
            if self.secs.len() == 1 {
                let (got, want) = (fresh.query(self.q), self.want);
                report.check_or(restored.is_ok() && got.to_bits() == want.to_bits(), || {
                    format!("restore: {restored:?}, answer {got} vs {want}")
                });
            }
        }
    }
}

/// Runs the workload.
pub fn run(seed: u64, budget: Duration, traced: bool, scale: &Scale) -> Report {
    let mut report = Report::default();
    let feed = OooFeed::new(seed, scale.ooo_arrivals, CHUNK, scale.ooo_rel_err_periods);
    report.stamp("history_items", feed.history.len());
    report.stamp("history_ticks", crate::gen::HISTORY_TICKS);
    report.stamp("period_arrivals", feed.pool(0).items.len());
    report.stamp("period_ticks", feed.pool(0).span);
    report.stamp("distinct_periods", scale.ooo_rel_err_periods);
    report.stamp("chunk_items", CHUNK);
    report.stamp("query_every_chunks", scale.ooo_query_every);
    report.stamp("sources", SOURCES);
    report.stamp("lateness_ticks", LATENESS);
    report.stamp("shards", SHARDS);
    report.stamp("epsilon", EPSILON);
    if traced {
        run_traced(&feed, seed, budget, scale, &mut report);
    } else {
        run_untraced(&feed, budget, scale, &mut report);
    }
    report
}

fn run_untraced(feed: &OooFeed, budget: Duration, scale: &Scale, report: &mut Report) {
    let mut setups = Vec::new();
    for _ in 0..scale.setup_reps {
        let t0 = Instant::now();
        let stage = build(&feed.history, report);
        setups.push(t0.elapsed().as_secs_f64());
        drop(stage);
    }
    let mut probe = RestoreProbe::new(feed, scale.ooo_rel_err_periods);
    let phase = measure(feed, budget, scale, Some(&mut probe), report);
    if probe.secs.is_empty() {
        probe.time(RESTORES_PER_WINDOW, report);
    }
    let peak = stats::peak_rss_mb();
    let bytes_per_key = phase.summary_bits as f64 / 8.0;
    let mut errs = verify(feed, &phase.checks, scale, report);
    let rate = phase.rate();
    let merged = phase.stage.into_inner().into_inner().into_merged();
    report.check_or(merged.is_ok(), || {
        format!("into_merged: {:?}", merged.as_ref().err())
    });
    if let Ok(merged) = merged {
        // Recorded, not counted: the merged serving summary's
        // checkpoint is refused on restore (its buckets overlap), so
        // recovery is timed on the single-stream state below.
        let restorable = backend(EPSILON).restore_checkpoint(&merged.save_checkpoint());
        report.stamp(
            "merged_checkpoint_restore",
            stats::json_str(&format!("{restorable:?}")),
        );
    }
    let lat = stats::windowed_tail(&phase.query_us, stats::LATENCY_WINDOW);
    report.metric("setup_s", stats::median(&mut setups), "s");
    report.metric("ingest_items_per_s", rate, "1/s");
    report.metric("query_p50_us", lat.p50, "us");
    report.metric("query_p99_us", lat.tail, "us");
    report.metric(
        "answer_rel_err_p99",
        stats::quantile(&mut errs, 0.99),
        "ratio",
    );
    report.metric("bytes_per_key", bytes_per_key, "B");
    report.metric("peak_rss_mb", peak, "MiB");
    report.metric("recover_s", stats::median(&mut probe.secs), "s");
    report.stamp("periods", phase.periods);
    report.stamp("items", phase.items);
    report.stamp("query_samples", lat.n);
    report.stamp("query_tail_quantile", lat.tail_q);
    report.stamp("rel_err_samples", errs.len());
    report.stamp("setup_reps", setups.len());
    report.stamp("restore_reps", probe.secs.len());
}

fn run_traced(feed: &OooFeed, seed: u64, budget: Duration, scale: &Scale, report: &mut Report) {
    let (plain_budget, traced_budget) = crate::trace_split(budget);
    let plain_rate = measure(feed, plain_budget, scale, None, report).rate();

    trace::take_spans();
    trace::set_enabled(true);
    let cpu0 = stats::threads_cpu_ns("td-shard");
    let mut phase = measure(feed, traced_budget, scale, None, report);
    let busy_ns = stats::threads_cpu_ns("td-shard") - cpu0;
    trace::set_enabled(false);
    let a = Analysis::new(trace::take_spans());
    verify(feed, &phase.checks, scale, report);
    let base_rate = single_thread_rate(feed, traced_budget, scale.max_periods);

    let rs = phase.stage.stats();
    let lag_p99 = stats::quantile(&mut phase.lag_ticks, 0.99);
    let releases = a.calls("shard", "observe_batch").max(1);
    report.metric(
        "loadgen.query_samples",
        phase.query_us.len() as f64,
        "count",
    );
    report.metric(
        "reorder.self_ns_per_item",
        a.self_ns("reorder") as f64 / phase.items as f64,
        "ns",
    );
    report.metric(
        "reorder.buffered_items_max",
        phase.buffered_max as f64,
        "count",
    );
    report.metric("reorder.watermark_lag_ticks_p99", lag_p99, "ticks");
    report.metric(
        "reorder.folded_mass_frac",
        rs.folded_mass as f64 / phase.mass as f64,
        "ratio",
    );
    report.metric(
        "reorder.release_items_per_call",
        a.items("shard", "observe_batch") as f64 / releases as f64,
        "count",
    );
    report.metric("shard.single_thread_ratio", plain_rate / base_rate, "ratio");
    let engine = phase.stage.inner().get();
    let run = layers::EngineRun {
        engine,
        cache: engine.cache_stats(),
        busy_ns,
        elapsed: phase.elapsed,
        summary_bits: phase.summary_bits,
    };
    layers::engine(report, &a, &run);
    layers::tracing(report, &a, a.len(), plain_rate, phase.rate());
    report.stamp("traced_items", phase.items);
    report.stamp("untraced_items_per_s", stats::json_num(plain_rate));
    report.stamp("single_thread_items_per_s", stats::json_num(base_rate));
    crate::write_spans(&a, "global_ooo", seed, report);
}
