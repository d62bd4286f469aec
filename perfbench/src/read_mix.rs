//! `read_mix`: the keyed registry and the sharded engine under reads.
//!
//! Open loop at a fixed op rate, each op timed from when it was due:
//! 60% `KeyedRegistry::query_key` on keys drawn uniformly from the
//! ~4M keys loaded during set-up (a working set larger than the host's
//! L3), 30% `ShardedAggregate::try_query` on a 2-shard WBMH engine,
//! and 10% writes — a small batch to each structure, which invalidates
//! the engine's epoch cache.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use td_conformance::{Oracle, Rng};
use td_decay::{Checkpoint, ErrorBound, Exponential, StorageAccounting, StreamAggregate, Time};
use td_forward::ForwardDecaySum;
use td_persist::KeyedCheckpoint;
use td_registry::{KeyedRegistry, RegistryOptions};
use td_shard::ShardedAggregate;

use crate::gen::{key_of, mix};
use crate::global_ooo::{backend, decay, Engine, SHARDS};
use crate::keyed_durable::LAMBDA;
use crate::stats::{self, Report};
use crate::trace::{self, span, Analysis, Traced};
use crate::{layers, Scale};

/// Offered op rate, ops per second: well below saturation (a mean op
/// costs a few µs).
const RATE: f64 = 20_000.0;
/// WBMH accuracy target of the engine.
const ENGINE_EPSILON: f64 = 0.05;
/// Items per write op, to each structure.
const WRITE_BATCH: usize = 8;
/// Items per tick while loading the registry.
const LOAD_TICK_ITEMS: usize = 4096;
/// Engine items per load tick.
const LOAD_ENGINE_ITEMS: usize = 64;
/// Ops in the generated op sequence (replayed as the run goes on).
const OP_POOL: usize = 1 << 16;
/// One engine answer in this many is checked against the oracle.
const ENGINE_CHECK_ONE_IN: u64 = 16;
/// One sampled key in this many enters `answer_rel_err_p99` at the
/// final sweep, so registry and engine answers both weigh in.
const SWEEP_REL_ERR_ONE_IN: usize = 16;
/// Registry restores timed for `recover_s` (median; each takes seconds
/// at 4M keys).
const RECOVER_REPS: usize = 3;
/// Set-up repetitions at most (each loads every key).
const MAX_SETUP_REPS: usize = 3;

type Reg = Traced<KeyedRegistry<ForwardDecaySum<Exponential>>>;

fn registry(keys: u64) -> Reg {
    Traced::new(
        "registry",
        KeyedRegistry::new(
            RegistryOptions {
                expected_keys: keys as usize,
                ..RegistryOptions::default()
            },
            || ForwardDecaySum::new(Exponential::new(LAMBDA)),
        ),
    )
}

#[derive(Clone, Copy)]
enum Op {
    Key(u64),
    Global,
    /// Index of the write's first item in `Ops::writes`.
    Write(usize),
}

struct Ops {
    ops: Vec<Op>,
    /// `(key, value)` of each write's registry items, then its engine
    /// values, `WRITE_BATCH` of each per write.
    writes: Vec<(u64, u64)>,
}

fn ops(seed: u64, scale: &Scale) -> Ops {
    let mut rng = Rng::new(seed ^ 0x000_0003);
    let mut ops = Vec::with_capacity(OP_POOL);
    let mut writes = Vec::new();
    for _ in 0..OP_POOL {
        let r = rng.below(10);
        ops.push(if r < 6 {
            Op::Key(key_of(rng.below(scale.rm_keys), seed))
        } else if r < 9 {
            Op::Global
        } else {
            let at = writes.len();
            for _ in 0..2 * WRITE_BATCH {
                writes.push((key_of(rng.below(scale.rm_keys), seed), rng.range(1, 100)));
            }
            Op::Write(at)
        });
    }
    Ops { ops, writes }
}

/// The benchmark's exact state: one oracle per sampled key, one for
/// the engine's stream.
struct Oracles {
    seed: u64,
    one_in: u64,
    keys: BTreeMap<u64, Oracle<Exponential>>,
    engine: Oracle<td_decay::Polynomial>,
}

impl Oracles {
    fn new(seed: u64, one_in: u64) -> Self {
        Oracles {
            seed,
            one_in,
            keys: BTreeMap::new(),
            engine: Oracle::new(decay()),
        }
    }

    fn sampled(&self, key: u64) -> bool {
        mix(key ^ self.seed).is_multiple_of(self.one_in)
    }

    fn observe_key(&mut self, key: u64, t: Time, f: u64) {
        if self.sampled(key) {
            self.keys
                .entry(key)
                .or_insert_with(|| Oracle::new(Exponential::new(LAMBDA)))
                .observe(t, f);
        }
    }
}

/// Builds both structures and loads every key; returns them with the
/// seconds spent in set-up calls (input generation excluded).
fn setup(
    seed: u64,
    scale: &Scale,
    oracles: Option<&mut Oracles>,
    report: &mut Report,
) -> (Reg, Engine, f64, Time) {
    let mut rng = Rng::new(seed ^ 0x000_0004);
    let mut oracles = oracles;
    let t0 = Instant::now();
    let mut reg = registry(scale.rm_keys);
    let mut engine = Traced::new(
        "shard",
        ShardedAggregate::new(SHARDS, || backend(ENGINE_EPSILON)),
    );
    let mut secs = t0.elapsed().as_secs_f64();
    let n = scale.rm_keys;
    let total = n + n / 2;
    let mut batch = Vec::with_capacity(LOAD_TICK_ITEMS);
    let mut engine_batch = Vec::with_capacity(LOAD_ENGINE_ITEMS);
    let mut tick: Time = 0;
    let mut i = 0u64;
    while i < total {
        tick += 1;
        batch.clear();
        engine_batch.clear();
        while batch.len() < LOAD_TICK_ITEMS && i < total {
            // Every key once, in rank order, then half of them again.
            let rank = if i < n { i } else { rng.below(n) };
            batch.push((key_of(rank, seed), tick, rng.range(1, 100)));
            i += 1;
        }
        engine_batch.extend((0..LOAD_ENGINE_ITEMS).map(|_| (tick, rng.range(1, 16))));
        if let Some(o) = oracles.as_deref_mut() {
            for &(k, t, f) in &batch {
                o.observe_key(k, t, f);
            }
            o.engine
                .observe(tick, engine_batch.iter().map(|&(_, f)| f).sum());
        }
        let t0 = Instant::now();
        reg.observe_keyed_batch(&batch);
        engine.observe_batch(&engine_batch);
        secs += t0.elapsed().as_secs_f64();
    }
    // Steady state: every worker has applied its share.
    let t0 = Instant::now();
    let ready = engine.get().try_query(tick + 1);
    secs += t0.elapsed().as_secs_f64();
    report.check_or(ready.is_ok(), || format!("set-up barrier: {ready:?}"));
    (reg, engine, secs, tick)
}

/// An answer recorded in the loop and checked after it.
enum Check {
    Key {
        key: u64,
        q: Time,
        est: f64,
        bound: ErrorBound,
        slack: f64,
    },
    Global {
        q: Time,
        est: f64,
        bound: ErrorBound,
    },
}

struct Phase {
    reg: Reg,
    engine: Engine,
    clock: Time,
    ops: u64,
    query_us: Vec<f64>,
    late_us: Vec<f64>,
    /// Service time of each write op, in seconds.
    write_secs: Vec<f64>,
    checks: Vec<Check>,
}

impl Phase {
    /// Items written per second of write service time. (The mean, not
    /// the median op: a write's time is bimodal, and the share of each
    /// mode shifts from run to run, which moves a median by a whole
    /// mode.)
    fn ingest_rate(&self) -> f64 {
        (2 * WRITE_BATCH * self.write_secs.len()) as f64 / self.write_secs.iter().sum::<f64>()
    }
}

#[allow(clippy::too_many_arguments)]
fn measure(
    reg: Reg,
    engine: Engine,
    clock: Time,
    ops: &Ops,
    budget: Duration,
    scale: &Scale,
    oracles: &mut Oracles,
    report: &mut Report,
) -> Phase {
    let (mut reg, mut engine, mut clock) = (reg, engine, clock);
    let period = Duration::from_secs_f64(1.0 / RATE);
    let n_ops = scale
        .max_ops
        .unwrap_or((budget.as_secs_f64() * RATE) as u64);
    let b = WRITE_BATCH;
    let mut query_us = Vec::with_capacity(n_ops as usize);
    let mut late_us = Vec::with_capacity(n_ops as usize);
    let mut checks = Vec::new();
    let mut write_secs = Vec::new();
    let mut globals = 0u64;
    let mut keyed = Vec::with_capacity(b);
    let mut plain = Vec::with_capacity(b);
    let start = Instant::now();
    let root = span("bench", "loop");
    for i in 0..n_ops {
        let due = start + period.mul_f64(i as f64);
        {
            let _g = span("loadgen", "wait");
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        let began = Instant::now();
        late_us.push((began - due).as_secs_f64() * 1e6);
        match ops.ops[i as usize % ops.ops.len()] {
            Op::Key(key) => {
                let a = {
                    let _g = span("registry", "query_key");
                    reg.get().query_key(key, clock)
                };
                query_us.push(due.elapsed().as_secs_f64() * 1e6);
                if oracles.sampled(key) {
                    checks.push(Check::Key {
                        key,
                        q: clock,
                        est: a.estimate,
                        bound: a.bound,
                        slack: a.evicted_slack,
                    });
                }
            }
            Op::Global => {
                let a = {
                    let _g = span("shard", "try_query");
                    engine.get().try_query(clock)
                };
                query_us.push(due.elapsed().as_secs_f64() * 1e6);
                globals += 1;
                match a {
                    Ok(a) if a.degraded.is_empty() && a.complete_up_to == clock => {
                        report.check(true);
                        if globals.is_multiple_of(ENGINE_CHECK_ONE_IN) {
                            checks.push(Check::Global {
                                q: clock,
                                est: a.value,
                                bound: a.bound,
                            });
                        }
                    }
                    other => report.check_or(false, || format!("try_query at {clock}: {other:?}")),
                }
            }
            Op::Write(at) => {
                clock += 1;
                {
                    let _g = span("loadgen", "write_batch");
                    keyed.clear();
                    plain.clear();
                    keyed.extend(ops.writes[at..at + b].iter().map(|&(k, f)| (k, clock, f)));
                    plain.extend(
                        ops.writes[at + b..at + 2 * b]
                            .iter()
                            .map(|&(_, f)| (clock, f)),
                    );
                }
                let t0 = Instant::now();
                reg.observe_keyed_batch(&keyed);
                engine.observe_batch(&plain);
                write_secs.push(t0.elapsed().as_secs_f64());
                let _g = span("oracle", "observe");
                for &(k, t, f) in &keyed {
                    oracles.observe_key(k, t, f);
                }
                oracles
                    .engine
                    .observe(clock, plain.iter().map(|&(_, f)| f).sum());
            }
        }
    }
    root.end();
    Phase {
        reg,
        engine,
        clock,
        ops: n_ops,
        query_us,
        late_us,
        write_secs,
        checks,
    }
}

/// Checks the recorded answers, then every sampled key at the end;
/// returns the relative errors that feed `answer_rel_err_p99` and the
/// mean eviction slack relative to the estimate.
fn verify(phase: &Phase, oracles: &Oracles, report: &mut Report) -> (Vec<f64>, f64) {
    let mut errs = Vec::new();
    let mut slack_rel = Vec::new();
    for c in &phase.checks {
        match *c {
            Check::Key {
                key,
                q,
                est,
                bound,
                slack,
            } => {
                let truth = oracles.keys.get(&key).map_or(0.0, |o| o.decayed_sum(q));
                let a = td_registry::KeyAnswer {
                    estimate: est,
                    bound,
                    evicted_slack: slack,
                };
                report.check_or(a.admits(truth, 1e-9 * truth.max(1.0)), || {
                    format!("key {key:#x} at {q}: {a:?} vs truth {truth}")
                });
                errs.push(stats::rel_err(est, truth));
            }
            Check::Global { q, est, bound } => {
                let truth = oracles.engine.decayed_sum(q);
                report.check_or(bound.admits(est, truth, 1e-9 * truth.max(1.0)), || {
                    format!("engine at {q}: {est} outside {bound:?} of truth {truth}")
                });
                errs.push(stats::rel_err(est, truth));
            }
        }
    }
    let q = phase.clock + 1;
    for (i, (&key, oracle)) in oracles.keys.iter().enumerate() {
        let a = phase.reg.get().query_key(key, q);
        let truth = oracle.decayed_sum(q);
        report.check_or(a.admits(truth, 1e-9 * truth.max(1.0)), || {
            format!("final key {key:#x} at {q}: {a:?} vs truth {truth}")
        });
        if i % SWEEP_REL_ERR_ONE_IN == 0 {
            errs.push(stats::rel_err(a.estimate, truth));
        }
        if a.estimate >= 1.0 {
            slack_rel.push(a.evicted_slack / a.estimate);
        }
    }
    let mean = slack_rel.iter().sum::<f64>() / slack_rel.len().max(1) as f64;
    (errs, mean)
}

/// Checkpoints the registry, drops it, and times restoring it into a
/// fresh registry; sampled keys must answer bit for bit as before.
fn recover(phase: Phase, oracles: &Oracles, scale: &Scale, report: &mut Report) -> Vec<f64> {
    let Phase {
        reg, engine, clock, ..
    } = phase;
    drop(engine);
    let q = clock + 1;
    let keys: Vec<u64> = oracles
        .keys
        .keys()
        .copied()
        .step_by(SWEEP_REL_ERR_ONE_IN)
        .collect();
    let bits = |r: &Reg| -> Vec<u64> {
        keys.iter()
            .map(|&k| r.get().query_key(k, q).estimate.to_bits())
            .collect()
    };
    let before = bits(&reg);
    let live = reg.get().len();
    let bytes = reg.save_checkpoint();
    drop(reg);
    let mut secs = Vec::new();
    for _ in 0..RECOVER_REPS {
        let t0 = Instant::now();
        let mut fresh = registry(scale.rm_keys);
        let restored = fresh.restore_checkpoint(&bytes);
        secs.push(t0.elapsed().as_secs_f64());
        report.check_or(
            restored.is_ok() && fresh.get().len() == live && bits(&fresh) == before,
            || {
                format!(
                    "registry restore: {restored:?}, live {} vs {live}",
                    fresh.get().len()
                )
            },
        );
    }
    secs
}

/// Runs the workload.
pub fn run(seed: u64, budget: Duration, traced: bool, scale: &Scale) -> Report {
    let mut report = Report::default();
    let ops = ops(seed, scale);
    report.stamp("keys", scale.rm_keys);
    report.stamp("rate_ops_per_s", RATE);
    report.stamp(
        "mix",
        stats::json_str("60% query_key, 30% try_query, 10% write"),
    );
    report.stamp("write_batch_items", WRITE_BATCH);
    report.stamp("shards", SHARDS);
    report.stamp("epsilon", ENGINE_EPSILON);
    if traced {
        run_traced(&ops, seed, budget, scale, &mut report);
    } else {
        run_untraced(&ops, seed, budget, scale, &mut report);
    }
    report
}

fn run_untraced(ops: &Ops, seed: u64, budget: Duration, scale: &Scale, report: &mut Report) {
    let reps = scale.setup_reps.clamp(1, MAX_SETUP_REPS);
    let mut setups = Vec::new();
    for _ in 1..reps {
        let (reg, engine, secs, _) = setup(seed, scale, None, report);
        setups.push(secs);
        drop((reg, engine));
    }
    let mut oracles = Oracles::new(seed, scale.sample_one_in);
    let (reg, engine, secs, clock) = setup(seed, scale, Some(&mut oracles), report);
    setups.push(secs);
    let mut phase = measure(reg, engine, clock, ops, budget, scale, &mut oracles, report);
    let peak = stats::peak_rss_mb();
    let rs = phase.reg.get().stats();
    let (mut errs, _) = verify(&phase, &oracles, report);
    let rate = phase.ingest_rate();
    let lat = stats::windowed_tail(&phase.query_us, stats::LATENCY_WINDOW);
    let late = stats::tail(&mut phase.late_us);
    report.stamp("ops", phase.ops);
    report.stamp("query_samples", lat.n);
    report.stamp("query_tail_quantile", lat.tail_q);
    report.stamp("loadgen_late_p50_us", stats::json_num(late.p50));
    report.stamp("loadgen_late_tail_us", stats::json_num(late.tail));
    report.stamp("rel_err_samples", errs.len());
    report.stamp("sampled_keys", oracles.keys.len());
    report.stamp("setup_reps", setups.len());
    let mut restores = recover(phase, &oracles, scale, report);
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
    report.metric("recover_s", stats::median(&mut restores), "s");
}

fn run_traced(ops: &Ops, seed: u64, budget: Duration, scale: &Scale, report: &mut Report) {
    let (plain_budget, traced_budget) = crate::trace_split(budget);
    let mut oracles = Oracles::new(seed, scale.sample_one_in);
    let (reg, engine, _, clock) = setup(seed, scale, Some(&mut oracles), report);
    let plain = measure(
        reg,
        engine,
        clock,
        ops,
        plain_budget,
        scale,
        &mut oracles,
        report,
    );
    let plain_rate = plain.ingest_rate();
    let (reg, engine, clock) = (plain.reg, plain.engine, plain.clock);

    let (hits0, rebuilds0) = engine.get().cache_stats();
    trace::take_spans();
    trace::set_enabled(true);
    let cpu0 = stats::threads_cpu_ns("td-shard");
    let t0 = Instant::now();
    let mut phase = measure(
        reg,
        engine,
        clock,
        ops,
        traced_budget,
        scale,
        &mut oracles,
        report,
    );
    let elapsed = t0.elapsed();
    let busy_ns = stats::threads_cpu_ns("td-shard") - cpu0;
    trace::set_enabled(false);
    let a = Analysis::new(trace::take_spans());
    let (_, slack_rel) = verify(&phase, &oracles, report);
    let late = stats::tail(&mut phase.late_us);
    report.metric("loadgen.late_p99_us", late.tail, "us");
    report.metric(
        "loadgen.query_samples",
        phase.query_us.len() as f64,
        "count",
    );
    let engine = phase.engine.get();
    let (hits, rebuilds) = engine.cache_stats();
    let run = layers::EngineRun {
        engine,
        cache: (hits - hits0, rebuilds - rebuilds0),
        busy_ns,
        elapsed,
        summary_bits: engine.storage_bits(),
    };
    layers::engine(report, &a, &run);
    layers::registry(
        report,
        &a,
        &phase.reg.get().stats(),
        scale.rm_keys,
        slack_rel,
    );
    layers::tracing(report, &a, a.len(), plain_rate, phase.ingest_rate());
    report.stamp("ops", phase.ops);
    crate::write_spans(&a, "read_mix", seed, report);
}
