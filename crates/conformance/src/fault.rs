//! Deterministic fault injection for the sharded serving engine.
//!
//! No wall clock anywhere: a [`FaultPlan`] is a pure function of its
//! fields (seed, victim, trigger point, mode), the trigger counts
//! *applied observations* on the victim shard (not time), and the
//! scenario replay is the same seeded op sequence the rest of the
//! conformance harness uses — so a failing case is replayable from the
//! one-line repro in its error message.
//!
//! Three pieces:
//!
//! * [`FaultInjector`] / [`FaultyBackend`] — a transparent wrapper over
//!   any checkpointable backend that panics inside the victim worker
//!   when its cumulative applied-item count crosses the trigger, and
//!   (in [`FaultMode::CorruptCheckpoint`]) flips a seeded bit in every
//!   checkpoint the victim saves.
//! * [`certify_faulted`] — replays a scenario into a supervised
//!   [`ShardedAggregate`] with the fault armed, lock-step against the
//!   exact oracle, proving that **every** answer the engine serves —
//!   before, during, and after the failure — sits inside its own
//!   self-reported (possibly widened) envelope, and that the engine's
//!   terminal state matches the mode: restarted shards heal back to
//!   the un-widened summed envelope, quarantined and corrupted shards
//!   are served from checkpoints with the victim listed as degraded.
//! * [`certify_corruption_detected`] — the restore side of the
//!   contract: every seeded single-bit flip of a checkpoint must be
//!   rejected with a typed [`RestoreError`], never silently restored.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use td_decay::checkpoint::{Checkpoint, RestoreError};
use td_decay::{DecayFunction, ErrorBound, StorageAccounting, StreamAggregate, Time};
use td_shard::{ShardHealth, ShardedAggregate, SupervisorOptions};

use crate::lateness::LateStream;
use crate::oracle::Oracle;
use crate::scenario::{Op, Scenario};

/// What the injected fault does to the victim shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// One panic; the supervisor restores the last checkpoint, replays
    /// the failed chunk, and the shard heals. Expected terminal state:
    /// all shards live, no degradation, envelope back to the plain
    /// summed bound.
    Restart,
    /// One panic with the restart budget set to zero: the shard is
    /// quarantined and every later answer is served degraded, from the
    /// victim's last checkpoint, inside a widened envelope.
    Quarantine,
    /// One panic, but every checkpoint the victim saved had one bit
    /// flipped at a seeded offset. The restore must *detect* the
    /// corruption (checksum), the shard quarantines, and the victim's
    /// whole submitted mass goes at risk — never silently wrong.
    CorruptCheckpoint {
        /// Which bit to flip, modulo the checkpoint length in bits.
        bit_offset: u64,
    },
}

/// A fully deterministic description of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Identifies the plan in repro messages (and seeds derived
    /// offsets); does not otherwise affect behavior.
    pub seed: u64,
    /// Which shard's worker dies (0-based).
    pub victim: usize,
    /// The victim panics when its cumulative applied observation count
    /// crosses this threshold. Counted per item, not per batch, so the
    /// trigger point is independent of chunking/timing.
    pub panic_after_items: u64,
    /// What happens around the panic.
    pub mode: FaultMode,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaultPlan {{ seed: {:#x}, victim: {}, panic_after_items: {}, mode: {:?} }}",
            self.seed, self.victim, self.panic_after_items, self.mode
        )
    }
}

/// Shared trigger state for one armed fault.
struct FaultState {
    /// Items applied by the victim so far.
    applied: AtomicU64,
    /// Ensures the panic fires exactly once (so the post-restore replay
    /// of the same chunk goes through).
    fired: AtomicBool,
    /// Instance counter: the engine's `make` closure is called once for
    /// the coordinator's template backend and then once per shard, in
    /// order, so instance `v + 1` is shard `v`'s worker-owned backend.
    instances: AtomicUsize,
}

/// Arms one [`FaultPlan`] and hands out [`FaultyBackend`] wrappers that
/// carry it into the engine's worker threads.
pub struct FaultInjector {
    plan: FaultPlan,
    state: FaultState,
}

impl FaultInjector {
    /// Arms `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            state: FaultState {
                applied: AtomicU64::new(0),
                fired: AtomicBool::new(false),
                instances: AtomicUsize::new(0),
            },
        })
    }

    /// Whether the armed panic has fired.
    pub fn fired(&self) -> bool {
        self.state.fired.load(Ordering::SeqCst)
    }

    /// Wraps a backend factory so each constructed backend knows its
    /// instance index. Pass the result to
    /// [`ShardedAggregate::supervised`].
    pub fn factory<B, F>(self: &Arc<Self>, make: F) -> impl Fn() -> FaultyBackend<B>
    where
        F: Fn() -> B,
    {
        let injector = Arc::clone(self);
        move || {
            let instance = injector.state.instances.fetch_add(1, Ordering::SeqCst);
            FaultyBackend {
                inner: make(),
                injector: Arc::clone(&injector),
                instance,
            }
        }
    }

    /// True when `instance` is the victim shard's worker-owned backend.
    fn is_victim(&self, instance: usize) -> bool {
        instance == self.plan.victim + 1
    }
}

/// A transparent wrapper that injects the armed fault of its
/// [`FaultInjector`] into the victim shard's ingest path.
///
/// Clones keep their instance identity — harmless, because the engine
/// only calls `observe_batch` (the trigger site) on worker-owned
/// originals, never on coordinator-side snapshots or restore targets.
pub struct FaultyBackend<B> {
    inner: B,
    injector: Arc<FaultInjector>,
    instance: usize,
}

impl<B: Clone> Clone for FaultyBackend<B> {
    fn clone(&self) -> Self {
        FaultyBackend {
            inner: self.inner.clone(),
            injector: Arc::clone(&self.injector),
            instance: self.instance,
        }
    }
}

impl<B: StorageAccounting> StorageAccounting for FaultyBackend<B> {
    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

impl<B: StreamAggregate + Clone> StreamAggregate for FaultyBackend<B> {
    fn observe(&mut self, t: Time, f: u64) {
        self.inner.observe(t, f)
    }

    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        if self.injector.is_victim(self.instance) {
            let st = &self.injector.state;
            let before = st.applied.fetch_add(items.len() as u64, Ordering::SeqCst);
            if before + items.len() as u64 >= self.injector.plan.panic_after_items
                && !st.fired.swap(true, Ordering::SeqCst)
            {
                panic!("injected fault: {}", self.injector.plan);
            }
        }
        self.inner.observe_batch(items)
    }

    fn batched_ingest_amortizes(&self) -> bool {
        self.inner.batched_ingest_amortizes()
    }

    fn advance(&mut self, t: Time) {
        self.inner.advance(t)
    }

    fn query(&self, t: Time) -> f64 {
        self.inner.query(t)
    }

    fn merge_from(&mut self, other: &Self) {
        self.inner.merge_from(&other.inner)
    }

    fn error_bound(&self) -> ErrorBound {
        self.inner.error_bound()
    }
}

impl<B: StreamAggregate + Checkpoint + Clone> Checkpoint for FaultyBackend<B> {
    fn save_checkpoint(&self) -> Vec<u8> {
        let mut bytes = self.inner.save_checkpoint();
        if let FaultMode::CorruptCheckpoint { bit_offset } = self.injector.plan.mode {
            if self.injector.is_victim(self.instance) && !bytes.is_empty() {
                let bit = bit_offset % (bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        bytes
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.inner.restore_checkpoint(bytes)
    }
}

/// Everything [`certify_faulted`] measured on a clean run.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Queries checked against the oracle.
    pub queries: usize,
    /// How many of them were served degraded (victim listed).
    pub degraded_queries: usize,
    /// Worst observed relative error across queries with nonzero truth.
    pub max_rel_err: f64,
    /// The terminal answer's envelope.
    pub final_bound: ErrorBound,
}

fn slop(truth: f64) -> f64 {
    1e-9 * truth.abs().max(1.0)
}

fn fail(plan: &FaultPlan, scenario: &Scenario, backend_name: &str, t: Time, why: String) -> String {
    format!(
        "fault-injection failure: backend `{backend_name}` under {plan} on scenario \
         `{}` (seed {:#x}) at t = {t}: {why}. Replay: regenerate family `{}` with \
         seed {:#x}, arm the same plan, and query at t = {t}.",
        scenario.name, scenario.seed, scenario.name, scenario.seed,
    )
}

/// Replays `scenario` into a supervised `shards`-way engine with `plan`
/// armed, lock-step against the exact oracle of `oracle_decay`, and
/// proves the fault-tolerance contract:
///
/// 1. **Every answer is certified.** Each query's value sits inside the
///    envelope the engine itself reports for it — healthy, mid-failure,
///    or degraded. A widened envelope that fails to cover the truth is
///    a violation, exactly like a healthy envelope that does.
/// 2. **The fault actually fires** (a plan whose trigger is past the
///    victim's share of the stream proves nothing and is rejected).
/// 3. **The terminal state matches the mode** — see [`FaultMode`].
///
/// Returns a replayable one-line repro on the first violation.
pub fn certify_faulted<B, F>(
    plan: FaultPlan,
    scenario: &Scenario,
    shards: usize,
    oracle_decay: Box<dyn DecayFunction>,
    backend_name: &str,
    make: F,
) -> Result<FaultReport, String>
where
    B: StreamAggregate + Checkpoint + Clone + Send + 'static,
    F: Fn() -> B,
{
    assert!(plan.victim < shards, "victim must be a real shard");
    let opts = SupervisorOptions {
        max_restarts: match plan.mode {
            FaultMode::Quarantine => 0,
            _ => SupervisorOptions::default().max_restarts,
        },
        ..SupervisorOptions::default()
    };
    let injector = FaultInjector::new(plan);
    let mut engine = ShardedAggregate::supervised(shards, opts, injector.factory(make));
    let mut oracle: Oracle<Box<dyn DecayFunction>> = Oracle::new(oracle_decay);

    let mut report = FaultReport {
        queries: 0,
        degraded_queries: 0,
        max_rel_err: 0.0,
        final_bound: ErrorBound::unbounded(),
    };
    let check = |engine: &ShardedAggregate<FaultyBackend<B>>,
                 oracle: &Oracle<Box<dyn DecayFunction>>,
                 t: Time,
                 report: &mut FaultReport|
     -> Result<(), String> {
        let ans = engine
            .try_query(t)
            .map_err(|e| fail(&plan, scenario, backend_name, t, format!("{e}")))?;
        let truth = oracle.decayed_sum(t);
        if !ans.bound.admits(ans.value, truth, slop(truth)) {
            return Err(fail(
                &plan,
                scenario,
                backend_name,
                t,
                format!(
                    "answer {} outside its self-reported envelope {:?} around oracle \
                     truth {} (degraded: {:?})",
                    ans.value, ans.bound, truth, ans.degraded
                ),
            ));
        }
        report.queries += 1;
        if ans.degraded.contains(&plan.victim) {
            report.degraded_queries += 1;
        }
        if truth.abs() > 1e-9 {
            report.max_rel_err = report
                .max_rel_err
                .max((ans.value - truth).abs() / truth.abs());
        }
        report.final_bound = ans.bound;
        Ok(())
    };

    for op in &scenario.ops {
        match op {
            Op::Observe(t, f) => {
                engine.observe(*t, *f);
                oracle.observe(*t, *f);
            }
            Op::ObserveBatch(items) => {
                engine.observe_batch(items);
                oracle.observe_batch(items);
            }
            Op::Advance(t) => {
                engine.advance(*t);
                oracle.advance(*t);
            }
            Op::Query(t) => check(&engine, &oracle, *t, &mut report)?,
        }
    }
    // Terminal probe strictly after everything, once the engine has
    // settled into the mode's expected end state.
    let t_end = scenario.max_time() + 7;
    check(&engine, &oracle, t_end, &mut report)?;

    if !injector.fired() {
        return Err(fail(
            &plan,
            scenario,
            backend_name,
            t_end,
            "the armed fault never fired — the plan's trigger is past the victim's \
             share of the stream, so this run certified nothing"
                .to_string(),
        ));
    }

    let stats = engine.shard_stats();
    let victim = &stats[plan.victim];
    match plan.mode {
        FaultMode::Restart => {
            if victim.restarts < 1 || victim.health != ShardHealth::Live {
                return Err(fail(
                    &plan,
                    scenario,
                    backend_name,
                    t_end,
                    format!("expected a healed restart, got {victim:?}"),
                ));
            }
            // Healed means *fully* healed: the terminal answer must be
            // un-degraded and its envelope the plain summed bound, with
            // no widening left over (checkpoint-per-chunk restarts are
            // lossless).
            let ans = engine
                .try_query(t_end)
                .map_err(|e| fail(&plan, scenario, backend_name, t_end, format!("{e}")))?;
            if !ans.degraded.is_empty() || victim.lost_mass != 0 {
                return Err(fail(
                    &plan,
                    scenario,
                    backend_name,
                    t_end,
                    format!(
                        "restart must heal completely: degraded {:?}, lost_mass {}",
                        ans.degraded, victim.lost_mass
                    ),
                ));
            }
            report.final_bound = ans.bound;
        }
        FaultMode::Quarantine => {
            if victim.health != ShardHealth::Quarantined {
                return Err(fail(
                    &plan,
                    scenario,
                    backend_name,
                    t_end,
                    format!("expected quarantine, got {victim:?}"),
                ));
            }
            let ans = engine
                .try_query(t_end)
                .map_err(|e| fail(&plan, scenario, backend_name, t_end, format!("{e}")))?;
            if !ans.degraded.contains(&plan.victim) {
                return Err(fail(
                    &plan,
                    scenario,
                    backend_name,
                    t_end,
                    format!(
                        "quarantined victim missing from degraded list {:?}",
                        ans.degraded
                    ),
                ));
            }
        }
        FaultMode::CorruptCheckpoint { .. } => {
            if victim.health != ShardHealth::Quarantined {
                return Err(fail(
                    &plan,
                    scenario,
                    backend_name,
                    t_end,
                    format!("corrupted checkpoint must quarantine, got {victim:?}"),
                ));
            }
            // The corruption must have been *detected* — the restore
            // failure (checksum) is recorded on the shard, and the
            // degraded answer must not have folded the corrupt bytes.
            let noted = victim
                .last_panic
                .as_deref()
                .is_some_and(|p| p.contains("checksum"));
            if !noted {
                return Err(fail(
                    &plan,
                    scenario,
                    backend_name,
                    t_end,
                    format!(
                        "corruption was not detected as a checksum failure: {:?}",
                        victim.last_panic
                    ),
                ));
            }
        }
    }
    Ok(report)
}

/// The reorder-stage extension of [`certify_faulted`] (ISSUE 7,
/// satellite): the shard panic fires **while items are still buffered
/// in the bounded-lateness stage** in front of the engine — the
/// deployment shape where a worker dies mid-stream with in-flight
/// out-of-order mass that has not yet been released downstream.
///
/// Replays a [`LateStream`] (arrival order, `Reject` policy) through
/// `Reorderer<ShardedAggregate<FaultyBackend<B>>>` with `plan` armed,
/// lock-step against an independent watermark simulation and exact
/// truth, and proves:
///
/// 1. **Every answer is certified** — healthy, mid-failure, degraded —
///    inside the envelope the engine itself reports, against the truth
///    of the *accepted* substream (rejected mass is lost by contract,
///    never silently).
/// 2. **The fault fires with the stage non-empty**: at the first
///    barrier after the panic, the reorder buffers still hold items —
///    otherwise the run proves nothing about the buffered-mass path
///    and is rejected as vacuous.
/// 3. **Completeness tracks the published watermark**: every answer's
///    `complete_up_to` equals the stage's watermark at the barrier,
///    including after the failure.
/// 4. **The terminal state matches the mode**: a restart heals with
///    zero lost mass and un-degraded terminal answers (the buffered
///    items replayed losslessly through the recovered shard); a
///    quarantine lists the victim as degraded, prices the victim's
///    uncovered mass into a widened lower envelope, and serves
///    post-quarantine releases (including the mass that was buffered at
///    panic time) from the surviving shards.
///
/// `CorruptCheckpoint` plans are not meaningful here (the corruption
/// path is checkpoint-level, not stage-level) and are rejected.
pub fn certify_faulted_reordered<B, F>(
    plan: FaultPlan,
    stream: &LateStream,
    shards: usize,
    make_decay: fn() -> Box<dyn DecayFunction>,
    backend_name: &str,
    make: F,
) -> Result<FaultReport, String>
where
    B: StreamAggregate + Checkpoint + Clone + Send + 'static,
    F: Fn() -> B,
{
    assert!(plan.victim < shards, "victim must be a real shard");
    assert!(
        !matches!(plan.mode, FaultMode::CorruptCheckpoint { .. }),
        "corruption plans are certified by certify_faulted, not the reordered path"
    );
    let opts = SupervisorOptions {
        max_restarts: match plan.mode {
            FaultMode::Quarantine => 0,
            _ => SupervisorOptions::default().max_restarts,
        },
        ..SupervisorOptions::default()
    };
    let injector = FaultInjector::new(plan);
    let engine = ShardedAggregate::supervised(shards, opts, injector.factory(make));
    let mut r = engine.reordered(
        make_decay(),
        stream.bound,
        td_reorder::LatenessPolicy::Reject,
        stream.sources,
    );
    let truth_decay = make_decay();

    let scn = Scenario {
        name: stream.name.clone(),
        seed: stream.seed,
        ops: Vec::new(),
    };
    let mut report = FaultReport {
        queries: 0,
        degraded_queries: 0,
        max_rel_err: 0.0,
        final_bound: ErrorBound::unbounded(),
    };

    // Independent simulation: prefix-max watermark + accepted item set.
    let mut max_seen: Time = 0;
    let mut wm: Time = 0;
    let mut truth_items: Vec<(Time, u64)> = Vec::new();
    let mut buffered_at_fire: Option<u64> = None;

    let truth_at = |items: &[(Time, u64)], t: Time| -> f64 {
        items
            .iter()
            .filter(|&&(ti, _)| ti < t)
            .map(|&(ti, f)| f as f64 * truth_decay.weight(t - ti))
            .sum()
    };

    for (i, a) in stream.arrivals.iter().enumerate() {
        let predicted_late = a.t < wm;
        let res = r.push(a.source, a.t, a.f);
        if predicted_late {
            if res.is_ok() {
                return Err(fail(
                    &plan,
                    &scn,
                    backend_name,
                    a.t,
                    format!("beyond-bound arrival #{i} accepted under Reject"),
                ));
            }
        } else {
            if res.is_err() {
                return Err(fail(
                    &plan,
                    &scn,
                    backend_name,
                    a.t,
                    format!("on-time arrival #{i} refused: {res:?}"),
                ));
            }
            truth_items.push((a.t, a.f));
            max_seen = max_seen.max(a.t);
            wm = max_seen.saturating_sub(stream.bound);
        }

        if (i + 1) % stream.checkpoint_every == 0 && wm > 0 {
            // try_query barriers: the workers have drained everything
            // released so far before the answer is built.
            let q = wm + 1;
            let ans = r
                .inner()
                .try_query(q)
                .map_err(|e| fail(&plan, &scn, backend_name, q, format!("{e}")))?;
            let truth = truth_at(&truth_items, q);
            if !ans.bound.admits(ans.value, truth, slop(truth)) {
                return Err(fail(
                    &plan,
                    &scn,
                    backend_name,
                    q,
                    format!(
                        "answer {} outside its self-reported envelope {:?} around \
                         accepted-substream truth {} (degraded: {:?})",
                        ans.value, ans.bound, truth, ans.degraded
                    ),
                ));
            }
            if ans.complete_up_to != r.watermark() {
                return Err(fail(
                    &plan,
                    &scn,
                    backend_name,
                    q,
                    format!(
                        "completeness {} diverged from the published watermark {}",
                        ans.complete_up_to,
                        r.watermark()
                    ),
                ));
            }
            report.queries += 1;
            if ans.degraded.contains(&plan.victim) {
                report.degraded_queries += 1;
            }
            if truth.abs() > 1e-9 {
                report.max_rel_err = report
                    .max_rel_err
                    .max((ans.value - truth).abs() / truth.abs());
            }
            // The barrier synchronized us with the workers: if the
            // panic has fired, record how much the stage was holding.
            if injector.fired() && buffered_at_fire.is_none() {
                buffered_at_fire = Some(r.stats().buffered_items);
            }
        }
    }

    if !injector.fired() {
        return Err(fail(
            &plan,
            &scn,
            backend_name,
            max_seen,
            "the armed fault never fired before the stream ended — trigger past the \
             victim's share, run certified nothing"
                .to_string(),
        ));
    }
    let buffered = match buffered_at_fire {
        // Observed at a barrier before the flush: the stage still held
        // at least the frontier item, or the run is vacuous.
        Some(n) if n > 0 => n,
        _ => {
            return Err(fail(
                &plan,
                &scn,
                backend_name,
                max_seen,
                "the fault fired with the reorder stage empty — this run never \
                 exercised the buffered-mass path; retune panic_after_items"
                    .to_string(),
            ));
        }
    };

    // Drain the stage into the (restarted or degraded) engine and probe
    // strictly after everything.
    r.flush();
    let t_end = stream.max_time() + 7;
    let ans = r
        .inner()
        .try_query(t_end)
        .map_err(|e| fail(&plan, &scn, backend_name, t_end, format!("{e}")))?;
    let truth = truth_at(&truth_items, t_end);
    if !ans.bound.admits(ans.value, truth, slop(truth)) {
        return Err(fail(
            &plan,
            &scn,
            backend_name,
            t_end,
            format!(
                "terminal answer {} outside envelope {:?} around truth {} \
                 ({} items were buffered at panic time)",
                ans.value, ans.bound, truth, buffered
            ),
        ));
    }
    if ans.complete_up_to != max_seen {
        return Err(fail(
            &plan,
            &scn,
            backend_name,
            t_end,
            format!(
                "after flush, completeness {} must equal the global max {}",
                ans.complete_up_to, max_seen
            ),
        ));
    }
    report.queries += 1;
    report.final_bound = ans.bound;
    if truth.abs() > 1e-9 {
        report.max_rel_err = report
            .max_rel_err
            .max((ans.value - truth).abs() / truth.abs());
    }

    let stats = r.inner().shard_stats();
    let victim = &stats[plan.victim];
    match plan.mode {
        FaultMode::Restart => {
            if victim.restarts < 1 || victim.health != ShardHealth::Live {
                return Err(fail(
                    &plan,
                    &scn,
                    backend_name,
                    t_end,
                    format!("expected a healed restart, got {victim:?}"),
                ));
            }
            if !ans.degraded.is_empty() || victim.lost_mass != 0 {
                return Err(fail(
                    &plan,
                    &scn,
                    backend_name,
                    t_end,
                    format!(
                        "restart with buffered reorder mass must replay lossless: \
                         degraded {:?}, lost_mass {}",
                        ans.degraded, victim.lost_mass
                    ),
                ));
            }
        }
        FaultMode::Quarantine => {
            if victim.health != ShardHealth::Quarantined {
                return Err(fail(
                    &plan,
                    &scn,
                    backend_name,
                    t_end,
                    format!("expected quarantine, got {victim:?}"),
                ));
            }
            if !ans.degraded.contains(&plan.victim) {
                return Err(fail(
                    &plan,
                    &scn,
                    backend_name,
                    t_end,
                    format!(
                        "quarantined victim missing from degraded {:?}",
                        ans.degraded
                    ),
                ));
            }
            // The victim's uncovered mass (the chunk that panicked, at
            // minimum) is at risk: the answer must say so by widening
            // its lower side — an exact envelope over a degraded
            // answer would be a silent lie.
            if ans.bound.lower <= 0.0 {
                return Err(fail(
                    &plan,
                    &scn,
                    backend_name,
                    t_end,
                    format!(
                        "quarantine must widen the envelope for the at-risk mass, \
                         got {:?}",
                        ans.bound
                    ),
                ));
            }
        }
        FaultMode::CorruptCheckpoint { .. } => unreachable!("rejected above"),
    }
    report.degraded_queries += usize::from(ans.degraded.contains(&plan.victim));
    Ok(report)
}

/// Certifies that every listed single-bit flip of `bytes` is rejected
/// by `restore` with [`RestoreError::Checksum`] — the decode order
/// checks the whole-envelope checksum before anything else, so *any*
/// one-bit corruption must surface as exactly that. `name` labels the
/// repro message.
pub fn certify_corruption_detected<R>(
    name: &str,
    bytes: &[u8],
    bit_offsets: impl IntoIterator<Item = u64>,
    mut restore: R,
) -> Result<(), String>
where
    R: FnMut(&[u8]) -> Result<(), RestoreError>,
{
    assert!(!bytes.is_empty(), "empty checkpoint");
    let nbits = bytes.len() as u64 * 8;
    for off in bit_offsets {
        let bit = off % nbits;
        let mut corrupt = bytes.to_vec();
        corrupt[(bit / 8) as usize] ^= 1 << (bit % 8);
        match restore(&corrupt) {
            Err(RestoreError::Checksum) => {}
            Err(other) => {
                return Err(format!(
                    "fault-injection failure: `{name}` bit {bit} of {nbits}: corruption \
                     was rejected but as {other:?} instead of Checksum (decode order \
                     regression — later checks are reading unverified bytes)"
                ));
            }
            Ok(()) => {
                return Err(format!(
                    "fault-injection failure: `{name}` bit {bit} of {nbits}: corrupted \
                     checkpoint restored WITHOUT an error — silently wrong state"
                ));
            }
        }
    }
    Ok(())
}

/// The seeded bit-offset sample for a corruption sweep: every bit for
/// small checkpoints, `limit` SplitMix64-derived offsets otherwise.
pub fn corruption_offsets(seed: u64, nbytes: usize, limit: usize) -> Vec<u64> {
    let nbits = nbytes as u64 * 8;
    if nbits <= limit as u64 {
        return (0..nbits).collect();
    }
    let mut rng = crate::scenario::Rng::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
    (0..limit).map(|_| rng.below(nbits)).collect()
}

type FaultRun = Box<dyn Fn(FaultPlan, usize, &Scenario) -> Result<FaultReport, String>>;

/// One row of the fault matrix: a plan × backend pairing ready to run
/// against any scenario.
pub struct FaultCase {
    /// Display name for repro messages.
    pub name: &'static str,
    /// The armed plan.
    pub plan: FaultPlan,
    /// Shard count.
    pub shards: usize,
    run: FaultRun,
}

impl FaultCase {
    /// Runs this case against `scenario`.
    pub fn run(&self, scenario: &Scenario) -> Result<FaultReport, String> {
        (self.run)(self.plan, self.shards, scenario)
    }
}

/// The default fault matrix: every [`FaultMode`] exercised against an
/// exact backend (restart/quarantine accounting is exactly checkable)
/// and a Theorem-1 sketch (widening composes with the sketch's own
/// ε-envelope), with a corruption case on the EH family whose
/// checkpoints carry real bucket structure.
pub fn default_fault_matrix() -> Vec<FaultCase> {
    use td_ceh::CascadedEh;
    use td_counters::{ExactDecayedSum, ExpCounter};
    use td_decay::{Constant, Exponential};

    fn case<B, F>(
        name: &'static str,
        plan: FaultPlan,
        shards: usize,
        oracle_decay: fn() -> Box<dyn DecayFunction>,
        make: F,
    ) -> FaultCase
    where
        B: StreamAggregate + Checkpoint + Clone + Send + 'static,
        F: Fn() -> B + 'static,
    {
        FaultCase {
            name,
            plan,
            shards,
            run: Box::new(move |plan, shards, scenario| {
                certify_faulted(plan, scenario, shards, oracle_decay(), name, &make)
            }),
        }
    }

    vec![
        case(
            "restart/exact-constant",
            FaultPlan {
                seed: 0xFA_0001,
                victim: 1,
                panic_after_items: 12,
                mode: FaultMode::Restart,
            },
            4,
            || Box::new(Constant),
            || ExactDecayedSum::new(Constant),
        ),
        case(
            "restart/exp-counter",
            FaultPlan {
                seed: 0xFA_0002,
                victim: 0,
                panic_after_items: 10,
                mode: FaultMode::Restart,
            },
            3,
            || Box::new(Exponential::new(0.01)),
            || ExpCounter::new(Exponential::new(0.01)),
        ),
        case(
            "quarantine/exact-constant",
            FaultPlan {
                seed: 0xFA_0003,
                victim: 2,
                panic_after_items: 9,
                mode: FaultMode::Quarantine,
            },
            4,
            || Box::new(Constant),
            || ExactDecayedSum::new(Constant),
        ),
        case(
            "quarantine/ceh-exp",
            FaultPlan {
                seed: 0xFA_0004,
                victim: 1,
                panic_after_items: 11,
                mode: FaultMode::Quarantine,
            },
            3,
            || Box::new(Exponential::new(0.01)),
            || CascadedEh::new(Exponential::new(0.01), 0.1),
        ),
        case(
            "corrupt-ckpt/exact-constant",
            FaultPlan {
                seed: 0xFA_0005,
                victim: 0,
                panic_after_items: 13,
                mode: FaultMode::CorruptCheckpoint { bit_offset: 123 },
            },
            4,
            || Box::new(Constant),
            || ExactDecayedSum::new(Constant),
        ),
        case(
            "corrupt-ckpt/ceh-exp",
            FaultPlan {
                seed: 0xFA_0006,
                victim: 2,
                panic_after_items: 9,
                mode: FaultMode::CorruptCheckpoint { bit_offset: 7777 },
            },
            3,
            || Box::new(Exponential::new(0.01)),
            || CascadedEh::new(Exponential::new(0.01), 0.1),
        ),
        // The forward-decay family (ISSUE 8): checkpoint-restart a
        // rotating forward accumulator mid-stream and make sure the
        // restored moments certify against the backward oracle
        // (forward ≡ backward under exponential decay).
        case(
            "restart/forward-exp",
            FaultPlan {
                seed: 0xFA_0007,
                victim: 1,
                panic_after_items: 10,
                mode: FaultMode::Restart,
            },
            3,
            || Box::new(Exponential::new(0.01)),
            || td_forward::ForwardDecaySum::new(Exponential::new(0.01)),
        ),
        case(
            "quarantine/forward-exp",
            FaultPlan {
                seed: 0xFA_0008,
                victim: 0,
                panic_after_items: 11,
                mode: FaultMode::Quarantine,
            },
            3,
            || Box::new(Exponential::new(0.01)),
            || td_forward::ForwardDecaySum::new(Exponential::new(0.01)),
        ),
    ]
}
