//! Bounded-lateness reordering in front of any [`StreamAggregate`].
//!
//! Every backend in this workspace asserts non-decreasing observation
//! times — the paper's model (§2) and the precondition of every bucket
//! invariant downstream. Real traces are not sorted: arrivals from many
//! clients interleave with bounded skew. This crate closes the gap with
//! the standard streaming-systems construction (cf. MillWheel/Dataflow
//! watermarks, and the adversarial-arrival model of Braverman et al.):
//!
//! * a **watermark** `W = max_seen − allowed_lateness` advances as new
//!   maxima arrive;
//! * items from every source are buffered in **one tick wheel**: a ring
//!   of `R = min(next_pow2(L + 1), 4096)` per-tick slots covering ticks
//!   `[W, W + R)`, where an on-time push appends to its tick's slot in
//!   O(1). Items beyond the wheel (ticks more than `R − 1` ahead of
//!   `W`) go to a `(timestamp, arrival)` min-heap, `far`; for the small
//!   bounds in use that holds only the first item of a stream and
//!   sparse history, and it keeps the ring at most 4096 slots whatever
//!   the bound;
//! * every buffered item with `t ≤ W` is released to the wrapped
//!   backend's [`observe_batch`](StreamAggregate::observe_batch) in
//!   `(t, arrival)` order — so the downstream summary sees exactly the
//!   stable sort of the arrival stream and keeps its non-decreasing
//!   invariant *bit for bit* (same coalescing, same f64 summation
//!   order as a sorted sequential replay).
//!
//! Items arriving with `t < W` are **late beyond the bound** and are
//! never silently applied at their (no longer admissible) timestamp.
//! The [`LatenessPolicy`] decides:
//!
//! * [`Reject`](LatenessPolicy::Reject) — the item is dropped and a
//!   typed [`LatenessError`] is returned; the answer then tracks the
//!   stream *minus exactly the rejected mass* (certified by
//!   `td-conformance`'s lateness matrix).
//! * [`Fold`](LatenessPolicy::Fold) — the item is applied at the
//!   current watermark tick `W`, and the stage widens the self-reported
//!   [`ErrorBound`] by the folded mass times the worst-case weight gap
//!   `g(T−W) − g(T−t)` (see [`Reorderer::query_with_bound`] for the
//!   derivation). The answer stays inside the *widened* envelope
//!   against an oracle fed the true-timestamp stream.
//!
//! The stage is deliberately synchronous and unsharded: `td-shard`
//! composes it in front of its coordinator (one reorder buffer per
//! ingest source, watermark published next to the applied-epoch
//! counters) so queries can report "complete up to `W`".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use td_decay::{DecayClass, DecayFunction, ErrorBound, StreamAggregate, Time};

/// What to do with an item whose timestamp is below the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatenessPolicy {
    /// Drop the item and surface a typed [`LatenessError`]. The served
    /// aggregate is then the aggregate of the stream minus exactly the
    /// rejected mass — nothing is applied at a wrong time.
    Reject,
    /// Apply the item at the current watermark tick `W` (the earliest
    /// still-admissible time) and widen the reported [`ErrorBound`] by
    /// the worst-case weight displacement. Mass is never lost, accuracy
    /// degrades honestly.
    Fold,
}

/// A typed rejection: the item's timestamp fell below the watermark
/// under [`LatenessPolicy::Reject`].
///
/// Carries everything needed to account for the loss: the item itself,
/// the watermark that outran it, and the configured bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatenessError {
    /// The item's (true) timestamp.
    pub time: Time,
    /// The item's value — the mass lost by the rejection.
    pub value: u64,
    /// The source index the item arrived on.
    pub source: usize,
    /// The watermark at rejection time; the item was `watermark − time`
    /// ticks too late.
    pub watermark: Time,
    /// The configured lateness bound.
    pub allowed_lateness: u64,
}

impl fmt::Display for LatenessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "late beyond bound: item (t = {}, f = {}) on source {} arrived {} \
             ticks behind watermark {} (allowed lateness {})",
            self.time,
            self.value,
            self.source,
            self.watermark.saturating_sub(self.time),
            self.watermark,
            self.allowed_lateness,
        )
    }
}

impl std::error::Error for LatenessError {}

/// Sortedness scan for the `push_batch` fast path. Branchless within
/// fixed-size blocks (a short-circuiting `windows(2).all` defeats the
/// autovectorizer and tripled the zero-lateness stage overhead in e12),
/// early-out between blocks so a shuffled batch still bails quickly.
#[inline]
fn is_non_decreasing(items: &[(Time, u64)]) -> bool {
    const BLOCK: usize = 128;
    let n = items.len();
    let mut i = 1;
    while i < n {
        let end = (i + BLOCK).min(n);
        let mut ok = true;
        for (a, b) in items[i - 1..end - 1].iter().zip(&items[i..end]) {
            ok &= a.0 <= b.0;
        }
        if !ok {
            return false;
        }
        i = end;
    }
    true
}

/// A `far` item: ordered by `(t, seq)` so equal-timestamp items release
/// in arrival order — the stable sort of the input, which keeps f64
/// summation order identical to a sorted sequential replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    t: Time,
    seq: u64,
    f: u64,
}

/// The most tick slots a [`Buffer`] allocates, whatever the bound: a
/// lateness of `u64::MAX` costs the same ring as one of 4095.
const MAX_SLOTS: u64 = 4096;

/// The stage's buffered on-time items, released in `(t, arrival)`
/// order.
///
/// A ring of `R` slots (a power of two) covers ticks `[base, base + R)`;
/// tick `t` lives in slot `t & (R − 1)` and its values are appended in
/// arrival order. `base` is the watermark, moved only by
/// [`release`](Buffer::release). Pushes beyond the ring go to `far`,
/// and are never migrated into slots: a `far` item of tick `t` arrived
/// while `t` was beyond the ring, so every slot item of the same tick
/// arrived after it, and emitting a slot's `far` items first is exactly
/// arrival order.
struct Buffer {
    slots: Vec<Vec<u64>>,
    /// One bit per slot, set while the slot is non-empty: the release
    /// walk skips 64 empty slots per word, so sparse ticks inside the
    /// ring cost at most `R / 64` word reads per release, not `R`.
    occupied: Vec<u64>,
    base: Time,
    /// Items in `slots` (the release walk stops when it reaches 0).
    in_slots: u64,
    far: BinaryHeap<Reverse<Pending>>,
    /// Arrival counter of `far` pushes.
    far_seq: u64,
}

impl Buffer {
    fn new(allowed_lateness: u64) -> Self {
        let ring = (allowed_lateness.min(MAX_SLOTS - 1) + 1).next_power_of_two() as usize;
        Buffer {
            slots: vec![Vec::new(); ring],
            occupied: vec![0; ring.div_ceil(64)],
            base: 0,
            in_slots: 0,
            far: BinaryHeap::new(),
            far_seq: 0,
        }
    }

    fn mask(&self) -> u64 {
        self.slots.len() as u64 - 1
    }

    /// Buffers `(t, f)`; requires `t ≥ base` (an on-time item).
    fn push(&mut self, t: Time, f: u64) {
        let mask = self.mask();
        if t - self.base <= mask {
            let i = (t & mask) as usize;
            self.slots[i].push(f);
            self.occupied[i / 64] |= 1 << (i % 64);
            self.in_slots += 1;
        } else {
            let seq = self.far_seq;
            self.far_seq += 1;
            self.far.push(Reverse(Pending { t, seq, f }));
        }
    }

    /// Appends every buffered item with `t ≤ w` to `out` in `(t,
    /// arrival)` order and moves the ring to `base = w`; requires
    /// `w ≥ base`.
    fn release(&mut self, w: Time, out: &mut Vec<(Time, u64)>) {
        let mask = self.mask();
        let word_slots = self.slots.len().min(64);
        let last = w.min(self.base.saturating_add(mask));
        let mut tick = self.base;
        while self.in_slots > 0 && tick <= last {
            let i = (tick & mask) as usize;
            let ahead = self.occupied[i / 64] >> (i % 64);
            if ahead == 0 {
                // Next word (the ring's last word wraps to slot 0).
                match tick.checked_add((word_slots - i % 64) as u64) {
                    Some(next) => tick = next,
                    None => break,
                }
                continue;
            }
            // Every slot behind `tick` is empty, so the set bit is a
            // tick ahead of it inside the ring: no overflow.
            tick += u64::from(ahead.trailing_zeros());
            if tick > last {
                break;
            }
            let i = (tick & mask) as usize;
            self.release_far(tick, out);
            self.in_slots -= self.slots[i].len() as u64;
            out.extend(self.slots[i].drain(..).map(|f| (tick, f)));
            self.occupied[i / 64] &= !(1 << (i % 64));
            match tick.checked_add(1) {
                Some(next) => tick = next,
                None => break,
            }
        }
        self.release_far(w, out);
        self.base = w;
    }

    fn release_far(&mut self, upto: Time, out: &mut Vec<(Time, u64)>) {
        while let Some(&Reverse(p)) = self.far.peek() {
            if p.t > upto {
                break;
            }
            self.far.pop();
            out.push((p.t, p.f));
        }
    }
}

/// Observable counters of a [`Reorderer`] — cheap copies, safe to poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReorderStats {
    /// The current watermark `W`: served answers are complete up to it.
    pub watermark: Time,
    /// The largest timestamp seen on any source.
    pub max_seen: Time,
    /// Items currently buffered (arrived, not yet released).
    pub buffered_items: u64,
    /// Total mass currently buffered.
    pub buffered_mass: u64,
    /// Items released downstream so far.
    pub released_items: u64,
    /// Mass applied at the watermark tick under
    /// [`LatenessPolicy::Fold`].
    pub folded_mass: u64,
    /// Mass dropped under [`LatenessPolicy::Reject`].
    pub rejected_mass: u64,
}

/// One fold event: `mass` units applied at watermark `tick` instead of
/// their true (earlier) timestamps. Kept for query-time envelope
/// widening; consecutive same-tick folds coalesce, so the list grows
/// only when the watermark moves between rejections — bounded by the
/// number of *distinct* fold ticks, not by folded items.
#[derive(Debug, Clone, Copy)]
struct FoldEvent {
    tick: Time,
    mass: u64,
    /// Σ f · (worst-case over-weighting per unit mass) for this tick's
    /// folds — the absolute over-estimate cap contributed.
    over_risk: f64,
}

/// A watermark hook: invoked with `(&mut inner, W)` after every
/// watermark advance. See [`Reorderer::on_watermark`].
pub type WatermarkHook<A> = Box<dyn FnMut(&mut A, Time) + Send>;

/// The bounded-lateness reordering stage. See the crate docs for the
/// model; see [`Reorderer::push`] for the per-item semantics.
pub struct Reorderer<A: StreamAggregate> {
    inner: A,
    decay: Box<dyn DecayFunction>,
    allowed_lateness: u64,
    policy: LatenessPolicy,
    /// Every source's buffered items; its ring sits at the watermark.
    buffer: Buffer,
    sources: usize,
    max_seen: Time,
    watermark: Time,
    buffered_items: u64,
    buffered_mass: u64,
    released_items: u64,
    rejected_mass: u64,
    folded_mass: u64,
    folds: Vec<FoldEvent>,
    /// Scratch for release batches (capacity reused).
    batch: Vec<(Time, u64)>,
    /// The envelope of the most recent answer (folded widening is
    /// query-time dependent; `error_bound` reports the last one).
    last_bound: Cell<Option<ErrorBound>>,
    /// Invoked with the wrapped backend after every watermark advance —
    /// the hook `td-shard` uses to publish `W` next to its epoch
    /// counters.
    on_watermark: Option<WatermarkHook<A>>,
}

impl<A: StreamAggregate + fmt::Debug> fmt::Debug for Reorderer<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reorderer")
            .field("inner", &self.inner)
            .field("allowed_lateness", &self.allowed_lateness)
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<A: StreamAggregate> Reorderer<A> {
    /// A single-source stage in front of `inner`.
    ///
    /// `decay` must be the same decay function `inner` aggregates under
    /// — it prices the envelope widening of folded mass. The watermark
    /// starts at 0: nothing is late before anything has been seen.
    pub fn new(
        inner: A,
        decay: Box<dyn DecayFunction>,
        allowed_lateness: u64,
        policy: LatenessPolicy,
    ) -> Self {
        Self::with_sources(inner, decay, allowed_lateness, policy, 1)
    }

    /// A stage accepting `sources` independent arrival sequences into
    /// one shared buffer. The watermark is global: `max_seen` over
    /// *all* sources minus the bound, so one fast source ages out the
    /// others' skew budget exactly as in the shared-clock model of §6.
    pub fn with_sources(
        inner: A,
        decay: Box<dyn DecayFunction>,
        allowed_lateness: u64,
        policy: LatenessPolicy,
        sources: usize,
    ) -> Self {
        assert!(sources >= 1, "need at least one source");
        Reorderer {
            inner,
            decay,
            allowed_lateness,
            policy,
            buffer: Buffer::new(allowed_lateness),
            sources,
            max_seen: 0,
            watermark: 0,
            buffered_items: 0,
            buffered_mass: 0,
            released_items: 0,
            rejected_mass: 0,
            folded_mass: 0,
            folds: Vec::new(),
            batch: Vec::new(),
            last_bound: Cell::new(None),
            on_watermark: None,
        }
    }

    /// Installs a hook invoked with `(&mut inner, W)` after every
    /// watermark advance (including [`flush`](Reorderer::flush)).
    /// `td-shard` uses this to publish `W` alongside its applied-epoch
    /// counters so queries can report "complete up to `W`".
    pub fn on_watermark(mut self, hook: WatermarkHook<A>) -> Self {
        self.on_watermark = Some(hook);
        self
    }

    /// The current watermark: answers are complete up to `W`; items
    /// with `t ≤ W` have all been released downstream.
    pub fn watermark(&self) -> Time {
        self.watermark
    }

    /// The configured lateness bound.
    pub fn allowed_lateness(&self) -> u64 {
        self.allowed_lateness
    }

    /// The configured policy for beyond-bound items.
    pub fn policy(&self) -> LatenessPolicy {
        self.policy
    }

    /// Current counters (buffered/released/folded/rejected mass).
    pub fn stats(&self) -> ReorderStats {
        ReorderStats {
            watermark: self.watermark,
            max_seen: self.max_seen,
            buffered_items: self.buffered_items,
            buffered_mass: self.buffered_mass,
            released_items: self.released_items,
            folded_mass: self.folded_mass,
            rejected_mass: self.rejected_mass,
        }
    }

    /// The wrapped backend (answers are complete up to
    /// [`watermark`](Reorderer::watermark) only).
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Feeds one item from `source`. The full per-item semantics:
    ///
    /// * `t ≥ W` — **on time** (an item exactly at the watermark is on
    ///   time: `W` itself is still admissible, since releases are
    ///   non-decreasing up to `W`). The item is buffered; if it raises
    ///   `max_seen`, the watermark advances to
    ///   `max_seen − allowed_lateness` and everything `≤ W` is released
    ///   downstream in `(t, arrival)` order.
    /// * `t < W` — **late beyond the bound**; dispatched to the
    ///   [`LatenessPolicy`]. `Reject` drops the item and returns the
    ///   typed error; `Fold` applies it at tick `W`, records the
    ///   envelope widening, and returns `Ok`.
    pub fn push(&mut self, source: usize, t: Time, f: u64) -> Result<(), LatenessError> {
        self.check_source(source);
        self.push_checked(source, t, f)
    }

    fn check_source(&self, source: usize) {
        assert!(
            source < self.sources,
            "source {source} out of range ({} sources)",
            self.sources
        );
    }

    /// [`push`](Reorderer::push) after the source check.
    fn push_checked(&mut self, source: usize, t: Time, f: u64) -> Result<(), LatenessError> {
        if t < self.watermark {
            return self.handle_late(source, t, f);
        }
        self.buffer.push(t, f);
        self.buffered_items += 1;
        self.buffered_mass += f;
        if t > self.max_seen {
            self.max_seen = t;
            let w = self.max_seen.saturating_sub(self.allowed_lateness);
            if w > self.watermark {
                self.watermark = w;
                self.release();
                self.fire_watermark();
                return Ok(());
            }
        }
        // No watermark motion, but the item itself may sit exactly at
        // `W` (releasable immediately).
        if t <= self.watermark {
            self.release();
        }
        Ok(())
    }

    /// Feeds a `(time, value)` batch from `source` — items need *not*
    /// be sorted (that is the point of the stage), but an in-order feed
    /// at `allowed_lateness == 0` with empty buffers takes a fast path
    /// whose shape is picked by the backend's own
    /// [`batched_ingest_amortizes`](StreamAggregate::batched_ingest_amortizes)
    /// hint:
    ///
    /// * per-item backends get a fused loop — one monotonicity compare
    ///   folded into each (inlined) `observe` call, no second pass over
    ///   the batch, which is what keeps the zero-lateness stage inside
    ///   the e12 gate (≤ 1.10× raw batched ingest);
    /// * batch-kernel backends keep their `observe_batch` amortization:
    ///   the sortedness scan runs in small sub-blocks immediately ahead
    ///   of the block it admits, so the block is still in L1 when the
    ///   kernel reads it back.
    ///
    /// Either way the items handled fast are bit-equivalent to per-item
    /// [`push`](Reorderer::push) calls; everything from the first
    /// out-of-order position on falls back to exactly that.
    ///
    /// Under [`LatenessPolicy::Reject`] the first beyond-bound item
    /// aborts the batch (earlier items are applied) and its error is
    /// returned.
    pub fn push_batch(
        &mut self,
        source: usize,
        items: &[(Time, u64)],
    ) -> Result<(), LatenessError> {
        let Some(&(first_t, _)) = items.first() else {
            return Ok(());
        };
        let mut rest = items;
        if self.allowed_lateness == 0 && self.buffered_items == 0 && first_t >= self.max_seen {
            let mut prev_t = first_t;
            let mut taken = 0usize;
            if self.inner.batched_ingest_amortizes() {
                const BLOCK: usize = 64;
                while taken < items.len() {
                    let block = &items[taken..(taken + BLOCK).min(items.len())];
                    if !(prev_t <= block[0].0 && is_non_decreasing(block)) {
                        break;
                    }
                    prev_t = block[block.len() - 1].0;
                    self.inner.observe_batch(block);
                    taken += block.len();
                }
            } else {
                for &(t, f) in items {
                    if t < prev_t {
                        break;
                    }
                    self.inner.observe(t, f);
                    prev_t = t;
                    taken += 1;
                }
            }
            if taken > 0 {
                self.released_items += taken as u64;
                self.max_seen = prev_t;
                if prev_t > self.watermark {
                    self.watermark = prev_t;
                    // Buffers are empty: this only moves the ring to W.
                    self.release();
                    self.fire_watermark();
                }
                rest = &items[taken..];
            }
        }
        if !rest.is_empty() {
            self.check_source(source);
        }
        for &(t, f) in rest {
            self.push_checked(source, t, f)?;
        }
        Ok(())
    }

    /// A watermark heartbeat: declares that `source`s will produce no
    /// item with `t < t_punct − allowed_lateness` anymore — exactly as
    /// if an (empty) item at `t_punct` had arrived. Advances `max_seen`
    /// and the watermark, releases eligible items, and advances the
    /// wrapped backend's clock to `W` so time-expired state is
    /// reclaimed during silence. A punctuation below `max_seen` is a
    /// no-op (watermarks never regress).
    pub fn advance(&mut self, t_punct: Time) {
        if t_punct > self.max_seen {
            self.max_seen = t_punct;
        }
        let w = self.max_seen.saturating_sub(self.allowed_lateness);
        if w > self.watermark {
            self.watermark = w;
            self.release();
            self.inner.advance(self.watermark);
            self.fire_watermark();
        }
    }

    /// Forces the watermark to `max_seen` and drains every buffer:
    /// afterwards answers are complete up to everything that has
    /// arrived. Items arriving later with `t < max_seen` are then late
    /// (the watermark never regresses). Use before shutdown or before a
    /// query that must reflect all accepted items.
    pub fn flush(&mut self) {
        if self.max_seen > self.watermark {
            self.watermark = self.max_seen;
        }
        self.release();
        self.fire_watermark();
    }

    /// Flushes and returns the wrapped backend.
    pub fn into_inner(mut self) -> A {
        self.flush();
        self.inner
    }

    /// The wrapped backend's answer at `t` — complete up to the
    /// watermark only (buffered items are not visible; call
    /// [`flush`](Reorderer::flush) first for a complete answer). The
    /// envelope of this answer (widened for folded mass) is cached for
    /// [`error_bound`](Reorderer::error_bound).
    pub fn query(&self, t: Time) -> f64 {
        self.query_with_bound(t).0
    }

    /// The answer at `t` together with its certified envelope.
    ///
    /// # Envelope widening for folded mass
    ///
    /// A late item `(t_i, f_i)` folded at watermark `w_i > t_i` is
    /// weighted `g(T − w_i)` instead of `g(T − t_i)` at query time `T`.
    ///
    /// * **Over-estimate** (`T > w_i`): `g` is non-increasing, so the
    ///   folded weight exceeds the true one by at most
    ///   `Δ_i = f_i · sup_{a ≥ 1} [g(a) − g(a + d_i)]`, `d_i = w_i −
    ///   t_i`. For ratio-monotone decay (exponential, polynomial; §5)
    ///   the sup is attained at `a = 1`, giving the tight
    ///   `f_i · (g(1) − g(1 + d_i))`; for constant decay it is 0
    ///   (folding is exact); otherwise the sound cap is `f_i · g(1)`.
    ///   With `est ≤ v_app·(1+u)` and `v_app ≤ v_true + Δ`, the widened
    ///   upper side is `u' = u + Δ·(1+u) / (est/(1+u) − Δ)` (unbounded
    ///   when the denominator is not positive).
    /// * **Under-estimate** (`T ≤ w_i`): the fold is not yet visible
    ///   (items at the query tick are excluded, §2.1) while the true
    ///   item may be — the answer can miss up to `D = mass(w_i ≥ T) ·
    ///   g(1)`. The lower side widens exactly like the shard engine's
    ///   mass-at-risk rule: `l' = 1 − est / (est/(1−l) + D)`.
    ///
    /// With no folded mass the wrapped backend's own envelope is
    /// returned untouched.
    pub fn query_with_bound(&self, t: Time) -> (f64, ErrorBound) {
        let est = self.inner.query(t);
        let base = self.inner.error_bound();
        let bound = self.widen(est, t, base);
        self.last_bound.set(Some(bound));
        (est, bound)
    }

    /// The envelope of the most recent answer. With folded mass the
    /// widening depends on the query tick, so issue a query first; with
    /// no folds this is the wrapped backend's own envelope.
    pub fn error_bound(&self) -> ErrorBound {
        if self.folds.is_empty() {
            return self.inner.error_bound();
        }
        self.last_bound.get().unwrap_or_else(ErrorBound::unbounded)
    }

    fn handle_late(&mut self, source: usize, t: Time, f: u64) -> Result<(), LatenessError> {
        match self.policy {
            LatenessPolicy::Reject => {
                self.rejected_mass += f;
                Err(LatenessError {
                    time: t,
                    value: f,
                    source,
                    watermark: self.watermark,
                    allowed_lateness: self.allowed_lateness,
                })
            }
            LatenessPolicy::Fold => {
                let w = self.watermark;
                // The buffer never holds items ≤ W (released eagerly),
                // so observing at W keeps the backend non-decreasing.
                self.inner.observe(w, f);
                self.folded_mass += f;
                let over = f as f64 * self.unit_over_risk(w - t);
                match self.folds.last_mut() {
                    Some(ev) if ev.tick == w => {
                        ev.mass += f;
                        ev.over_risk += over;
                    }
                    _ => self.folds.push(FoldEvent {
                        tick: w,
                        mass: f,
                        over_risk: over,
                    }),
                }
                Ok(())
            }
        }
    }

    /// Worst-case per-unit over-weighting of mass displaced forward by
    /// `d ≥ 1` ticks: `sup_{a ≥ 1} [g(a) − g(a + d)]`.
    fn unit_over_risk(&self, d: u64) -> f64 {
        let g1 = self.decay.weight(1);
        match self.decay.classify() {
            DecayClass::Constant => 0.0,
            // Ratio-monotone g (exponential is a member): g(a)−g(a+d) =
            // g(a)·(1 − g(a+d)/g(a)) is a product of two non-negative
            // non-increasing factors of a, so the sup sits at a = 1.
            DecayClass::Exponential { .. } | DecayClass::RatioMonotone => {
                (g1 - self.decay.weight(1 + d)).max(0.0)
            }
            // Poly-exponential is not non-increasing (§3.4): no sound
            // finite cap exists from g(1) alone.
            DecayClass::PolyExponential { .. } => f64::INFINITY,
            // Any contract-conforming (non-increasing) g: the gap never
            // exceeds g(a) ≤ g(1). Sliding windows attain it.
            DecayClass::SlidingWindow { .. } | DecayClass::General => g1,
        }
    }

    fn widen(&self, est: f64, t: Time, base: ErrorBound) -> ErrorBound {
        if self.folds.is_empty() {
            return base;
        }
        let over: f64 = self.folds.iter().map(|ev| ev.over_risk).sum();
        // Folds at ticks ≥ t are invisible to the answer while their
        // true-time items may be visible: under-estimate risk.
        let under_mass: u64 = self
            .folds
            .iter()
            .rev()
            .take_while(|ev| ev.tick >= t)
            .map(|ev| ev.mass)
            .sum();
        let g1 = self.decay.weight(1);
        let sound_g1 = !matches!(self.decay.classify(), DecayClass::PolyExponential { .. });

        let upper = if over == 0.0 {
            base.upper
        } else if base.upper.is_finite() && over.is_finite() {
            let floor = est / (1.0 + base.upper) - over;
            if floor > 0.0 {
                base.upper + over * (1.0 + base.upper) / floor
            } else {
                f64::INFINITY
            }
        } else {
            f64::INFINITY
        };

        let lower = if under_mass == 0 {
            base.lower
        } else if base.lower < 1.0 && sound_g1 {
            let d_max = under_mass as f64 * g1;
            let ceiling = est / (1.0 - base.lower) + d_max;
            if ceiling > 0.0 {
                1.0 - est / ceiling
            } else {
                base.lower
            }
        } else {
            1.0
        };

        ErrorBound { lower, upper }
    }

    /// Takes the buffer's `≤ W` prefix in `(t, arrival)` order and
    /// feeds it downstream as one batch — the *stable* sort of the
    /// arrival stream, so same-tick coalescing and f64 summation order
    /// match a sorted sequential replay exactly. Called on every
    /// watermark move, so the buffer's ring always starts at `W`.
    fn release(&mut self) {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        self.buffer.release(self.watermark, &mut batch);
        if !batch.is_empty() {
            self.buffered_items -= batch.len() as u64;
            self.buffered_mass -= batch.iter().map(|&(_, f)| f).sum::<u64>();
            self.released_items += batch.len() as u64;
            self.inner.observe_batch(&batch);
        }
        self.batch = batch;
    }

    fn fire_watermark(&mut self) {
        if let Some(hook) = self.on_watermark.as_mut() {
            hook(&mut self.inner, self.watermark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_counters::ExactDecayedSum;
    use td_decay::Exponential;

    fn stage(
        lateness: u64,
        policy: LatenessPolicy,
    ) -> Reorderer<ExactDecayedSum<Box<dyn DecayFunction>>> {
        Reorderer::new(
            ExactDecayedSum::new(Box::new(Exponential::new(0.01)) as Box<dyn DecayFunction>),
            Box::new(Exponential::new(0.01)),
            lateness,
            policy,
        )
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut r = stage(4, LatenessPolicy::Reject);
        for t in 1..=20u64 {
            r.push(0, t, 1).unwrap();
        }
        // Watermark trails max_seen by the bound; items ≤ 16 released.
        assert_eq!(r.watermark(), 16);
        assert_eq!(r.stats().buffered_items, 4);
        r.flush();
        assert_eq!(r.stats().buffered_items, 0);
        let mut direct =
            ExactDecayedSum::new(Box::new(Exponential::new(0.01)) as Box<dyn DecayFunction>);
        for t in 1..=20u64 {
            direct.observe(t, 1);
        }
        assert_eq!(r.query(25).to_bits(), direct.query(25).to_bits());
    }

    #[test]
    fn shuffle_within_bound_is_exact() {
        let mut r = stage(8, LatenessPolicy::Reject);
        // 1..=16 arriving with a skew of up to 5 < 8.
        let arrivals = [3u64, 1, 2, 5, 4, 7, 6, 8, 10, 9, 12, 11, 14, 13, 16, 15];
        for &t in &arrivals {
            r.push(0, t, t).unwrap();
        }
        r.flush();
        let mut direct =
            ExactDecayedSum::new(Box::new(Exponential::new(0.01)) as Box<dyn DecayFunction>);
        for t in 1..=16u64 {
            direct.observe(t, t);
        }
        assert_eq!(r.query(20).to_bits(), direct.query(20).to_bits());
        assert_eq!(r.stats().rejected_mass, 0);
    }

    #[test]
    fn reject_surfaces_typed_error_and_loses_exactly_that_mass() {
        let mut r = stage(2, LatenessPolicy::Reject);
        r.push(0, 10, 5).unwrap();
        assert_eq!(r.watermark(), 8);
        let err = r.push(0, 3, 7).unwrap_err();
        assert_eq!(err.time, 3);
        assert_eq!(err.value, 7);
        assert_eq!(err.watermark, 8);
        assert_eq!(r.stats().rejected_mass, 7);
        r.flush();
        let mut direct =
            ExactDecayedSum::new(Box::new(Exponential::new(0.01)) as Box<dyn DecayFunction>);
        direct.observe(10, 5);
        assert_eq!(r.query(12).to_bits(), direct.query(12).to_bits());
    }

    #[test]
    fn fold_applies_at_watermark_and_widens_upper() {
        let mut r = stage(2, LatenessPolicy::Fold);
        r.push(0, 10, 5).unwrap();
        r.push(0, 3, 7).unwrap(); // late: folded at W = 8
        r.flush();
        let (est, bound) = r.query_with_bound(12);
        // The folded item sits at 8, the true one at 3 — overestimate.
        let g = Exponential::new(0.01);
        let truth = 5.0 * g.weight(2) + 7.0 * g.weight(9);
        assert!(est > truth);
        assert!(bound.upper > 0.0, "fold must widen the upper side");
        assert!(bound.admits(est, truth, 1e-9), "{bound:?} vs {truth}");
        assert_eq!(r.stats().folded_mass, 7);
    }

    #[test]
    fn fold_at_query_tick_widens_lower() {
        let mut r = stage(0, LatenessPolicy::Fold);
        r.push(0, 10, 5).unwrap();
        r.push(0, 9, 3).unwrap(); // folded at W = 10
                                  // Query exactly at the fold tick: the fold is invisible (§2.1)
                                  // but the true item (t = 9) is visible — underestimate risk.
        let (est, bound) = r.query_with_bound(10);
        let g = Exponential::new(0.01);
        let truth = 3.0 * g.weight(1);
        assert!(est < truth);
        assert!(bound.lower > 0.0, "at-tick fold must widen the lower side");
        assert!(bound.admits(est, truth, 1e-9), "{bound:?} vs {truth}");
    }

    #[test]
    fn unbounded_lateness_keeps_a_small_ring_and_exact_order() {
        let decay = || Box::new(td_decay::Polynomial::new(1.0)) as Box<dyn DecayFunction>;
        let mut r = Reorderer::new(
            ExactDecayedSum::new(decay()),
            decay(),
            u64::MAX,
            LatenessPolicy::Reject,
        );
        assert_eq!(r.buffer.slots.len() as u64, MAX_SLOTS);
        // Ticks 2^40 apart, out of order, two items on some ticks.
        let ks = [5u64, 0, 3, 9, 3, 1, 7, 0, 2, 8, 6, 4, 9];
        for (i, &k) in ks.iter().enumerate() {
            r.push(0, k << 40, i as u64 + 1).unwrap();
        }
        assert_eq!(r.watermark(), 0);
        r.flush();
        assert_eq!(r.stats().buffered_items, 0);
        let mut sorted: Vec<(Time, u64)> = ks
            .iter()
            .enumerate()
            .map(|(i, &k)| (k << 40, i as u64 + 1))
            .collect();
        sorted.sort_by_key(|&(t, _)| t);
        let mut direct = ExactDecayedSum::new(decay());
        for &(t, f) in &sorted {
            direct.observe(t, f);
        }
        let q = (9 << 40) + 1;
        assert_eq!(r.query(q).to_bits(), direct.query(q).to_bits());
    }

    #[test]
    fn watermark_hook_fires_monotonically() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let mut r = stage(3, LatenessPolicy::Reject).on_watermark(Box::new(move |_, w| {
            let prev = seen2.swap(w, Ordering::Relaxed);
            assert!(w >= prev, "watermark regressed: {w} < {prev}");
        }));
        for t in [5u64, 2, 9, 9, 14, 11] {
            let _ = r.push(0, t, 1);
        }
        r.flush();
        assert_eq!(seen.load(Ordering::Relaxed), 14);
    }
}
