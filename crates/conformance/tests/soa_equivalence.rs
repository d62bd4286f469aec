//! SoA-equivalence certification: the structure-of-arrays refactor of
//! every histogram backend is **bit-identical** — bucket lists and
//! query answers — to the pre-refactor array-of-structs code.
//!
//! The reference models in this file are transcribed *verbatim* from
//! the pre-refactor sources (`git show` of the commit preceding the
//! SoA migration): `RefDom`/`RefClassic` carry the `VecDeque<Bucket>`
//! maintenance loops exactly as they were, and query through the
//! still-present AoS estimators `estimate_window`/`estimate_strict_past`
//! (whose column twins are separately unit-pinned as bitwise equal).
//! `RefWbmh` carries the pre-refactor fold/seal/merge machinery with
//! the division-form cell test and the always-run merge pass (the
//! production `next_merge_at` skip must be observable-state-neutral,
//! which these lock-step runs certify).
//!
//! Every scenario family in the conformance catalogue drives the real
//! backend and its reference twin through the same ops; at every
//! `Query` op and at stream end the test asserts
//!
//! * identical bucket lists (`buckets()` / `snapshot()` equality), and
//! * identical query answers at the `to_bits` level for the EH
//!   backends, whose query path is contractually bit-stable; the WBMH
//!   query (whose summation regrouped chunk-wise by design) is pinned
//!   bitwise against the same `dot_counts`/`dot_mass` kernels applied
//!   to the reference state, and within 1e-12 relative of the
//!   pre-refactor gather + `weight_batch` + sequential-sum evaluation.

use std::collections::VecDeque;

use proptest::prelude::*;
use td_conformance::{catalogue, Op, Scenario};
use td_counters::ApproxCount;
use td_decay::soa::{dot_counts, dot_mass};
use td_decay::{DecayFunction, Exponential, Polynomial, RegionSchedule, StreamAggregate, Time};
use td_eh::bucket::{estimate_strict_past, estimate_window};
use td_eh::{Bucket, ClassicEh, DominationEh, Estimator, WindowSketch};
use td_wbmh::{Wbmh, WbmhSnapshot};

// ---------------------------------------------------------------------
// RefDom — pre-refactor DominationEh, verbatim.
// ---------------------------------------------------------------------

struct RefDom {
    epsilon: f64,
    window: Option<Time>,
    buckets: VecDeque<Bucket>,
    live_total: u64,
    last_t: Time,
    started: bool,
    inserts_since_merge: usize,
    at_last: u64,
}

impl RefDom {
    fn new(epsilon: f64, window: Option<Time>) -> Self {
        Self {
            epsilon,
            window,
            buckets: VecDeque::new(),
            live_total: 0,
            last_t: 0,
            started: false,
            inserts_since_merge: 0,
            at_last: 0,
        }
    }

    fn expire(&mut self, now: Time) {
        if let Some(w) = self.window {
            let cutoff = now.saturating_sub(w);
            while let Some(front) = self.buckets.front() {
                if front.end < cutoff {
                    self.live_total -= front.count;
                    self.buckets.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    fn canonicalize(&mut self) {
        if self.buckets.len() < 2 {
            return;
        }
        let mut idx = self.buckets.len() - 1;
        let mut suffix: f64 = 0.0;
        while idx > 0 {
            let newer = self.buckets[idx];
            let older = self.buckets[idx - 1];
            let combined = older.count + newer.count;
            let mixes_at_tick = newer.end == self.last_t && older.end < newer.end;
            if !mixes_at_tick && (combined as f64) <= self.epsilon * suffix {
                self.buckets[idx - 1] = older.merge_with(&newer);
                self.buckets.remove(idx);
                idx -= 1;
            } else {
                suffix += newer.count as f64;
                idx -= 1;
            }
        }
    }

    fn add_mass(&mut self, t: Time, f: u64) {
        match self.buckets.back_mut() {
            Some(b) if b.start == t && b.end == t => {
                b.count = b.count.saturating_add(f);
            }
            _ => {
                self.buckets.push_back(Bucket::unit(t, f));
                self.inserts_since_merge += 1;
                if self.inserts_since_merge >= (self.buckets.len() / 4).max(8) {
                    self.canonicalize();
                    self.inserts_since_merge = 0;
                }
            }
        }
        self.live_total = self.live_total.saturating_add(f);
        self.at_last = self.at_last.saturating_add(f);
    }

    fn observe(&mut self, t: Time, f: u64) {
        self.advance(t);
        if f == 0 {
            return;
        }
        self.add_mass(t, f);
    }

    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let mut i = 0;
        while i < items.len() {
            let t = items[i].0;
            self.advance(t);
            let mut opened = false;
            let mut rest = 0u64;
            while i < items.len() && items[i].0 == t {
                let f = items[i].1;
                if f > 0 {
                    if opened {
                        rest = rest.saturating_add(f);
                    } else {
                        self.add_mass(t, f);
                        opened = true;
                    }
                }
                i += 1;
            }
            if rest > 0 {
                if let Some(b) = self.buckets.back_mut() {
                    b.count = b.count.saturating_add(rest);
                }
                self.live_total = self.live_total.saturating_add(rest);
                self.at_last = self.at_last.saturating_add(rest);
            }
        }
    }

    fn advance(&mut self, t: Time) {
        if self.started {
            assert!(t >= self.last_t);
        }
        if !self.started || t > self.last_t {
            self.at_last = 0;
        }
        self.started = true;
        self.last_t = t;
        self.expire(t);
    }

    /// Pre-refactor `StreamAggregate::query`, through the AoS
    /// estimators that still exist untouched in `td_eh::bucket`.
    fn query(&self, t: Time) -> f64 {
        let all: Vec<Bucket> = self.buckets.iter().copied().collect();
        if t == self.last_t && self.at_last > 0 {
            estimate_strict_past(&all, t, self.at_last, Estimator::Halved)
        } else {
            estimate_window(&all, t, t, Estimator::Halved)
        }
    }

    fn buckets(&self) -> Vec<Bucket> {
        self.buckets.iter().copied().collect()
    }
}

// ---------------------------------------------------------------------
// RefClassic — pre-refactor ClassicEh, verbatim.
// ---------------------------------------------------------------------

struct RefClassic {
    window: Option<Time>,
    cap_per_class: usize,
    buckets: VecDeque<Bucket>,
    live_total: u64,
    last_t: Time,
    started: bool,
    at_last: u64,
}

impl RefClassic {
    fn new(epsilon: f64, window: Option<Time>) -> Self {
        let cap_per_class = (1.0 / (2.0 * epsilon)).ceil() as usize + 2;
        Self {
            window,
            cap_per_class,
            buckets: VecDeque::new(),
            live_total: 0,
            last_t: 0,
            started: false,
            at_last: 0,
        }
    }

    fn expire(&mut self, now: Time) {
        if let Some(w) = self.window {
            let cutoff = now.saturating_sub(w);
            while let Some(front) = self.buckets.front() {
                if front.end < cutoff {
                    self.live_total -= front.count;
                    self.buckets.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    fn canonicalize(&mut self) {
        loop {
            let mut class_size = 0u64;
            let mut run = 0usize;
            let mut overfull_at: Option<usize> = None;
            for idx in (0..self.buckets.len()).rev() {
                let c = self.buckets[idx].count;
                if c != class_size {
                    class_size = c;
                    run = 0;
                }
                run += 1;
                if run > self.cap_per_class {
                    overfull_at = Some(idx);
                    break;
                }
            }
            match overfull_at {
                Some(idx) => {
                    let older = self.buckets[idx];
                    let newer = self.buckets[idx + 1];
                    self.buckets[idx + 1] = older.merge_with(&newer);
                    self.buckets.remove(idx);
                }
                None => break,
            }
        }
    }

    fn observe(&mut self, t: Time, f: u64) {
        assert!(f <= 1);
        self.advance(t);
        if f == 0 {
            return;
        }
        self.buckets.push_back(Bucket::unit(t, 1));
        self.live_total += 1;
        self.at_last += 1;
        self.canonicalize();
    }

    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let mut i = 0;
        while i < items.len() {
            let t = items[i].0;
            self.advance(t);
            while i < items.len() && items[i].0 == t {
                let f = items[i].1;
                assert!(f <= 1);
                if f == 1 {
                    self.buckets.push_back(Bucket::unit(t, 1));
                    self.live_total += 1;
                    self.at_last += 1;
                    self.canonicalize();
                }
                i += 1;
            }
        }
    }

    fn advance(&mut self, t: Time) {
        if self.started {
            assert!(t >= self.last_t);
        }
        if !self.started || t > self.last_t {
            self.at_last = 0;
        }
        self.started = true;
        self.last_t = t;
        self.expire(t);
    }

    fn query(&self, t: Time) -> f64 {
        let all: Vec<Bucket> = self.buckets.iter().copied().collect();
        if t == self.last_t && self.at_last > 0 {
            estimate_strict_past(&all, t, self.at_last, Estimator::Halved)
        } else {
            estimate_window(&all, t, t, Estimator::Halved)
        }
    }

    fn buckets(&self) -> Vec<Bucket> {
        self.buckets.iter().copied().collect()
    }
}

// ---------------------------------------------------------------------
// RefWbmh — pre-refactor Wbmh maintenance, verbatim (division-form
// cell test, accumulator merge pass, no `next_merge_at` skip: the
// throttled pass always runs, which the skip must be equivalent to).
// ---------------------------------------------------------------------

#[derive(Clone)]
enum RefCount {
    Exact(u64),
    Approx(ApproxCount),
}

impl RefCount {
    fn value(&self) -> f64 {
        match self {
            RefCount::Exact(c) => *c as f64,
            RefCount::Approx(a) => a.value(),
        }
    }

    fn depth(&self) -> u32 {
        match self {
            RefCount::Exact(_) => 0,
            RefCount::Approx(a) => a.depth(),
        }
    }

    fn absorb(&mut self, f: u64) {
        match self {
            RefCount::Exact(c) => *c = c.saturating_add(f),
            RefCount::Approx(a) => a.absorb(f),
        }
    }

    fn merge(&self, other: &Self) -> Self {
        match (self, other) {
            (RefCount::Exact(a), RefCount::Exact(b)) => RefCount::Exact(a.saturating_add(*b)),
            (RefCount::Approx(a), RefCount::Approx(b)) => {
                RefCount::Approx(ApproxCount::merge(a, b))
            }
            _ => unreachable!("count modes never mix"),
        }
    }
}

#[derive(Clone)]
struct RefBucket {
    start: Time,
    end: Time,
    first_item: Time,
    last_item: Time,
    count: RefCount,
}

struct RefWbmh<G> {
    decay: G,
    schedule: RegionSchedule,
    seal_period: Time,
    merge_beyond_schedule: bool,
    count_epsilon: Option<f64>,
    buckets: VecDeque<RefBucket>,
    open: Option<RefBucket>,
    pending: Option<(Time, u64)>,
    seals_since_pass: usize,
    last_t: Time,
    started: bool,
}

impl<G: DecayFunction> RefWbmh<G> {
    fn new(decay: G, epsilon: f64, max_age: Time, count_epsilon: Option<f64>) -> Self {
        let schedule = RegionSchedule::compute(&decay, epsilon, max_age);
        let seal_period = schedule.seal_period();
        let last = schedule.boundary(schedule.num_regions() - 1);
        let merge_beyond_schedule = decay.weight(last) == 0.0;
        Self {
            decay,
            schedule,
            seal_period,
            merge_beyond_schedule,
            count_epsilon,
            buckets: VecDeque::new(),
            open: None,
            pending: None,
            seals_since_pass: 0,
            last_t: 0,
            started: false,
        }
    }

    fn fresh_count(&self, f: u64) -> RefCount {
        match self.count_epsilon {
            None => RefCount::Exact(f),
            Some(eps) => {
                let mut a = ApproxCount::zero(eps);
                a.absorb(f);
                RefCount::Approx(a)
            }
        }
    }

    fn fold_pending(&mut self) {
        let Some((t, f)) = self.pending.take() else {
            return;
        };
        let cell = t / self.seal_period;
        match &mut self.open {
            Some(open) if open.start / self.seal_period == cell => {
                open.last_item = t;
                open.count.absorb(f);
            }
            _ => {
                if let Some(done) = self.open.take() {
                    self.buckets.push_back(done);
                    self.seals_since_pass += 1;
                }
                self.open = Some(RefBucket {
                    start: cell * self.seal_period,
                    end: cell * self.seal_period + self.seal_period - 1,
                    first_item: t,
                    last_item: t,
                    count: self.fresh_count(f),
                });
            }
        }
    }

    fn may_merge(&self, a: &RefBucket, c: &RefBucket, now: Time) -> bool {
        let union_end = a.end.max(c.end);
        let union_start = a.start.min(c.start);
        if union_end >= now {
            return false;
        }
        let newest_age = now - union_end;
        let oldest_age = now - union_start;
        let region = self.schedule.region_of(newest_age);
        match self.schedule.region_span(region) {
            (_, Some(end)) => oldest_age <= end,
            (_, None) => self.merge_beyond_schedule,
        }
    }

    fn merge_pass(&mut self, now: Time) -> bool {
        let mut merged_any = false;
        let buckets = std::mem::take(&mut self.buckets);
        let mut out: VecDeque<RefBucket> = VecDeque::with_capacity(buckets.len());
        let mut iter = buckets.into_iter();
        let Some(mut acc) = iter.next() else {
            return false;
        };
        for c in iter {
            if self.may_merge(&acc, &c, now) {
                acc = RefBucket {
                    start: acc.start.min(c.start),
                    end: acc.end.max(c.end),
                    first_item: acc.first_item.min(c.first_item),
                    last_item: acc.last_item.max(c.last_item),
                    count: acc.count.merge(&c.count),
                };
                merged_any = true;
            } else {
                out.push_back(acc);
                acc = c;
            }
        }
        out.push_back(acc);
        self.buckets = out;
        merged_any
    }

    fn seal_by_clock(&mut self, now: Time) {
        if let Some(open) = &self.open {
            if now > open.end {
                let done = self.open.take().expect("checked above");
                self.buckets.push_back(done);
                self.seals_since_pass += 1;
            }
        }
    }

    fn advance_inner(&mut self, t: Time, force_pass: bool) {
        if self.started {
            assert!(t >= self.last_t);
        }
        self.started = true;
        if let Some((pt, _)) = self.pending {
            if pt < t {
                self.fold_pending();
            }
        }
        self.seal_by_clock(t);
        if force_pass || self.seals_since_pass >= (self.buckets.len() / 8).max(4) {
            self.merge_pass(t);
            self.seals_since_pass = 0;
        }
        self.last_t = t;
    }

    fn advance(&mut self, t: Time) {
        self.advance_inner(t, true);
    }

    fn observe(&mut self, t: Time, f: u64) {
        self.advance_inner(t, false);
        if f == 0 {
            return;
        }
        match &mut self.pending {
            Some((pt, pf)) if *pt == t => *pf = pf.saturating_add(f),
            _ => self.pending = Some((t, f)),
        }
    }

    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let mut i = 0;
        while i < items.len() {
            let t = items[i].0;
            self.advance_inner(t, false);
            let mut mass = 0u64;
            while i < items.len() && items[i].0 == t {
                mass = mass.saturating_add(items[i].1);
                i += 1;
            }
            if mass == 0 {
                continue;
            }
            match &mut self.pending {
                Some((pt, pf)) if *pt == t => *pf = pf.saturating_add(mass),
                _ => self.pending = Some((t, mass)),
            }
        }
    }

    /// The refactored query evaluation (same `dot_counts`/`dot_mass`
    /// kernels, open-bucket and pending scalar terms) applied to the
    /// *reference* state: matching the real backend bitwise proves the
    /// zero-gather column path computes exactly what the kernels
    /// compute on independently maintained pre-refactor state.
    fn query(&self, t: Time) -> f64 {
        let mut ends: Vec<Time> = Vec::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut mass: Vec<f64> = Vec::new();
        for b in &self.buckets {
            if b.last_item >= t {
                continue;
            }
            ends.push(b.last_item);
            match &b.count {
                RefCount::Exact(c) => exact.push(*c),
                RefCount::Approx(a) => mass.push(a.value()),
            }
        }
        let mut total = if self.count_epsilon.is_none() {
            dot_counts(&self.decay, t, &ends, &exact)
        } else {
            dot_mass(&self.decay, t, &ends, &mass)
        };
        if let Some(open) = &self.open {
            if open.last_item < t {
                total += open.count.value() * self.decay.weight(t - open.last_item);
            }
        }
        if let Some((pt, pf)) = self.pending {
            if pt < t {
                total += pf as f64 * self.decay.weight(t - pt);
            }
        }
        total
    }

    /// The pre-refactor query evaluation, verbatim: gather ages and
    /// counts into columns, one `weight_batch` over the whole gather
    /// (open bucket included), sequential sum.
    fn query_pre_refactor(&self, t: Time) -> f64 {
        let mut end_ages: Vec<Time> = Vec::new();
        let mut counts: Vec<f64> = Vec::new();
        {
            let mut gather = |b: &RefBucket| {
                let eff_end = b.end.min(b.last_item);
                if eff_end >= t {
                    return;
                }
                end_ages.push(t - eff_end);
                counts.push(b.count.value());
            };
            for b in &self.buckets {
                gather(b);
            }
            if let Some(open) = &self.open {
                gather(open);
            }
        }
        let mut w_end = vec![0.0; end_ages.len()];
        self.decay.weight_batch(&end_ages, &mut w_end);
        let mut total: f64 = counts.iter().zip(&w_end).map(|(c, w)| c * w).sum();
        if let Some((pt, pf)) = self.pending {
            if pt < t {
                total += pf as f64 * self.decay.weight(t - pt);
            }
        }
        total
    }

    /// Snapshot in the production encoding, for whole-state equality.
    fn snapshot(&self) -> WbmhSnapshot {
        let encode = |b: &RefBucket| {
            (
                b.start,
                b.end,
                b.first_item,
                b.last_item,
                b.count.value(),
                b.count.depth(),
            )
        };
        let mut buckets: Vec<_> = self.buckets.iter().map(encode).collect();
        let has_open = self.open.is_some();
        if let Some(open) = &self.open {
            buckets.push(encode(open));
        }
        WbmhSnapshot {
            last_t: self.last_t,
            buckets,
            has_open,
            pending: self.pending,
            seals_since_pass: self.seals_since_pass,
        }
    }
}

// ---------------------------------------------------------------------
// Lock-step drivers.
// ---------------------------------------------------------------------

fn check_dom(scn: &Scenario, window: Option<Time>) {
    let mut real = DominationEh::new(0.1, window);
    let mut rf = RefDom::new(0.1, window);
    let ctx = |t: Time| format!("dom window={window:?} scenario={} t={t}", scn.name);
    for op in &scn.ops {
        match op {
            Op::Observe(t, f) => {
                StreamAggregate::observe(&mut real, *t, *f);
                rf.observe(*t, *f);
            }
            Op::ObserveBatch(items) => {
                StreamAggregate::observe_batch(&mut real, items);
                rf.observe_batch(items);
            }
            Op::Advance(t) => {
                StreamAggregate::advance(&mut real, *t);
                rf.advance(*t);
            }
            Op::Query(t) => {
                let a = StreamAggregate::query(&real, *t);
                let b = rf.query(*t);
                assert_eq!(a.to_bits(), b.to_bits(), "query diverged: {}", ctx(*t));
                assert_eq!(
                    WindowSketch::buckets(&real),
                    rf.buckets(),
                    "buckets diverged: {}",
                    ctx(*t)
                );
                assert_eq!(real.live_total(), rf.live_total, "{}", ctx(*t));
            }
        }
    }
    assert_eq!(
        WindowSketch::buckets(&real),
        rf.buckets(),
        "end state: {}",
        scn.name
    );
}

fn check_classic(scn: &Scenario, window: Option<Time>) {
    let mut real = ClassicEh::new(0.1, window);
    let mut rf = RefClassic::new(0.1, window);
    let ctx = |t: Time| format!("classic window={window:?} scenario={} t={t}", scn.name);
    for op in &scn.ops {
        // ClassicEh is a 0/1 structure: cap the scenario's bulk values.
        match op {
            Op::Observe(t, f) => {
                StreamAggregate::observe(&mut real, *t, (*f).min(1));
                rf.observe(*t, (*f).min(1));
            }
            Op::ObserveBatch(items) => {
                let capped: Vec<(Time, u64)> = items.iter().map(|&(t, f)| (t, f.min(1))).collect();
                StreamAggregate::observe_batch(&mut real, &capped);
                rf.observe_batch(&capped);
            }
            Op::Advance(t) => {
                StreamAggregate::advance(&mut real, *t);
                rf.advance(*t);
            }
            Op::Query(t) => {
                let a = StreamAggregate::query(&real, *t);
                let b = rf.query(*t);
                assert_eq!(a.to_bits(), b.to_bits(), "query diverged: {}", ctx(*t));
                assert_eq!(
                    WindowSketch::buckets(&real),
                    rf.buckets(),
                    "buckets diverged: {}",
                    ctx(*t)
                );
                assert_eq!(real.live_total(), rf.live_total, "{}", ctx(*t));
            }
        }
    }
    assert_eq!(
        WindowSketch::buckets(&real),
        rf.buckets(),
        "end state: {}",
        scn.name
    );
}

fn check_wbmh<G: DecayFunction + Clone>(
    scn: &Scenario,
    decay: G,
    epsilon: f64,
    max_age: Time,
    count_epsilon: Option<f64>,
) {
    let mut real = match count_epsilon {
        None => Wbmh::new(decay.clone(), epsilon, max_age),
        Some(ce) => Wbmh::with_approx_counts(decay.clone(), epsilon, max_age, ce),
    };
    let mut rf = RefWbmh::new(decay.clone(), epsilon, max_age, count_epsilon);
    let ctx = |t: Time| {
        format!(
            "wbmh {} eps={epsilon} approx={count_epsilon:?} scenario={} t={t}",
            decay.describe(),
            scn.name
        )
    };
    for op in &scn.ops {
        match op {
            Op::Observe(t, f) => {
                real.observe(*t, *f);
                rf.observe(*t, *f);
            }
            Op::ObserveBatch(items) => {
                real.observe_batch(items);
                rf.observe_batch(items);
            }
            Op::Advance(t) => {
                real.advance(*t);
                rf.advance(*t);
            }
            Op::Query(t) => {
                let a = real.query(*t);
                let b = rf.query(*t);
                assert_eq!(a.to_bits(), b.to_bits(), "query diverged: {}", ctx(*t));
                assert_eq!(
                    real.snapshot(),
                    rf.snapshot(),
                    "state diverged: {}",
                    ctx(*t)
                );
                // The chunk-regrouped kernel sum stays within summation
                // slop of the pre-refactor whole-gather evaluation.
                let pre = rf.query_pre_refactor(*t);
                assert!(
                    (a - pre).abs() <= 1e-12 * pre.abs().max(1.0),
                    "drifted from pre-refactor evaluation: {} ({a} vs {pre})",
                    ctx(*t)
                );
            }
        }
    }
    assert_eq!(real.snapshot(), rf.snapshot(), "end state: {}", scn.name);
}

// ---------------------------------------------------------------------
// The property: lock-step equality over every scenario family.
// ---------------------------------------------------------------------

const WBMH_MAX_AGE: Time = 1 << 41;

proptest! {
    #[test]
    fn soa_backends_match_pre_refactor_aos(
        seed in 0u64..1_000_000,
        pick in 0usize..4,
    ) {
        for scn in catalogue(seed, 150) {
            match pick {
                0 => {
                    check_dom(&scn, None);
                    check_dom(&scn, Some(257));
                }
                1 => {
                    check_classic(&scn, None);
                    check_classic(&scn, Some(257));
                }
                // The WBMH schedule is precomputed to WBMH_MAX_AGE;
                // skip the one family whose clock outruns it (same cap
                // the certifier applies).
                2 if scn.max_time() <= WBMH_MAX_AGE / 2 => {
                    check_wbmh(&scn, Polynomial::new(1.0), 0.1, WBMH_MAX_AGE, None);
                    check_wbmh(&scn, Polynomial::new(2.0), 0.3, WBMH_MAX_AGE, None);
                }
                3 if scn.max_time() <= WBMH_MAX_AGE / 2 => {
                    check_wbmh(&scn, Exponential::new(0.01), 0.2, WBMH_MAX_AGE, None);
                    check_wbmh(&scn, Polynomial::new(1.0), 0.1, WBMH_MAX_AGE, Some(0.05));
                }
                _ => {}
            }
        }
    }
}
