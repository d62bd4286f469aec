//! The literal Datar et al. Exponential Histogram for 0/1 streams.

use td_decay::storage::{bits_for_count, bits_for_timestamp, StorageAccounting};
use td_decay::{BucketColumns, ColumnsView, StreamAggregate, Time};

use crate::bucket::{estimate_strict_past_cols, estimate_window_cols, Bucket, Estimator};
use crate::WindowSketch;

/// The classic Exponential Histogram of Datar, Gionis, Indyk & Motwani
/// for 0/1 streams (paper §4.1).
///
/// Every arriving `1` opens a fresh size-1 bucket; when a size class
/// `2^p` exceeds its cap of `⌈1/(2ε)⌉ + 2` buckets, the two **oldest**
/// buckets of that class merge into one bucket of size `2^(p+1)`,
/// cascading upward. The resulting invariants (verified by this module's
/// tests and the crate's property tests):
///
/// * bucket sizes are powers of two, non-decreasing toward the past;
/// * each size class holds at most `cap` buckets;
/// * consequently there are `O(ε⁻¹ log N)` buckets and every window
///   estimate has relative error at most ε with the default
///   [`Estimator::Halved`] rule (the one-sided [`Estimator::Paper`] rule
///   of Eq. (2) doubles the bound but never underestimates).
///
/// Construct with `window = None` to keep the whole history live (the
/// mode used for infinite-horizon decay functions by `td-ceh`) or
/// `Some(W)` to expire buckets that leave a sliding window of `W` ticks.
///
/// # Examples
///
/// ```
/// use td_decay::StreamAggregate;
/// use td_eh::{ClassicEh, WindowSketch};
/// let mut eh = ClassicEh::new(0.1, Some(100));
/// for t in 1..=1000 {
///     eh.observe(t, 1);
/// }
/// let est = eh.query_window(1001, 100);
/// assert!((est - 100.0).abs() <= 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct ClassicEh {
    epsilon: f64,
    window: Option<Time>,
    /// Max buckets per size class before the two oldest merge.
    cap_per_class: usize,
    /// Buckets, oldest first, in structure-of-arrays columns (see
    /// `td_decay::soa`). Counts are powers of two.
    buckets: BucketColumns,
    live_total: u64,
    last_t: Time,
    started: bool,
    /// Mass observed exactly at `last_t`, so the unified-aggregate
    /// `query(T)` can exclude items at `T` itself (§2.1).
    at_last: u64,
}

impl ClassicEh {
    /// A histogram targeting relative error `epsilon`, optionally
    /// expiring items older than `window` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1]` or `window == Some(0)`.
    pub fn new(epsilon: f64, window: Option<Time>) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0,1], got {epsilon}"
        );
        assert!(window != Some(0), "window must be positive");
        let cap_per_class = (1.0 / (2.0 * epsilon)).ceil() as usize + 2;
        Self {
            epsilon,
            window,
            cap_per_class,
            buckets: BucketColumns::new(),
            live_total: 0,
            last_t: 0,
            started: false,
            at_last: 0,
        }
    }

    /// The configured window, if any.
    pub fn window(&self) -> Option<Time> {
        self.window
    }

    /// The per-size-class bucket cap (`⌈1/(2ε)⌉ + 2`).
    pub fn cap_per_class(&self) -> usize {
        self.cap_per_class
    }

    /// Number of live buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The live bucket list, oldest first (inspection and equivalence
    /// testing).
    pub fn buckets(&self) -> Vec<Bucket> {
        self.buckets
            .iter()
            .map(|(start, end, count)| Bucket { start, end, count })
            .collect()
    }

    /// The time of the most recent observation.
    pub fn last_time(&self) -> Time {
        self.last_t
    }

    /// Drops buckets that are entirely outside the window at time `now`.
    fn expire(&mut self, now: Time) {
        if let Some(w) = self.window {
            let cutoff = now.saturating_sub(w);
            while let Some((_, end, count)) = self.buckets.front() {
                if end < cutoff {
                    self.live_total -= count;
                    self.buckets.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// Cascading canonicalization: while any size class exceeds the cap,
    /// merge the two oldest buckets of that class into the next class.
    fn canonicalize(&mut self) {
        loop {
            // Walk newest → oldest counting the current class run; the
            // first class found over cap is the lowest such class, and
            // the last two run members encountered are its two oldest.
            let mut class_size = 0u64;
            let mut run = 0usize;
            let mut overfull_at: Option<usize> = None;
            let counts = self.buckets.counts();
            for idx in (0..counts.len()).rev() {
                let c = counts[idx];
                if c != class_size {
                    debug_assert!(
                        c > class_size,
                        "sizes must be non-decreasing toward the past"
                    );
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
                    // idx is the oldest member of the overfull class
                    // (the run has exactly cap+1 members right after an
                    // insert); merge it with its newer neighbour.
                    let (o_start, o_end, o_count) = self.buckets.get(idx);
                    let (n_start, n_end, n_count) = self.buckets.get(idx + 1);
                    debug_assert_eq!(o_count, n_count);
                    self.buckets.set(
                        idx + 1,
                        o_start.min(n_start),
                        o_end.max(n_end),
                        o_count.saturating_add(n_count),
                    );
                    self.buckets.remove(idx);
                }
                None => break,
            }
        }
    }

    /// Estimates a window count with an explicit straddler rule,
    /// streaming the columns directly — no copy on any path.
    pub fn query_window_with(&self, t: Time, w: Time, estimator: Estimator) -> f64 {
        estimate_window_cols(
            self.buckets.starts(),
            self.buckets.ends(),
            self.buckets.counts(),
            t,
            w,
            estimator,
        )
    }
}

impl WindowSketch for ClassicEh {
    fn query_window(&self, t: Time, w: Time) -> f64 {
        self.query_window_with(t, w, Estimator::Halved)
    }

    fn live_total(&self) -> u64 {
        self.live_total
    }

    fn buckets(&self) -> Vec<Bucket> {
        ClassicEh::buckets(self)
    }

    fn columns(&self) -> ColumnsView<'_> {
        ColumnsView::from(&self.buckets)
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl StreamAggregate for ClassicEh {
    /// Ingests `f ∈ {0, 1}` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `f > 1` (use [`crate::DominationEh`] for bulk values)
    /// or if `t` precedes a previous observation.
    fn observe(&mut self, t: Time, f: u64) {
        assert!(f <= 1, "ClassicEh is for 0/1 streams; got value {f}");
        self.advance(t);
        if f == 0 {
            return;
        }
        self.buckets.push_back(t, t, 1);
        self.live_total += 1;
        self.at_last += 1;
        self.canonicalize();
    }

    /// Ingests a sorted burst of 0/1 items. The classic cascade must
    /// run once per unit insert (each `1` opens a size-1 bucket and the
    /// class caps are checked immediately), so only the clock advance,
    /// expiry, and monotonicity assert are amortized per distinct tick;
    /// the end state is bit-identical to the sequential loop.
    ///
    /// # Panics
    ///
    /// Panics if any value exceeds 1 or any time precedes its
    /// predecessor.
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let mut i = 0;
        while i < items.len() {
            let t = items[i].0;
            self.advance(t);
            while i < items.len() && items[i].0 == t {
                let f = items[i].1;
                assert!(f <= 1, "ClassicEh is for 0/1 streams; got value {f}");
                if f == 1 {
                    self.buckets.push_back(t, t, 1);
                    self.live_total += 1;
                    self.at_last += 1;
                    self.canonicalize();
                }
                i += 1;
            }
        }
    }

    fn batched_ingest_amortizes(&self) -> bool {
        true // clock advance + expiry amortized per distinct tick
    }

    fn advance(&mut self, t: Time) {
        if self.started {
            assert!(
                t >= self.last_t,
                "time went backwards: {t} < {}",
                self.last_t
            );
        }
        if !self.started || t > self.last_t {
            self.at_last = 0;
        }
        self.started = true;
        self.last_t = t;
        self.expire(t);
    }

    /// The live-total estimate: a window query spanning the whole
    /// elapsed stream (ages `1..=t`). Mass observed exactly at `t` is
    /// excluded (§2.1) *before* estimation — pure at-tick buckets are
    /// dropped whole and at-tick mass burst-merged into a past-spanning
    /// bucket is subtracted exactly — so the ε envelope applies to the
    /// strictly-past quantity being reported, not to past-plus-burst
    /// mass with a subtraction on top.
    fn query(&self, t: Time) -> f64 {
        if t == self.last_t && self.at_last > 0 {
            estimate_strict_past_cols(
                self.buckets.starts(),
                self.buckets.ends(),
                self.buckets.counts(),
                t,
                self.at_last,
                Estimator::Halved,
            )
        } else {
            self.query_window(t, t)
        }
    }

    /// # Panics
    ///
    /// Always: the classic power-of-two structure has no merge
    /// algorithm (merging breaks the size-class invariant).
    fn merge_from(&mut self, _other: &Self) {
        panic!("ClassicEh does not support merge_from; use DominationEh");
    }

    fn error_bound(&self) -> td_decay::ErrorBound {
        td_decay::ErrorBound::symmetric(self.epsilon)
    }
}

impl StorageAccounting for ClassicEh {
    fn storage_bits(&self) -> u64 {
        // Per bucket: one timestamp over the elapsed span plus a size-
        // class index (sizes are powers of two, so only the exponent is
        // stored).
        let span = self.last_t;
        self.buckets
            .counts()
            .iter()
            .map(|&c| {
                let class = 63 - c.leading_zeros() as u64;
                bits_for_timestamp(span) + bits_for_count(class)
            })
            .sum()
    }
}

/// Checkpoint tag for [`ClassicEh`].
const TAG_CLASSIC: u8 = 5;

impl td_decay::checkpoint::Checkpoint for ClassicEh {
    fn save_checkpoint(&self) -> Vec<u8> {
        use td_decay::checkpoint::CheckpointWriter;
        let mut w = CheckpointWriter::new(TAG_CLASSIC);
        w.put_f64(self.epsilon); // configuration pins
        match self.window {
            None => w.put_u8(0),
            Some(win) => {
                w.put_u8(1);
                w.put_u64(win);
            }
        }
        w.put_u64(self.live_total);
        w.put_u64(self.last_t);
        w.put_bool(self.started);
        w.put_u64(self.at_last);
        // Columns serialized in the original AoS field order (start,
        // end, count per bucket): byte-stable across the SoA refactor.
        w.put_u64(self.buckets.len() as u64);
        for (start, end, count) in self.buckets.iter() {
            w.put_u64(start);
            w.put_u64(end);
            w.put_u64(count);
        }
        w.seal()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), td_decay::RestoreError> {
        use td_decay::checkpoint::{CheckpointReader, RestoreError};
        let mut r = CheckpointReader::open(bytes, TAG_CLASSIC)?;
        let eps = r.get_f64()?;
        let window = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u64()?),
            b => return Err(RestoreError::Invariant(format!("bad window tag {b}"))),
        };
        if eps.to_bits() != self.epsilon.to_bits() || window != self.window {
            return Err(RestoreError::Invariant(format!(
                "config mismatch: checkpoint (ε={eps}, window={window:?}), \
                 receiver (ε={}, window={:?})",
                self.epsilon, self.window
            )));
        }
        let live_total = r.get_u64()?;
        let last_t = r.get_u64()?;
        let started = r.get_bool()?;
        let at_last = r.get_u64()?;
        let n = r.get_count(true, 24)?; // start, end, count: 3 × u64
        let mut buckets = BucketColumns::with_capacity(n);
        let mut sum = 0u64;
        let mut run = 0usize;
        for i in 0..n {
            let start = r.get_u64()?;
            let end = r.get_u64()?;
            let count = r.get_u64()?;
            if start > end || end > last_t {
                return Err(RestoreError::Invariant(format!(
                    "bucket {i} spans [{start}, {end}] beyond clock {last_t}"
                )));
            }
            if !count.is_power_of_two() {
                return Err(RestoreError::Invariant(format!(
                    "bucket {i} count {count} is not a power of two"
                )));
            }
            if let Some((_, prev_end, prev_count)) = buckets.back() {
                if prev_end > start {
                    return Err(RestoreError::Invariant(format!(
                        "buckets {} and {i} overlap or run backwards",
                        i - 1
                    )));
                }
                if prev_count < count {
                    return Err(RestoreError::Invariant(
                        "bucket sizes decrease toward the past".into(),
                    ));
                }
                run = if prev_count == count { run + 1 } else { 1 };
            } else {
                run = 1;
            }
            if run > self.cap_per_class {
                return Err(RestoreError::Invariant(format!(
                    "size class {count} holds more than {} buckets",
                    self.cap_per_class
                )));
            }
            sum = sum.saturating_add(count);
            buckets.push_back(start, end, count);
        }
        r.finish()?;
        if sum != live_total {
            return Err(RestoreError::Invariant(format!(
                "bucket mass {sum} disagrees with live_total {live_total}"
            )));
        }
        self.buckets = buckets;
        self.live_total = live_total;
        self.last_t = last_t;
        self.started = started;
        self.at_last = at_last;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes are powers of two, non-decreasing toward the past, and no
    /// class exceeds the cap.
    fn assert_invariants(eh: &ClassicEh) {
        let counts: Vec<u64> = eh.buckets.counts().to_vec();
        for &c in &counts {
            assert!(c.is_power_of_two(), "count {c} not a power of 2");
        }
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "sizes decrease toward the past: {counts:?}");
        }
        let mut runs: Vec<(u64, usize)> = Vec::new();
        for &c in &counts {
            match runs.last_mut() {
                Some((size, n)) if *size == c => *n += 1,
                _ => runs.push((c, 1)),
            }
        }
        for &(size, n) in &runs {
            assert!(
                n <= eh.cap_per_class(),
                "class {size} holds {n} > cap {}",
                eh.cap_per_class()
            );
        }
        // Bucket intervals are disjoint and ordered.
        for pair in eh.buckets().windows(2) {
            assert!(pair[0].end <= pair[1].start);
            assert!(pair[0].start <= pair[0].end);
        }
    }

    #[test]
    fn dense_stream_invariants_and_accuracy() {
        let eps = 0.1;
        let mut eh = ClassicEh::new(eps, None);
        for t in 1..=20_000u64 {
            eh.observe(t, 1);
            if t % 997 == 0 {
                assert_invariants(&eh);
            }
        }
        assert_invariants(&eh);
        for w in [1u64, 10, 100, 1_000, 10_000, 19_999] {
            let est = eh.query_window(20_001, w);
            let truth = w as f64;
            assert!(
                (est - truth).abs() <= eps * truth + 1.0,
                "w={w}: est={est}, truth={truth}"
            );
        }
    }

    #[test]
    fn bucket_count_is_logarithmic() {
        let mut eh = ClassicEh::new(0.1, None);
        for t in 1..=(1u64 << 14) {
            eh.observe(t, 1);
        }
        let n14 = eh.num_buckets();
        for t in (1u64 << 14) + 1..=(1u64 << 18) {
            eh.observe(t, 1);
        }
        let n18 = eh.num_buckets();
        assert!(n18 <= n14 + 5 * eh.cap_per_class(), "n14={n14}, n18={n18}");
    }

    #[test]
    fn sparse_stream_accuracy() {
        let eps = 0.05;
        let mut eh = ClassicEh::new(eps, None);
        let mut ones: Vec<Time> = Vec::new();
        let mut x = 12345u64;
        for t in 1..=30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = (x % 10 < 3) as u64;
            eh.observe(t, f);
            if f == 1 {
                ones.push(t);
            }
        }
        for w in [100u64, 1_000, 29_999] {
            let truth = ones.iter().filter(|&&t| t >= 30_001 - w).count() as f64;
            let est = eh.query_window(30_001, w);
            assert!(
                (est - truth).abs() <= eps * truth + 1.0,
                "w={w}: est={est}, truth={truth}"
            );
        }
    }

    #[test]
    fn window_mode_expires_and_stays_accurate() {
        let eps = 0.1;
        let w = 500u64;
        let mut eh = ClassicEh::new(eps, Some(w));
        for t in 1..=10_000u64 {
            eh.observe(t, 1);
        }
        assert!(eh.live_total() <= 2 * w, "live={}", eh.live_total());
        let est = eh.query_window(10_001, w);
        assert!((est - w as f64).abs() <= eps * w as f64 + 1.0, "est={est}");
    }

    #[test]
    fn paper_estimator_never_underestimates() {
        let mut eh = ClassicEh::new(0.1, None);
        for t in 1..=5_000u64 {
            eh.observe(t, 1);
        }
        for w in [10u64, 100, 1_000, 4_999] {
            let est = eh.query_window_with(5_001, w, Estimator::Paper);
            assert!(est >= w as f64 - 1e-9, "w={w}: est={est}");
            assert!(
                est <= (1.0 + 2.0 * 0.1) * w as f64 + 1.0,
                "w={w}: est={est}"
            );
        }
    }

    #[test]
    fn zeros_do_not_create_buckets() {
        let mut eh = ClassicEh::new(0.1, None);
        for t in 1..=100 {
            eh.observe(t, 0);
        }
        assert_eq!(eh.num_buckets(), 0);
        assert_eq!(eh.query_window(101, 100), 0.0);
    }

    #[test]
    fn bursty_same_tick_arrivals() {
        // Many 1s at the same tick (the DCP model allows one item per
        // tick, but the structure must tolerate bursts for use by the
        // aggregates layer).
        let mut eh = ClassicEh::new(0.2, None);
        for _ in 0..100 {
            eh.observe(10, 1);
        }
        for _ in 0..50 {
            eh.observe(20, 1);
        }
        assert_eq!(eh.live_total(), 150);
        let est = eh.query_window(21, 5);
        assert!((est - 50.0).abs() <= 0.2 * 50.0 + 1.0, "est={est}");
    }

    #[test]
    fn at_tick_burst_does_not_leak_estimation_error() {
        // A handful of past items, then a burst at the query tick large
        // enough that ε·burst would dwarf the past count. The at-tick
        // mass — including any of it merged into past-spanning buckets
        // by the class cascade — must be removed exactly, keeping the
        // answer within ε of the strictly-past truth.
        let eps = 0.1;
        let mut eh = ClassicEh::new(eps, None);
        for t in 1..=40u64 {
            eh.observe(t, 1);
        }
        for _ in 0..4_000 {
            eh.observe(41, 1);
        }
        let got = td_decay::StreamAggregate::query(&eh, 41);
        assert!((got - 40.0).abs() <= eps * 40.0 + 1.0, "got={got}");
        // One tick later the burst is strictly past and fully visible.
        let after = td_decay::StreamAggregate::query(&eh, 42);
        assert!(
            (after - 4_040.0).abs() <= eps * 4_040.0 + 1.0,
            "after={after}"
        );
    }

    #[test]
    #[should_panic(expected = "0/1 streams")]
    fn rejects_bulk_values() {
        let mut eh = ClassicEh::new(0.1, None);
        eh.observe(1, 5);
    }

    #[test]
    fn storage_bits_scale_like_log_squared() {
        let mut eh = ClassicEh::new(0.1, None);
        for t in 1..=(1u64 << 10) {
            eh.observe(t, 1);
        }
        let b10 = eh.storage_bits();
        for t in (1u64 << 10) + 1..=(1u64 << 20) {
            eh.observe(t, 1);
        }
        let b20 = eh.storage_bits();
        let ratio = b20 as f64 / b10 as f64;
        assert!(ratio > 1.5 && ratio < 8.0, "ratio={ratio}");
    }
}
