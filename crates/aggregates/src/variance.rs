//! Time-decaying variance (paper §7.3).

use td_ceh::CascadedEh;
use td_decay::storage::StorageAccounting;
use td_decay::{DecayFunction, StreamAggregate, Time};
use td_wbmh::Wbmh;

/// The time-decaying variance
/// `V_g(T) = Σ g(T−t_i)·(f_i − A_g(T))²` (paper §7.3), via the
/// three-sums reduction
///
/// ```text
/// V_g = Σg·f² − (Σg·f)² / Σg
/// ```
///
/// maintained as three decayed sums over any [`StreamAggregate`] backend.
///
/// **Error characteristics** (documented rather than hidden, as the
/// paper itself defers the sharp algorithm to Cohen–Kaplan \[4\]): with
/// each sum accurate to `(1±ε)`, the absolute error of `V` is
/// `O(ε·Σg·f²)`; when the variance is small relative to the decayed
/// second moment (`V ≪ A²·Σg`, the near-constant-stream regime) the
/// *relative* error degrades by the factor `Σg·f²/V` — experiment E11
/// measures exactly this. For well-spread values the estimate is a
/// solid `(1 ± O(ε))`.
///
/// # Examples
///
/// ```
/// use td_aggregates::DecayedVariance;
/// use td_decay::{SlidingWindow, StreamAggregate};
/// let mut v = DecayedVariance::ceh(SlidingWindow::new(100), 0.05);
/// for t in 1..=100u64 {
///     v.observe(t, if t % 2 == 0 { 0 } else { 10 });
/// }
/// // V_g is the weighted *sum* of squared deviations (paper §7.3):
/// // 100 items, each (f − 5)² = 25 → V = 2500.
/// let var = v.query(101).unwrap();
/// assert!((var - 2500.0).abs() < 500.0);
/// ```
#[derive(Debug, Clone)]
pub struct DecayedVariance<B> {
    weights: B,
    sums: B,
    squares: B,
}

impl<G: DecayFunction + Clone> DecayedVariance<CascadedEh<G>> {
    /// A decayed variance over cascaded-EH backends (any decay).
    pub fn ceh(decay: G, epsilon: f64) -> Self {
        Self {
            weights: CascadedEh::new(decay.clone(), epsilon),
            sums: CascadedEh::new(decay.clone(), epsilon),
            squares: CascadedEh::new(decay, epsilon),
        }
    }
}

impl<G: DecayFunction + Clone> DecayedVariance<Wbmh<G>> {
    /// A decayed variance over WBMH backends (ratio-monotone decay).
    ///
    /// # Panics
    ///
    /// Panics if the decay is not ratio-monotone (see [`Wbmh::new`]).
    pub fn wbmh(decay: G, epsilon: f64, max_age: Time) -> Self {
        Self {
            weights: Wbmh::new(decay.clone(), epsilon, max_age),
            sums: Wbmh::new(decay.clone(), epsilon, max_age),
            squares: Wbmh::new(decay, epsilon, max_age),
        }
    }
}

impl<B: StreamAggregate> DecayedVariance<B> {
    /// Builds a variance from three explicit backends (fed `1`, `f`,
    /// and `f²` respectively).
    pub fn from_backends(weights: B, sums: B, squares: B) -> Self {
        Self {
            weights,
            sums,
            squares,
        }
    }

    /// The decayed-variance estimate (clamped at zero: the reduction can
    /// go slightly negative under approximation noise), or `None` when
    /// no item carries positive weight.
    pub fn query(&self, t: Time) -> Option<f64> {
        let w = self.weights.query(t);
        if w <= 0.0 {
            return None;
        }
        let s = self.sums.query(t);
        let q = self.squares.query(t);
        Some((q - s * s / w).max(0.0))
    }

    /// The decayed average `A_g(T)` (free by-product of the reduction).
    pub fn average(&self, t: Time) -> Option<f64> {
        let w = self.weights.query(t);
        (w > 0.0).then(|| self.sums.query(t) / w)
    }

    /// The decayed standard deviation.
    pub fn std_dev(&self, t: Time) -> Option<f64> {
        self.query(t).map(f64::sqrt)
    }
}

impl<B: StorageAccounting> StorageAccounting for DecayedVariance<B> {
    fn storage_bits(&self) -> u64 {
        self.weights.storage_bits() + self.sums.storage_bits() + self.squares.storage_bits()
    }
}

/// The value fed to the squares backend.
fn square(f: u64) -> u64 {
    f.checked_mul(f).expect("value too large: f² overflows u64")
}

/// Ingest feeds `(t, 1)`, `(t, f)` and `(t, f²)` to the three backends;
/// `merge_from` merges all three (distributed sites over disjoint
/// substreams, error composition per the backend's `merge_from`). The
/// trait's `query` returns the variance, or `0.0` before any item
/// carries weight — use the inherent [`DecayedVariance::query`] to
/// distinguish the empty case.
///
/// # Panics
///
/// Ingest panics if `f² > u64::MAX` (values above `2^32 − 1`).
impl<B: StreamAggregate> StreamAggregate for DecayedVariance<B> {
    fn observe(&mut self, t: Time, f: u64) {
        self.weights.observe(t, 1);
        self.sums.observe(t, f);
        self.squares.observe(t, square(f));
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        // Map the burst into the three component streams (1, f, f²) up
        // front so each backend takes one amortized batch.
        let unit: Vec<(Time, u64)> = items.iter().map(|&(t, _)| (t, 1)).collect();
        let sq: Vec<(Time, u64)> = items.iter().map(|&(t, f)| (t, square(f))).collect();
        self.weights.observe_batch(&unit);
        self.sums.observe_batch(items);
        self.squares.observe_batch(&sq);
    }
    fn batched_ingest_amortizes(&self) -> bool {
        // The mapped scratch vectors only pay off when the component
        // backends amortize; otherwise per-item fan-out is cheaper.
        self.sums.batched_ingest_amortizes()
    }
    fn advance(&mut self, t: Time) {
        self.weights.advance(t);
        self.sums.advance(t);
        self.squares.advance(t);
    }
    fn query(&self, t: Time) -> f64 {
        let w = self.weights.query(t);
        if w <= 0.0 {
            return 0.0;
        }
        let s = self.sums.query(t);
        let q = self.squares.query(t);
        (q - s * s / w).max(0.0)
    }
    fn query_is_additive(&self) -> bool {
        false // a difference of sums over a sum
    }
    fn merge_from(&mut self, other: &Self) {
        self.weights.merge_from(&other.weights);
        self.sums.merge_from(&other.sums);
        self.squares.merge_from(&other.squares);
    }
    fn error_bound(&self) -> td_decay::ErrorBound {
        // Σgf² − (Σgf)²/Σg is a *difference* of approximate sums, so
        // relative error is unbounded when the two terms nearly cancel
        // (constant-valued streams). Only all-exact components certify
        // an envelope; the conformance harness checks variance against
        // an absolute ε·Σgf² budget instead.
        let exact = td_decay::ErrorBound::exact();
        if self.weights.error_bound() == exact
            && self.sums.error_bound() == exact
            && self.squares.error_bound() == exact
        {
            exact
        } else {
            td_decay::ErrorBound::unbounded()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_counters::ExactDecayedSum;
    use td_decay::{Polynomial, SlidingWindow};

    fn exact_variance<G: DecayFunction>(g: &G, items: &[(Time, u64)], t: Time) -> f64 {
        let mut w = 0.0;
        let mut s = 0.0;
        for &(ti, f) in items {
            if ti < t {
                let wt = g.weight(t - ti);
                w += wt;
                s += wt * f as f64;
            }
        }
        let a = s / w;
        items
            .iter()
            .filter(|&&(ti, _)| ti < t)
            .map(|&(ti, f)| g.weight(t - ti) * (f as f64 - a).powi(2))
            .sum()
    }

    #[test]
    fn exact_backend_matches_definition() {
        let g = Polynomial::new(1.0);
        let mut v = DecayedVariance::from_backends(
            ExactDecayedSum::new(g),
            ExactDecayedSum::new(g),
            ExactDecayedSum::new(g),
        );
        let mut items = Vec::new();
        let mut x = 3u64;
        for t in 1..=500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 30;
            v.observe(t, f);
            items.push((t, f));
        }
        let got = v.query(501).unwrap();
        let want = exact_variance(&g, &items, 501);
        assert!((got - want).abs() < 1e-6 * want.max(1.0), "{got} vs {want}");
    }

    #[test]
    fn spread_values_within_band() {
        let g = Polynomial::new(1.5);
        let mut v = DecayedVariance::wbmh(g, 0.05, 1 << 20);
        let mut items = Vec::new();
        let mut x = 23u64;
        for t in 1..=3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 100; // high coefficient of variation
            v.observe(t, f);
            items.push((t, f));
        }
        let got = v.query(3_001).unwrap();
        let want = exact_variance(&g, &items, 3_001);
        assert!((got - want).abs() <= 0.35 * want, "{got} vs {want}");
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let mut v = DecayedVariance::ceh(SlidingWindow::new(50), 0.1);
        for t in 1..=200u64 {
            v.observe(t, 7);
        }
        // Exact arithmetic on identical values: the reduction is exact
        // at Σg·49 − (Σg·7)²/Σg = 0 up to the (correlated) histogram
        // noise; clamping keeps it non-negative.
        let var = v.query(201).unwrap();
        let second_moment = 49.0 * 50.0;
        assert!(var <= 0.25 * second_moment, "var={var}");
    }

    #[test]
    fn average_accessor_consistent() {
        let g = SlidingWindow::new(10);
        let mut v = DecayedVariance::ceh(g, 0.05);
        for t in 1..=100u64 {
            v.observe(t, t % 5);
        }
        let a = v.average(101).unwrap();
        assert!((a - 2.0).abs() < 0.5, "a={a}");
        assert!(v.std_dev(101).unwrap() >= 0.0);
    }

    #[test]
    fn merge_from_combines_sites() {
        let g = SlidingWindow::new(2_000);
        let mut whole = DecayedVariance::ceh(g, 0.05);
        let mut a = DecayedVariance::ceh(g, 0.05);
        let mut b = DecayedVariance::ceh(g, 0.05);
        let mut x = 71u64;
        for t in 1..=2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 100;
            whole.observe(t, f);
            if x.is_multiple_of(2) {
                a.observe(t, f);
            } else {
                b.observe(t, f);
            }
        }
        a.merge_from(&b);
        let (m, w) = (a.query(2_001).unwrap(), whole.query(2_001).unwrap());
        assert!((m - w).abs() <= 0.35 * w, "{m} vs {w}");
    }

    #[test]
    fn empty_is_none() {
        let v = DecayedVariance::ceh(Polynomial::new(1.0), 0.1);
        assert_eq!(v.query(10), None);
        assert_eq!(v.average(10), None);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn rejects_values_whose_square_overflows() {
        let mut v = DecayedVariance::ceh(Polynomial::new(1.0), 0.1);
        v.observe(1, u64::MAX);
    }
}
