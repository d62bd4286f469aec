//! The Decaying Average Problem (paper Problem 2.2).

use td_ceh::CascadedEh;
use td_decay::storage::StorageAccounting;
use td_decay::{DecayFunction, StreamAggregate, Time};
use td_wbmh::Wbmh;

/// The time-decaying average
/// `A_g(T) = Σ f_i·g(T−t_i) / Σ g(T−t_i)` (Problem 2.2, DAP).
///
/// As the paper observes (§2.2), the numerator is a decaying sum of the
/// value stream and the denominator is a decaying count of the stream
/// `(t_i, 1)`; both are maintained by any [`StreamAggregate`] backend, and
/// an approximate average follows from the two approximate sums: with
/// both one-sided within `(1+ε)`, the ratio lies within
/// `[1/(1+ε), 1+ε]` of the true average.
///
/// The decaying average is the aggregate behind every application in
/// §1.1 — RED queue estimation, ATM holding times, gateway selection —
/// and is what the Figure 1 experiment rates links with.
///
/// # Examples
///
/// ```
/// use td_aggregates::DecayedAverage;
/// use td_decay::{Polynomial, StreamAggregate};
/// let mut a = DecayedAverage::wbmh(Polynomial::new(1.0), 0.1, 1 << 20);
/// a.observe(1, 10);
/// a.observe(2, 20);
/// let avg = a.query(3).unwrap();
/// // truth: (10·g(2) + 20·g(1)) / (g(2) + g(1)) = 25/1.5
/// assert!((avg - 25.0 / 1.5).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct DecayedAverage<B> {
    values: B,
    weights: B,
}

impl<G: DecayFunction + Clone> DecayedAverage<CascadedEh<G>> {
    /// A decayed average over cascaded-EH backends (any decay function).
    pub fn ceh(decay: G, epsilon: f64) -> Self {
        Self {
            values: CascadedEh::new(decay.clone(), epsilon),
            weights: CascadedEh::new(decay, epsilon),
        }
    }
}

impl<G: DecayFunction + Clone> DecayedAverage<Wbmh<G>> {
    /// A decayed average over WBMH backends (ratio-monotone decay).
    ///
    /// # Panics
    ///
    /// Panics if the decay is not ratio-monotone (see [`Wbmh::new`]).
    pub fn wbmh(decay: G, epsilon: f64, max_age: Time) -> Self {
        Self {
            values: Wbmh::new(decay.clone(), epsilon, max_age),
            weights: Wbmh::new(decay, epsilon, max_age),
        }
    }
}

impl<B: StreamAggregate> DecayedAverage<B> {
    /// Builds an average from two explicit backends (the `values`
    /// backend receives `(t, f)`, the `weights` backend `(t, 1)`).
    pub fn from_backends(values: B, weights: B) -> Self {
        Self { values, weights }
    }

    /// The decayed-average estimate, or `None` when no item carries
    /// positive weight yet.
    pub fn query(&self, t: Time) -> Option<f64> {
        let den = self.weights.query(t);
        if den <= 0.0 {
            return None;
        }
        Some(self.values.query(t) / den)
    }

    /// The numerator (decayed value sum) estimate.
    pub fn value_sum(&self, t: Time) -> f64 {
        self.values.query(t)
    }

    /// The denominator (decayed weight total) estimate.
    pub fn weight_total(&self, t: Time) -> f64 {
        self.weights.query(t)
    }
}

impl<B: StorageAccounting> StorageAccounting for DecayedAverage<B> {
    fn storage_bits(&self) -> u64 {
        self.values.storage_bits() + self.weights.storage_bits()
    }
}

/// Ingest feeds `(t, f)` to the values backend and `(t, 1)` to the
/// weights backend; `merge_from` merges both (distributed sites over
/// disjoint substreams, error composition per the backend's
/// `merge_from`). The trait's `query` returns the average, or `0.0`
/// before any item carries weight — use the inherent
/// [`DecayedAverage::query`] to distinguish the empty case.
impl<B: StreamAggregate> StreamAggregate for DecayedAverage<B> {
    fn observe(&mut self, t: Time, f: u64) {
        self.values.observe(t, f);
        self.weights.observe(t, 1);
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        self.values.observe_batch(items);
        // The denominator stream replaces every value with 1 (one unit
        // of decayed weight per item), so batch it through a mapped
        // scratch vector.
        let unit: Vec<(Time, u64)> = items.iter().map(|&(t, _)| (t, 1)).collect();
        self.weights.observe_batch(&unit);
    }
    fn batched_ingest_amortizes(&self) -> bool {
        // The mapped scratch vector only pays off when the component
        // backends amortize; otherwise per-item fan-out is cheaper.
        self.values.batched_ingest_amortizes()
    }
    fn advance(&mut self, t: Time) {
        self.values.advance(t);
        self.weights.advance(t);
    }
    fn query(&self, t: Time) -> f64 {
        let den = self.weights.query(t);
        if den <= 0.0 {
            return 0.0;
        }
        self.values.query(t) / den
    }
    fn query_is_additive(&self) -> bool {
        false // a ratio of two sums
    }
    fn merge_from(&mut self, other: &Self) {
        self.values.merge_from(&other.values);
        self.weights.merge_from(&other.weights);
    }
    fn error_bound(&self) -> td_decay::ErrorBound {
        // A ratio of two estimates: the worst over-estimate divides the
        // numerator's high side by the denominator's low side, and vice
        // versa.
        let num = self.values.error_bound();
        let den = self.weights.error_bound();
        if !num.is_bounded() || !den.is_bounded() || den.lower >= 1.0 {
            return td_decay::ErrorBound::unbounded();
        }
        td_decay::ErrorBound {
            lower: 1.0 - (1.0 - num.lower) / (1.0 + den.upper),
            upper: (1.0 + num.upper) / (1.0 - den.lower) - 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_counters::ExactDecayedSum;
    use td_decay::{Exponential, Polynomial, SlidingWindow};

    fn exact_average<G: DecayFunction + Clone>(
        g: G,
        items: &[(Time, u64)],
        t: Time,
    ) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for &(ti, f) in items {
            if ti < t {
                let w = g.weight(t - ti);
                num += f as f64 * w;
                den += w;
            }
        }
        (den > 0.0).then_some(num / den)
    }

    #[test]
    fn sliding_window_average_is_plain_mean() {
        let g = SlidingWindow::new(10);
        let mut a = DecayedAverage::ceh(g, 0.1);
        for t in 1..=100u64 {
            a.observe(t, t); // value = time
        }
        // Window at T=101 holds values 91..=100 → mean 95.5.
        let avg = a.query(101).unwrap();
        assert!((avg - 95.5).abs() <= 0.1 * 95.5, "avg={avg}");
    }

    #[test]
    fn polynomial_average_tracks_exact() {
        let g = Polynomial::new(1.0);
        let mut a = DecayedAverage::wbmh(g, 0.1, 1 << 20);
        let mut items = Vec::new();
        let mut x = 17u64;
        for t in 1..=3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 100;
            a.observe(t, f);
            items.push((t, f));
        }
        let got = a.query(3_001).unwrap();
        let want = exact_average(g, &items, 3_001).unwrap();
        // Ratio of two one-sided (1+ε) estimates.
        assert!(
            got <= want * 1.1 + 1e-9 && got >= want / 1.1 - 1e-9,
            "{got} vs {want}"
        );
    }

    #[test]
    fn average_shifts_toward_recent_values() {
        // Values switch from 10 to 90 halfway: a decayed average must
        // land closer to 90.
        let g = Polynomial::new(2.0);
        let mut a = DecayedAverage::wbmh(g, 0.1, 1 << 20);
        for t in 1..=1000u64 {
            a.observe(t, if t <= 500 { 10 } else { 90 });
        }
        let avg = a.query(1001).unwrap();
        assert!(avg > 80.0, "avg={avg}");
    }

    #[test]
    fn from_backends_with_exact() {
        let g = Exponential::new(0.1);
        let mut a = DecayedAverage::from_backends(ExactDecayedSum::new(g), ExactDecayedSum::new(g));
        a.observe(1, 4);
        a.observe(2, 8);
        let want = (4.0 * g.weight(2) + 8.0 * g.weight(1)) / (g.weight(2) + g.weight(1));
        assert!((a.query(3).unwrap() - want).abs() < 1e-12);
    }

    #[test]
    fn merge_from_combines_sites() {
        let g = Polynomial::new(1.0);
        let mut whole = DecayedAverage::ceh(g, 0.05);
        let mut a = DecayedAverage::ceh(g, 0.05);
        let mut b = DecayedAverage::ceh(g, 0.05);
        for t in 1..=2_000u64 {
            let f = 10 + t % 30;
            whole.observe(t, f);
            if t % 2 == 0 {
                a.observe(t, f);
            } else {
                b.observe(t, f);
            }
        }
        a.merge_from(&b);
        let (m, w) = (a.query(2_001).unwrap(), whole.query(2_001).unwrap());
        assert!((m - w).abs() <= 0.2 * w, "{m} vs {w}");
    }

    #[test]
    fn empty_average_is_none() {
        let a = DecayedAverage::ceh(Polynomial::new(1.0), 0.1);
        assert_eq!(a.query(5), None);
    }
}
