//! Property-based tests of the workspace's core invariants, driven by
//! randomized streams and decay parameters.

use proptest::prelude::*;
use td_counters::approx::{round_to_mantissa, ApproxCount};
use td_counters::ExactDecayedSum;
use td_eh::{ClassicEh, DominationEh, WindowSketch};
use td_sketch::MvdList;
use timedecay::{
    CascadedEh, DecayFunction, Exponential, Polynomial, RegionSchedule, SlidingWindow,
    StreamAggregate, Wbmh,
};

/// A random bursty 0/1..9-valued stream of bounded length.
fn stream_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((1u64..4, 0u64..10), 10..400).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(dt, f)| {
                t += dt;
                (t, f)
            })
            .collect()
    })
}

proptest! {
    /// Classic EH: window estimates stay within ε on arbitrary 0/1
    /// streams, for every power-of-two window.
    #[test]
    fn classic_eh_window_error(items in stream_strategy(), eps in 0.02f64..0.5) {
        let mut eh = ClassicEh::new(eps, None);
        let mut ones = Vec::new();
        for &(t, f) in &items {
            let bit = u64::from(f % 2 == 1);
            eh.observe(t, bit);
            if bit == 1 {
                ones.push(t);
            }
        }
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        let mut w = 1u64;
        while w < t_end {
            let truth = ones.iter().filter(|&&t| t + w >= t_end).count() as f64;
            let est = eh.query_window(t_end, w);
            prop_assert!(
                (est - truth).abs() <= eps * truth + 1.0,
                "w={w}: est={est}, truth={truth}"
            );
            w *= 2;
        }
    }

    /// Domination EH: bulk-value window estimates stay within ε plus
    /// the value of a single tick (the straddler granularity).
    #[test]
    fn domination_eh_window_error(items in stream_strategy(), eps in 0.02f64..0.5) {
        let mut eh = DominationEh::new(eps, None);
        for &(t, f) in &items {
            eh.observe(t, f);
        }
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        let mut w = 1u64;
        while w < t_end {
            let truth: u64 = items
                .iter()
                .filter(|&&(t, _)| t + w >= t_end)
                .map(|&(_, f)| f)
                .sum();
            let est = eh.query_window(t_end, w);
            prop_assert!(
                (est - truth as f64).abs() <= eps * truth as f64 + 10.0,
                "w={w}: est={est}, truth={truth}"
            );
            w *= 2;
        }
    }

    /// Cascaded EH (Theorem 1): one-sided (1+ε) bound for polynomial
    /// decays of random exponent.
    #[test]
    fn ceh_one_sided_bound(
        items in stream_strategy(),
        eps in 0.05f64..0.5,
        alpha in 0.3f64..3.0,
    ) {
        let g = Polynomial::new(alpha);
        let mut ceh = CascadedEh::new(g, eps);
        let mut exact = ExactDecayedSum::new(g);
        for &(t, f) in &items {
            ceh.observe(t, f);
            exact.observe(t, f);
        }
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        let truth = exact.query(t_end);
        let est = ceh.query(t_end);
        prop_assert!(est >= truth * (1.0 - 1e-9), "{est} < {truth}");
        prop_assert!(est <= truth * (1.0 + eps) + 1e-9, "{est} > (1+{eps}){truth}");
    }

    /// WBMH: the same one-sided bound, plus non-negativity.
    #[test]
    fn wbmh_one_sided_bound(
        items in stream_strategy(),
        eps in 0.05f64..0.5,
        alpha in 0.3f64..3.0,
    ) {
        let g = Polynomial::new(alpha);
        let mut h = Wbmh::new(g, eps, 1 << 16);
        let mut exact = ExactDecayedSum::new(g);
        for &(t, f) in &items {
            h.observe(t, f);
            exact.observe(t, f);
        }
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        let truth = exact.query(t_end);
        let est = h.query(t_end);
        prop_assert!(est >= truth * (1.0 - 1e-9), "{est} < {truth}");
        prop_assert!(est <= truth * (1.0 + eps) + 1e-9, "{est} > (1+{eps}){truth}");
    }

    /// Region schedules: weights within one region agree to (1+ε), and
    /// region lookup is consistent with spans.
    #[test]
    fn region_schedule_band(eps in 0.05f64..4.0, alpha in 0.3f64..3.0) {
        let g = Polynomial::new(alpha);
        let s = RegionSchedule::compute(&g, eps, 1 << 14);
        for (i, start, end) in s.iter() {
            let end = end.unwrap_or(s.max_age());
            prop_assert!(
                (1.0 + eps) * g.weight(end) >= g.weight(start) * (1.0 - 1e-12),
                "region {i} [{start},{end}] too wide"
            );
            prop_assert_eq!(s.region_of(start), i);
        }
    }

    /// Mantissa rounding: relative error ≤ 2^{1−bits}, idempotent.
    #[test]
    fn rounding_error_bound(x in 1e-6f64..1e18, bits in 1u32..52) {
        let r = round_to_mantissa(x, bits);
        let rel = (r - x).abs() / x;
        prop_assert!(rel <= (-(bits as f64 - 1.0)).exp2() + 1e-15);
        prop_assert_eq!(round_to_mantissa(r, bits), r);
    }

    /// ApproxCount ladder: arbitrary merge trees stay within the
    /// accumulated bound.
    #[test]
    fn approx_count_ladder(counts in proptest::collection::vec(0u64..1000, 2..64)) {
        let eps = 0.05;
        let truth: u64 = counts.iter().sum();
        // Left-deep merge (worst depth).
        let mut acc = ApproxCount::exact(counts[0], eps);
        for &c in &counts[1..] {
            acc = ApproxCount::merge(&acc, &ApproxCount::exact(c, eps));
        }
        if truth > 0 {
            let rel = (acc.value() - truth as f64).abs() / truth as f64;
            prop_assert!(rel <= acc.error_bound() + 1e-12);
        }
    }

    /// MV/D: the retained set is exactly the suffix minima of the rank
    /// sequence.
    #[test]
    fn mvd_is_suffix_minima(ranks in proptest::collection::vec(0.0f64..1.0, 1..200)) {
        let mut list: MvdList<usize> = MvdList::with_seed(0);
        for (i, &r) in ranks.iter().enumerate() {
            list.observe_with_rank(i as u64 + 1, i, r);
        }
        let retained: Vec<usize> = list.entries().map(|e| e.value).collect();
        let expected: Vec<usize> = (0..ranks.len())
            .filter(|&i| ranks[i + 1..].iter().all(|&later| later > ranks[i]))
            .collect();
        prop_assert_eq!(retained, expected);
    }

    /// The decayed sum is monotone under adding items (more data never
    /// lowers the estimate at a fixed query time).
    #[test]
    fn sum_monotone_in_items(items in stream_strategy()) {
        let g = SlidingWindow::new(1 << 20);
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        let mut partial = CascadedEh::new(g, 0.1);
        let mut prev = 0.0;
        for &(t, f) in &items {
            partial.observe(t, f);
            let v = partial.query(t_end);
            prop_assert!(v + 1e-9 >= prev, "estimate dropped: {v} < {prev}");
            prev = v;
        }
    }

    /// EXPD counter equals the exact baseline (it is an exact algorithm
    /// in f64).
    #[test]
    fn exp_counter_matches_exact(items in stream_strategy(), lambda in 0.001f64..1.0) {
        use td_counters::ExpCounter;
        let g = Exponential::new(lambda);
        let mut c = ExpCounter::new(g);
        let mut exact = ExactDecayedSum::new(g);
        for &(t, f) in &items {
            c.observe(t, f);
            exact.observe(t, f);
        }
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        let (a, b) = (c.query(t_end), exact.query(t_end));
        prop_assert!((a - b).abs() <= 1e-9 * b.max(1.0), "{a} vs {b}");
    }
}
