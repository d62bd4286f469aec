//! Property tests that `observe_batch` is equivalent to item-by-item
//! `observe` on every backend: bit-identical histogram state for the
//! bucket-based sketches (EH, WBMH), and ≤1e-12 relative drift for the
//! f64 counters (whose only batch difference is summation order within
//! one tick).
//!
//! Streams here deliberately repeat ticks (bursts) — the batch paths
//! coalesce same-tick runs, and these tests pin down that the
//! coalescing changes nothing observable.

use proptest::prelude::*;
use td_counters::{ExactDecayedSum, ExpCounter, PolyExpCounter, QuantizedExpCounter};
use timedecay::{
    CascadedEh, ClassicEh, DecayedAverage, DecayedSum, DecayedVariance, DominationEh, Exponential,
    Polynomial, SlidingWindow, StorageAccounting, StreamAggregate, Wbmh, WindowSketch,
};

/// A bursty stream: non-decreasing times with frequent repeats, values
/// 0..20 (zeros included — they must be no-ops on the sketch paths).
fn bursty_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..3, 0u64..20), 10..300).prop_map(|steps| {
        let mut t = 1u64;
        steps
            .into_iter()
            .map(|(dt, f)| {
                t += dt;
                (t, f)
            })
            .collect()
    })
}

/// Feeds `items` to `agg` in batches of `chunk` items, mimicking an
/// ingest loop that drains a buffer of arbitrary size.
fn feed_chunks<A: StreamAggregate>(agg: &mut A, items: &[(u64, u64)], chunk: usize) {
    for c in items.chunks(chunk.max(1)) {
        agg.observe_batch(c);
    }
}

proptest! {
    /// DominationEh: the batch path must leave the *exact* same bucket
    /// list as the sequential path — merge passes fire at the same
    /// points, so this is equality of state, not of estimates.
    #[test]
    fn domination_eh_batch_is_bit_identical(
        items in bursty_stream(),
        eps in 0.05f64..0.8,
        chunk in 1usize..64,
    ) {
        let mut seq = DominationEh::new(eps, None);
        let mut bat = DominationEh::new(eps, None);
        for &(t, f) in &items {
            StreamAggregate::observe(&mut seq, t, f);
        }
        feed_chunks(&mut bat, &items, chunk);
        prop_assert_eq!(seq.buckets(), bat.buckets());
        prop_assert_eq!(seq.live_total(), bat.live_total());
        prop_assert_eq!(seq.last_time(), bat.last_time());
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        prop_assert_eq!(seq.query_window(t_end, t_end), bat.query_window(t_end, t_end));
    }

    /// ClassicEh on 0/1 streams: identical bucket lists (the per-unit
    /// cascade is order-sensitive, so the batch path replays it 1:1).
    #[test]
    fn classic_eh_batch_is_bit_identical(
        items in bursty_stream(),
        eps in 0.05f64..0.8,
        chunk in 1usize..64,
    ) {
        let bits: Vec<(u64, u64)> = items.iter().map(|&(t, f)| (t, f % 2)).collect();
        let mut seq = ClassicEh::new(eps, None);
        let mut bat = ClassicEh::new(eps, None);
        for &(t, f) in &bits {
            StreamAggregate::observe(&mut seq, t, f);
        }
        feed_chunks(&mut bat, &bits, chunk);
        prop_assert_eq!(seq.buckets(), bat.buckets());
        prop_assert_eq!(seq.live_total(), bat.live_total());
    }

    /// WBMH: full snapshot equality — sealed buckets, the open bucket,
    /// pending item, and merge bookkeeping all match.
    #[test]
    fn wbmh_batch_is_bit_identical(
        items in bursty_stream(),
        eps in 0.05f64..0.8,
        alpha in 0.3f64..3.0,
        chunk in 1usize..64,
    ) {
        let g = Polynomial::new(alpha);
        let mut seq = Wbmh::new(g, eps, 1 << 16);
        let mut bat = Wbmh::new(g, eps, 1 << 16);
        for &(t, f) in &items {
            seq.observe(t, f);
        }
        feed_chunks(&mut bat, &items, chunk);
        prop_assert_eq!(seq.snapshot(), bat.snapshot());
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        prop_assert_eq!(seq.query(t_end), bat.query(t_end));
    }

    /// Cascaded EH: estimates and storage agree exactly (the inner
    /// domination sketch is bit-identical, so queries must be too).
    #[test]
    fn ceh_batch_matches_sequential(
        items in bursty_stream(),
        eps in 0.05f64..0.8,
        alpha in 0.3f64..3.0,
        chunk in 1usize..64,
    ) {
        let g = Polynomial::new(alpha);
        let mut seq = CascadedEh::new(g, eps);
        let mut bat = CascadedEh::new(g, eps);
        for &(t, f) in &items {
            seq.observe(t, f);
        }
        feed_chunks(&mut bat, &items, chunk);
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        for dt in [0u64, 1, 7, 100] {
            prop_assert_eq!(seq.query(t_end + dt), bat.query(t_end + dt));
        }
        prop_assert_eq!(
            StorageAccounting::storage_bits(&seq),
            StorageAccounting::storage_bits(&bat)
        );
    }

    /// Counters: the batch path may reorder same-tick f64 additions, so
    /// allow 1e-12 relative drift; the exact baseline must match to the
    /// bit (its per-tick mass is folded in u64).
    #[test]
    fn counters_batch_drift_below_1e12(
        items in bursty_stream(),
        lambda in 0.001f64..0.5,
        chunk in 1usize..64,
    ) {
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1.0);

        let g = Exponential::new(lambda);
        let mut seq = ExpCounter::new(g);
        let mut bat = ExpCounter::new(g);
        for &(t, f) in &items {
            seq.observe(t, f);
        }
        feed_chunks(&mut bat, &items, chunk);
        prop_assert!(close(bat.query(t_end), seq.query(t_end)));

        let mut seq = QuantizedExpCounter::new(g, 52);
        let mut bat = QuantizedExpCounter::new(g, 52);
        for &(t, f) in &items {
            seq.observe(t, f);
        }
        feed_chunks(&mut bat, &items, chunk);
        prop_assert!(close(bat.query(t_end), seq.query(t_end)));

        let mut seq = PolyExpCounter::new(2, lambda);
        let mut bat = PolyExpCounter::new(2, lambda);
        for &(t, f) in &items {
            seq.observe(t, f);
        }
        feed_chunks(&mut bat, &items, chunk);
        prop_assert!(close(bat.query(t_end), seq.query(t_end)));

        let mut seq = ExactDecayedSum::new(g);
        let mut bat = ExactDecayedSum::new(g);
        for &(t, f) in &items {
            seq.observe(t, f);
        }
        feed_chunks(&mut bat, &items, chunk);
        prop_assert_eq!(seq.query(t_end), bat.query(t_end));
    }

    /// The unified facade: every auto-selected DecayedSum backend gives
    /// the same estimate for batched and sequential ingest.
    #[test]
    fn decayed_sum_batch_matches_sequential(
        items in bursty_stream(),
        chunk in 1usize..64,
    ) {
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        let mks: [fn() -> DecayedSum; 3] = [
            || DecayedSum::new(Exponential::new(0.05)),
            || DecayedSum::new(SlidingWindow::new(64)),
            || DecayedSum::new(Polynomial::new(1.5)),
        ];
        for mk in mks {
            let mut seq = mk();
            let mut bat = mk();
            for &(t, f) in &items {
                seq.observe(t, f);
            }
            feed_chunks(&mut bat, &items, chunk);
            let (a, b) = (seq.query(t_end), bat.query(t_end));
            prop_assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "{}: {} vs {}", seq.backend_name(), a, b
            );
        }
    }

    /// Composite aggregates route batches through every component
    /// stream: average and variance match their sequential selves.
    #[test]
    fn composite_batch_matches_sequential(
        items in bursty_stream(),
        eps in 0.05f64..0.5,
        chunk in 1usize..64,
    ) {
        let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        let g = SlidingWindow::new(128);

        let mut seq = DecayedAverage::ceh(g, eps);
        let mut bat = DecayedAverage::ceh(g, eps);
        for &(t, f) in &items {
            StreamAggregate::observe(&mut seq, t, f);
        }
        feed_chunks(&mut bat, &items, chunk);
        prop_assert_eq!(
            StreamAggregate::query(&seq, t_end),
            StreamAggregate::query(&bat, t_end)
        );

        let mut seq = DecayedVariance::ceh(g, eps);
        let mut bat = DecayedVariance::ceh(g, eps);
        for &(t, f) in &items {
            StreamAggregate::observe(&mut seq, t, f);
        }
        feed_chunks(&mut bat, &items, chunk);
        prop_assert_eq!(
            StreamAggregate::query(&seq, t_end),
            StreamAggregate::query(&bat, t_end)
        );
    }
}
