//! Integration tests for the §7 aggregates through the facade, on the
//! synthetic application workloads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use td_stream::{DriftingValues, QueueWalk, UniformValues};
use timedecay::{
    DecayFunction, DecayedAverage, DecayedLpNorm, DecayedQuantile, DecayedSampler, DecayedVariance,
    Exponential, Polynomial, SlidingWindow, StreamAggregate,
};

#[test]
fn decayed_average_follows_drift() {
    let mut a = DecayedAverage::wbmh(Polynomial::new(2.0), 0.05, 1 << 22);
    let n = 4_000u64;
    for (t, f) in DriftingValues::new(50.0, 500.0, n, 10, 3).take(n as usize) {
        a.observe(t, f);
    }
    let avg = a.query(n + 1).unwrap();
    // POLYD(2) is recency-heavy: the average must sit near the drift's
    // end value, far from the lifetime mean (~275).
    assert!(avg > 400.0, "avg={avg}");
}

#[test]
fn window_average_equals_arithmetic_mean() {
    let g = SlidingWindow::new(1_000);
    let mut a = DecayedAverage::ceh(g, 0.05);
    let items: Vec<(u64, u64)> = UniformValues::new(0, 200, 9).take(10_000).collect();
    for &(t, f) in &items {
        a.observe(t, f);
    }
    let got = a.query(10_001).unwrap();
    let want: f64 = items[9_000..].iter().map(|&(_, f)| f as f64).sum::<f64>() / 1_000.0;
    assert!((got - want).abs() <= 0.12 * want, "{got} vs {want}");
}

#[test]
fn variance_detects_regime_change_in_queue() {
    // A queue walk alternates calm (variance small) and congested
    // (variance large) regimes; a windowed variance must register both.
    let mut v = DecayedVariance::ceh(SlidingWindow::new(2_000), 0.05);
    let mut max_sd = 0.0f64;
    let mut min_sd = f64::INFINITY;
    for (t, q) in QueueWalk::new(300, 0.003, 0.02, 5).take(50_000) {
        v.observe(t, q);
        if t % 5_000 == 0 {
            if let Some(sd) = v.std_dev(t + 1) {
                max_sd = max_sd.max(sd);
                min_sd = min_sd.min(sd);
            }
        }
    }
    assert!(
        max_sd > 4.0 * min_sd.max(1e-9),
        "max={max_sd}, min={min_sd}"
    );
}

#[test]
fn sampler_prefers_recent_items_under_steep_decay() {
    let mut recent = 0u32;
    let trials = 300u64;
    for seed in 0..trials {
        let mut s: DecayedSampler<_, u64> = DecayedSampler::new(Polynomial::new(2.5), 0.1, seed);
        for t in 1..=500u64 {
            s.observe(t, t);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 99);
        if s.sample(501, &mut rng).unwrap() > 480 {
            recent += 1;
        }
    }
    assert!(recent > 150, "recent={recent}/{trials}");
}

#[test]
fn quantile_median_respects_decayed_mass() {
    let g = Exponential::new(0.01);
    let mut q = DecayedQuantile::new(g, 0.1, 101, 77);
    // Old regime: values ~100; recent regime (last half-life ~69
    // ticks... use longer): values ~900.
    for t in 1..=2_000u64 {
        q.observe(t, if t <= 1_500 { 100 } else { 900 });
    }
    let mut rng = StdRng::seed_from_u64(5);
    let med = q.median(2_001, &mut rng).unwrap();
    // The last 500 ticks carry nearly all exponential mass at λ=0.01
    // (e^{-5} ≈ 0.7% left beyond).
    assert_eq!(med, 900);
}

#[test]
fn lp_norm_reacts_to_coordinate_concentration() {
    // Same total mass, spread vs concentrated: L2 must distinguish.
    let mk = || DecayedLpNorm::new(SlidingWindow::new(10_000), 2.0, 0.1, 201, 5);
    let mut spread = mk();
    let mut point = mk();
    for t in 1..=1_000u64 {
        spread.observe(t, t % 500, 2);
        point.observe(t, 7, 2);
    }
    let (ns, np) = (spread.query(1_001), point.query(1_001));
    // ‖point‖₂ = 2000; ‖spread‖₂ = sqrt(500·4²) = 89.4.
    assert!(np > 5.0 * ns, "point={np}, spread={ns}");
}

#[test]
fn aggregates_tolerate_sparse_streams() {
    let g = Polynomial::new(1.0);
    let times = [5u64, 6, 1_000, 50_000, 50_001];
    let mut a = DecayedAverage::wbmh(g, 0.1, 1 << 24);
    let mut v = DecayedVariance::wbmh(Polynomial::new(1.0), 0.1, 1 << 24);
    for &t in &times {
        a.observe(t, 10);
        v.observe(t, 10);
    }
    let avg = a.query(50_002).unwrap();
    assert!((avg - 10.0).abs() < 1.5, "avg={avg}");
    // Identical values → variance ~0 relative to the second moment.
    let var = v.query(50_002).unwrap();
    assert!(var < 0.3 * 100.0 * 5.0, "var={var}");
}

#[test]
fn describe_strings_are_stable() {
    // The experiment tables key on these; keep them stable.
    assert_eq!(Polynomial::new(2.0).describe(), "POLYD(alpha=2)");
    assert_eq!(SlidingWindow::new(5).describe(), "SLIWIN(W=5)");
    assert_eq!(Exponential::new(0.5).describe(), "EXPD(lambda=0.5)");
}
