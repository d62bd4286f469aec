//! Time-decaying aggregates beyond the plain sum (paper §2.2 and §7).
//!
//! Everything here composes the histogram substrates (`td-eh`, `td-ceh`,
//! `td-wbmh`) and randomized substrates (`td-sketch`) into the
//! user-level aggregates the paper formulates:
//!
//! * [`average::DecayedAverage`] — Problem 2.2 (DAP), the ratio of a
//!   decayed value sum to a decayed weight total;
//! * [`variance::DecayedVariance`] — §7.3, via the three-sums reduction
//!   `V = Σgf² − (Σgf)²/Σg` (with the cancellation regime documented
//!   and measured rather than hidden);
//! * [`lp::DecayedLpNorm`] — §7.1: Indyk stable sketches cascaded
//!   through an exponential-histogram bucket structure, giving decayed
//!   `L_p` norms of an update vector for any decay function;
//! * [`select::DecayedSampler`] — §7.2: time-decayed random selection
//!   via an MV/D list plus the window-mixture reduction;
//! * [`quantile::DecayedQuantile`] — §7.2: approximate decayed
//!   quantiles by repeated independent selection.
//!
//! The average and the variance are built from decayed sums, so they
//! are generic over any [`td_decay::StreamAggregate`] backend — the one
//! ingest/merge contract every summation substrate and the exact
//! baseline implement — and are `StreamAggregate`s themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod average;
pub mod lp;
pub mod quantile;
pub mod select;
pub mod variance;

pub use average::DecayedAverage;
pub use lp::DecayedLpNorm;
pub use quantile::DecayedQuantile;
pub use select::DecayedSampler;
pub use variance::DecayedVariance;

#[cfg(test)]
mod tests {
    use td_ceh::CascadedEh;
    use td_counters::{ExactDecayedSum, ExpCounter};
    use td_decay::{Exponential, Polynomial, StreamAggregate};
    use td_wbmh::Wbmh;

    /// All four summation backends agree (within their bands) on the
    /// same stream, driven through `dyn StreamAggregate`.
    #[test]
    fn backends_agree_on_exponential_decay() {
        let lam = 0.05;
        let g = Exponential::new(lam);
        let mut backends: Vec<Box<dyn StreamAggregate>> = vec![
            Box::new(ExactDecayedSum::new(g)),
            Box::new(ExpCounter::new(g)),
            Box::new(CascadedEh::new(g, 0.05)),
            Box::new(Wbmh::new(g, 0.05, 1 << 14)),
        ];
        for t in 1..=2_000u64 {
            let f = 1 + t % 3;
            for b in backends.iter_mut() {
                b.observe(t, f);
            }
        }
        let truth = backends[0].query(2_001);
        for (i, b) in backends.iter().enumerate().skip(1) {
            let est = b.query(2_001);
            assert!(
                (est - truth).abs() <= 0.06 * truth + 1e-9,
                "backend {i}: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn trait_objects_are_usable_for_polynomial() {
        let g = Polynomial::new(1.0);
        let mut b: Box<dyn StreamAggregate> = Box::new(Wbmh::new(g, 0.1, 1 << 20));
        b.observe(1, 5);
        assert!(b.query(2) > 0.0);
    }
}
