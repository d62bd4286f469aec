//! Exponential Histograms — the sliding-window counting substrate
//! (Datar, Gionis, Indyk & Motwani \[9\]; paper §4.1), built from scratch.
//!
//! An Exponential Histogram (EH) summarizes a stream of non-negative
//! arrivals so that, at any time `T`, the count of items in *any* window
//! `w <= N` can be estimated within a `(1 ± ε)` factor (Lemma 4.1 of
//! Cohen–Strauss) — which is exactly what the cascaded construction of
//! Theorem 1 needs to handle arbitrary decay functions.
//!
//! Two variants are provided:
//!
//! * [`ClassicEh`] — the literal Datar et al. structure for 0/1 streams:
//!   bucket sizes are powers of two and each size class holds a bounded
//!   number of buckets; exceeding the bound merges the two oldest buckets
//!   of that class into one of the next class.
//! * [`DominationEh`] — the merge rule as Cohen–Strauss characterize it
//!   in §4.1: *"two consecutive buckets are merged if the combined count
//!   of the merged buckets is dominated by the total count of all
//!   more-recent buckets."* This form supports arbitrary non-negative
//!   bulk values per tick (the paper's generalization to polynomial
//!   values) with the same `O(ε⁻¹ log N)` bucket bound.
//!
//! Both implement [`StreamAggregate`] for ingest and [`WindowSketch`],
//! the Lemma 4.1 window queries consumed by `td-ceh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod classic;
pub mod domination;

pub use bucket::{Bucket, Estimator};
pub use classic::ClassicEh;
pub use domination::DominationEh;

use td_decay::{StreamAggregate, Time};

/// The Lemma 4.1 interface: a summary that can estimate the item count
/// in any suffix window of the stream.
///
/// Ingest, clock advance and merge come from the [`StreamAggregate`]
/// supertrait, the workspace's one ingest contract; this trait adds
/// only the window queries.
///
/// `query_window(T, w)` estimates the number of items with arrival time
/// in `[T − w, T − 1]` (ages `1..=w` at time `T`, matching the §2.1
/// convention that items at the query instant are excluded).
pub trait WindowSketch: StreamAggregate {
    /// Estimates the count of items with age in `1..=w` at time `T`.
    fn query_window(&self, t: Time, w: Time) -> f64;

    /// The exact total count of all live (non-expired) items.
    fn live_total(&self) -> u64;

    /// A snapshot of the live buckets, oldest first.
    ///
    /// This *copies*; query paths should prefer
    /// [`columns`](Self::columns), which borrows the live
    /// structure-of-arrays columns directly.
    fn buckets(&self) -> Vec<Bucket>;

    /// Borrowed view of the live bucket columns (oldest first, sorted
    /// by end time) — the zero-gather interface cascaded queries stream
    /// their decay kernels over.
    fn columns(&self) -> td_decay::ColumnsView<'_>;

    /// The configured accuracy target ε.
    fn epsilon(&self) -> f64;
}
