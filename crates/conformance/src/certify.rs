//! The ε-certifier: replays a [`Scenario`] into a backend and the
//! exact [`Oracle`] in lock-step, and at every query checks the
//! backend's answer against the relative-error envelope the backend
//! *itself* certifies via [`StreamAggregate::error_bound`].
//!
//! On the first violated query the certifier stops and returns a
//! [`Failure`] carrying the minimal replayable repro: scenario family
//! name, seed, and the first failing query tick — enough to regenerate
//! the exact op sequence and re-run the offending backend by hand.

use std::fmt;

use td_decay::{DecayFunction, ErrorBound, StreamAggregate, Time};

use crate::oracle::Oracle;
use crate::scenario::{Op, Scenario};

/// A backend under test, behind the object-safe trait surface.
pub type DynAggregate = Box<dyn StreamAggregate>;

/// The reference oracle with a type-erased decay (the blanket
/// `DecayFunction for Box<G>` impl makes the boxed decay a first-class
/// `G`).
pub type DynOracle = Oracle<Box<dyn DecayFunction>>;

/// Which ground-truth quantity the backend's `query` estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TruthKind {
    /// The decayed sum `Σ f_i · g(T − t_i)` (§2.1).
    Sum,
    /// The decayed average (§7.2) — a ratio of two estimates.
    Average,
    /// The decayed variance (§7.3). No relative guarantee exists in
    /// the cancellation regime, so when the backend reports an
    /// unbounded envelope the certifier falls back to the absolute
    /// budget `|est − V| ≤ budget · Σ g·f²` (the paper's `O(ε·Σgf²)`
    /// characterization).
    Variance {
        /// The absolute-error budget as a fraction of the decayed
        /// second moment.
        budget: f64,
    },
}

/// A certified conformance violation, with everything needed to replay
/// it: regenerate the named scenario family at `seed` and query the
/// same backend at `query_time`.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The backend's matrix name.
    pub backend: String,
    /// The scenario family name.
    pub scenario: String,
    /// The seed the scenario was generated from.
    pub seed: u64,
    /// The first query tick where the envelope was violated.
    pub query_time: Time,
    /// The oracle's ground-truth answer at that tick.
    pub expected: f64,
    /// The backend's answer.
    pub got: f64,
    /// The envelope the backend certified at that moment.
    pub bound: ErrorBound,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conformance failure: backend `{}` on scenario `{}` (seed {:#x}) \
             at query tick {}: got {:.9e}, oracle says {:.9e}, certified \
             envelope [-{}, +{}]. Replay: regenerate family `{}` with seed \
             {:#x} and query at t = {}.",
            self.backend,
            self.scenario,
            self.seed,
            self.query_time,
            self.got,
            self.expected,
            self.bound.lower,
            self.bound.upper,
            self.scenario,
            self.seed,
            self.query_time,
        )
    }
}

impl std::error::Error for Failure {}

/// Aggregate statistics from a clean certification run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Queries checked.
    pub queries: usize,
    /// Largest observed relative error over queries whose ground truth
    /// was meaningfully nonzero.
    pub max_rel_err: f64,
    /// The backend's storage footprint after the full replay.
    pub final_storage_bits: u64,
}

/// Absolute tolerance absorbing f64 summation-order noise between the
/// backend and the oracle (both sum in different orders).
fn slop(truth: f64) -> f64 {
    1e-9 * truth.abs().max(1.0)
}

fn apply_op<A: StreamAggregate + ?Sized>(a: &mut A, op: &Op, cap: u64) {
    match op {
        Op::Observe(t, f) => a.observe(*t, (*f).min(cap)),
        Op::ObserveBatch(items) => {
            if cap == u64::MAX {
                a.observe_batch(items);
            } else {
                let capped: Vec<(Time, u64)> =
                    items.iter().map(|&(t, f)| (t, f.min(cap))).collect();
                a.observe_batch(&capped);
            }
        }
        Op::Advance(t) => a.advance(*t),
        Op::Query(_) => {}
    }
}

/// Replays `scenario` into `backend` and `oracle` in lock-step,
/// checking every query against the backend's certified envelope.
///
/// `value_cap` clamps observed values before they reach *either* side
/// (for backends with restricted domains, e.g. the 0/1 classic EH).
pub fn run_scenario(
    backend: &mut dyn StreamAggregate,
    oracle: &mut DynOracle,
    truth: TruthKind,
    value_cap: Option<u64>,
    scenario: &Scenario,
    backend_name: &str,
) -> Result<RunStats, Box<Failure>> {
    let cap = value_cap.unwrap_or(u64::MAX);
    let mut stats = RunStats::default();
    for op in &scenario.ops {
        if let Op::Query(t) = op {
            let est = backend.query(*t);
            let bound = backend.error_bound();
            let (expected, ok) = match truth {
                TruthKind::Sum => {
                    let v = oracle.decayed_sum(*t);
                    (v, bound.admits(est, v, slop(v)))
                }
                TruthKind::Average => {
                    let v = oracle.decayed_average(*t).unwrap_or(0.0);
                    (v, bound.admits(est, v, slop(v)))
                }
                TruthKind::Variance { budget } => {
                    let v = oracle.decayed_variance(*t);
                    let ok = if bound.is_bounded() {
                        bound.admits(est, v, slop(v))
                    } else {
                        (est - v).abs() <= budget * oracle.decayed_sum_of_squares(*t) + slop(v)
                    };
                    (v, ok)
                }
            };
            stats.queries += 1;
            if expected.abs() > 1e-9 {
                stats.max_rel_err = stats
                    .max_rel_err
                    .max((est - expected).abs() / expected.abs());
            }
            if !ok {
                return Err(Box::new(Failure {
                    backend: backend_name.to_string(),
                    scenario: scenario.name.clone(),
                    seed: scenario.seed,
                    query_time: *t,
                    expected,
                    got: est,
                    bound,
                }));
            }
        } else {
            apply_op(backend, op, cap);
            apply_op(oracle, op, cap);
        }
    }
    stats.final_storage_bits = backend.storage_bits();
    Ok(stats)
}

/// Distributed conformance (§6): deals `scenario` across `shards`
/// summaries round-robin, merges them back into one, and certifies the
/// merged answer against the oracle of the *whole* stream under the
/// merged summary's (widened) envelope.
///
/// The merged summary is queried at its **last observation tick** —
/// exercising the §2.1 at-tick exclusion *after* a merge, where stale
/// per-site at-tick state would corrupt the answer — and again strictly
/// after everything. `value_cap` clamps observed values on both sides
/// of the replay, exactly as in [`run_scenario`].
///
/// Generic rather than `dyn` because [`StreamAggregate::merge_from`]
/// requires `Self: Sized`.
pub fn certify_sharded<A, F, M>(
    make: F,
    oracle_decay: Box<dyn DecayFunction>,
    scenario: &Scenario,
    shards: usize,
    value_cap: Option<u64>,
    backend_name: &str,
    make_merge: M,
) -> Result<RunStats, Box<Failure>>
where
    A: StreamAggregate,
    F: Fn() -> A,
    M: Fn(&mut A, &A),
{
    assert!(shards >= 2, "sharded certification needs >= 2 shards");
    let cap = value_cap.unwrap_or(u64::MAX);
    let mut oracle: DynOracle = Oracle::new(oracle_decay);
    for op in &scenario.ops {
        apply_op(&mut oracle, op, cap);
    }

    let split = scenario.shard_split(shards);
    let mut parts: Vec<A> = (0..shards).map(|_| make()).collect();
    for (part, ops) in parts.iter_mut().zip(&split) {
        for op in ops {
            apply_op(part, op, cap);
        }
    }

    let mut merged = parts.remove(0);
    for p in &parts {
        make_merge(&mut merged, p);
    }

    // The merged summary's clock: shard_split mirrors every observation
    // tick to every shard as an `Advance`, so this is the latest
    // observe/advance time — queries (dropped by the split) excluded.
    let last_obs = scenario
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Observe(t, _) => Some(*t),
            Op::ObserveBatch(items) => items.last().map(|&(t, _)| t),
            Op::Advance(t) => Some(*t),
            Op::Query(_) => None,
        })
        .max();
    let mut query_times: Vec<Time> = Vec::new();
    if let Some(t) = last_obs {
        query_times.push(t);
    }
    query_times.push(scenario.max_time() + 7);

    let mut stats = RunStats {
        queries: 0,
        max_rel_err: 0.0,
        final_storage_bits: merged.storage_bits(),
    };
    for t in query_times {
        let est = merged.query(t);
        let bound = merged.error_bound();
        let expected = oracle.decayed_sum(t);
        if !bound.admits(est, expected, slop(expected)) {
            return Err(Box::new(Failure {
                backend: format!("{backend_name}[merged x{shards}]"),
                scenario: scenario.name.clone(),
                seed: scenario.seed,
                query_time: t,
                expected,
                got: est,
                bound,
            }));
        }
        stats.queries += 1;
        if expected.abs() > 1e-9 {
            stats.max_rel_err = stats
                .max_rel_err
                .max((est - expected).abs() / expected.abs());
        }
    }
    Ok(stats)
}

/// One backend × decay × truth-kind row of the conformance matrix.
pub struct MatrixCase {
    /// Display name (`backend/decay` convention).
    pub name: &'static str,
    /// What the backend's `query` estimates.
    pub truth: TruthKind,
    /// Clamp for observed values (restricted-domain backends).
    pub value_cap: Option<u64>,
    /// Skip scenarios mentioning times beyond this (backends built
    /// with a finite `max_age`).
    pub max_time: Option<Time>,
    make: Box<dyn Fn() -> (DynAggregate, DynOracle)>,
}

impl MatrixCase {
    /// A full-domain, unlimited-horizon decayed-sum case.
    pub fn sum(name: &'static str, make: impl Fn() -> (DynAggregate, DynOracle) + 'static) -> Self {
        MatrixCase {
            name,
            truth: TruthKind::Sum,
            value_cap: None,
            max_time: None,
            make: Box::new(make),
        }
    }

    /// Builder-style value clamp.
    pub fn with_value_cap(mut self, cap: u64) -> Self {
        self.value_cap = Some(cap);
        self
    }

    /// Builder-style horizon limit.
    pub fn with_max_time(mut self, t: Time) -> Self {
        self.max_time = Some(t);
        self
    }

    /// Builder-style truth kind.
    pub fn with_truth(mut self, truth: TruthKind) -> Self {
        self.truth = truth;
        self
    }

    /// A fresh `(backend, oracle)` pair.
    pub fn fresh(&self) -> (DynAggregate, DynOracle) {
        (self.make)()
    }

    /// Certifies one scenario, or `None` when the scenario's horizon
    /// exceeds this case's `max_time`.
    pub fn run(&self, scenario: &Scenario) -> Option<Result<RunStats, Box<Failure>>> {
        if let Some(limit) = self.max_time {
            if scenario.max_time() > limit {
                return None;
            }
        }
        let (mut backend, mut oracle) = self.fresh();
        Some(run_scenario(
            &mut *backend,
            &mut oracle,
            self.truth,
            self.value_cap,
            scenario,
            self.name,
        ))
    }
}

/// The default conformance matrix: every `StreamAggregate` backend in
/// the workspace paired with a decay it supports and the oracle of the
/// same decay. Horizons are capped only where the backend is built
/// with a finite `max_age`; domains only where the paper restricts
/// them (classic EH counts 0/1 items).
pub fn default_matrix() -> Vec<MatrixCase> {
    use td_aggregates::{DecayedAverage, DecayedVariance};
    use td_ceh::CascadedEh;
    use td_core::{BackendChoice, DecayedSum};
    use td_counters::{ExactDecayedSum, ExpCounter, PolyExpCounter, QuantizedExpCounter};
    use td_decay::{Constant, Exponential, LogDecay, PolyExponential, Polynomial, SlidingWindow};
    use td_eh::{ClassicEh, DominationEh};
    use td_forward::{
        ForwardDecayAverage, ForwardDecaySum, ForwardDecayVariance, DEFAULT_MAX_TIME,
    };
    use td_shard::ShardedAggregate;
    use td_wbmh::Wbmh;

    const WBMH_MAX_AGE: Time = 1 << 41;

    fn boxed<G: DecayFunction + 'static>(g: G) -> Box<dyn DecayFunction> {
        Box::new(g)
    }

    vec![
        // Exact store-nothing-lost baselines, one per decay family.
        MatrixCase::sum("exact/exp", || {
            (
                Box::new(ExactDecayedSum::new(boxed(Exponential::new(0.01)))),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
        MatrixCase::sum("exact/poly1", || {
            (
                Box::new(ExactDecayedSum::new(boxed(Polynomial::new(1.0)))),
                Oracle::new(boxed(Polynomial::new(1.0))),
            )
        }),
        MatrixCase::sum("exact/sliding256", || {
            (
                Box::new(ExactDecayedSum::new(boxed(SlidingWindow::new(256)))),
                Oracle::new(boxed(SlidingWindow::new(256))),
            )
        }),
        MatrixCase::sum("exact/log64", || {
            (
                Box::new(ExactDecayedSum::new(boxed(LogDecay::new(64)))),
                Oracle::new(boxed(LogDecay::new(64))),
            )
        }),
        // §3.1 exponential counters, exact and quantized.
        MatrixCase::sum("exp-counter", || {
            (
                Box::new(ExpCounter::new(Exponential::new(0.01))),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
        MatrixCase::sum("quantized-exp/m20", || {
            (
                Box::new(QuantizedExpCounter::new(Exponential::new(0.01), 20)),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
        // §3.4 pipelined counters under the matching polyexponential.
        MatrixCase::sum("polyexp-pipeline/k2", || {
            (
                Box::new(PolyExpCounter::new(2, 0.03)),
                Oracle::new(boxed(PolyExponential::new(2, 0.03))),
            )
        }),
        // Theorem 1 cascaded EH across decay families.
        MatrixCase::sum("ceh/exp", || {
            (
                Box::new(CascadedEh::new(boxed(Exponential::new(0.01)), 0.1)),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
        MatrixCase::sum("ceh/poly1", || {
            (
                Box::new(CascadedEh::new(boxed(Polynomial::new(1.0)), 0.1)),
                Oracle::new(boxed(Polynomial::new(1.0))),
            )
        }),
        MatrixCase::sum("ceh/sliding256", || {
            (
                Box::new(CascadedEh::new(boxed(SlidingWindow::new(256)), 0.1)),
                Oracle::new(boxed(SlidingWindow::new(256))),
            )
        }),
        // §5 WBMH (ratio-monotone decay), exact and approximate counts.
        MatrixCase::sum("wbmh/poly1", || {
            (
                Box::new(Wbmh::new(boxed(Polynomial::new(1.0)), 0.1, WBMH_MAX_AGE)),
                Oracle::new(boxed(Polynomial::new(1.0))),
            )
        })
        .with_max_time(WBMH_MAX_AGE / 2),
        MatrixCase::sum("wbmh/poly1-approx-counts", || {
            (
                Box::new(Wbmh::with_approx_counts(
                    boxed(Polynomial::new(1.0)),
                    0.1,
                    WBMH_MAX_AGE,
                    0.05,
                )),
                Oracle::new(boxed(Polynomial::new(1.0))),
            )
        })
        .with_max_time(WBMH_MAX_AGE / 2),
        // §3.2 exponential histograms as landmark counters (constant
        // decay): domination variant takes bulk mass, classic is 0/1.
        MatrixCase::sum("domination-eh/landmark", || {
            (
                Box::new(DominationEh::new(0.1, None)),
                Oracle::new(boxed(Constant)),
            )
        }),
        MatrixCase::sum("classic-eh/landmark", || {
            (
                Box::new(ClassicEh::new(0.1, None)),
                Oracle::new(boxed(Constant)),
            )
        })
        .with_value_cap(1),
        // The §8 dispatch facade: Auto picks the table's backend.
        MatrixCase::sum("core-auto/exp", || {
            (
                Box::new(
                    DecayedSum::builder(Exponential::new(0.01))
                        .epsilon(0.1)
                        .backend(BackendChoice::Auto)
                        .build(),
                ),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
        MatrixCase::sum("core-auto/poly1", || {
            (
                Box::new(
                    DecayedSum::builder(Polynomial::new(1.0))
                        .epsilon(0.1)
                        .backend(BackendChoice::Auto)
                        .build(),
                ),
                Oracle::new(boxed(Polynomial::new(1.0))),
            )
        }),
        MatrixCase::sum("core-auto/sliding256", || {
            (
                Box::new(
                    DecayedSum::builder(SlidingWindow::new(256))
                        .epsilon(0.1)
                        .backend(BackendChoice::Auto)
                        .build(),
                ),
                Oracle::new(boxed(SlidingWindow::new(256))),
            )
        }),
        // §7 compound aggregates: ratio (average) and three-sums
        // reduction (variance).
        MatrixCase::sum("average/ceh-poly2", || {
            (
                Box::new(DecayedAverage::ceh(Polynomial::new(2.0), 0.05)),
                Oracle::new(boxed(Polynomial::new(2.0))),
            )
        })
        .with_truth(TruthKind::Average),
        MatrixCase::sum("variance/ceh-sliding512", || {
            (
                Box::new(DecayedVariance::ceh(SlidingWindow::new(512), 0.05)),
                Oracle::new(boxed(SlidingWindow::new(512))),
            )
        })
        .with_truth(TruthKind::Variance { budget: 0.5 }),
        // The td-shard engine: three worker shards fed round-robin,
        // each query answered as the sum of the shards' answers.
        // Concrete (unboxed) decays — the backends must be `Send` to
        // cross into the worker threads. The certifier replays these
        // exactly like any single-threaded backend; the envelope it
        // checks against is the widest of the shards' own envelopes
        // (one shard's ε — no merge fan-in band, since nothing is
        // merged).
        MatrixCase::sum("sharded-exp-counter/x3", || {
            (
                Box::new(ShardedAggregate::new(3, || {
                    ExpCounter::new(Exponential::new(0.01))
                })),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
        MatrixCase::sum("sharded-ceh/exp-x3", || {
            (
                Box::new(ShardedAggregate::new(3, || {
                    CascadedEh::new(Exponential::new(0.01), 0.1)
                })),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
        MatrixCase::sum("sharded-wbmh/poly1-x3", || {
            (
                Box::new(ShardedAggregate::new(3, || {
                    Wbmh::new(Polynomial::new(1.0), 0.1, WBMH_MAX_AGE)
                })),
                Oracle::new(boxed(Polynomial::new(1.0))),
            )
        })
        .with_max_time(WBMH_MAX_AGE / 2),
        // The td-forward family (ISSUE 8): O(1)-state moment
        // accumulators under the forward decay model. For exponential
        // decay forward ≡ backward, so those cases certify against the
        // ordinary backward oracle — including one with the rotation
        // threshold forced low enough that landmark rotations fire
        // inside tier-1 scenarios. Non-exponential decays are a
        // genuinely different model and certify against the oracle's
        // forward mode (`Oracle::forward`); their fixed landmark is
        // headroom-checked at `DEFAULT_MAX_TIME`, so scenarios beyond
        // that horizon are skipped.
        MatrixCase::sum("forward-sum/exp", || {
            (
                Box::new(ForwardDecaySum::new(Exponential::new(0.01))),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
        MatrixCase::sum("forward-sum/exp-rotating", || {
            (
                Box::new(ForwardDecaySum::new(Exponential::new(0.01)).with_rotation_exponent(2.0)),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
        MatrixCase::sum("forward-sum/poly1", || {
            (
                Box::new(ForwardDecaySum::new(Polynomial::new(1.0))),
                Oracle::forward(boxed(Polynomial::new(1.0)), 0),
            )
        })
        .with_max_time(DEFAULT_MAX_TIME),
        MatrixCase::sum("forward-sum/log64", || {
            (
                Box::new(ForwardDecaySum::new(LogDecay::new(64))),
                Oracle::forward(boxed(LogDecay::new(64)), 0),
            )
        })
        .with_max_time(DEFAULT_MAX_TIME),
        MatrixCase::sum("forward-average/poly2", || {
            (
                Box::new(ForwardDecayAverage::new(Polynomial::new(2.0))),
                Oracle::forward(boxed(Polynomial::new(2.0)), 0),
            )
        })
        .with_truth(TruthKind::Average)
        .with_max_time(DEFAULT_MAX_TIME),
        MatrixCase::sum("forward-variance/poly1", || {
            (
                Box::new(ForwardDecayVariance::new(Polynomial::new(1.0))),
                Oracle::forward(boxed(Polynomial::new(1.0)), 0),
            )
        })
        .with_truth(TruthKind::Variance { budget: 1e-6 })
        .with_max_time(DEFAULT_MAX_TIME),
        MatrixCase::sum("sharded-forward/exp-x3", || {
            (
                Box::new(ShardedAggregate::new(3, || {
                    ForwardDecaySum::new(Exponential::new(0.01))
                })),
                Oracle::new(boxed(Exponential::new(0.01))),
            )
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use td_decay::Exponential;

    #[test]
    fn failure_display_is_replayable() {
        let f = Failure {
            backend: "ceh/exp".into(),
            scenario: "bursty".into(),
            seed: 0xBEEF,
            query_time: 321,
            expected: 10.0,
            got: 20.0,
            bound: ErrorBound::symmetric(0.1),
        };
        let msg = f.to_string();
        for needle in ["ceh/exp", "bursty", "0xbeef", "321"] {
            assert!(msg.contains(needle), "missing `{needle}` in: {msg}");
        }
    }

    #[test]
    fn oracle_certifies_against_itself() {
        let sc = scenario::uniform(11, 200);
        let mut backend: DynOracle = Oracle::new(Box::new(Exponential::new(0.02)));
        let mut oracle: DynOracle = Oracle::new(Box::new(Exponential::new(0.02)));
        let stats = run_scenario(
            &mut backend,
            &mut oracle,
            TruthKind::Sum,
            None,
            &sc,
            "oracle",
        )
        .expect("oracle vs oracle must certify");
        assert!(stats.queries > 0);
        assert!(stats.max_rel_err < 1e-12);
    }

    #[test]
    fn certifier_catches_a_broken_backend() {
        // A deliberately wrong backend: doubles every value.
        struct Doubler(DynOracle);
        impl td_decay::storage::StorageAccounting for Doubler {
            fn storage_bits(&self) -> u64 {
                self.0.storage_bits()
            }
        }
        impl StreamAggregate for Doubler {
            fn observe(&mut self, t: Time, f: u64) {
                self.0.observe(t, f * 2);
            }
            fn advance(&mut self, t: Time) {
                StreamAggregate::advance(&mut self.0, t);
            }
            fn query(&self, t: Time) -> f64 {
                self.0.query(t)
            }
            fn merge_from(&mut self, _other: &Self) {
                unimplemented!()
            }
            fn error_bound(&self) -> ErrorBound {
                ErrorBound::symmetric(0.1)
            }
        }

        let sc = scenario::uniform(5, 100);
        let mut backend = Doubler(Oracle::new(Box::new(Exponential::new(0.02))));
        let mut oracle: DynOracle = Oracle::new(Box::new(Exponential::new(0.02)));
        let err = run_scenario(
            &mut backend,
            &mut oracle,
            TruthKind::Sum,
            None,
            &sc,
            "doubler",
        )
        .expect_err("a 2x-wrong backend must fail certification");
        assert_eq!(err.seed, 5);
        assert_eq!(err.scenario, "uniform");
        assert!(err.got > err.expected * 1.5);
    }
}
