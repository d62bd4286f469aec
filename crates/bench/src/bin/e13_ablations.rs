//! E13 — ablations over the design choices DESIGN.md calls out:
//!
//! 1. bucket-weighting estimators (paper's end-time rule vs midpoint /
//!    geometric variants);
//! 2. WBMH count mode (exact vs the §5 approximate-counter ladder);
//! 3. EH variant (classic powers-of-two vs domination rule);
//! 4. quantized bucket ages (the §5 closing remark) — accuracy vs
//!    boundary storage;
//! 5. distributed merging — one histogram vs k merged site histograms.

use td_bench::Table;
use td_ceh::{CascadedEh, CehEstimator};
use td_core::{StorageAccounting, StreamAggregate};
use td_counters::ExactDecayedSum;
use td_decay::Polynomial;
use td_eh::{ClassicEh, DominationEh, WindowSketch};
use td_stream::BernoulliStream;
use td_wbmh::{Wbmh, WbmhEstimator};

fn main() {
    let n = 50_000u64;
    let g = Polynomial::new(1.0);
    let eps = 0.1;
    println!("E13: design-choice ablations (POLYD(1), eps={eps}, N={n})\n");

    // Shared stream + ground truth.
    let stream: Vec<(u64, u64)> = BernoulliStream::new(0.5, 77)
        .take(n as usize)
        .map(|(t, f)| (t, f * (1 + t % 3)))
        .collect();
    let mut exact = ExactDecayedSum::new(g);
    for &(t, f) in &stream {
        exact.observe(t, f);
    }
    let truth = exact.query(n + 1);

    // 1. Estimators.
    println!("-- 1. bucket-weighting estimators --");
    let mut ceh = CascadedEh::new(g, eps);
    let mut wbmh = Wbmh::new(g, eps, 1 << 24);
    for &(t, f) in &stream {
        ceh.observe(t, f);
        wbmh.observe(t, f);
    }
    wbmh.advance(n + 1);
    let mut t1 = Table::new(&["structure", "estimator", "rel err (signed)"]);
    let rel = |est: f64| (est - truth) / truth;
    t1.row(&[
        "ceh".into(),
        "paper (end time)".into(),
        format!("{:+.4}", rel(ceh.query_with(n + 1, CehEstimator::Paper))),
    ]);
    t1.row(&[
        "ceh".into(),
        "midpoint".into(),
        format!("{:+.4}", rel(ceh.query_with(n + 1, CehEstimator::Midpoint))),
    ]);
    t1.row(&[
        "wbmh".into(),
        "paper (end time)".into(),
        format!("{:+.4}", rel(wbmh.query_with(n + 1, WbmhEstimator::Paper))),
    ]);
    t1.row(&[
        "wbmh".into(),
        "geometric mean".into(),
        format!(
            "{:+.4}",
            rel(wbmh.query_with(n + 1, WbmhEstimator::Geometric))
        ),
    ]);
    t1.print();
    println!("(paper rule: one-sided overestimate; variants: two-sided, smaller)\n");

    // 2. WBMH count modes.
    println!("-- 2. WBMH count mode (Lemma 5.1's ladder) --");
    let mut w_apx = Wbmh::with_approx_counts(g, eps, 1 << 24, eps);
    for &(t, f) in &stream {
        w_apx.observe(t, f);
    }
    w_apx.advance(n + 1);
    let mut t2 = Table::new(&["counts", "rel err (signed)", "bits"]);
    t2.row(&[
        "exact".into(),
        format!("{:+.4}", rel(wbmh.query(n + 1))),
        wbmh.storage_bits().to_string(),
    ]);
    t2.row(&[
        "approx ladder".into(),
        format!("{:+.4}", rel(w_apx.query(n + 1))),
        w_apx.storage_bits().to_string(),
    ]);
    t2.print();
    println!("(the ladder trades a bounded extra error for the log log N bit budget)\n");

    // 3. EH variants (0/1 stream for the classic structure).
    println!("-- 3. EH variants on a 0/1 stream --");
    let mut classic = ClassicEh::new(eps, None);
    let mut dom = DominationEh::new(eps, None);
    let mut ones = Vec::new();
    for (t, f) in BernoulliStream::new(0.5, 78).take(n as usize) {
        classic.observe(t, f);
        dom.observe(t, f);
        if f == 1 {
            ones.push(t);
        }
    }
    let mut t3 = Table::new(&["variant", "buckets", "bits", "max window err"]);
    for (name, buckets, bits, q) in [
        (
            "classic (powers of 2)",
            classic.num_buckets(),
            classic.storage_bits(),
            &classic as &dyn WindowSketch,
        ),
        (
            "domination rule",
            dom.num_buckets(),
            dom.storage_bits(),
            &dom as &dyn WindowSketch,
        ),
    ] {
        let mut max_err: f64 = 0.0;
        let mut w = 8u64;
        while w < n {
            let tw: f64 = ones.iter().filter(|&&t| t >= n + 1 - w).count() as f64;
            if tw > 0.0 {
                max_err = max_err.max((q.query_window(n + 1, w) - tw).abs() / tw);
            }
            w *= 2;
        }
        t3.row(&[
            name.into(),
            buckets.to_string(),
            bits.to_string(),
            format!("{max_err:.4}"),
        ]);
    }
    t3.print();
    println!("(same guarantees; the domination rule additionally takes bulk values)\n");

    // 4. Quantized bucket ages (§5 closing remark).
    println!("-- 4. quantized bucket ages (boundary bits vs accuracy) --");
    let mut t4 = Table::new(&[
        "delta",
        "rel err (signed)",
        "boundary-quantized bits",
        "full bits",
    ]);
    for delta in [0.05, 0.25, 1.0] {
        t4.row(&[
            delta.to_string(),
            format!("{:+.4}", rel(ceh.query_quantized(n + 1, delta))),
            ceh.quantized_boundary_bits(delta, 1 << 40).to_string(),
            ceh.storage_bits().to_string(),
        ]);
    }
    t4.print();
    println!("(error grows like (1+delta)^alpha while boundary bits shrink)\n");

    // 5. Distributed merging.
    println!("-- 5. one histogram vs k merged site histograms --");
    let mut t5 = Table::new(&["k sites", "rel err (signed)", "buckets after merge"]);
    for k in [1usize, 2, 4, 8] {
        let mut sites: Vec<Wbmh<Polynomial>> = (0..k).map(|_| Wbmh::new(g, eps, 1 << 24)).collect();
        for (i, &(t, f)) in stream.iter().enumerate() {
            for (j, site) in sites.iter_mut().enumerate() {
                if i % k == j {
                    site.observe(t, f);
                } else {
                    site.advance(t);
                }
            }
        }
        for site in sites.iter_mut() {
            site.advance(n + 1);
        }
        let mut merged = sites.remove(0);
        for site in &sites {
            merged.merge_from(site);
        }
        t5.row(&[
            k.to_string(),
            format!("{:+.4}", rel(merged.query(n + 1))),
            merged.num_buckets().to_string(),
        ]);
    }
    t5.print();
    println!("(WBMH merging keeps the single-histogram band at any k)");
}
