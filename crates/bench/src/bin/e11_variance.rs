//! E11 — §7.3: time-decaying variance via the three-sums reduction,
//! including the documented cancellation regime.

use td_aggregates::DecayedVariance;
use td_bench::Table;
use td_decay::{DecayFunction, Polynomial, SlidingWindow, StreamAggregate, Time};
use td_stream::UniformValues;

fn exact_variance<G: DecayFunction>(g: &G, items: &[(Time, u64)], t: Time) -> f64 {
    let (mut w, mut s) = (0.0, 0.0);
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

fn run<G: DecayFunction + Clone>(name: &str, g: G, lo: u64, hi: u64, table: &mut Table) {
    let n = 5_000u64;
    let items: Vec<(Time, u64)> = UniformValues::new(lo, hi, 17).take(n as usize).collect();
    let mut v = DecayedVariance::ceh(g.clone(), 0.05);
    for &(t, f) in &items {
        v.observe(t, f);
    }
    let est = v.query(n + 1).expect("non-empty");
    let truth = exact_variance(&g, &items, n + 1);
    // Cancellation indicator: second moment over variance.
    let mean = items.iter().map(|&(_, f)| f as f64).sum::<f64>() / n as f64;
    let spread = (hi - lo) as f64 / (2.0 * mean.max(1.0));
    table.row(&[
        name.to_string(),
        format!("[{lo},{hi}]"),
        format!("{spread:.3}"),
        format!("{truth:.3e}"),
        format!("{est:.3e}"),
        format!("{:.3}", (est - truth).abs() / truth.max(1e-12)),
    ]);
}

fn main() {
    println!("E11: decayed variance via three decayed sums (§7.3)");
    println!("relative error degrades as values concentrate (the documented");
    println!("cancellation regime V << A^2*W; the paper defers the sharp fix to [4])\n");
    let mut table = Table::new(&[
        "decay",
        "value range",
        "rel spread",
        "exact V",
        "estimated V",
        "rel err",
    ]);
    // Well-spread values: solid estimates.
    run(
        "SLIWIN(1000)",
        SlidingWindow::new(1_000),
        0,
        100,
        &mut table,
    );
    run("POLYD(1)", Polynomial::new(1.0), 0, 100, &mut table);
    // Progressively concentrated values: cancellation bites.
    run(
        "SLIWIN(1000)",
        SlidingWindow::new(1_000),
        450,
        550,
        &mut table,
    );
    run(
        "SLIWIN(1000)",
        SlidingWindow::new(1_000),
        490,
        510,
        &mut table,
    );
    run(
        "SLIWIN(1000)",
        SlidingWindow::new(1_000),
        499,
        501,
        &mut table,
    );
    table.print();
}
