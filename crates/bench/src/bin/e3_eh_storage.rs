//! E3 — the Exponential Histogram substrate (\[9\], paper §4.1): bucket
//! count O(ε⁻¹ log N), storage O(ε⁻¹ log² N), observed error ≤ ε.

use td_bench::{fit_vs_log_n, Table};
use td_core::{StorageAccounting, StreamAggregate};
use td_eh::{ClassicEh, WindowSketch};
use td_stream::BernoulliStream;

fn main() {
    println!("E3: Exponential Histogram storage & accuracy ([9], used by Theorem 1)\n");

    let mut table = Table::new(&["epsilon", "N", "buckets", "bits", "max win err", "<= eps"]);
    let mut per_eps_fit = Table::new(&["epsilon", "bits ~ (log2 N)^e", "R^2"]);
    for eps in [0.5, 0.1, 0.05, 0.01] {
        let mut ns = Vec::new();
        let mut bits = Vec::new();
        for exp in [10u32, 12, 14, 16, 18, 20] {
            let n = 1u64 << exp;
            let mut eh = ClassicEh::new(eps, None);
            let mut ones: Vec<u64> = Vec::new();
            for (t, f) in BernoulliStream::new(0.4, 99).take(n as usize) {
                eh.observe(t, f);
                if f == 1 {
                    ones.push(t);
                }
            }
            // Max relative error over a sweep of windows.
            let mut max_err: f64 = 0.0;
            let mut w = 4u64;
            while w < n {
                let truth = ones.iter().filter(|&&t| t >= n + 1 - w).count() as f64;
                if truth > 0.0 {
                    let est = eh.query_window(n + 1, w);
                    max_err = max_err.max((est - truth).abs() / truth);
                }
                w *= 2;
            }
            table.row(&[
                eps.to_string(),
                n.to_string(),
                eh.num_buckets().to_string(),
                eh.storage_bits().to_string(),
                format!("{max_err:.3}"),
                (max_err <= eps).to_string(),
            ]);
            ns.push(n);
            bits.push(eh.storage_bits());
        }
        let fit = fit_vs_log_n(&ns, &bits);
        per_eps_fit.row(&[
            eps.to_string(),
            format!("{:.2}", fit.exponent),
            format!("{:.3}", fit.r_squared),
        ]);
    }
    table.print();
    println!("\nGrowth fits (paper: storage = Θ(ε⁻¹ log² N) → exponent ~2):");
    per_eps_fit.print();
}
