//! RED-style congestion estimation (paper §1.1): smooth a router
//! queue-length signal with a time-decaying average and derive a drop
//! probability from it.
//!
//! ```sh
//! cargo run --example red_congestion
//! ```

use td_stream::QueueWalk;
use timedecay::{DecayedAverage, Exponential, Polynomial, StreamAggregate};

fn drop_probability(avg_queue: f64, min_th: f64, max_th: f64, max_p: f64) -> f64 {
    // The classic RED ramp.
    if avg_queue < min_th {
        0.0
    } else if avg_queue >= max_th {
        1.0
    } else {
        max_p * (avg_queue - min_th) / (max_th - min_th)
    }
}

fn main() {
    // RED's published design uses an EWMA of the instantaneous queue;
    // the paper's point is that the decay family is a free parameter.
    // We run the same controller with both EXPD and POLYD smoothing.
    let mut ewma = DecayedAverage::ceh(Exponential::new(1.0 / 50.0), 0.05);
    let mut poly = DecayedAverage::wbmh(Polynomial::new(1.5), 0.05, 1 << 22);

    let (min_th, max_th, max_p) = (40.0, 160.0, 0.1);
    println!("RED congestion controller over a bursty queue walk");
    println!("(avg queue -> drop probability; min_th={min_th}, max_th={max_th})\n");
    println!(
        "{:>6}  {:>9}  {:>10} {:>8}  {:>10} {:>8}",
        "tick", "queue", "EXPD avg", "p_drop", "POLYD avg", "p_drop"
    );

    for (t, q) in QueueWalk::new(400, 0.004, 0.03, 2024).take(20_000) {
        ewma.observe(t, q);
        poly.observe(t, q);
        if t % 2_000 == 0 {
            let a_e = ewma.query(t + 1).unwrap_or(0.0);
            let a_p = poly.query(t + 1).unwrap_or(0.0);
            println!(
                "{t:>6}  {q:>9}  {a_e:>10.2} {:>8.3}  {a_p:>10.2} {:>8.3}",
                drop_probability(a_e, min_th, max_th, max_p),
                drop_probability(a_p, min_th, max_th, max_p),
            );
        }
    }

    println!("\nThe polynomial average reacts to bursts like the EWMA but keeps a");
    println!("longer institutional memory of past congestion episodes — useful when");
    println!("provisioning decisions should remember last week's incident, not just");
    println!("the last few minutes.");
}
