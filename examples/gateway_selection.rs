//! Internet gateway selection (paper §1.1): score multiple upstream
//! paths by time-decaying loss statistics and route over the best one.
//!
//! ```sh
//! cargo run --example gateway_selection
//! ```

use td_stream::BurstyStream;
use timedecay::{DecayedAverage, DecayedVariance, Polynomial, StorageAccounting, StreamAggregate};

struct Gateway {
    name: &'static str,
    /// Per-tick loss indicator stream (1 = probe lost).
    losses: Box<dyn Iterator<Item = (u64, u64)>>,
    /// Decayed loss rate (polynomial decay: remembers chronic offenders).
    loss_rate: DecayedAverage<timedecay::Wbmh<Polynomial>>,
    /// Decayed latency variance (jitter) from a synthetic RTT stream.
    jitter: DecayedVariance<timedecay::CascadedEh<Polynomial>>,
    rtt_state: u64,
}

impl Gateway {
    fn new(name: &'static str, p_fail_start: f64, p_fail_stop: f64, seed: u64) -> Self {
        Self {
            name,
            losses: Box::new(BurstyStream::new(p_fail_start, p_fail_stop, seed)),
            loss_rate: DecayedAverage::wbmh(Polynomial::new(1.0), 0.05, 1 << 24),
            jitter: DecayedVariance::ceh(Polynomial::new(1.0), 0.05),
            rtt_state: seed,
        }
    }

    fn step(&mut self) -> u64 {
        let (t, lost) = self.losses.next().expect("infinite stream");
        self.loss_rate.observe(t, lost);
        // Synthetic RTT: base 20ms, inflated during loss episodes.
        self.rtt_state ^= self.rtt_state << 13;
        self.rtt_state ^= self.rtt_state >> 7;
        self.rtt_state ^= self.rtt_state << 17;
        let rtt = 20 + self.rtt_state % 8 + lost * (30 + self.rtt_state % 50);
        self.jitter.observe(t, rtt);
        t
    }

    /// Composite badness score: decayed loss rate plus normalized jitter.
    fn score(&self, t: u64) -> f64 {
        let loss = self.loss_rate.query(t).unwrap_or(0.0);
        let jitter = self.jitter.std_dev(t).unwrap_or(0.0);
        loss + jitter / 200.0
    }
}

fn main() {
    // Three gateways with different failure personalities:
    //  - "stable"   : rare, short outages
    //  - "flaky"    : frequent short glitches
    //  - "episodic" : rare but long outages
    let mut gws = [
        Gateway::new("stable", 0.0005, 0.20, 11),
        Gateway::new("flaky", 0.0100, 0.30, 22),
        Gateway::new("episodic", 0.0008, 0.01, 33),
    ];

    println!("gateway selection by decayed loss + jitter (POLYD memory)\n");
    println!(
        "{:>7}  {:>10} {:>10} {:>10}   chosen",
        "tick", "stable", "flaky", "episodic"
    );

    let mut chosen_counts = [0u32; 3];
    let horizon = 60_000u64;
    for step in 1..=horizon {
        let mut t_now = 0;
        for gw in gws.iter_mut() {
            t_now = gw.step();
        }
        if step % 6_000 == 0 {
            let scores: Vec<f64> = gws.iter().map(|g| g.score(t_now + 1)).collect();
            let best = scores
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
                .map(|(i, _)| i)
                .expect("non-empty");
            chosen_counts[best] += 1;
            println!(
                "{:>7}  {:>10.4} {:>10.4} {:>10.4}   {}",
                step, scores[0], scores[1], scores[2], gws[best].name
            );
        }
    }

    println!("\nselections: ");
    for (i, gw) in gws.iter().enumerate() {
        println!(
            "  {:<9} chosen {:>2}x   (summary storage: {} bits)",
            gw.name,
            chosen_counts[i],
            gw.loss_rate.storage_bits() + gw.jitter.storage_bits()
        );
    }
    println!(
        "\nEach gateway's entire scoring state is a few thousand bits of decayed\n\
         summaries — the per-customer budget the paper's AT&T application (§1.1)\n\
         cares about."
    );
}
