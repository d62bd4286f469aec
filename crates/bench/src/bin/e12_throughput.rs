//! E12 — update/query cost of every backend (the §4.2 amortized-cost
//! claims, in wall-clock form), plus the single-item vs batched ingest
//! comparison on a bursty stream. Criterion micro-benches give the
//! rigorous numbers (`cargo bench -p td-bench`); this binary prints a
//! one-page summary and writes `BENCH_throughput.json`.

use std::time::Instant;

use td_bench::{Section, Table};
use td_ceh::CascadedEh;
use td_counters::{ExactDecayedSum, ExpCounter, PolyExpCounter, QuantizedExpCounter};
use td_decay::{
    DecayFunction, Exponential, PolyExponential, Polynomial, StorageAccounting, StreamAggregate,
};
use td_forward::ForwardDecaySum;
use td_stream::BernoulliStream;
use td_wbmh::Wbmh;

fn main() {
    println!("E12: backend throughput, 1e6-tick Bernoulli(0.5) stream\n");
    let n = 1_000_000u64;
    let stream: Vec<(u64, u64)> = BernoulliStream::new(0.5, 4).take(n as usize).collect();

    let mut table = Table::new(&["backend", "decay", "update ns/op", "query ns/op"]);

    // EXPD counter.
    {
        let mut c = ExpCounter::new(Exponential::new(0.001));
        let t0 = Instant::now();
        for &(t, f) in &stream {
            c.observe(t, f);
        }
        let upd = t0.elapsed().as_nanos() as f64 / n as f64;
        let t0 = Instant::now();
        let mut acc = 0.0;
        for q in 0..10_000u64 {
            acc += c.query(n + 1 + q % 8);
        }
        let qry = t0.elapsed().as_nanos() as f64 / 10_000.0;
        std::hint::black_box(acc);
        table.row(&[
            "exp-counter".into(),
            "EXPD(0.001)".into(),
            format!("{upd:.0}"),
            format!("{qry:.0}"),
        ]);
    }

    // Cascaded EH.
    {
        let mut c = CascadedEh::new(Polynomial::new(1.0), 0.05);
        let t0 = Instant::now();
        for &(t, f) in &stream {
            c.observe(t, f);
        }
        let upd = t0.elapsed().as_nanos() as f64 / n as f64;
        let t0 = Instant::now();
        let mut acc = 0.0;
        for q in 0..10_000u64 {
            acc += c.query(n + 1 + q % 8);
        }
        let qry = t0.elapsed().as_nanos() as f64 / 10_000.0;
        std::hint::black_box(acc);
        table.row(&[
            "ceh".into(),
            "POLYD(1)".into(),
            format!("{upd:.0}"),
            format!("{qry:.0}"),
        ]);
    }

    // WBMH.
    {
        let mut w = Wbmh::new(Polynomial::new(1.0), 0.05, 1 << 24);
        let t0 = Instant::now();
        for &(t, f) in &stream {
            w.observe(t, f);
        }
        let upd = t0.elapsed().as_nanos() as f64 / n as f64;
        let t0 = Instant::now();
        let mut acc = 0.0;
        for q in 0..10_000u64 {
            acc += w.query(n + 1 + q % 8);
        }
        let qry = t0.elapsed().as_nanos() as f64 / 10_000.0;
        std::hint::black_box(acc);
        table.row(&[
            "wbmh".into(),
            "POLYD(1)".into(),
            format!("{upd:.0}"),
            format!("{qry:.0}"),
        ]);
    }

    // Exact baseline (update cheap; query is the O(n) pass).
    {
        let mut e = ExactDecayedSum::new(Polynomial::new(1.0));
        let t0 = Instant::now();
        for &(t, f) in &stream {
            e.observe(t, f);
        }
        let upd = t0.elapsed().as_nanos() as f64 / n as f64;
        let t0 = Instant::now();
        let mut acc = 0.0;
        for q in 0..20u64 {
            acc += e.query(n + 1 + q % 8);
        }
        let qry = t0.elapsed().as_nanos() as f64 / 20.0;
        std::hint::black_box(acc);
        table.row(&[
            "exact".into(),
            "POLYD(1)".into(),
            format!("{upd:.0}"),
            format!("{qry:.0}"),
        ]);
    }

    table.print();
    println!(
        "\n(updates for all summaries are amortized O(1)-ish; the exact baseline's \
         query scans every live item — the cost the summaries exist to avoid)"
    );

    let kernel_rows = kernel_speedups();
    let reorder_rows = reorder_overhead();
    let forward_rows = forward_vs_backward();
    batched_vs_single(&kernel_rows, &reorder_rows, &forward_rows);
}

/// ISSUE 8: forward decay vs the backward histograms, refereed per
/// decay family. The forward moment accumulators pay O(1) straight-line
/// FMA ingest for *any* decay function; the backward histograms pay
/// bucket maintenance. The gate makes the headline claim
/// self-enforcing: forward batched ingest must beat the fastest
/// backward histogram champion under both exponential and polynomial
/// decay (CEH is the exp champion; CEH and WBMH contest poly).
/// `TD_FORWARD_GATE_SLACK` widens the gate on noisy shared runners.
fn forward_vs_backward() -> Vec<(String, f64, f64, u64)> {
    let items = bursty_items(1_000_000);
    let exp = Exponential::new(0.001);
    let poly = Polynomial::new(1.0);

    fn measure_sized<A: StreamAggregate + StorageAccounting>(
        name: &str,
        items: &[(u64, u64)],
        make: impl Fn() -> A,
    ) -> (String, f64, f64, u64) {
        let (name, single_ns, batched_ns) = measure(name, items, &make);
        let mut b = make();
        for chunk in items.chunks(4096) {
            b.observe_batch(chunk);
        }
        (name, single_ns, batched_ns, b.storage_bits())
    }

    let exp_rows = vec![
        measure_sized("forward-sum/expd", &items, || ForwardDecaySum::new(exp)),
        measure_sized("ceh/expd", &items, || CascadedEh::new(exp, 0.05)),
    ];
    let poly_rows = vec![
        measure_sized("forward-sum/poly1", &items, || ForwardDecaySum::new(poly)),
        measure_sized("ceh/poly1", &items, || CascadedEh::new(poly, 0.05)),
        measure_sized("wbmh/poly1", &items, || Wbmh::new(poly, 0.05, 1 << 24)),
    ];

    let mut sec = Section::new(
        "Forward vs backward decay: same bursty stream, per decay family \
         (first row per family is the forward accumulator)",
        &[
            "backend",
            "single ns/item",
            "batched ns/item",
            "speedup",
            "storage bits",
        ],
    );
    for (name, single_ns, batched_ns, bits) in exp_rows.iter().chain(&poly_rows) {
        sec.row(&[
            name.clone(),
            format!("{single_ns:.1}"),
            format!("{batched_ns:.1}"),
            format!("{:.2}x", single_ns / batched_ns),
            bits.to_string(),
        ]);
    }
    sec.print();

    let slack: f64 = std::env::var("TD_FORWARD_GATE_SLACK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    for (family, rows) in [("expd", &exp_rows), ("poly1", &poly_rows)] {
        let fwd = &rows[0];
        let champ = rows[1..]
            .iter()
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("every family has a backward champion");
        assert!(
            fwd.2 <= champ.2 * slack,
            "forward ingest lost the {family} referee: {:.2} ns/item vs backward \
             champion {} at {:.2} (slack {slack:.2}; set TD_FORWARD_GATE_SLACK to widen)",
            fwd.2,
            champ.0,
            champ.2,
        );
    }
    println!("\nforward-vs-backward gate passed (slack {slack:.2})");

    exp_rows.into_iter().chain(poly_rows).collect()
}

/// The bounded-lateness stage's ingest overhead. With
/// `allowed_lateness = 0` and an in-order batched feed, `push_batch`
/// takes its fast path (no buffering; for this per-item backend, a
/// fused observe loop with the monotonicity compare folded in) and must
/// stay within 1.10× of raw batched ingest — self-enforced below, with
/// `TD_REORDER_OVERHEAD_SLACK` to widen on shared runners. Nonzero
/// bounds buffer every item: at `lateness=64` each push appends to a
/// tick-wheel slot, gated at ≤ 8× raw batched ingest. The
/// `lateness=65536` row is fed one item per tick in a seeded shuffle
/// within the bound, so most items land beyond the 4096-slot ring in the
/// stage's `far` heap; its raw column is the same items in sorted
/// order. That row is measured for the table/JSON but ungated.
fn reorder_overhead() -> Vec<(String, f64, f64, f64)> {
    use td_reorder::{LatenessPolicy, Reorderer};

    const WHEEL_GATE: f64 = 8.0;
    const FAR_LATENESS: u64 = 65536;
    let exp = Exponential::new(0.001);
    let bursty = bursty_items(1_000_000);
    let one_per_tick: Vec<(u64, u64)> = (1..=1_000_000u64).map(|t| (t, t % 8)).collect();
    let shuffled = shuffle_within(&one_per_tick, FAR_LATENESS);
    // (label suffix, sorted feed, arrival order, bounds)
    let feeds = [
        ("", &bursty[..], &bursty[..], &[0, 64][..]),
        (
            " shuffled",
            &one_per_tick[..],
            &shuffled[..],
            &[FAR_LATENESS][..],
        ),
    ];

    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for (suffix, sorted, arrivals, bounds) in feeds {
        let t_end = sorted.last().map(|&(t, _)| t).unwrap_or(1) + 1;
        // Interleave raw and staged reps (unlike `measure`, every path
        // here allocates only counter-sized state, so there is no
        // alternating allocation churn) — the gated quantity is a
        // within-run *ratio*, and pairing the reps keeps slow drift out
        // of it.
        let mut raw_ns = f64::INFINITY;
        let mut staged_ns = vec![f64::INFINITY; bounds.len()];
        for _ in 0..7 {
            let mut eng = ExpCounter::new(exp);
            raw_ns = raw_ns.min(time_ns_per_item(sorted.len(), || {
                for chunk in sorted.chunks(4096) {
                    eng.observe_batch(chunk);
                }
            }));
            let raw_answer = eng.query(t_end);
            for (i, &lateness) in bounds.iter().enumerate() {
                let mut r = Reorderer::new(
                    ExpCounter::new(exp),
                    Box::new(exp),
                    lateness,
                    LatenessPolicy::Reject,
                );
                staged_ns[i] = staged_ns[i].min(time_ns_per_item(arrivals.len(), || {
                    for chunk in arrivals.chunks(4096) {
                        r.push_batch(0, chunk)
                            .expect("a feed shuffled within the bound is never late");
                    }
                }));
                r.flush();
                let got = r.query(t_end);
                assert!(
                    (got - raw_answer).abs() <= 1e-9 * raw_answer.abs().max(1.0),
                    "reorder-fronted ingest diverged at lateness={lateness}: \
                     {got} vs raw {raw_answer}"
                );
            }
        }
        rows.extend(
            bounds
                .iter()
                .zip(staged_ns)
                .map(|(&l, ns)| (format!("lateness={l}{suffix}"), raw_ns, ns, ns / raw_ns)),
        );
    }

    let mut sec = Section::new(
        "Reorder-stage overhead vs raw batched ingest (exp-counter, same items sorted)",
        &["stage", "raw ns/item", "staged ns/item", "overhead"],
    );
    for (name, raw, ns, over) in &rows {
        sec.row(&[
            name.clone(),
            format!("{raw:.1}"),
            format!("{ns:.1}"),
            format!("{over:.2}x"),
        ]);
    }
    sec.print();

    let slack: f64 = std::env::var("TD_REORDER_OVERHEAD_SLACK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.10);
    let zero = &rows[0];
    assert!(
        zero.3 <= slack,
        "reorder stage at lateness=0 costs {:.2}x raw batched ingest \
         ({:.1} vs {:.1} ns/item) — fast path regressed past the {slack:.2}x gate \
         (set TD_REORDER_OVERHEAD_SLACK to widen)",
        zero.3,
        zero.2,
        zero.1,
    );
    let wheel = &rows[1];
    assert!(
        wheel.3 <= WHEEL_GATE,
        "reorder stage at lateness=64 costs {:.2}x raw batched ingest \
         ({:.1} vs {:.1} ns/item) — tick-wheel buffering regressed past the \
         {WHEEL_GATE:.1}x gate",
        wheel.3,
        wheel.2,
        wheel.1,
    );
    rows
}

/// `items` in a seeded arrival order where each item is delayed by at
/// most `bound` ticks, so none is late under that lateness bound.
fn shuffle_within(items: &[(u64, u64)], bound: u64) -> Vec<(u64, u64)> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut keyed: Vec<(u64, (u64, u64))> = items
        .iter()
        .map(|&item| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (item.0 + x % (bound + 1), item)
        })
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, item)| item).collect()
}

/// Measures the chunked `weight_batch` kernels against the per-item
/// scalar `weight` loop they replace (DESIGN.md §12), over an age
/// distribution shaped like a live bucket column. The exp/poly closed
/// forms must clear 1.5× — that is the point of carrying hand-rolled
/// `exp`/`ln` chunk primitives instead of calling libm per bucket.
fn kernel_speedups() -> Vec<(String, f64, f64)> {
    const AGES: usize = 4096;
    const REPS: usize = 400;
    let ages: Vec<u64> = (0..AGES as u64).map(|i| 1 + (i * 37) % 100_000).collect();
    let mut out = vec![0.0f64; AGES];

    let mut measure = |name: &str, g: &dyn DecayFunction| -> (String, f64, f64) {
        // Keep the vtable opaque: the scalar baseline is the per-bucket
        // *dynamic* `weight` call a bucket-walk loop actually pays —
        // with thin LTO the optimizer otherwise devirtualizes and
        // vectorizes the loop, and the comparison stops measuring
        // dispatch at all.
        let g: &dyn DecayFunction = std::hint::black_box(g);
        let mut scalar_ns = f64::INFINITY;
        let mut batch_ns = f64::INFINITY;
        for _ in 0..7 {
            let t0 = Instant::now();
            for _ in 0..REPS {
                for (o, &a) in out.iter_mut().zip(&ages) {
                    *o = g.weight(a);
                }
                std::hint::black_box(&mut out);
            }
            scalar_ns = scalar_ns.min(t0.elapsed().as_nanos() as f64 / (AGES * REPS) as f64);
        }
        for _ in 0..7 {
            let t0 = Instant::now();
            for _ in 0..REPS {
                g.weight_batch(&ages, &mut out);
                std::hint::black_box(&mut out);
            }
            batch_ns = batch_ns.min(t0.elapsed().as_nanos() as f64 / (AGES * REPS) as f64);
        }
        (name.to_string(), scalar_ns, batch_ns)
    };

    let rows = vec![
        measure("expd", &Exponential::new(0.001)),
        measure("poly1", &Polynomial::new(1.0)),
        measure("poly2", &Polynomial::new(2.0)),
        measure("polyexp-k2", &PolyExponential::new(2, 0.001)),
    ];

    let mut sec = Section::new(
        "Decay-kernel dispatch: scalar `weight` loop vs chunked `weight_batch`",
        &["kernel", "scalar ns/item", "batch ns/item", "speedup"],
    );
    for (name, scalar_ns, batch_ns) in &rows {
        sec.row(&[
            name.clone(),
            format!("{scalar_ns:.2}"),
            format!("{batch_ns:.2}"),
            format!("{:.2}x", scalar_ns / batch_ns),
        ]);
    }
    sec.print();

    for (name, scalar_ns, batch_ns) in &rows {
        if name == "expd" || name == "poly1" {
            assert!(
                scalar_ns / batch_ns >= 1.5,
                "{name} weight_batch speedup {:.2}x below the 1.5x floor \
                 ({scalar_ns:.2} vs {batch_ns:.2} ns/item)",
                scalar_ns / batch_ns
            );
        }
    }
    rows
}

/// Reads the committed `BENCH_throughput.json` (if any) and returns the
/// baseline batched ns/item for `backend`. Substring parsing on
/// purpose: the repo vendors no JSON library, and the format is our
/// own writer's.
fn baseline_batched_ns(baseline: &str, backend: &str) -> Option<f64> {
    let tag = format!("\"backend\": \"{backend}\"");
    let row_start = baseline.find(&tag)?;
    let rest = &baseline[row_start..];
    let row_end = rest.find('}').unwrap_or(rest.len());
    let row = &rest[..row_end];
    let field = "\"batched_ns_per_item\": ";
    let v = &row[row.find(field)? + field.len()..];
    let end = v
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(v.len());
    v[..end].parse().ok()
}

/// A bursty multi-arrival stream: ~1e6 items over ~1e5 ticks, where
/// each tick carries a geometric-ish burst of same-tick items. Same-tick
/// runs are what `observe_batch` coalesces, so this is the shape the
/// batch API is for.
fn bursty_items(n: usize) -> Vec<(u64, u64)> {
    let mut items = Vec::with_capacity(n);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut t = 0u64;
    while items.len() < n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t += 1 + x % 3;
        let burst = 1 + (x >> 17) % 20; // 1..=20 items at this tick
        for j in 0..burst {
            if items.len() == n {
                break;
            }
            items.push((t, (x >> 23).wrapping_add(j) % 8));
        }
    }
    items
}

fn time_ns_per_item(n: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Measures item-by-item `observe` against `observe_batch` (fed in
/// 4096-item chunks, as an ingest loop draining a buffer would) for one
/// backend, and checks the two ingests agree at query time. Best of
/// seven *consecutive* repeats per path with a fresh backend each time:
/// a single pass is at the mercy of container CPU-quota throttling and
/// page-fault storms (10-40× outliers on otherwise-identical runs),
/// and interleaving the two paths rep-by-rep turned out to wreck both
/// floors — alternating 16 MB allocation patterns kept every rep
/// paying allocator/page-cache churn, flattening a real 2× gap into
/// noise. Run all reps of one path, then all reps of the other.
fn measure<A: StreamAggregate>(
    name: &str,
    items: &[(u64, u64)],
    make: impl Fn() -> A,
) -> (String, f64, f64) {
    let t_end = items.last().map(|&(t, _)| t).unwrap_or(1) + 1;
    let mut single_ns = f64::INFINITY;
    let mut batched_ns = f64::INFINITY;
    let mut single_answer = 0.0;
    let mut batched_answer = 0.0;
    for _ in 0..7 {
        let mut single = make();
        single_ns = single_ns.min(time_ns_per_item(items.len(), || {
            for &(t, f) in items {
                single.observe(t, f);
            }
        }));
        single_answer = single.query(t_end);
    }
    for _ in 0..7 {
        let mut batched = make();
        batched_ns = batched_ns.min(time_ns_per_item(items.len(), || {
            for chunk in items.chunks(4096) {
                batched.observe_batch(chunk);
            }
        }));
        batched_answer = batched.query(t_end);
    }
    assert!(
        (single_answer - batched_answer).abs() <= 1e-9 * single_answer.abs().max(1.0),
        "{name}: batched ingest diverged ({single_answer} vs {batched_answer})"
    );
    (name.to_string(), single_ns, batched_ns)
}

fn batched_vs_single(
    kernel_rows: &[(String, f64, f64)],
    reorder_rows: &[(String, f64, f64, f64)],
    forward_rows: &[(String, f64, f64, u64)],
) {
    let items = bursty_items(1_000_000);
    let exp = Exponential::new(0.001);
    let poly = Polynomial::new(1.0);

    let rows = [
        measure("exp-counter", &items, || ExpCounter::new(exp)),
        measure("quantized-exp", &items, || {
            QuantizedExpCounter::new(exp, 24)
        }),
        measure("polyexp-pipeline", &items, || PolyExpCounter::new(2, 0.001)),
        measure("ceh", &items, || CascadedEh::new(poly, 0.05)),
        measure("wbmh", &items, || Wbmh::new(poly, 0.05, 1 << 24)),
        measure("exact", &items, || ExactDecayedSum::new(poly)),
        // The conformance harness's store-everything oracle: its ingest
        // rate bounds the differential-testing overhead relative to the
        // backends it certifies (queries are O(n) and excluded here).
        measure("conformance-oracle", &items, || {
            td_conformance::Oracle::new(poly)
        }),
    ];

    let host = td_bench::hostinfo::json_fragment();
    let mut sec = Section::new(
        "Single-item vs batched ingest, 1e6-item bursty stream (same-tick bursts)",
        &["backend", "single ns/item", "batched ns/item", "speedup"],
    );
    let mut json = String::from("{\n  \"ingest\": [\n");
    for (i, (name, single_ns, batched_ns)) in rows.iter().enumerate() {
        let speedup = single_ns / batched_ns;
        sec.row(&[
            name.clone(),
            format!("{single_ns:.1}"),
            format!("{batched_ns:.1}"),
            format!("{speedup:.2}x"),
        ]);
        json.push_str(&format!(
            "    {{\"backend\": \"{name}\", \"single_ns_per_item\": {single_ns:.2}, \
             \"batched_ns_per_item\": {batched_ns:.2}, \"speedup\": {speedup:.3}, {host}}}{}\n",
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"kernels\": [\n");
    for (i, (name, scalar_ns, batch_ns)) in kernel_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{name}\", \"scalar_ns_per_item\": {scalar_ns:.2}, \
             \"batch_ns_per_item\": {batch_ns:.2}, \"speedup\": {:.3}, {host}}}{}\n",
            scalar_ns / batch_ns,
            if i + 1 == kernel_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"reorder\": [\n");
    for (i, (name, raw_ns, staged_ns, overhead)) in reorder_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"stage\": \"{name}\", \"raw_batched_ns_per_item\": {raw_ns:.2}, \
             \"staged_ns_per_item\": {staged_ns:.2}, \"overhead\": {overhead:.3}, {host}}}{}\n",
            if i + 1 == reorder_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"forward\": [\n");
    for (i, (name, single_ns, batched_ns, bits)) in forward_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{name}\", \"single_ns_per_item\": {single_ns:.2}, \
             \"batched_ns_per_item\": {batched_ns:.2}, \"speedup\": {:.3}, \
             \"storage_bits\": {bits}, {host}}}{}\n",
            single_ns / batched_ns,
            if i + 1 == forward_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    sec.print();

    // The oracle's batch path is a reserve-once append — if it ever
    // regresses below the single-item path again (it did: 0.72x before
    // the per-batch re-validation sweep was fused into the copy loop),
    // fail loudly here rather than silently publishing the regression.
    let (_, oracle_single, oracle_batched) = rows[rows.len() - 1].clone();
    assert!(
        oracle_batched <= oracle_single * 1.05,
        "conformance-oracle batched ingest ({oracle_batched:.1} ns/item) slower than \
         single-item ({oracle_single:.1} ns/item)"
    );

    // Regression gate against the committed baseline: batched ingest
    // must not be >10% worse than the numbers in the repo's
    // BENCH_throughput.json (the file this run is about to replace).
    // CI sets TD_BENCH_BASELINE_SLACK to loosen the gate on shared
    // runners; the committed-baseline refresh is deliberate (rerun and
    // commit the new file), never silent.
    let path = "BENCH_throughput.json";
    let slack: f64 = std::env::var("TD_BENCH_BASELINE_SLACK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.10);
    if let Ok(baseline) = std::fs::read_to_string(path) {
        for (name, _, batched_ns) in &rows {
            if let Some(base) = baseline_batched_ns(&baseline, name) {
                assert!(
                    *batched_ns <= base * slack,
                    "{name} batched ingest regressed: {batched_ns:.2} ns/item vs committed \
                     baseline {base:.2} (slack {slack:.2}; set TD_BENCH_BASELINE_SLACK to widen)"
                );
            }
        }
        for (name, _, batched_ns, _) in forward_rows {
            if let Some(base) = baseline_batched_ns(&baseline, name) {
                assert!(
                    *batched_ns <= base * slack,
                    "{name} batched ingest regressed: {batched_ns:.2} ns/item vs committed \
                     baseline {base:.2} (slack {slack:.2}; set TD_BENCH_BASELINE_SLACK to widen)"
                );
            }
        }
        println!("\nbaseline check passed (slack {slack:.2})");
    } else {
        println!("\nno committed baseline found; skipping regression gate");
    }

    std::fs::write(path, &json).expect("write BENCH_throughput.json");
    println!("wrote {path}");
}
