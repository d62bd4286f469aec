//! The benchmark checks itself: every workload runs at a tiny, fixed
//! amount of work, must pass its oracle checks, must emit every named
//! metric with its unit, and must repeat its counts exactly for a given
//! seed.
//!
//! One test runs everything in sequence: span recording is process-wide
//! state, so workloads must not run concurrently.

use td_perfbench::{complete, run, stats::Report, Args, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn run_once(workload: &str, seed: u64, trace: bool) -> Report {
    let args = Args {
        workload: workload.to_string(),
        seed,
        seconds: 600.0,
        trace,
    };
    let mut report = run(&args, &Scale::tiny());
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    // Every metric the workload measures must be one the table names.
    for m in &report.metrics {
        assert!(
            table
                .iter()
                .any(|&(name, unit)| name == m.name && unit == m.unit),
            "{workload}: metric {} [{}] is not in the table",
            m.name,
            m.unit
        );
    }
    complete(&mut report, table);
    assert_eq!(report.metrics.len(), table.len());
    assert!(report.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(
        report.failed, 0,
        "{workload} (trace {trace}): checks failed"
    );
    report
}

fn value(r: &Report, name: &str) -> f64 {
    r.get(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn workloads_pass_their_checks_and_repeat_their_counts() {
    const REPEATED_TRACED: [&str; 4] = [
        "registry.live_keys",
        "registry.evictions",
        "backend.summary_bits",
        "persist.recover_records_replayed",
    ];
    for workload in WORKLOADS {
        let (a, b) = (run_once(workload, 7, false), run_once(workload, 7, false));
        assert_eq!(
            value(&a, "answer_rel_err_p99").to_bits(),
            value(&b, "answer_rel_err_p99").to_bits(),
            "{workload}: answer_rel_err_p99 differs between runs of one seed"
        );
        for r in [&a, &b] {
            for name in ["ingest_items_per_s", "peak_rss_mb", "bytes_per_key"] {
                assert!(value(r, name) > 0.0, "{workload}: {name} is 0");
            }
        }
        let (a, b) = (run_once(workload, 7, true), run_once(workload, 7, true));
        for name in REPEATED_TRACED {
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{workload}: {name} differs between runs of one seed"
            );
        }
    }
}

#[test]
fn arguments_are_validated() {
    let parse = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string()));
    let ok = parse(&[
        "--workload",
        "read_mix",
        "--seed",
        "3",
        "--seconds",
        "2",
        "--trace",
        "1",
    ])
    .expect("valid arguments");
    assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--workload", "read_mix", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "read_mix", "--seconds", "0"]).is_err());
    assert!(parse(&["--seed", "1"]).is_err());
}

#[test]
fn benchmark_json_names_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "BENCHMARK.json lacks {w}"
        );
    }
}
