//! `td-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line, then the result as the last line of standard
//! output. Exits non-zero on bad arguments.

fn main() {
    let args = match td_perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("td-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = td_perfbench::run(&args, &td_perfbench::Scale::full());
    let table: &[(&str, &str)] = if args.trace {
        &td_perfbench::PER_LAYER
    } else {
        &td_perfbench::END_TO_END
    };
    td_perfbench::complete(&mut report, table);
    for m in &report.metrics.clone() {
        report.check_or(m.value.is_finite(), || format!("{} is {}", m.name, m.value));
    }
    println!("{}", td_perfbench::stamp_json(&args.workload, &report));
    println!("{}", td_perfbench::result_json(&report));
}
