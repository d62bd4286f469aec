//! Percentiles, process probes and the run report.

use std::path::Path;

/// The `q`-quantile (0 ≤ q ≤ 1) of `v` by nearest rank; 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `v`; 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// A latency distribution reported as its median and the highest
/// percentile, up to p99, that still has at least ten samples beyond
/// it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile.
    pub tail: f64,
    /// The tail percentile used, e.g. 0.99.
    pub tail_q: f64,
    /// Sample count.
    pub n: usize,
}

/// Median and tail of `v`.
pub fn tail(v: &mut [f64]) -> Tail {
    let n = v.len();
    let tail_q = if n == 0 {
        0.0
    } else {
        (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
    };
    Tail {
        p50: median(v),
        tail: quantile(v, tail_q),
        tail_q,
        n,
    }
}

/// [`tail`] per consecutive window of `window` samples. The median is
/// the median over windows, so a burst of interference on the host
/// moves one window, not the result. The tail is the lower quartile
/// over windows: a window's tail is its few slowest samples, which any
/// other process on a shared host moves, so the run reports the tail
/// the program keeps in the quieter quarter of its windows. Falls back
/// to the pooled [`tail`] below three windows.
pub fn windowed_tail(v: &[f64], window: usize) -> Tail {
    let windows: Vec<Tail> = v
        .chunks_exact(window)
        .map(|w| tail(&mut w.to_vec()))
        .collect();
    if windows.len() < 3 {
        return tail(&mut v.to_vec());
    }
    Tail {
        p50: median(&mut windows.iter().map(|w| w.p50).collect::<Vec<_>>()),
        tail: quantile(
            &mut windows.iter().map(|w| w.tail).collect::<Vec<_>>(),
            0.25,
        ),
        tail_q: windows[0].tail_q,
        n: v.len(),
    }
}

/// Latency samples per window in [`windowed_tail`]: enough for p99
/// with ten samples beyond it.
pub const LATENCY_WINDOW: usize = 1000;

/// Relative error of `est` against `truth`, measured against at least
/// one unit of mass: an answer that misses a nearly decayed key (an
/// evicted one, say) is off by what it missed, not by 100%.
pub fn rel_err(est: f64, truth: f64) -> f64 {
    (est - truth).abs() / truth.max(1.0)
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let rest = l.strip_prefix("VmHWM:")?;
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total on-CPU nanoseconds of this process's threads whose name
/// starts with `prefix` (from `/proc/self/task/*/schedstat`).
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm"))
                .is_ok_and(|c| c.trim_end().starts_with(prefix))
        })
        .filter_map(|e| {
            let s = std::fs::read_to_string(e.path().join("schedstat")).ok()?;
            s.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/self/mountinfo`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run produced: metrics, the op tally, and the stamp.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (ingest calls, queries, recoveries, checks).
    pub attempted: u64,
    /// Operations that failed: an `Err`, a degraded or wedged answer,
    /// an answer outside its envelope, a recovered key that differs.
    pub failed: u64,
    /// Free-form `key → JSON value` pairs for the run stamp: workload
    /// parameters, sample counts.
    pub stamp: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a stamp field (`value` must already be JSON).
    pub fn stamp(&mut self, key: &str, value: impl std::fmt::Display) {
        self.stamp.push((key.to_string(), value.to_string()));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.check_or(ok, String::new);
    }

    /// Counts one checked operation; a failure's description goes to
    /// standard error (the first few only).
    pub fn check_or(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {}", why());
            }
        }
    }

    /// The value of a metric already added.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A JSON number: finite values as measured, anything else as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal (the few characters that need it escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
