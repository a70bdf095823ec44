//! Process measurements, percentiles and the output format.

use std::fmt::Write as _;

use sle_obs::HistogramSnapshot;

/// Process user+system CPU time so far, in seconds (all threads).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line (12th and 13th after it).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux this runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// VmHWM — this process's peak resident set — in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nearest-rank percentile of unsorted `values`, `permille` of the way up
/// (500 is the median); 0 when empty. Integer ranks keep p90 of 100
/// samples at the 90th, not the 91st.
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), permille) - 1]
}

/// The 1-based nearest rank of `permille` among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Percentiles (per mille) a tail may be reported at, highest first.
const TAILS: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`TAILS`] with at least ten samples beyond
/// it, and its value: `(label, value)`, e.g. `("p99", 12.5)`. Falls back
/// to the median.
pub fn tail(values: &[f64]) -> (String, f64) {
    let n = values.len();
    let permille = TAILS
        .iter()
        .copied()
        .find(|&q| n >= rank(n, q) + 10)
        .unwrap_or(500);
    let label = format!("p{}", permille as f64 / 10.0);
    (label, percentile(values, permille))
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 500)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The samples `after` holds beyond those already in `before`.
pub fn histogram_since(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = after.clone();
    out.count -= before.count;
    out.sum = out.sum.wrapping_sub(before.sum);
    for (a, b) in out.buckets.iter_mut().zip(before.buckets.iter()) {
        *a -= b;
    }
    for (a, b) in out.bucket_sums.iter_mut().zip(before.bucket_sums.iter()) {
        *a = a.wrapping_sub(*b);
    }
    out
}

/// What one run of a workload measured.
pub struct Outcome {
    /// End-to-end metrics (and, traced, per-layer ones).
    pub metrics: Metrics,
    /// Correctness failures, empty when every check passed.
    pub failures: Vec<String>,
    /// Operations attempted (see each workload's `failed_frac`).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Virtual-time workloads: event counts and QoS that must repeat
    /// exactly between runs of one seed.
    pub signature: Option<String>,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Its name.
    pub name: String,
    /// Its value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// A note printed after it (sample counts, the percentile taken).
    pub note: String,
}

/// Metrics in report order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_note(name, value, unit, String::new());
    }

    /// Adds a metric with a note.
    pub fn put_note(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One human-readable line per metric.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for m in &self.0 {
            if m.note.is_empty() {
                println!("  {:<32} {:>16} {}", m.name, fmt(m.value), m.unit);
            } else {
                println!(
                    "  {:<32} {:>16} {:<8} ({})",
                    m.name,
                    fmt(m.value),
                    m.unit,
                    m.note
                );
            }
        }
    }
}

fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// A number as JSON: every digit Rust prints, and never NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and those metrics
/// named in `names` that were measured (in that order), each
/// `{"value": …, "unit": …}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[&str],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let measured = names
        .iter()
        .filter_map(|name| metrics.0.iter().find(|m| m.name == *name));
    for (i, m) in measured.enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 has 10 beyond it, p95 only 5.
        assert_eq!(tail(&values), ("p90".to_string(), 90.0));
        assert_eq!(percentile(&values, 990), 99.0);
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few), ("p50".to_string(), 6.0));
        assert_eq!(median(&values), 50.0);
    }

    #[test]
    fn json_line_has_exactly_the_named_metrics() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.25, "ms");
        m.put("b", 2.0, "count");
        let line = result_json(true, 3, 0, &m, &["a_ms"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
