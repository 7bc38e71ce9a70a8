//! Metric records, the percentile rule, and the result line.

use std::fmt::Write as _;

/// One reported number: name, unit, value and how many samples fed it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The `q`-quantile (0..=1) of an ascending slice, by linear interpolation
/// between closest ranks. `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(0.0)
}

/// The percentiles the tail rule may report, highest last.
pub const PERCENTILE_LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Whether `p` (in percent) may be reported from `n` samples: at least
/// [`TAIL_SAMPLES`] samples must lie beyond it, so p99 needs 1000.
pub fn percentile_supported(p: f64, n: usize) -> bool {
    n as f64 * (100.0 - p) / 100.0 >= TAIL_SAMPLES as f64 - 1e-9
}

/// The highest percentile of the ladder with at least [`TAIL_SAMPLES`]
/// samples beyond it, with its value; `None` when not even the median
/// qualifies.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .find(|&&p| percentile_supported(p, sorted.len()))
        .and_then(|&p| quantile(sorted, p / 100.0).map(|v| (p, v)))
}

/// The `p`-th percentile (in percent) if the rule supports it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if percentile_supported(p, sorted.len()) {
        quantile(sorted, p / 100.0)
    } else {
        None
    }
}

/// What one workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or library calls) attempted in the timed window.
    pub attempted: u64,
    /// Protocol errors, typed rejections and wrong answers among them.
    pub failed: u64,
    /// Checks outside the window that failed: replay fidelity, the gauge
    /// identity, set-up answers. Any of them makes the run incorrect.
    pub problems: Vec<String>,
    /// Metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.problems.len() < 64 {
            self.problems.push(what);
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{}` on f64 prints the shortest string that round-trips, so every
        // measured digit is kept.
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    s.push_str("}}");
    s
}

/// Human-readable table of metrics, one per line.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut s = format!("# {title}\n");
    for m in metrics {
        let _ = writeln!(
            s,
            "  {:<44} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    s
}

/// A JSON array of metrics with sample counts, for the output files.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit),
                m.samples
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&ramp(99)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&ramp(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(1000)).map(|t| t.0), Some(99.0));
        // the ladder stops at p99 however many samples there are
        assert_eq!(tail(&ramp(100_000)).map(|t| t.0), Some(99.0));
    }

    #[test]
    fn p99_is_withheld_below_1000_samples() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        let p99 = percentile(&ramp(1000), 99.0).expect("1000 samples carry p99");
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
        assert_eq!(percentile(&ramp(3), 50.0), None);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[4.0], 0.9), Some(4.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        assert!(valid_name("kernel.ns_per_op.E1.bitset.plain"));
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("a-b_c.9"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("µs"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        o.metrics.push(Metric::new("setup_s", "s", 0.25, 3));
        o.metrics.push(Metric::new("resident_mb", "MB", 12.0, 1));
        let line = result_line(&o);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"resident_mb\": {\"value\": 12.0, \"unit\": \"MB\"}}}"
        );
        o.failed = 1;
        assert!(result_line(&o).starts_with("{\"correct\": false"));
    }
}
