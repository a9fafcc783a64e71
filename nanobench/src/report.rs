//! The result line every run prints, the detail record it keeps, and
//! the small statistics rules both use.

use std::collections::BTreeMap;

use serde::Value;

/// A metric name `BENCHMARK.json` accepts: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `xs` (mean of the middle pair for even counts); `0.0`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The wall time of one round of calls, each call taken at its median
/// over the rounds: `walls[round][call]`. A slow moment of the host
/// then costs one call one sample, not a whole round.
pub fn median_round(walls: &[Vec<f64>]) -> f64 {
    let calls = walls.iter().map(Vec::len).max().unwrap_or(0);
    (0..calls)
        .map(|c| median(&walls.iter().filter_map(|w| w.get(c).copied()).collect::<Vec<_>>()))
        .sum()
}

/// `xs` as a JSON array.
pub fn seq(xs: &[f64]) -> Value {
    Value::Seq(xs.iter().map(|&x| Value::F64(x)).collect())
}

/// Rows of numbers as a JSON array of arrays.
pub fn seqs(rows: &[Vec<f64>]) -> Value {
    Value::Seq(rows.iter().map(|row| seq(row)).collect())
}

/// One timed call as the tail rule ranks it: a failed call ranks
/// slower than every successful one, whatever its own time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub ms: f64,
    pub failed: bool,
}

/// The tail of a latency sample set: the value at the highest
/// percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Latency at that rank \[ms\].
    pub ms: f64,
    /// Share of samples at or below the rank, in percent.
    pub percentile: f64,
    /// Samples the rank was taken over.
    pub samples: usize,
}

/// Minimum count of samples that must lie beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Applies the tail rule; `None` when fewer than `TAIL_BEYOND + 1`
/// samples exist, since then no rank has ten samples beyond it.
pub fn tail(samples: &[Sample]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.failed.cmp(&b.failed).then(a.ms.total_cmp(&b.ms)));
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail { ms: v[rank].ms, percentile: 100.0 * (rank + 1) as f64 / n as f64, samples: n })
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: CLI calls, HTTP calls, jobs and answer
    /// checks.
    pub attempted: u64,
    /// Attempted operations that failed (non-zero exit, non-2xx
    /// status, failed job, failed answer check).
    pub failed: u64,
    /// Printed metrics, by name: `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Facts recorded beside the metrics (seed, sample counts, ...),
    /// kept in the detail record but not printed on the result line.
    pub detail: Vec<(String, Value)>,
}

impl Report {
    /// Counts one operation; logs and counts it as failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("nanobench: failed: {what}");
        }
        ok
    }

    /// Sets a metric; a name outside that charset is a failed
    /// check.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        if !valid_name(name) {
            self.op(false, &format!("metric name '{name}' is outside [A-Za-z0-9_.-]"));
        }
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a detail fact.
    pub fn note(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// Outputs are correct when every operation and check succeeded
    /// and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.values().all(|(v, _)| v.is_finite())
    }

    fn metrics_value(&self) -> Value {
        Value::Record(
            self.metrics
                .iter()
                .map(|(name, (value, unit))| {
                    // Non-finite values cannot be encoded; `correct`
                    // is already false for them.
                    let value = if value.is_finite() { *value } else { 0.0 };
                    let fields = vec![
                        ("value".to_string(), Value::F64(value)),
                        ("unit".to_string(), Value::Str((*unit).to_string())),
                    ];
                    (name.clone(), Value::Record(fields))
                })
                .collect(),
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        serde::json::value_to_string(&Value::Record(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::Int(i128::from(self.attempted.max(1)))),
            ("failed".to_string(), Value::Int(i128::from(self.failed))),
            ("metrics".to_string(), self.metrics_value()),
        ]))
    }

    /// The detail record: the result plus every noted fact.
    pub fn detail_record(&self) -> String {
        let mut fields = vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::Int(i128::from(self.attempted))),
            ("failed".to_string(), Value::Int(i128::from(self.failed))),
        ];
        fields.extend(self.detail.iter().cloned());
        fields.push(("metrics".to_string(), self.metrics_value()));
        serde::json::value_to_string_pretty(&Value::Record(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(ms: f64) -> Sample {
        Sample { ms, failed: false }
    }

    #[test]
    fn names_follow_the_benchmark_charset() {
        for good in ["setup_s", "core.compile_ms.s838", "a-b_c.d", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_lead", ".lead", "sp ace", "slash/ed", "ünï", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_round_takes_each_call_at_its_median() {
        // Round 2 is slow in call 0, round 3 in call 1: neither spike
        // survives, where the median round (sum 10) would keep one.
        let walls = vec![vec![1.0, 2.0], vec![9.0, 2.0], vec![1.0, 9.0]];
        assert_eq!(median_round(&walls), 3.0);
        assert_eq!(median_round(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<Sample> = (0..10).map(|i| ok(f64::from(i))).collect();
        assert_eq!(tail(&ten), None, "ten samples leave nothing with ten beyond it");
        let eleven: Vec<Sample> = (0..11).map(|i| ok(f64::from(i))).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.ms, t.samples), (0.0, 11), "only the fastest has ten beyond it");
        let hundred: Vec<Sample> = (1..=100).map(|i| ok(f64::from(i))).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!(t.ms, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let thousand: Vec<Sample> = (1..=1000).rev().map(|i| ok(f64::from(i))).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!(t.ms, 990.0, "input order does not matter");
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn failed_calls_rank_slowest() {
        // 100 samples: 89 fast successes, 11 failures that returned
        // quickly. The rank with ten beyond it lands on a failure.
        let mut s: Vec<Sample> = (0..89).map(|i| ok(100.0 + f64::from(i))).collect();
        s.extend((0..11).map(|_| Sample { ms: 1.0, failed: true }));
        let t = tail(&s).unwrap();
        assert_eq!(t.ms, 1.0, "the failure ranks past every success");
        // With only ten failures the rank is the slowest success.
        s.pop();
        s.push(ok(50.0));
        assert_eq!(tail(&s).unwrap().ms, 188.0);
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.op(true, "a");
        r.set("setup_s", 0.8127, "s");
        r.note("seed", Value::Int(7));
        let line = r.result_line();
        let v = serde::json::value_from_str(&line).unwrap();
        let Value::Record(fields) = v else { panic!("{line}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains(r#""setup_s":{"value":0.8127,"unit":"s"}"#), "{line}");
        assert!(line.contains(r#""correct":true"#), "{line}");
    }

    #[test]
    fn failures_and_non_finite_metrics_are_incorrect() {
        let mut r = Report::default();
        r.op(false, "boom");
        assert!(!r.correct());
        let mut r = Report::default();
        r.set("x", f64::NAN, "ms");
        assert!(!r.correct());
        assert!(r.result_line().contains(r#""value":0.0"#));
    }
}
