//! A reader for the Prometheus text exposition that
//! `nanoleak_obs::Registry::render` writes and `GET /metrics` serves.
//!
//! The traced runs read layer counts only through this text, the same
//! bytes an operator scrapes, and diff two scrapes around each phase.

use std::collections::BTreeMap;

/// One scrape: every sample line as `series → value`, where a series
/// is the metric name plus its label set exactly as printed (e.g.
/// `nanoleak_mc_fallback_total{reason="tolerance"}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses exposition text; comment and blank lines are skipped.
    ///
    /// # Errors
    /// A sample line without a value, or with an unparsable one.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let split = series_end(line).ok_or_else(|| format!("line {}: {line}", i + 1))?;
            let (series, value) = line.split_at(split);
            let value = value.split_whitespace().next().unwrap_or("");
            let value = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                "NaN" => f64::NAN,
                v => v.parse().map_err(|_| format!("line {}: bad value '{v}'", i + 1))?,
            };
            out.insert(series.to_string(), value);
        }
        Ok(Self(out))
    }

    /// The value of one series, `0.0` when absent (instruments register
    /// lazily, on first use).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self − before`, series by series (a series new in `self`
    /// counts from zero).
    pub fn since(&self, before: &Scrape) -> Scrape {
        Scrape(self.0.iter().map(|(k, v)| (k.clone(), v - before.get(k))).collect())
    }
}

/// Scrapes this process's `nanoleak_obs::global()` registry.
pub fn global() -> Scrape {
    Scrape::parse(&nanoleak_obs::global().render())
        .expect("the registry renders valid exposition text")
}

/// Byte offset just past the series (name plus optional `{labels}`),
/// honouring quoted label values that contain spaces or braces.
fn series_end(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let name_end = line.find(|c: char| c == '{' || c.is_whitespace())?;
    if bytes[name_end] != b'{' {
        return Some(name_end);
    }
    let (mut quoted, mut escaped) = (false, false);
    for (i, &b) in bytes.iter().enumerate().skip(name_end + 1) {
        match b {
            _ if escaped => escaped = false,
            b'\\' if quoted => escaped = true,
            b'"' => quoted = !quoted,
            b'}' if !quoted => return Some(i + 1),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP nanoleak_solver_newton_solves_total Newton solves
# TYPE nanoleak_solver_newton_solves_total counter
nanoleak_solver_newton_solves_total 42
# TYPE nanoleak_mc_fallback_total counter
nanoleak_mc_fallback_total{reason=\"tolerance\"} 3
nanoleak_mc_fallback_total{reason=\"sens-build\"} 1
weird_total{kind=\"a \\\"b} c\"} 2

nanoleak_delta_library_seconds_bucket{le=\"0.0009765625\"} 4
nanoleak_delta_library_seconds_bucket{le=\"+Inf\"} 5
nanoleak_delta_library_seconds_sum 0.0125
nanoleak_delta_library_seconds_count 5
nanoleak_server_queue_depth -1
";

    #[test]
    fn parses_counters_labels_and_histograms() {
        let s = Scrape::parse(TEXT).unwrap();
        assert_eq!(s.get("nanoleak_solver_newton_solves_total"), 42.0);
        assert_eq!(s.get("nanoleak_mc_fallback_total{reason=\"tolerance\"}"), 3.0);
        assert_eq!(s.get("weird_total{kind=\"a \\\"b} c\"}"), 2.0);
        assert_eq!(s.get("nanoleak_delta_library_seconds_sum"), 0.0125);
        assert_eq!(s.get("nanoleak_delta_library_seconds_bucket{le=\"+Inf\"}"), 5.0);
        assert_eq!(s.get("nanoleak_server_queue_depth"), -1.0);
        assert_eq!(s.get("absent_total"), 0.0);
    }

    #[test]
    fn diffs_count_new_series_from_zero() {
        let before = Scrape::parse("a_total 2\n").unwrap();
        let after = Scrape::parse("a_total 5\nb_total 7\n").unwrap();
        let d = after.since(&before);
        assert_eq!(d.get("a_total"), 3.0);
        assert_eq!(d.get("b_total"), 7.0);
    }

    #[test]
    fn rejects_malformed_samples() {
        assert!(Scrape::parse("a_total\n").is_err());
        assert!(Scrape::parse("a_total many\n").is_err());
        assert!(Scrape::parse("a_total{x=\"unterminated 1\n").is_err());
    }

    #[test]
    fn reads_the_live_registry_rendering() {
        let registry = nanoleak_obs::Registry::new();
        registry.counter_with("t_total", "h", &[("kind", "x y")]).add(3);
        registry.histogram("t_seconds", "h").record(0.25);
        let s = Scrape::parse(&registry.render()).unwrap();
        assert_eq!(s.get("t_total{kind=\"x y\"}"), 3.0);
        assert_eq!(s.get("t_seconds_sum"), 0.25);
        assert_eq!(s.get("t_seconds_count"), 1.0);
    }
}
