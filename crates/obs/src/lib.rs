//! `nanoleak-obs` — the observability layer of the nanoleak stack.
//!
//! Three cooperating pieces, all dependency-free (std only) so every
//! crate in the workspace — including the HTTP server — can link it
//! without cycles:
//!
//! * [`metrics`] — a registry of lock-free atomic counters, gauges and
//!   log-bucketed latency histograms with Prometheus-style text
//!   exposition ([`metrics::Registry::render`]). Histograms use a
//!   fixed power-of-two bucket layout ([`metrics::BUCKETS`] buckets),
//!   so merging snapshots is associative and taking a snapshot is
//!   allocation-free.
//! * [`span`](mod@span) — scoped spans ([`span!`]) recorded into a
//!   bounded per-thread ring buffer while a capture is active
//!   ([`span::begin_capture`] / [`span::end_capture`]). The drained
//!   [`span::Trace`] carries the span records (parent-linked, so a
//!   tree can be rebuilt), per-name duration totals for cheap timing
//!   breakdowns, and the request id active at capture start.
//! * [`log`] — leveled JSON-lines records to stderr, off by default
//!   and enabled via `NANOLEAK_LOG` or [`log::set_level`]
//!   (`--log-level` on the CLI). Every record is stamped with the
//!   thread's current request id ([`log::set_request_id`]).
//!
//! Conventions: metric names are `nanoleak_<subsystem>_<what>[_total]`
//! with unit suffixes (`_seconds`) on histograms; spans are named
//! after pipeline stages (`characterize`, `compile`, `estimate`,
//! `merge`, `serialize`) so per-stage totals aggregate across jobs.
//!
//! Instrumentation must not perturb results: counters and histograms
//! are single atomic RMW operations (safe anywhere, including parallel
//! sections), while spans allocate and therefore sit at shard
//! granularity and above — never on the per-pattern estimator path,
//! which stays zero-allocation.

pub mod log;
pub mod metrics;
pub mod span;

pub use log::{set_level, set_request_id, Level};
pub use metrics::{
    bucket_bound, bucket_index, global, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    BUCKETS,
};
pub use span::{begin_capture, capturing, end_capture, Span, SpanRecord, Trace};

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub(crate) fn json_escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
