//! Scoped spans captured into a bounded per-thread ring buffer.
//!
//! A capture is started on the thread that owns a unit of work (the
//! server's job worker, a bench bin's timed region) with
//! [`begin_capture`]; [`span!`](crate::span!) guards created on that
//! thread while the capture is active record parent-linked
//! [`SpanRecord`]s on drop. [`end_capture`] drains them into a
//! [`Trace`].
//!
//! Costs are bounded by design: when no capture is active a span
//! guard is a single thread-local flag check (no allocation, no
//! clock read), and an active capture keeps at most [`RING_CAPACITY`]
//! finished records — older records are dropped (counted in
//! [`Trace::dropped`]) while per-name duration totals keep counting,
//! so timing breakdowns stay exact even when the tree is truncated.
//! Spans recorded on *other* threads (e.g. inside a parallel section)
//! are ignored; instrumentation therefore sits at shard granularity
//! and above, on the thread driving the work.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

use crate::log::current_request_id;

/// Maximum finished spans retained per capture.
pub const RING_CAPACITY: usize = 512;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Capture-unique id (creation order).
    pub id: u32,
    /// Id of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Stage name (e.g. `"estimate"`).
    pub name: &'static str,
    /// Key/value attributes from the `span!` invocation.
    pub attrs: Vec<(&'static str, String)>,
    /// Start offset from the capture epoch, in microseconds.
    pub start_us: u64,
    /// Duration, in microseconds.
    pub dur_us: u64,
}

/// Per-name aggregate over *all* spans of a capture (including any
/// evicted from the ring).
#[derive(Clone, Copy, Debug)]
pub struct NameTotal {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration, in microseconds.
    pub total_us: u64,
}

/// The result of a capture.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Request id that was current when the capture began.
    pub request_id: String,
    /// Finished spans in completion order (children before parents).
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the ring (still counted in `totals`).
    pub dropped: u64,
    /// Per-name duration totals, in first-seen order.
    pub totals: Vec<(&'static str, NameTotal)>,
}

impl Trace {
    /// Total duration of spans named `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> u64 {
        self.totals.iter().find(|(n, _)| *n == name).map_or(0, |(_, t)| t.total_us)
    }
}

struct Capture {
    active: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<u32>,
    ring: VecDeque<SpanRecord>,
    dropped: u64,
    totals: Vec<(&'static str, NameTotal)>,
    request_id: String,
}

impl Capture {
    fn idle() -> Self {
        Capture {
            active: false,
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            ring: VecDeque::new(),
            dropped: 0,
            totals: Vec::new(),
            request_id: String::new(),
        }
    }
}

thread_local! {
    static CAPTURE: RefCell<Capture> = RefCell::new(Capture::idle());
}

/// Starts (or restarts) a capture on the current thread, discarding
/// any previous capture state.
pub fn begin_capture() {
    CAPTURE.with(|c| {
        let mut c = c.borrow_mut();
        *c = Capture::idle();
        c.active = true;
        c.request_id = current_request_id().unwrap_or_default();
    });
}

/// Ends the current thread's capture and returns what it recorded.
///
/// Returns an empty [`Trace`] if no capture was active. Spans still
/// open when the capture ends are not recorded — end the capture
/// after the outermost guard has dropped.
pub fn end_capture() -> Trace {
    CAPTURE.with(|c| {
        let mut c = c.borrow_mut();
        if !c.active {
            return Trace::default();
        }
        let done = std::mem::replace(&mut *c, Capture::idle());
        Trace {
            request_id: done.request_id,
            spans: done.ring.into_iter().collect(),
            dropped: done.dropped,
            totals: done.totals,
        }
    })
}

/// Whether a capture is active on the current thread (used by the
/// [`span!`](crate::span!) macro to skip attribute formatting when idle).
pub fn capturing() -> bool {
    CAPTURE.with(|c| c.borrow().active)
}

/// A scoped span guard; records itself on drop.
pub struct Span(Option<Open>);

struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    attrs: Vec<(&'static str, String)>,
    start: Instant,
}

impl Span {
    /// A guard that records nothing (no active capture).
    pub fn inactive() -> Self {
        Span(None)
    }
}

/// Opens a span named `name` (no attributes).
pub fn span(name: &'static str) -> Span {
    span_with(name, Vec::new())
}

/// Opens a span with pre-formatted attributes; prefer the
/// [`span!`](crate::span!) macro, which skips formatting entirely
/// when no capture is active.
pub fn span_with(name: &'static str, attrs: Vec<(&'static str, String)>) -> Span {
    CAPTURE.with(|c| {
        let mut c = c.borrow_mut();
        if !c.active {
            return Span(None);
        }
        let id = c.next_id;
        c.next_id += 1;
        let parent = c.stack.last().copied();
        c.stack.push(id);
        Span(Some(Open { id, parent, name, attrs, start: Instant::now() }))
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let dur_us = open.start.elapsed().as_micros() as u64;
        CAPTURE.with(|c| {
            let mut c = c.borrow_mut();
            if !c.active {
                return; // capture ended while the span was open
            }
            if c.stack.last() == Some(&open.id) {
                c.stack.pop();
            }
            let start_us =
                open.start.checked_duration_since(c.epoch).unwrap_or_default().as_micros() as u64;
            match c.totals.iter_mut().find(|(n, _)| *n == open.name) {
                Some((_, t)) => {
                    t.count += 1;
                    t.total_us += dur_us;
                }
                None => {
                    c.totals.push((open.name, NameTotal { count: 1, total_us: dur_us }));
                }
            }
            if c.ring.len() == RING_CAPACITY {
                c.ring.pop_front();
                c.dropped += 1;
            }
            c.ring.push_back(SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name,
                attrs: open.attrs,
                start_us,
                dur_us,
            });
        });
    }
}

/// Opens a scoped span: `let _s = span!("estimate", shard = i);`.
///
/// Attribute values are formatted with `Display` — but only when a
/// capture is active on this thread; otherwise the macro costs one
/// thread-local flag check.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::span($name)
    };
    ($name:literal, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::span::capturing() {
            $crate::span::span_with(
                $name,
                vec![$((stringify!($key), format!("{}", $value))),+],
            )
        } else {
            $crate::span::Span::inactive()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_capture_records_nothing() {
        {
            let _s = crate::span!("outer", k = 1);
        }
        let t = end_capture();
        assert!(t.spans.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn nested_spans_link_parents() {
        begin_capture();
        {
            let _outer = crate::span!("job");
            {
                let _inner = crate::span!("estimate", shard = 3);
            }
            {
                let _inner = crate::span!("estimate", shard = 4);
            }
        }
        let t = end_capture();
        assert_eq!(t.spans.len(), 3);
        let job = t.spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(job.parent, None);
        for s in t.spans.iter().filter(|s| s.name == "estimate") {
            assert_eq!(s.parent, Some(job.id));
        }
        let est = t.totals.iter().find(|(n, _)| *n == "estimate").unwrap().1;
        assert_eq!(est.count, 2);
        assert!(t.total_us("job") >= t.total_us("estimate"));
    }

    #[test]
    fn ring_is_bounded_but_totals_are_not() {
        begin_capture();
        for _ in 0..RING_CAPACITY + 10 {
            let _s = crate::span!("tick");
        }
        let t = end_capture();
        assert_eq!(t.spans.len(), RING_CAPACITY);
        assert_eq!(t.dropped, 10);
        let tick = t.totals.iter().find(|(n, _)| *n == "tick").unwrap().1;
        assert_eq!(tick.count, (RING_CAPACITY + 10) as u64);
    }

    #[test]
    fn restarting_a_capture_discards_the_previous_one() {
        begin_capture();
        {
            let _s = crate::span!("stale");
        }
        begin_capture();
        {
            let _s = crate::span!("fresh");
        }
        let t = end_capture();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "fresh");
    }
}
