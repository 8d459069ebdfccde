//! Spans: scope timers that report their duration to a sink on drop.

use std::time::Instant;

use crate::event::{Event, SpanEvent};
use crate::sink::TelemetrySink;

/// Times a scope and reports a [`SpanEvent`] to the sink when dropped.
///
/// ```
/// # use cirfix_telemetry::{Span, NullSink};
/// let sink = NullSink;
/// {
///     let _span = Span::enter("parse", &sink);
///     // ... timed work ...
/// } // emits Event::Span { name: "parse", .. } on drop
/// ```
pub struct Span<'a> {
    name: &'a str,
    started: Instant,
    sink: &'a dyn TelemetrySink,
}

impl<'a> Span<'a> {
    /// Starts timing `name` against `sink`.
    pub fn enter(name: &'a str, sink: &'a dyn TelemetrySink) -> Span<'a> {
        Span {
            name,
            started: Instant::now(),
            sink,
        }
    }

    /// Elapsed time so far, in nanoseconds.
    pub fn elapsed_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.sink.enabled() {
            self.sink.record(&Event::Span(SpanEvent {
                name: self.name.to_string(),
                nanos: self.elapsed_nanos(),
            }));
        }
    }
}
