#![warn(missing_docs)]

//! Zero-dependency observability for the repair pipeline.
//!
//! The crate provides four layers:
//!
//! * **Spans** — [`Span`] wall-clock timers that report on drop.
//! * **Typed events** — [`Event`] and its payloads
//!   ([`GenerationStats`], [`CandidateEvent`], [`FaultLocEvent`],
//!   [`SimStats`], [`SpanEvent`], [`PhaseEvent`], [`HeartbeatEvent`],
//!   [`HistogramEvent`]) describing what each pipeline stage did, in
//!   terms that map to the paper's Algorithm 1 / §3.2.
//! * **Profiler** — the [`Profiler`] attributes exclusive busy time to
//!   the fixed pipeline [`Phase`]s (parse / elaborate / simulate /
//!   score / store) across worker threads with nestable guards, and
//!   log-buckets whole-evaluation latencies.
//! * **Sinks** — the [`TelemetrySink`] trait and its implementations:
//!   [`NullSink`] (default, near-zero overhead), [`JsonLinesSink`]
//!   (machine-readable event stream), [`SummarySink`] (human-readable
//!   end-of-run report), [`TimingFreeSink`] (scrubs wall-clock payloads
//!   so traces are byte-identical across `--jobs`), and [`FanoutSink`]
//!   (several at once).
//!
//! Producers hold an [`Observer`] — a cloneable `Arc` handle that fits
//! inside config structs — and call [`Observer::emit`] with a closure
//! so that event construction is skipped entirely when nothing is
//! listening.

mod event;
mod json;
mod observer;
mod profiler;
mod sink;
mod span;

pub use event::{
    CandidateEvent, EvalOutcomeEvent, Event, FaultLocEvent, GenerationStats, HeartbeatEvent,
    HistogramEvent, LintEvent, MineEvent, PhaseEvent, SimStats, SpanEvent, StoreEvent,
};
pub use json::{field, field_f64, field_str, field_u64, json_f64, parse_json, JsonValue};
pub use observer::Observer;
pub use profiler::{Phase, PhaseGuard, Profiler};
pub use sink::{
    FanoutSink, JsonLinesSink, NullSink, SummarySink, TaggedJsonLinesSink, TelemetrySink,
    TimingFreeSink,
};
pub use span::Span;
