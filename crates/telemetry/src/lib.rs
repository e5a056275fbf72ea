//! Observability substrate for the MILLION serving stack.
//!
//! Three pieces, all dependency-free over `std` and all allocation-free on
//! their hot paths so they can sit inside the decode loop:
//!
//! 1. [`LatencyHistogram`] — a fixed array of power-of-two nanosecond
//!    buckets (bucket `i` covers durations `< 2^i ns`) with an exact count
//!    and sum, so quantile readouts never allocate and merged fleet views
//!    are a per-bucket add. Recording is a leading-zeros bit trick: no
//!    branches over bucket bounds, no heap.
//! 2. [`EventJournal`] — a bounded ring buffer of typed request-lifecycle
//!    [`Event`]s (submit, admit, chunk-fed, first-token, cancel, timeout,
//!    retire) with round numbers and monotonic timestamps. Pushing never
//!    allocates once the ring is constructed; when full, the oldest event
//!    is dropped and counted. [`render_chrome_trace`] turns a drained
//!    journal into Chrome trace-event JSON for `chrome://tracing` /
//!    Perfetto.
//! 3. [`PromWriter`] — a Prometheus text-exposition (version 0.0.4)
//!    renderer: `# HELP`/`# TYPE` headers, counters, gauges, and cumulative
//!    histogram series with `le` bounds in seconds.
//!
//! The crate knows nothing about engines, sessions, or HTTP — callers feed
//! it durations and events and render what comes back out.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod hist;
mod journal;
mod prom;

pub use hist::{bucket_bound_ns, HistogramSnapshot, LatencyHistogram, HIST_BUCKETS};
pub use journal::{render_chrome_trace, Event, EventJournal, EventKind, RetireOutcome};
pub use prom::{valid_metric_name, PromWriter, PROMETHEUS_CONTENT_TYPE};
