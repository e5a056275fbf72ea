//! Serving-side observability: the [`ServingTelemetry`] recorder a
//! [`crate::ServingEngine`] carries, and the serializable snapshot types
//! metrics endpoints export.
//!
//! The recorder is a thin aggregation layer over [`million_telemetry`]'s
//! primitives: four request-latency histograms (time to first token,
//! inter-token gap, queue wait, end-to-end), one histogram per
//! [`RoundPhase`] of `serve_round`, and the bounded request-lifecycle
//! [`EventJournal`]. Everything is gated on one `enabled` flag checked
//! before any clock is read: a disabled recorder takes **zero**
//! `Instant::now()` calls and touches no memory beyond the flag test, so
//! telemetry can stay compiled into the hot loop without costing the
//! pinned bench figures anything when switched off.

use std::time::Instant;

use million_telemetry::{
    Event, EventJournal, EventKind, HistogramSnapshot, LatencyHistogram, HIST_BUCKETS,
};
use serde::Serialize;

use crate::serving::QosClass;

/// The four phases one [`crate::ServingEngine::serve_round`] runs through,
/// each timed into its own histogram. `Retire` covers both boundary
/// retirement passes of a round (entry and exit) summed, so every phase
/// histogram's count equals the number of rounds served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RoundPhase {
    /// Reaping cancelled queued requests plus both resident-retirement
    /// passes (round entry and exit).
    Retire,
    /// Refilling freed slots from the pending queue (admission-chunk
    /// prefill included — admission owns the first chunk).
    Admit,
    /// The scheduled prefill chunks of residents still admitting their
    /// prompt.
    PrefillChunk,
    /// The deficit-weighted round-robin decode pass.
    Decode,
}

impl RoundPhase {
    /// Every phase, in round order.
    pub const ALL: [RoundPhase; 4] = [
        RoundPhase::Retire,
        RoundPhase::Admit,
        RoundPhase::PrefillChunk,
        RoundPhase::Decode,
    ];

    /// Dense index (position in [`RoundPhase::ALL`]).
    pub fn index(self) -> usize {
        match self {
            RoundPhase::Retire => 0,
            RoundPhase::Admit => 1,
            RoundPhase::PrefillChunk => 2,
            RoundPhase::Decode => 3,
        }
    }

    /// Stable lowercase name (the Prometheus `phase` label value).
    pub fn name(self) -> &'static str {
        match self {
            RoundPhase::Retire => "retire",
            RoundPhase::Admit => "admit",
            RoundPhase::PrefillChunk => "prefill_chunk",
            RoundPhase::Decode => "decode",
        }
    }
}

/// Live telemetry recorder owned by a [`crate::ServingEngine`].
#[derive(Debug)]
pub struct ServingTelemetry {
    enabled: bool,
    /// Journal timestamps are nanoseconds since this engine-construction
    /// instant, so per-shard traces share one monotonic axis.
    epoch: Instant,
    ttft: LatencyHistogram,
    inter_token: LatencyHistogram,
    queue_wait: LatencyHistogram,
    e2e: LatencyHistogram,
    phases: [LatencyHistogram; 4],
    journal: EventJournal,
}

impl ServingTelemetry {
    /// A recorder that records only when `enabled`, journalling at most
    /// `journal_events` lifecycle events.
    pub fn new(enabled: bool, journal_events: usize) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            ttft: LatencyHistogram::new(),
            inter_token: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            e2e: LatencyHistogram::new(),
            phases: [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ],
            journal: EventJournal::new(if enabled { journal_events } else { 0 }),
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reads the clock iff recording is on — the single pattern that keeps
    /// the disabled path free of `Instant::now()` calls.
    pub fn clock(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Records a time-to-first-token sample.
    pub fn record_ttft(&mut self, ns: u64) {
        if self.enabled {
            self.ttft.record(ns);
        }
    }

    /// Records the gap between two consecutive decode tokens of one
    /// request.
    pub fn record_inter_token(&mut self, ns: u64) {
        if self.enabled {
            self.inter_token.record(ns);
        }
    }

    /// Records the queue wait of an admitted request.
    pub fn record_queue_wait(&mut self, ns: u64) {
        if self.enabled {
            self.queue_wait.record(ns);
        }
    }

    /// Records the submission-to-retirement duration of a resident request.
    pub fn record_e2e(&mut self, ns: u64) {
        if self.enabled {
            self.e2e.record(ns);
        }
    }

    /// Records one phase duration of a serve round.
    pub fn record_phase(&mut self, phase: RoundPhase, ns: u64) {
        if self.enabled {
            self.phases[phase.index()].record(ns);
        }
    }

    /// Journals a lifecycle event, stamped with the current round and the
    /// nanoseconds since the recorder's epoch. No-op when disabled.
    pub fn event(&mut self, request: u64, round: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.journal.push(Event {
            t_ns: self.epoch.elapsed().as_nanos() as u64,
            request,
            round,
            kind,
        });
    }

    /// Takes every buffered lifecycle event, oldest first (the
    /// `/debug/trace` drain).
    pub fn drain_events(&mut self) -> Vec<Event> {
        self.journal.drain()
    }

    /// A serializable copy of every histogram and the journal counters.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled: self.enabled,
            ttft: HistogramReport::from_hist(&self.ttft),
            inter_token: HistogramReport::from_hist(&self.inter_token),
            queue_wait: HistogramReport::from_hist(&self.queue_wait),
            e2e: HistogramReport::from_hist(&self.e2e),
            phases: self.phases.iter().map(HistogramReport::from_hist).collect(),
            journal_len: self.journal.len(),
            journal_dropped: self.journal.dropped(),
            journal_total: self.journal.total(),
        }
    }
}

/// A serializable, mergeable copy of one latency histogram: the exact
/// count/sum/min/max, precomputed p50/p95/p99, and the raw log2 bucket
/// counts (index `i` holds samples of bit width `i`; see
/// [`million_telemetry::bucket_bound_ns`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramReport {
    /// Total samples.
    pub count: u64,
    /// Exact sum of every sample, in nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample (0 when empty).
    pub max_ns: u64,
    /// Median (log2-bucket upper bound, clamped to the exact max).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Samples beyond the last bucket's bound.
    pub overflow: u64,
    /// Per-bucket (non-cumulative) counts, [`HIST_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl HistogramReport {
    /// A report with no samples.
    pub fn empty() -> Self {
        Self::from_snapshot(&HistogramSnapshot::empty())
    }

    fn from_hist(hist: &LatencyHistogram) -> Self {
        Self::from_snapshot(&hist.snapshot())
    }

    /// Builds the report from a raw snapshot.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        Self {
            count: snap.count,
            sum_ns: snap.sum_ns,
            min_ns: snap.min_ns,
            max_ns: snap.max_ns,
            p50_ns: snap.p50_ns(),
            p95_ns: snap.p95_ns(),
            p99_ns: snap.p99_ns(),
            overflow: snap.overflow,
            buckets: snap.counts.to_vec(),
        }
    }

    /// Reconstructs the raw snapshot (for Prometheus rendering and
    /// fleet-total merging).
    pub fn to_snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HIST_BUCKETS];
        for (slot, &c) in counts.iter_mut().zip(self.buckets.iter()) {
            *slot = c;
        }
        HistogramSnapshot {
            counts,
            overflow: self.overflow,
            count: self.count,
            sum_ns: self.sum_ns,
            min_ns: self.min_ns,
            max_ns: self.max_ns,
        }
    }

    /// Adds another report's samples into this one (percentiles are
    /// recomputed over the merged buckets).
    pub fn merge(&mut self, other: &HistogramReport) {
        let mut snap = self.to_snapshot();
        snap.merge(&other.to_snapshot());
        *self = Self::from_snapshot(&snap);
    }
}

/// Serializable copy of a [`ServingTelemetry`] recorder — what
/// `GET /metrics` exports per shard and merges into fleet totals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TelemetrySnapshot {
    /// Whether the source recorder was recording.
    pub enabled: bool,
    /// Submission to first decode token.
    pub ttft: HistogramReport,
    /// Gap between consecutive decode tokens of one request.
    pub inter_token: HistogramReport,
    /// Submission to admission.
    pub queue_wait: HistogramReport,
    /// Submission to retirement (resident requests only).
    pub e2e: HistogramReport,
    /// Per-phase serve-round durations, indexed by [`RoundPhase::index`].
    pub phases: Vec<HistogramReport>,
    /// Lifecycle events currently buffered in the journal.
    pub journal_len: usize,
    /// Lifecycle events evicted from the full journal ring.
    pub journal_dropped: u64,
    /// Lifecycle events ever recorded.
    pub journal_total: u64,
}

impl TelemetrySnapshot {
    /// A snapshot with nothing recorded (the fleet-total identity).
    pub fn empty() -> Self {
        Self {
            enabled: false,
            ttft: HistogramReport::empty(),
            inter_token: HistogramReport::empty(),
            queue_wait: HistogramReport::empty(),
            e2e: HistogramReport::empty(),
            phases: RoundPhase::ALL
                .iter()
                .map(|_| HistogramReport::empty())
                .collect(),
            journal_len: 0,
            journal_dropped: 0,
            journal_total: 0,
        }
    }

    /// Adds another shard's snapshot into this one — the fleet-total
    /// reduction.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.enabled |= other.enabled;
        self.ttft.merge(&other.ttft);
        self.inter_token.merge(&other.inter_token);
        self.queue_wait.merge(&other.queue_wait);
        self.e2e.merge(&other.e2e);
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            mine.merge(theirs);
        }
        self.journal_len += other.journal_len;
        self.journal_dropped += other.journal_dropped;
        self.journal_total += other.journal_total;
    }
}

/// Lifecycle state of a request in the `/debug/requests` live table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RequestState {
    /// Submitted, waiting for a resident slot.
    Queued,
    /// Resident, still teacher-forcing its prompt in chunks.
    Prefilling,
    /// Resident, producing tokens.
    Decoding,
}

impl RequestState {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            RequestState::Queued => "queued",
            RequestState::Prefilling => "prefilling",
            RequestState::Decoding => "decoding",
        }
    }
}

/// One row of the `/debug/requests` live table: where a request currently
/// is in its lifecycle and how much work has been done for it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RequestInfo {
    /// The request id.
    pub id: u64,
    /// Its QoS class.
    pub class: QosClass,
    /// Current lifecycle state.
    pub state: RequestState,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Prompt tokens already in the session's caches (store-attached
    /// prefix included); 0 while queued.
    pub tokens_fed: usize,
    /// Decode tokens produced so far.
    pub generated: usize,
    /// Milliseconds since submission.
    pub age_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use million_telemetry::RetireOutcome;

    #[test]
    fn disabled_recorder_reads_no_clock_and_records_nothing() {
        let mut t = ServingTelemetry::new(false, 128);
        assert!(t.clock().is_none(), "no Instant::now on the disabled path");
        t.record_ttft(99);
        t.record_phase(RoundPhase::Decode, 42);
        t.event(1, 1, EventKind::Cancelled);
        let snap = t.snapshot();
        assert_eq!(snap.ttft.count, 0);
        assert_eq!(snap.phases[RoundPhase::Decode.index()].count, 0);
        assert_eq!(snap.journal_total, 0);
        assert!(t.drain_events().is_empty());
    }

    #[test]
    fn snapshot_report_round_trips_and_merges() {
        let mut t = ServingTelemetry::new(true, 128);
        assert!(t.clock().is_some());
        for ns in [10u64, 1_000, 1_000_000] {
            t.record_ttft(ns);
        }
        t.record_queue_wait(77);
        t.event(
            4,
            2,
            EventKind::Retired {
                outcome: RetireOutcome::Completed,
                tokens: 3,
            },
        );
        let snap = t.snapshot();
        assert_eq!(snap.ttft.count, 3);
        assert_eq!(snap.ttft.sum_ns, 1_001_010);
        assert_eq!(snap.ttft.max_ns, 1_000_000);
        assert_eq!(snap.ttft.buckets.len(), HIST_BUCKETS);
        assert_eq!(snap.journal_len, 1);
        // Report -> raw snapshot -> report is lossless.
        let rebuilt = HistogramReport::from_snapshot(&snap.ttft.to_snapshot());
        assert_eq!(rebuilt, snap.ttft);
        // Fleet merge doubles every count and keeps exact sums.
        let mut fleet = TelemetrySnapshot::empty();
        fleet.merge(&snap);
        fleet.merge(&snap);
        assert!(fleet.enabled);
        assert_eq!(fleet.ttft.count, 6);
        assert_eq!(fleet.ttft.sum_ns, 2 * 1_001_010);
        assert_eq!(fleet.ttft.min_ns, 10);
        assert_eq!(fleet.queue_wait.count, 2);
        assert_eq!(fleet.journal_len, 2);
        let drained = t.drain_events();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].request, 4);
    }

    #[test]
    fn snapshot_and_request_info_serialize_as_json() {
        let mut t = ServingTelemetry::new(true, 8);
        t.record_e2e(123);
        t.record_phase(RoundPhase::Retire, 5);
        let doc = serde_json::to_string(&t.snapshot()).expect("snapshot serializes");
        let value: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        assert_eq!(
            value
                .get("e2e")
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            value
                .get("phases")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(4)
        );
        let row = RequestInfo {
            id: 7,
            class: QosClass::Interactive,
            state: RequestState::Prefilling,
            prompt_tokens: 48,
            tokens_fed: 16,
            generated: 0,
            age_ms: 12,
        };
        let doc = serde_json::to_string(&row).expect("row serializes");
        assert!(doc.contains("\"Prefilling\""), "{doc}");
        assert_eq!(RequestState::Prefilling.name(), "prefilling");
        assert_eq!(RoundPhase::PrefillChunk.name(), "prefill_chunk");
    }
}
