//! Prometheus text exposition of the fleet's metrics.
//!
//! Renders the same [`ShardSnapshot`]s the JSON `/metrics` document
//! carries into text-exposition format 0.0.4: every serving counter,
//! load gauge, store counter, and latency histogram appears once per
//! shard (`shard="0"`, `shard="1"`, …) and once summed over the fleet
//! (`shard="fleet"`). Histograms are exported in **seconds** with
//! cumulative log2 `le` bounds; counts and sums stay exact because the
//! underlying buckets are merged before rendering, never re-sampled.
//!
//! All metric names carry the `million_` prefix. The renderer is pure
//! formatting over snapshots already fetched — it takes no locks and
//! performs no channel round-trips of its own.

use million::{HistogramReport, QosClass, RoundPhase, TelemetrySnapshot};
use million_telemetry::PromWriter;

pub use million_telemetry::PROMETHEUS_CONTENT_TYPE;

use crate::shard::{ShardHealth, ShardSnapshot};

fn shard_label(shard: usize) -> String {
    format!("shard=\"{shard}\"")
}

const FLEET: &str = "shard=\"fleet\"";

/// One counter metric: a row per shard plus the fleet sum.
fn counter(
    w: &mut PromWriter,
    shards: &[ShardSnapshot],
    name: &str,
    help: &str,
    pick: impl Fn(&ShardSnapshot) -> u64,
) {
    w.header(name, "counter", help);
    for s in shards {
        w.int_value(name, &shard_label(s.shard), pick(s));
    }
    w.int_value(name, FLEET, shards.iter().map(pick).sum());
}

/// One integer gauge metric: a row per shard plus the fleet sum.
fn gauge(
    w: &mut PromWriter,
    shards: &[ShardSnapshot],
    name: &str,
    help: &str,
    pick: impl Fn(&ShardSnapshot) -> u64,
) {
    w.header(name, "gauge", help);
    for s in shards {
        w.int_value(name, &shard_label(s.shard), pick(s));
    }
    w.int_value(name, FLEET, shards.iter().map(pick).sum());
}

/// One per-class counter: a row per shard per QoS class, plus per-class
/// fleet sums.
fn class_counter(
    w: &mut PromWriter,
    shards: &[ShardSnapshot],
    name: &str,
    help: &str,
    pick: impl Fn(&ShardSnapshot, usize) -> u64,
) {
    w.header(name, "counter", help);
    for s in shards {
        for class in QosClass::ALL {
            let labels = format!("shard=\"{}\",class=\"{}\"", s.shard, class.name());
            w.int_value(name, &labels, pick(s, class.index()));
        }
    }
    for class in QosClass::ALL {
        let labels = format!("{FLEET},class=\"{}\"", class.name());
        let total = shards.iter().map(|s| pick(s, class.index())).sum();
        w.int_value(name, &labels, total);
    }
}

/// One latency histogram: a cumulative series per shard plus the merged
/// fleet series.
fn histogram(
    w: &mut PromWriter,
    shards: &[ShardSnapshot],
    fleet: &TelemetrySnapshot,
    name: &str,
    help: &str,
    pick: impl Fn(&TelemetrySnapshot) -> &HistogramReport,
) {
    w.header(name, "histogram", help);
    for s in shards {
        w.histogram(
            name,
            &shard_label(s.shard),
            &pick(&s.telemetry).to_snapshot(),
        );
    }
    w.histogram(name, FLEET, &pick(fleet).to_snapshot());
}

/// Merges every shard's telemetry into the fleet-total snapshot.
pub fn fleet_telemetry(shards: &[ShardSnapshot]) -> TelemetrySnapshot {
    let mut fleet = TelemetrySnapshot::empty();
    for s in shards {
        fleet.merge(&s.telemetry);
    }
    fleet
}

/// Renders the full scrape body for `GET /metrics`.
///
/// `shards` carries one snapshot per *responsive* shard; `health` carries
/// one supervision row per *configured* shard, so crashed shards stay
/// visible in the supervision series even while their snapshot is absent.
pub fn render(shards: &[ShardSnapshot], health: &[ShardHealth]) -> String {
    let fleet = fleet_telemetry(shards);
    let mut w = PromWriter::new();

    // Supervision series come from the health rows, not the snapshots:
    // a dead shard answers no snapshot request but its atomics still read.
    w.header(
        "million_shard_state",
        "gauge",
        "Supervision state per shard (0 = live, 1 = restarting, 2 = failed).",
    );
    for h in health {
        w.int_value(
            "million_shard_state",
            &shard_label(h.shard),
            h.state.gauge_value(),
        );
    }
    w.header(
        "million_shard_restarts_total",
        "counter",
        "Times the supervisor restarted a crashed shard.",
    );
    for h in health {
        w.int_value(
            "million_shard_restarts_total",
            &shard_label(h.shard),
            h.restarts,
        );
    }
    w.int_value(
        "million_shard_restarts_total",
        FLEET,
        health.iter().map(|h| h.restarts).sum(),
    );

    // Serving lifecycle counters.
    counter(
        &mut w,
        shards,
        "million_requests_submitted_total",
        "Requests accepted into a pending queue.",
        |s| s.stats.submitted,
    );
    counter(
        &mut w,
        shards,
        "million_requests_admitted_total",
        "Requests admitted to a resident decode slot.",
        |s| s.stats.admitted,
    );
    counter(
        &mut w,
        shards,
        "million_requests_completed_total",
        "Requests retired after completing.",
        |s| s.stats.completed,
    );
    counter(
        &mut w,
        shards,
        "million_requests_cancelled_total",
        "Requests retired by client cancellation.",
        |s| s.stats.cancelled,
    );
    counter(
        &mut w,
        shards,
        "million_requests_timed_out_total",
        "Requests retired by a missed deadline.",
        |s| s.stats.timed_out,
    );
    counter(
        &mut w,
        shards,
        "million_requests_rejected_total",
        "Submissions rejected with a full queue.",
        |s| s.stats.rejected,
    );
    counter(
        &mut w,
        shards,
        "million_rounds_total",
        "Scheduling rounds served.",
        |s| s.stats.rounds,
    );
    counter(
        &mut w,
        shards,
        "million_prefill_chunks_total",
        "Prefill chunks executed.",
        |s| s.stats.prefill_chunks,
    );
    class_counter(
        &mut w,
        shards,
        "million_tokens_total",
        "Decode tokens produced, by QoS class.",
        |s, i| s.stats.tokens_by_class[i],
    );
    class_counter(
        &mut w,
        shards,
        "million_prefill_tokens_total",
        "Prompt tokens prefilled, by QoS class.",
        |s, i| s.stats.prefill_tokens_by_class[i],
    );
    counter(
        &mut w,
        shards,
        "million_snapshot_writes_total",
        "Session checkpoints durably written (temp + fsync + rename).",
        |s| s.stats.snapshot_writes,
    );
    counter(
        &mut w,
        shards,
        "million_snapshot_crc_failures_total",
        "Checkpoint restores rejected for corruption (bad magic, CRC, or truncation).",
        |s| s.stats.snapshot_crc_failures,
    );
    counter(
        &mut w,
        shards,
        "million_journal_events_total",
        "Request-lifecycle events recorded.",
        |s| s.telemetry.journal_total,
    );
    counter(
        &mut w,
        shards,
        "million_journal_dropped_total",
        "Lifecycle events evicted from the full journal ring.",
        |s| s.telemetry.journal_dropped,
    );

    // Load gauges.
    gauge(
        &mut w,
        shards,
        "million_queued_requests",
        "Requests waiting in the pending queue.",
        |s| s.queued as u64,
    );
    gauge(
        &mut w,
        shards,
        "million_resident_sessions",
        "Sessions holding a decode slot.",
        |s| s.resident as u64,
    );
    gauge(
        &mut w,
        shards,
        "million_prefilling_sessions",
        "Residents still admitting their prompt in chunks.",
        |s| s.prefilling as u64,
    );
    gauge(
        &mut w,
        shards,
        "million_prefill_tokens_remaining",
        "Prompt tokens still to be prefilled across prefilling residents.",
        |s| s.prefill_tokens_remaining as u64,
    );
    gauge(
        &mut w,
        shards,
        "million_kv_bytes",
        "Quantized KV bytes across live sessions (shared blocks counted once per session).",
        |s| s.kv_bytes as u64,
    );
    gauge(
        &mut w,
        shards,
        "million_fleet_kv_bytes",
        "KV bytes resident in the store (shared blocks counted once) plus full-precision tails.",
        |s| s.fleet_kv_bytes as u64,
    );
    gauge(
        &mut w,
        shards,
        "million_draining",
        "Whether admission is closed (1 = draining).",
        |s| u64::from(s.draining),
    );
    gauge(
        &mut w,
        shards,
        "million_telemetry_enabled",
        "Whether the latency instruments are recording (1 = on).",
        |s| u64::from(s.telemetry.enabled),
    );

    // Store counters/gauges, for shards running a block store.
    let stored: Vec<&ShardSnapshot> = shards.iter().filter(|s| s.store.is_some()).collect();
    if !stored.is_empty() {
        let store_gauge = |w: &mut PromWriter,
                           name: &str,
                           help: &str,
                           pick: &dyn Fn(&million::StoreStats) -> u64| {
            w.header(name, "gauge", help);
            let mut total = 0u64;
            for s in &stored {
                let v = pick(s.store.as_ref().expect("filtered on store"));
                w.int_value(name, &shard_label(s.shard), v);
                total += v;
            }
            w.int_value(name, FLEET, total);
        };
        store_gauge(
            &mut w,
            "million_store_live_blocks",
            "PQ blocks currently resident in the store.",
            &|st| st.live_blocks as u64,
        );
        store_gauge(
            &mut w,
            "million_store_resident_bytes",
            "Packed code bytes resident (each block counted once).",
            &|st| st.resident_bytes as u64,
        );
        store_gauge(
            &mut w,
            "million_store_shared_blocks",
            "Resident blocks referenced by two or more sessions.",
            &|st| st.shared_blocks as u64,
        );
        store_gauge(
            &mut w,
            "million_store_cached_blocks",
            "Zero-reference blocks retained under the byte budget.",
            &|st| st.cached_blocks as u64,
        );
        store_gauge(
            &mut w,
            "million_store_attach_hits",
            "Blocks attached at admission via a prefix hit.",
            &|st| st.attach_hits as u64,
        );
        store_gauge(
            &mut w,
            "million_store_dedup_hits",
            "Publishes that converged on an identical resident block.",
            &|st| st.dedup_hits as u64,
        );
        store_gauge(
            &mut w,
            "million_store_evicted_blocks",
            "Blocks evicted from the slab for any reason.",
            &|st| st.evicted as u64,
        );

        w.header("million_store_dedup_ratio", "gauge", "Logical bytes referenced over physical store bytes (> 1 when prefix sharing deduplicates).");
        for s in &stored {
            w.value(
                "million_store_dedup_ratio",
                &shard_label(s.shard),
                s.dedup_ratio,
            );
        }
        let max = stored.iter().map(|s| s.dedup_ratio).fold(0.0, f64::max);
        w.value("million_store_dedup_ratio", FLEET, max);
    }

    // Latency histograms (seconds, cumulative log2 bounds).
    histogram(
        &mut w,
        shards,
        &fleet,
        "million_ttft_seconds",
        "Submission to first decode token.",
        |t| &t.ttft,
    );
    histogram(
        &mut w,
        shards,
        &fleet,
        "million_inter_token_seconds",
        "Gap between consecutive decode tokens of one request.",
        |t| &t.inter_token,
    );
    histogram(
        &mut w,
        shards,
        &fleet,
        "million_queue_wait_seconds",
        "Submission to admission into a resident slot.",
        |t| &t.queue_wait,
    );
    histogram(
        &mut w,
        shards,
        &fleet,
        "million_request_duration_seconds",
        "Submission to retirement, end to end.",
        |t| &t.e2e,
    );

    w.header(
        "million_round_phase_seconds",
        "histogram",
        "Duration of each serve_round phase (retire, admit, prefill_chunk, decode).",
    );
    for phase in RoundPhase::ALL {
        for s in shards {
            let labels = format!("shard=\"{}\",phase=\"{}\"", s.shard, phase.name());
            w.histogram(
                "million_round_phase_seconds",
                &labels,
                &s.telemetry.phases[phase.index()].to_snapshot(),
            );
        }
        let labels = format!("{FLEET},phase=\"{}\"", phase.name());
        w.histogram(
            "million_round_phase_seconds",
            &labels,
            &fleet.phases[phase.index()].to_snapshot(),
        );
    }

    w.finish()
}
