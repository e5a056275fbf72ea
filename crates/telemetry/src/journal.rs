//! Bounded ring-buffer journal of typed request-lifecycle events, and its
//! Chrome trace-event renderer.
//!
//! The journal answers "why was request X slow?" after the fact: every
//! scheduling decision that touches a request (submission, admission, each
//! prefill chunk, the first produced token, cancellation, timeout,
//! retirement) is recorded with the serving round it happened in and a
//! monotonic timestamp. The ring is preallocated, so pushing is
//! allocation-free; when full, the oldest event is dropped and counted —
//! the journal degrades by forgetting history, never by pausing serving.

use std::collections::VecDeque;

/// How a retired request left the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireOutcome {
    /// Decoded to its stop token or token budget.
    Completed,
    /// Client-cancelled (before or after admission).
    Cancelled,
    /// Missed its deadline and was retired at a round boundary.
    TimedOut,
}

impl RetireOutcome {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            RetireOutcome::Completed => "completed",
            RetireOutcome::Cancelled => "cancelled",
            RetireOutcome::TimedOut => "timed_out",
        }
    }
}

/// One typed request-lifecycle event. Payloads are scalar so the type is
/// `Copy` and journal pushes never touch the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The request entered the pending queue.
    Submit {
        /// QoS class name (a static string, e.g. `"interactive"`).
        class: &'static str,
        /// Prompt length in tokens.
        prompt_tokens: u32,
    },
    /// The request was admitted into a resident slot.
    Admit {
        /// Wall-clock nanoseconds spent in the pending queue.
        queue_wait_ns: u64,
    },
    /// One prefill chunk of the prompt was teacher-forced.
    PrefillChunk {
        /// Prompt tokens fed so far (store-attached prefix included).
        fed: u32,
        /// Prompt tokens still owed.
        remaining: u32,
    },
    /// The request produced its first decode token.
    FirstToken {
        /// Wall-clock nanoseconds from submission to the first token.
        ttft_ns: u64,
    },
    /// A client cancellation was honoured at a round boundary (the chunk
    /// boundary, for a prefilling resident — the preemption point).
    Cancelled,
    /// The request's deadline expired and was honoured at a round boundary.
    TimedOut,
    /// The request left the engine and its report was published.
    Retired {
        /// How it left.
        outcome: RetireOutcome,
        /// Decode tokens it produced.
        tokens: u32,
    },
}

impl EventKind {
    /// Stable lowercase event name (the Chrome trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Submit { .. } => "submit",
            EventKind::Admit { .. } => "admit",
            EventKind::PrefillChunk { .. } => "prefill_chunk",
            EventKind::FirstToken { .. } => "first_token",
            EventKind::Cancelled => "cancel",
            EventKind::TimedOut => "timeout",
            EventKind::Retired { .. } => "retire",
        }
    }
}

/// One journal entry: what happened, to which request, when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Monotonic nanoseconds since the journal owner's epoch (the engine's
    /// construction time).
    pub t_ns: u64,
    /// The request id the event belongs to.
    pub request: u64,
    /// The serving round the event was recorded in.
    pub round: u64,
    /// The typed payload.
    pub kind: EventKind,
}

/// A bounded ring buffer of [`Event`]s. Preallocated at construction;
/// pushing never allocates, and a full ring drops its oldest entry.
#[derive(Debug)]
pub struct EventJournal {
    ring: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    total: u64,
}

impl EventJournal {
    /// A journal holding at most `capacity` events (0 disables recording).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            total: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: Event) {
        self.total += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured ring size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted (or refused, with capacity 0) since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events ever pushed, buffered or not.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterates over the buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Takes every buffered event out, oldest first. The ring keeps its
    /// allocation, so subsequent pushes stay allocation-free.
    pub fn drain(&mut self) -> Vec<Event> {
        self.ring.drain(..).collect()
    }
}

/// Escapes a string for a JSON literal (the event names and class labels
/// this crate emits never need it, but the renderer stays safe by
/// construction).
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_common(out: &mut String, name: &str, ph: char, t_ns: u64, pid: u64, request: u64) {
    out.push_str("{\"name\":\"");
    json_escape(name, out);
    out.push_str("\",\"cat\":\"request\",\"ph\":\"");
    out.push(ph);
    // Trace timestamps are microseconds; keep nanosecond precision in the
    // fraction.
    out.push_str(&format!(
        "\",\"ts\":{}.{:03},\"pid\":{pid},\"tid\":{request}",
        t_ns / 1_000,
        t_ns % 1_000
    ));
}

/// Renders per-shard event dumps as a Chrome trace-event JSON document
/// (load it in `chrome://tracing` or Perfetto). Each shard becomes a
/// process (`pid`), each request a thread (`tid`); every event is an
/// instant marker, and the submit→retire lifetime of a request is bridged
/// by an async `b`/`e` span so the tools draw its full residency.
pub fn render_chrome_trace(shards: &[(u64, Vec<Event>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, events) in shards {
        for event in events {
            let mut emit = |name: &str, ph: char, args: &str| {
                if !first {
                    out.push(',');
                }
                first = false;
                push_common(&mut out, name, ph, event.t_ns, *pid, event.request);
                if ph == 'b' || ph == 'e' {
                    out.push_str(&format!(",\"id\":{}", event.request));
                }
                if ph == 'i' {
                    out.push_str(",\"s\":\"t\"");
                }
                out.push_str(&format!(",\"args\":{{\"round\":{}{args}}}}}", event.round));
            };
            let span: Option<(&str, char)> = match event.kind {
                EventKind::Submit { .. } => Some(("request", 'b')),
                EventKind::Retired { .. } => Some(("request", 'e')),
                _ => None,
            };
            match event.kind {
                EventKind::Submit {
                    class,
                    prompt_tokens,
                } => emit(
                    "submit",
                    'i',
                    &format!(",\"class\":\"{class}\",\"prompt_tokens\":{prompt_tokens}"),
                ),
                EventKind::Admit { queue_wait_ns } => {
                    emit("admit", 'i', &format!(",\"queue_wait_ns\":{queue_wait_ns}"))
                }
                EventKind::PrefillChunk { fed, remaining } => emit(
                    "prefill_chunk",
                    'i',
                    &format!(",\"fed\":{fed},\"remaining\":{remaining}"),
                ),
                EventKind::FirstToken { ttft_ns } => {
                    emit("first_token", 'i', &format!(",\"ttft_ns\":{ttft_ns}"))
                }
                EventKind::Cancelled => emit("cancel", 'i', ""),
                EventKind::TimedOut => emit("timeout", 'i', ""),
                EventKind::Retired { outcome, tokens } => emit(
                    "retire",
                    'i',
                    &format!(",\"outcome\":\"{}\",\"tokens\":{tokens}", outcome.name()),
                ),
            }
            if let Some((name, ph)) = span {
                emit(name, ph, "");
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(t_ns: u64, request: u64, kind: EventKind) -> Event {
        Event {
            t_ns,
            request,
            round: 3,
            kind,
        }
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut journal = EventJournal::new(2);
        for i in 0..5u64 {
            journal.push(event(i, i, EventKind::Cancelled));
        }
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.dropped(), 3);
        assert_eq!(journal.total(), 5);
        let kept: Vec<u64> = journal.iter().map(|e| e.request).collect();
        assert_eq!(kept, vec![3, 4], "oldest evicted first");
        let drained = journal.drain();
        assert_eq!(drained.len(), 2);
        assert!(journal.is_empty());
    }

    #[test]
    fn zero_capacity_refuses_everything() {
        let mut journal = EventJournal::new(0);
        journal.push(event(1, 1, EventKind::TimedOut));
        assert!(journal.is_empty());
        assert_eq!(journal.dropped(), 1);
        assert_eq!(journal.total(), 1);
    }

    #[test]
    fn chrome_trace_renders_spans_and_instants() {
        let events = vec![
            event(
                1_500,
                7,
                EventKind::Submit {
                    class: "interactive",
                    prompt_tokens: 12,
                },
            ),
            event(2_000, 7, EventKind::Admit { queue_wait_ns: 500 }),
            event(2_500, 7, EventKind::FirstToken { ttft_ns: 1_000 }),
            event(
                9_001,
                7,
                EventKind::Retired {
                    outcome: RetireOutcome::Completed,
                    tokens: 4,
                },
            ),
        ];
        let doc = render_chrome_trace(&[(0, events)]);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"submit\""));
        assert!(doc.contains("\"ph\":\"b\""), "submit opens the span");
        assert!(doc.contains("\"ph\":\"e\""), "retire closes the span");
        assert!(doc.contains("\"ts\":1.500"), "µs with ns fraction");
        assert!(doc.contains("\"ts\":9.001"));
        assert!(doc.contains("\"queue_wait_ns\":500"));
        assert!(doc.contains("\"outcome\":\"completed\""));
        assert!(doc.contains("\"tid\":7"));
        // Balanced braces — the document parses as JSON downstream.
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes);
    }
}
