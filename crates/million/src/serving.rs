//! Continuous-batching serving front-end: a request queue, an
//! iteration-level scheduler, streaming handles, and QoS classes.
//!
//! A [`ServingEngine`] schedules at **iteration granularity** — the unit of
//! work is one decode round, not one request, so a long request never keeps
//! a finished slot idle:
//!
//! 1. clients [`ServingEngine::submit`] a [`Request`] (prompt, generation
//!    options, sampler, [`QosClass`]) and get a [`RequestHandle`] back that
//!    streams tokens as they are produced and resolves to the final
//!    [`SessionReport`];
//! 2. every [`ServingEngine::serve_round`] first **retires** finished and
//!    cancelled requests (freeing their slots and KV immediately), then
//!    **admits** pending requests into the freed slots under the admission
//!    policy — resident-session cap plus a KV-byte budget metered against
//!    the physical fleet footprint (session-private bytes + store-resident
//!    bytes, each counted once) — and finally runs one **deficit-weighted
//!    round-robin** pass of decode steps over the resident batch;
//! 3. admission feeds the prompt in fixed-size **prefill chunks**
//!    ([`ServingConfig::prefill_chunk_tokens`]) scheduled as first-class
//!    DWRR work items: a request admits into the *Prefilling* state
//!    (resident store prefixes attach first, when
//!    [`crate::MillionConfig::prefix_sharing`] is on), each round charges it
//!    one chunk of teacher-forced prompt against its class's deficit, and it
//!    transitions to decoding when the prompt is exhausted — so a long
//!    arrival *interleaves* with the batch's decode rounds instead of
//!    freezing them, never stalling resident decodes for more than one
//!    chunk's worth of work. The request decodes its first token in the
//!    same round its final chunk lands. Chunking is invisible in the token
//!    stream: a prompt's chunks attend over the history so far — an
//!    attached prefix decoded to its centroids, then the prompt's own
//!    tokens at full precision — and its last chunk encodes it, which is
//!    one prefill bit for bit ([`InferenceSession::prefill_begin`]).
//!
//! **Fairness.** Each resident request accumulates `weight(class)` deficit
//! per round and spends `quantum = min(weight over active residents)` per
//! decode step, so classes get token throughput proportional to their
//! weights (4 : 2 : 1 for interactive : standard : background) and every
//! active request — weight ≥ quantum — decodes at least one token per
//! round: no resident request ever starves. Admission picks the
//! highest-class pending request first (FIFO within a class), with aging:
//! a request that has waited [`ServingConfig::admission_aging_rounds`]
//! rounds is treated as interactive, so backlogged background work cannot
//! be overtaken forever.
//!
//! **Backpressure and cancellation** are first-class: a full pending queue
//! rejects the submission with [`SubmitError::QueueFull`] (the caller sheds
//! load instead of the engine), and [`RequestHandle::cancel`] takes effect
//! at the next round boundary whether the request is still queued or already
//! decoding — a cancelled resident frees its slot exactly like a completed
//! one.
//!
//! Because every session owns independent KV caches, interleaving never
//! changes what attention sees: a request's token stream is bit-identical to
//! running it alone on a fresh session, no matter what the rest of the fleet
//! does (pinned in `tests/serving_api.rs`). A fixed cohort is the same loop
//! with nothing held back: `max_resident: usize::MAX`, `submit` × N,
//! [`ServingEngine::run_until_idle`], [`ServingEngine::shutdown`].

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use million_model::Sampler;
use million_store::persist::atomic_write;
use million_telemetry::{Event, EventKind, RetireOutcome};
use serde::Serialize;

use crate::async_quant::QuantWorker;
use crate::engine::MillionEngine;
use crate::fault::FaultPlan;
use crate::observe::{RequestInfo, RequestState, RoundPhase, ServingTelemetry, TelemetrySnapshot};
use crate::session::{GenerationOptions, InferenceSession, StepResult};

/// Quality-of-service class of a request, ordered from most to least
/// urgent. The class weight sets the request's share of decode throughput
/// (deficit-weighted round-robin) and its admission priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum QosClass {
    /// Latency-sensitive traffic: weight 4.
    Interactive,
    /// The default class: weight 2.
    Standard,
    /// Throughput traffic that yields to everything else: weight 1.
    Background,
}

impl QosClass {
    /// Every class, most urgent first.
    pub const ALL: [QosClass; 3] = [
        QosClass::Interactive,
        QosClass::Standard,
        QosClass::Background,
    ];

    /// Relative decode-throughput share of the class.
    pub fn weight(self) -> u32 {
        match self {
            QosClass::Interactive => 4,
            QosClass::Standard => 2,
            QosClass::Background => 1,
        }
    }

    /// Dense index (position in [`QosClass::ALL`]) for per-class tallies.
    pub fn index(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Standard => 1,
            QosClass::Background => 2,
        }
    }

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Standard => "standard",
            QosClass::Background => "background",
        }
    }
}

/// One unit of serving work: a prompt plus how to decode it.
#[derive(Debug, Clone)]
pub struct Request {
    /// The prompt tokens to admit.
    pub prompt: Vec<u32>,
    /// Token budget and stop criteria.
    pub options: GenerationOptions,
    /// Sampler driving this request's decode steps.
    pub sampler: Sampler,
    /// Scheduling class (admission priority and throughput share).
    pub class: QosClass,
    /// Optional wall-clock deadline, measured from submission: once
    /// exceeded, the request is cancelled at the next round boundary —
    /// dropped from the queue if still pending, retired with whatever it
    /// produced if resident — and its [`SessionReport::timed_out`] flag is
    /// set (distinct from client cancellation). `None` = no deadline.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A greedy, standard-class request.
    pub fn new(prompt: Vec<u32>, options: GenerationOptions) -> Self {
        Self {
            prompt,
            options,
            sampler: Sampler::greedy(),
            class: QosClass::Standard,
            deadline_ms: None,
        }
    }

    /// Sets the sampler.
    #[must_use]
    pub fn with_sampler(mut self, sampler: Sampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the QoS class.
    #[must_use]
    pub fn with_class(mut self, class: QosClass) -> Self {
        self.class = class;
        self
    }

    /// Sets a wall-clock deadline in milliseconds from submission (see
    /// [`Request::deadline_ms`]).
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

/// Why a submission was rejected. Rejection is synchronous backpressure:
/// nothing about the engine changed, the caller decides whether to retry,
/// shed, or divert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue is at [`ServingConfig::queue_capacity`].
    QueueFull {
        /// The configured capacity the queue is at.
        capacity: usize,
    },
    /// The prompt holds no tokens.
    EmptyPrompt,
    /// The prompt cannot fit the model's context window with at least one
    /// generated token.
    PromptTooLong {
        /// Tokens submitted.
        len: usize,
        /// The model's context window.
        max_seq_len: usize,
    },
    /// The prompt holds a token id the model has no embedding for.
    TokenOutOfVocab {
        /// The first offending token id.
        token: u32,
        /// The model's vocabulary size.
        vocab_size: usize,
    },
    /// The engine is draining ([`ServingEngine::drain`]): admission is
    /// permanently closed on this instance.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "pending queue is full ({capacity} requests)")
            }
            SubmitError::EmptyPrompt => write!(f, "prompt must hold at least one token"),
            SubmitError::PromptTooLong { len, max_seq_len } => write!(
                f,
                "prompt of {len} tokens cannot fit the {max_seq_len}-token context window"
            ),
            SubmitError::TokenOutOfVocab { token, vocab_size } => write!(
                f,
                "prompt token {token} is outside the {vocab_size}-token vocabulary"
            ),
            SubmitError::Draining => write!(f, "engine is draining; admission is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Identifier of a submitted request, unique within one [`ServingEngine`]
/// (assigned in submission order starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw id.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw value — for looking up recovered
    /// sessions when only the wire-format id (e.g. from an SSE frame) is
    /// at hand.
    pub fn from_u64(raw: u64) -> RequestId {
        RequestId(raw)
    }
}

/// State shared between a [`RequestHandle`] and the engine's slot for it.
#[derive(Debug)]
struct HandleShared {
    cancel: AtomicBool,
    report: Mutex<Option<SessionReport>>,
}

/// The client's side of a submitted request: a token stream, a cancel
/// switch, and the final report.
///
/// The handle owns no engine borrow — it can be held (or moved to another
/// thread) while the engine keeps serving. Tokens arrive through a buffered
/// channel as rounds produce them; dropping the handle does not cancel the
/// request.
#[derive(Debug)]
pub struct RequestHandle {
    id: RequestId,
    class: QosClass,
    rx: Receiver<StepResult>,
    shared: Arc<HandleShared>,
    recovered_tokens: usize,
}

impl RequestHandle {
    /// The engine-assigned request id.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// The request's QoS class.
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// Tokens the request had already produced when its checkpoint was
    /// taken — `0` for ordinary submissions. A handle returned by
    /// [`ServingEngine::recover`] streams only the continuation; a
    /// front-end that already delivered `n` tokens to its client resumes by
    /// skipping the first `n - recovered_tokens()` steps of this stream
    /// (tokens produced between the checkpoint and the crash are replayed
    /// bit-identically).
    pub fn recovered_tokens(&self) -> usize {
        self.recovered_tokens
    }

    /// Requests cancellation. Takes effect at the next round boundary: a
    /// queued request is dropped without admission, a resident one is
    /// retired (its report carries the tokens produced so far and
    /// [`SessionReport::cancelled`] set). Idempotent.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
    }

    /// Pulls the next streamed token if one is ready (never blocks).
    pub fn try_token(&self) -> Option<StepResult> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the next streamed token — the primitive a
    /// network front-end's per-connection thread pumps instead of spinning
    /// on [`RequestHandle::try_token`]. [`TokenWait::Closed`] means the
    /// engine has retired the request and dropped its sender: every token is
    /// already delivered (or drained) and [`RequestHandle::report`] is about
    /// to be — or already is — available.
    pub fn recv_token(&self, timeout: Duration) -> TokenWait {
        match self.rx.recv_timeout(timeout) {
            Ok(step) => TokenWait::Token(step),
            Err(RecvTimeoutError::Timeout) => TokenWait::Idle,
            Err(RecvTimeoutError::Disconnected) => TokenWait::Closed,
        }
    }

    /// Drains every token streamed since the last call.
    pub fn drain_tokens(&self) -> Vec<StepResult> {
        let mut out = Vec::new();
        while let Ok(step) = self.rx.try_recv() {
            out.push(step);
        }
        out
    }

    /// Whether the request has been retired (completed or cancelled).
    pub fn is_finished(&self) -> bool {
        self.shared
            .report
            .lock()
            .expect("request handle poisoned")
            .is_some()
    }

    /// The final report, once the request has been retired.
    pub fn report(&self) -> Option<SessionReport> {
        self.shared
            .report
            .lock()
            .expect("request handle poisoned")
            .clone()
    }
}

/// Outcome of one blocking [`RequestHandle::recv_token`] wait.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenWait {
    /// A token arrived.
    Token(StepResult),
    /// The timeout elapsed with the request still live (queued or decoding).
    Idle,
    /// The request is retired and its stream is closed; no token will ever
    /// arrive again.
    Closed,
}

/// Admission and queueing policy of a [`ServingEngine`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Maximum sessions decoding at once. Freed slots are refilled from the
    /// pending queue at the next round boundary.
    pub max_resident: usize,
    /// Maximum pending (submitted, not yet admitted) requests before
    /// [`ServingEngine::submit`] rejects with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Admission KV budget in bytes, metered against the *unreclaimable*
    /// fleet footprint: resident sessions' private bytes plus the store's
    /// resident bytes (shared blocks counted once), **minus** zero-ref
    /// blocks parked in a budgeted store's cached pool (evictable on
    /// demand, so they never consume admission capacity), plus a
    /// quantized-size estimate of the candidate's prompt. `None` disables
    /// the byte gate. The budget is a soft bound — when no session is
    /// resident the head request is admitted regardless, so serving always
    /// makes progress.
    pub kv_byte_budget: Option<usize>,
    /// Rounds after which a pending request is promoted to interactive
    /// admission priority, so admission-priority traffic cannot overtake a
    /// backlogged class forever.
    pub admission_aging_rounds: u64,
    /// Admission prefill chunk size in tokens. A prompt is admitted into the
    /// *Prefilling* state and teacher-forced one chunk per serve round, so a
    /// long arrival never stalls resident decodes for more than one chunk's
    /// worth of work and stays preemptible (cancel/deadline/drain land at
    /// chunk boundaries). A non-final chunk consumes the slot's whole round
    /// allowance; the round that exhausts the prompt also decodes the
    /// request's first token, so chunking never changes a request's token
    /// stream — only when its tokens are produced. Must be at least 1; any
    /// value ≥ the prompt length admits the whole prompt in one chunk.
    pub prefill_chunk_tokens: usize,
    /// Whether the engine records serving telemetry: the TTFT /
    /// inter-token / queue-wait / end-to-end latency histograms, per-phase
    /// `serve_round` timing, and the request-lifecycle event journal (see
    /// [`crate::observe::ServingTelemetry`]). When off, the instrumented
    /// paths take **no** `Instant::now()` readings and touch nothing but
    /// the flag — per-request report timing ([`SessionReport::prefill_ns`],
    /// [`SessionReport::queue_wait_ns`], [`SessionReport::first_token_ns`],
    /// [`SessionReport::decode_ns`]) is part of the report contract and
    /// stays on regardless.
    pub telemetry: bool,
    /// Capacity of the request-lifecycle event journal ring (events, not
    /// bytes). The ring is preallocated and drops its oldest entry when
    /// full, so journalling never allocates or blocks serving. `0`
    /// disables journalling while keeping the histograms.
    pub journal_events: usize,
    /// Directory for crash-recovery checkpoints. When set (and
    /// [`ServingConfig::checkpoint_every_rounds`] is non-zero), every
    /// resident — decoding or still prefilling — is periodically
    /// checkpointed to `dir/request-<id>.ckpt` (sampler state, token
    /// budget, stream progress and unfed prompt included), and the file is
    /// removed when the request retires for good. After a crash,
    /// [`ServingEngine::recover`] re-admits the survivors for bit-identical
    /// continuation. `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in rounds (checkpoints are written at round
    /// boundaries when `round % checkpoint_every_rounds == 0`). `0`
    /// disables checkpointing even when a directory is configured.
    pub checkpoint_every_rounds: u64,
    /// Deterministic fault-injection schedule for chaos testing (see
    /// [`crate::FaultPlan`]): injected `QueueFull` rejections at `submit`,
    /// injected I/O errors on checkpoint/snapshot writes, and short reads
    /// on checkpoint recovery. `None` (the default) injects nothing and
    /// costs nothing on the serving path.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            max_resident: 8,
            queue_capacity: 64,
            kv_byte_budget: None,
            admission_aging_rounds: 64,
            prefill_chunk_tokens: 512,
            telemetry: true,
            journal_events: 4096,
            checkpoint_dir: None,
            checkpoint_every_rounds: 0,
            fault_plan: None,
        }
    }
}

/// Aggregate serving counters (monotonic; gauges are methods on
/// [`ServingEngine`]). Serializable so metrics endpoints can export it
/// without hand-formatting JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ServingStats {
    /// Requests accepted by [`ServingEngine::submit`].
    pub submitted: u64,
    /// Submissions rejected with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Requests admitted to a resident slot.
    pub admitted: u64,
    /// Requests retired after completing.
    pub completed: u64,
    /// Requests retired by cancellation (queued or resident).
    pub cancelled: u64,
    /// Requests retired by a missed [`Request::deadline_ms`] (queued or
    /// resident) — counted here, never in `cancelled`.
    pub timed_out: u64,
    /// Scheduling rounds served.
    pub rounds: u64,
    /// High-water pending-queue depth.
    pub max_queue_depth: usize,
    /// High-water resident-session count.
    pub max_resident_sessions: usize,
    /// Decode tokens produced per class, indexed by [`QosClass::index`] —
    /// the fairness ledger the DWRR weights are checked against.
    pub tokens_by_class: [u64; 3],
    /// Prefill chunks executed.
    pub prefill_chunks: u64,
    /// Prompt tokens prefilled per class, indexed by [`QosClass::index`] —
    /// the admission side of the fairness ledger. Tokens satisfied from
    /// resident store prefixes are not counted: attachment costs no prefill
    /// work.
    pub prefill_tokens_by_class: [u64; 3],
    /// Checkpoint files written successfully (periodic round checkpoints
    /// and persist-mode drains both count here).
    pub snapshot_writes: u64,
    /// Checkpoint restores rejected during [`ServingEngine::recover`] —
    /// corrupt, truncated, or unreadable files, each surfaced as a typed
    /// failure rather than a panic or a silent misread.
    pub snapshot_crc_failures: u64,
}

/// Final state of one served request. Serializable so metrics endpoints and
/// dashboards can export it without hand-formatting JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionReport {
    /// The request's [`RequestId`] (assigned in submission order).
    pub session: usize,
    /// The request's QoS class.
    pub class: QosClass,
    /// Every token the session generated.
    pub tokens: Vec<u32>,
    /// Prompt tokens the session consumed.
    pub prompt_tokens: usize,
    /// Final KV-cache bytes across all layers (shared blocks counted in
    /// full, as if owned — comparable with an unshared session).
    pub kv_bytes: usize,
    /// What an fp16 cache of the same length would use.
    pub fp16_kv_bytes: usize,
    /// Of `kv_bytes`, bytes held in store blocks co-referenced by at least
    /// one other live session — memory prefix sharing deduplicated.
    pub kv_shared_bytes: usize,
    /// Of `kv_bytes`, bytes this session holds exclusively.
    pub kv_owned_bytes: usize,
    /// Prompt tokens satisfied from resident shared blocks at admission
    /// (prefill skipped for them).
    pub prefix_tokens_reused: usize,
    /// Encoded blocks the session absorbed from the shared worker.
    pub async_batches: usize,
    /// Wall-clock nanoseconds the session spent in prompt admission (tiled
    /// prefill attention plus synchronous prompt encoding; warm admissions
    /// include the unmatched-suffix decode).
    pub prefill_ns: u64,
    /// Prompt tokens admitted per second during prefill.
    pub prefill_tokens_per_s: f64,
    /// Prefill chunks the admission was fed in
    /// ([`ServingConfig::prefill_chunk_tokens`]-sized work items).
    pub prefill_chunks: usize,
    /// Wall-clock nanoseconds between submission and admission.
    pub queue_wait_ns: u64,
    /// Whole scheduling rounds the request waited in the pending queue.
    pub queue_wait_rounds: u64,
    /// Wall-clock nanoseconds from submission to the first generated token
    /// (time-to-first-token). 0 when no token was ever generated.
    pub first_token_ns: u64,
    /// Wall-clock nanoseconds spent in decode steps (forward pass plus
    /// sampling), accumulated across the request's generated tokens.
    pub decode_ns: u64,
    /// Whether generation ended on a stop token (as opposed to the length
    /// budget).
    pub stopped_early: bool,
    /// Whether the request was cancelled (before or after admission); the
    /// report then carries whatever was produced up to that point.
    pub cancelled: bool,
    /// Whether the request missed its [`Request::deadline_ms`] and was
    /// retired at a round boundary — distinct from `cancelled`, which is
    /// client-initiated; at most one of the two is set.
    pub timed_out: bool,
}

/// What [`ServingEngine::drain`] did with the work it found in flight.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Queued (never admitted) requests shed with a cancelled report.
    pub shed_queued: usize,
    /// Resident requests decoded to completion during the drain (the
    /// finish-mode path).
    pub finished: usize,
    /// Resident requests checkpointed mid-flight and their checkpoint paths
    /// (the persist-mode path); [`ServingEngine::recover`] on the drain
    /// directory brings every one of them back.
    pub persisted: Vec<(RequestId, PathBuf)>,
    /// Scheduling rounds driven while finishing residents.
    pub rounds: u64,
}

/// What [`ServingEngine::recover`] found in a checkpoint directory.
#[derive(Debug, Default)]
pub struct RecoverReport {
    /// Fresh handles for the re-admitted requests, ordered by request id.
    /// Each handle streams only the tokens produced *after* the checkpoint
    /// (the checkpointed prefix is pre-seeded into the slot's budget and
    /// final report, see [`RequestHandle::recovered_tokens`]).
    pub restored: Vec<RequestHandle>,
    /// Checkpoint files that could not be restored, with the typed reason —
    /// truncation, checksum mismatch, or geometry disagreement. Each is
    /// counted in [`ServingStats::snapshot_crc_failures`]; the files are
    /// left in place for inspection.
    pub failed: Vec<(PathBuf, String)>,
}

/// A submitted request waiting for a slot.
#[derive(Debug)]
struct Pending {
    id: RequestId,
    request: Request,
    shared: Arc<HandleShared>,
    tx: Sender<StepResult>,
    submitted_at: Instant,
    submit_round: u64,
}

impl Pending {
    /// Wall-clock nanoseconds this request has waited since submission —
    /// the single definition of queue wait, read both when a request is
    /// admitted and when it is shed unadmitted, so queued-vs-resident wait
    /// is measured identically.
    fn queue_wait_ns(&self) -> u64 {
        self.submitted_at.elapsed().as_nanos() as u64
    }

    /// Admission priority with aging: a request that has waited
    /// `aging_rounds` is promoted to the top class.
    fn effective_weight(&self, round: u64, aging_rounds: u64) -> u32 {
        if round.saturating_sub(self.submit_round) >= aging_rounds {
            QosClass::Interactive.weight()
        } else {
            self.request.class.weight()
        }
    }

    /// The absolute deadline, if the request carries one.
    fn deadline(&self) -> Option<Instant> {
        self.request
            .deadline_ms
            .map(|ms| self.submitted_at + Duration::from_millis(ms))
    }
}

/// A request resident in a decode slot.
struct Resident<'e> {
    id: RequestId,
    session: InferenceSession<'e>,
    /// What was asked for. `request.prompt` is empty: the session holds
    /// the tokens not yet fed while the slot is still admitting its prompt
    /// in chunks (the *Prefilling* state).
    request: Request,
    tokens: Vec<u32>,
    /// DWRR ledger: grows by `weight(class)` per round, spends `quantum`
    /// per decode step (a non-final prefill chunk spends the whole round's
    /// accrual).
    deficit: u32,
    /// Round in which the slot's most recent prefill chunk executed. The
    /// first chunk runs inside `admit` — sealing a one-chunk prompt's blocks
    /// so later admissions in the same pass can attach them — and
    /// `prefill_round` must not charge the slot a second chunk in that same
    /// round.
    chunked_round: u64,
    shared: Arc<HandleShared>,
    tx: Sender<StepResult>,
    /// When the request was submitted — the anchor for TTFT and
    /// end-to-end latency.
    submitted_at: Instant,
    queue_wait_ns: u64,
    queue_wait_rounds: u64,
    /// Submission-to-first-token latency, set when the first decode token
    /// is produced ([`SessionReport::first_token_ns`]).
    first_token_ns: Option<u64>,
    /// When the most recent decode token was produced. Maintained only
    /// while telemetry is enabled (it feeds the inter-token histogram and
    /// nothing else).
    last_token_at: Option<Instant>,
    stopped_early: bool,
    /// Absolute wall-clock deadline carried over from the request, honoured
    /// at round boundaries.
    deadline: Option<Instant>,
    /// Finished decoding (stop token or token budget); retired when the
    /// round that set it closes.
    done: bool,
}

impl Resident<'_> {
    fn prefilling(&self) -> bool {
        self.session.unfed_prompt_tokens() > 0
    }
}

/// Iteration-level serving engine over one [`MillionEngine`].
///
/// Single-threaded by design, like the rest of the workspace's serving
/// stack: the owner drives [`ServingEngine::serve_round`] (or
/// [`ServingEngine::run_until_idle`]) while [`RequestHandle`]s — which hold
/// no engine borrow — observe progress from anywhere.
pub struct ServingEngine<'e> {
    engine: &'e MillionEngine,
    config: ServingConfig,
    /// Shared background quantization worker (spawned on first admission
    /// when the engine runs asynchronously).
    worker: Option<QuantWorker>,
    pending: VecDeque<Pending>,
    resident: Vec<Resident<'e>>,
    reports: Vec<SessionReport>,
    next_id: u64,
    round: u64,
    stats: ServingStats,
    /// Latency histograms, per-phase round timing, and the lifecycle
    /// journal ([`ServingConfig::telemetry`] gates all recording).
    telemetry: ServingTelemetry,
    /// Once set ([`ServingEngine::drain`]), admission is closed for good:
    /// `submit` rejects and freed slots are never refilled.
    draining: bool,
}

impl<'e> ServingEngine<'e> {
    /// Creates an idle serving engine with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if [`ServingConfig::prefill_chunk_tokens`] is `0` — a chunk
    /// must feed at least one token. Whole-prompt admission is any chunk
    /// size ≥ the prompt.
    pub fn new(engine: &'e MillionEngine, config: ServingConfig) -> Self {
        assert!(
            config.prefill_chunk_tokens >= 1,
            "prefill_chunk_tokens must be at least 1"
        );
        let telemetry = ServingTelemetry::new(config.telemetry, config.journal_events);
        Self {
            engine,
            config,
            worker: None,
            pending: VecDeque::new(),
            resident: Vec::new(),
            reports: Vec::new(),
            next_id: 0,
            round: 0,
            stats: ServingStats::default(),
            telemetry,
            draining: false,
        }
    }

    /// The engine being served.
    pub fn engine(&self) -> &'e MillionEngine {
        self.engine
    }

    /// The serving policy.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Monotonic serving counters.
    pub fn stats(&self) -> ServingStats {
        self.stats
    }

    /// Serializable copy of the engine's latency histograms, per-phase
    /// round timing, and journal counters. With
    /// [`ServingConfig::telemetry`] off, every histogram reads empty.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Takes every buffered request-lifecycle event, oldest first — the
    /// `GET /debug/trace` drain. Events carry monotonic nanosecond
    /// timestamps since this engine's construction; render them with
    /// [`million_telemetry::render_chrome_trace`].
    pub fn drain_trace_events(&mut self) -> Vec<Event> {
        self.telemetry.drain_events()
    }

    /// Live table of every request the engine currently knows about —
    /// queued and resident — ordered by request id (the
    /// `GET /debug/requests` view). Always available, telemetry enabled or
    /// not: it reads scheduler state, no recorded history.
    pub fn request_table(&self) -> Vec<RequestInfo> {
        let now = Instant::now();
        let mut out = Vec::with_capacity(self.pending.len() + self.resident.len());
        for pending in &self.pending {
            out.push(RequestInfo {
                id: pending.id.0,
                class: pending.request.class,
                state: RequestState::Queued,
                prompt_tokens: pending.request.prompt.len(),
                tokens_fed: 0,
                generated: 0,
                age_ms: now.duration_since(pending.submitted_at).as_millis() as u64,
            });
        }
        for slot in &self.resident {
            let state = if slot.prefilling() {
                RequestState::Prefilling
            } else {
                RequestState::Decoding
            };
            let tokens_fed = slot.session.prompt_tokens();
            out.push(RequestInfo {
                id: slot.id.0,
                class: slot.request.class,
                state,
                prompt_tokens: tokens_fed + slot.session.unfed_prompt_tokens(),
                tokens_fed,
                generated: slot.tokens.len(),
                age_ms: now.duration_since(slot.submitted_at).as_millis() as u64,
            });
        }
        out.sort_by_key(|row| row.id);
        out
    }

    /// Rounds served so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Requests submitted but not yet admitted.
    pub fn queued_requests(&self) -> usize {
        self.pending.len()
    }

    /// Sessions currently holding a slot, prefilling or decoding.
    pub fn resident_sessions(&self) -> usize {
        self.resident.len()
    }

    /// Residents currently admitting their prompt in chunks (the
    /// *Prefilling* state).
    pub fn prefilling_sessions(&self) -> usize {
        self.resident.iter().filter(|s| s.prefilling()).count()
    }

    /// Prompt tokens still to be teacher-forced across every prefilling
    /// resident — the backlog the chunk scheduler is working through.
    pub fn prefill_tokens_remaining(&self) -> usize {
        self.resident
            .iter()
            .map(|s| s.session.unfed_prompt_tokens())
            .sum()
    }

    /// Whether every submitted request has been fully served: nothing
    /// queued, nothing resident.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.resident.is_empty()
    }

    /// KV bytes across resident sessions (shared store blocks counted once
    /// per referencing session, as [`crate::InferenceSession::kv_bytes`]
    /// does).
    pub fn kv_bytes(&self) -> usize {
        self.resident.iter().map(|s| s.session.kv_bytes()).sum()
    }

    /// fp16-equivalent bytes across resident sessions.
    pub fn fp16_kv_bytes(&self) -> usize {
        self.resident
            .iter()
            .map(|s| s.session.fp16_kv_bytes())
            .sum()
    }

    /// Physical KV footprint the admission budget meters: resident
    /// sessions' store-external bytes plus the store's resident bytes, each
    /// counted exactly once.
    pub fn fleet_kv_bytes(&self) -> usize {
        let private: usize = self
            .resident
            .iter()
            .map(|s| s.session.kv_private_bytes())
            .sum();
        let store = self
            .engine
            .store_stats()
            .map_or(0, |stats| stats.resident_bytes);
        private + store
    }

    /// Quantized-cache bytes one cached token costs across all layers —
    /// the admission estimate for a prompt is `prompt_len` times this.
    fn quantized_bytes_per_token(&self) -> usize {
        let layout = self.engine.model().cache_layout();
        let packed = |cfg: million_quant::pq::PqConfig| (cfg.m * cfg.nbits as usize).div_ceil(8);
        let per_head = packed(self.engine.codebooks().key[0].config())
            + packed(self.engine.codebooks().value[0].config());
        self.engine.model().config().n_layers * layout.n_kv_heads * per_head
    }

    /// Submits a request. On success the request is queued (admission
    /// happens at the next round boundary) and a streaming handle is
    /// returned.
    ///
    /// # Errors
    ///
    /// [`SubmitError::EmptyPrompt`] / [`SubmitError::PromptTooLong`] /
    /// [`SubmitError::TokenOutOfVocab`] for unservable prompts,
    /// [`SubmitError::QueueFull`] when the pending queue is at capacity —
    /// the backpressure signal.
    pub fn submit(&mut self, request: Request) -> Result<RequestHandle, SubmitError> {
        if self.draining {
            return Err(SubmitError::Draining);
        }
        if request.prompt.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        let config = self.engine.model().config();
        let (max_seq_len, vocab_size) = (config.max_seq_len, config.vocab_size);
        if request.prompt.len() >= max_seq_len {
            return Err(SubmitError::PromptTooLong {
                len: request.prompt.len(),
                max_seq_len,
            });
        }
        // The model panics on an id it has no embedding row for; inside a
        // serve round that would take every resident down with it.
        if let Some(&token) = request.prompt.iter().find(|&&t| t as usize >= vocab_size) {
            return Err(SubmitError::TokenOutOfVocab { token, vocab_size });
        }
        // Injected backpressure fires before the real capacity check so a
        // chaos plan can exercise the 429 path on an otherwise idle queue.
        let injected = self
            .config
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.inject_queue_full());
        if injected || self.pending.len() >= self.config.queue_capacity {
            self.stats.rejected += 1;
            return Err(SubmitError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let prompt_tokens = request.prompt.len();
        let (handle, pending) = self.open(id, request, 0, prompt_tokens);
        self.pending.push_back(pending);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.pending.len());
        Ok(handle)
    }

    /// The one way a request enters the engine — submitted, or recovered
    /// from a checkpoint already `recovered_tokens` into its stream: builds
    /// its handle and the engine's side of it, and counts and journals the
    /// submission of its `prompt_tokens`.
    fn open(
        &mut self,
        id: RequestId,
        request: Request,
        recovered_tokens: usize,
        prompt_tokens: usize,
    ) -> (RequestHandle, Pending) {
        let shared = Arc::new(HandleShared {
            cancel: AtomicBool::new(false),
            report: Mutex::new(None),
        });
        let (tx, rx) = channel();
        let handle = RequestHandle {
            id,
            class: request.class,
            rx,
            shared: shared.clone(),
            recovered_tokens,
        };
        self.stats.submitted += 1;
        self.telemetry.event(
            id.0,
            self.round,
            EventKind::Submit {
                class: request.class.name(),
                prompt_tokens: prompt_tokens as u32,
            },
        );
        let pending = Pending {
            id,
            request,
            shared,
            tx,
            submitted_at: Instant::now(),
            submit_round: self.round,
        };
        (handle, pending)
    }

    /// Runs one scheduling round: retire finished/cancelled requests,
    /// refill freed slots from the queue, then one DWRR decode pass.
    /// Returns `(request, step)` for every token produced this round.
    ///
    /// With [`ServingConfig::telemetry`] on, each phase of the round is
    /// timed into its [`RoundPhase`] histogram (both retirement passes sum
    /// into one `Retire` sample, so every phase histogram counts exactly
    /// one sample per round). Disabled, the round reads no clock.
    pub fn serve_round(&mut self) -> Vec<(RequestId, StepResult)> {
        self.round += 1;
        self.stats.rounds = self.round;
        let mut mark = self.telemetry.clock();
        // Cancellations signalled between rounds are honoured before any
        // admission or decode work this round...
        self.reap_cancelled_pending();
        self.retire_done();
        let retire_entry_ns = Self::lap(&mut mark);
        self.admit_ready();
        let admit_ns = Self::lap(&mut mark);
        let quantum = self.accrue_deficits();
        if quantum.is_some() {
            self.prefill_round();
        }
        let prefill_ns = Self::lap(&mut mark);
        let produced = match quantum {
            Some(quantum) => self.decode_pass(quantum),
            None => Vec::new(),
        };
        let decode_ns = Self::lap(&mut mark);
        // ...and requests that finished *this* round retire immediately —
        // their KV is released now, not at the next round — so their slots
        // are refillable the moment the next round opens.
        self.retire_done();
        let retire_exit_ns = Self::lap(&mut mark);
        if mark.is_some() {
            self.telemetry
                .record_phase(RoundPhase::Retire, retire_entry_ns + retire_exit_ns);
            self.telemetry.record_phase(RoundPhase::Admit, admit_ns);
            self.telemetry
                .record_phase(RoundPhase::PrefillChunk, prefill_ns);
            self.telemetry.record_phase(RoundPhase::Decode, decode_ns);
        }
        self.maybe_checkpoint();
        produced
    }

    /// Advances a phase-timing mark: returns the nanoseconds since `mark`
    /// and moves it to now. With telemetry disabled the mark is `None` and
    /// no clock is read.
    fn lap(mark: &mut Option<Instant>) -> u64 {
        match mark {
            Some(prev) => {
                let now = Instant::now();
                let ns = now.duration_since(*prev).as_nanos() as u64;
                *mark = Some(now);
                ns
            }
            None => 0,
        }
    }

    /// Serves rounds until every submitted request has completed or been
    /// cancelled; returns the number of rounds driven.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut rounds = 0;
        while !self.is_idle() {
            self.serve_round();
            rounds += 1;
        }
        rounds
    }

    /// Retires everything — resident sessions are flushed and reported
    /// (whether finished or not), queued requests are reported as cancelled
    /// — and returns every report of this engine's lifetime, ordered by
    /// request id.
    pub fn shutdown(mut self) -> Vec<SessionReport> {
        Self::sync_worker(&mut self.worker, &mut self.resident);
        // Every report is built before any session is dropped, so the
        // shared/owned byte split reflects the sharing that actually held
        // while the fleet was resident.
        let mut fleet = std::mem::take(&mut self.resident);
        for slot in &mut fleet {
            // A resident still in flight is cancelled by the shutdown only
            // if its handle asked for it.
            let outcome = if slot.shared.cancel.load(Ordering::Relaxed) {
                RetireOutcome::Cancelled
            } else {
                RetireOutcome::Completed
            };
            self.retire_resident(slot, outcome);
            Self::remove_checkpoint(&self.config, slot.id);
        }
        drop(fleet);
        while let Some(pending) = self.pending.pop_front() {
            self.retire_unadmitted(pending, RetireOutcome::Cancelled);
        }
        self.reports.sort_by_key(|r| r.session);
        self.reports
    }

    /// Whether [`ServingEngine::drain`] has closed admission for good.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Gracefully winds the engine down: admission closes permanently
    /// ([`ServingEngine::submit`] returns [`SubmitError::Draining`] from
    /// this call on), queued requests are shed with cancelled reports, and
    /// residents are dealt with in one of two modes:
    ///
    /// * `persist_dir: None` — **finish**: keep serving rounds until every
    ///   resident has decoded to completion (clients get their full
    ///   streams);
    /// * `persist_dir: Some(dir)` — **persist**: checkpoint each resident
    ///   mid-flight — prefilling or decoding — to `dir/request-<id>.ckpt`,
    ///   the same file a periodic checkpoint writes, and retire it
    ///   immediately; its handle resolves to a cancelled report carrying
    ///   the tokens produced so far. [`ServingEngine::recover`] on `dir`, on
    ///   a fresh engine over an equal [`MillionEngine`], resumes every one
    ///   bit-identically. Draining into this engine's own
    ///   [`ServingConfig::checkpoint_dir`] keeps the files, so a restart
    ///   that recovers from that directory picks the requests up.
    ///
    /// Either way the engine ends idle; the caller still owns it (and its
    /// lifetime reports) and typically calls [`ServingEngine::shutdown`]
    /// next. Idempotent: a second drain finds nothing in flight.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from checkpoint writes in persist mode; no
    /// resident is retired by a failed drain, so every one keeps decoding
    /// and the drain can be retried (it rewrites each checkpoint).
    pub fn drain(&mut self, persist_dir: Option<&Path>) -> std::io::Result<DrainReport> {
        self.draining = true;
        let mut report = DrainReport::default();
        while let Some(pending) = self.pending.pop_front() {
            self.retire_unadmitted(pending, RetireOutcome::Cancelled);
            report.shed_queued += 1;
        }
        if let Some(dir) = persist_dir {
            std::fs::create_dir_all(dir)?;
            // Everything in flight on the shared stream must land before
            // any session is flushed into its checkpoint.
            Self::sync_worker(&mut self.worker, &mut self.resident);
            for slot in &mut self.resident {
                let path = Self::write_checkpoint(&self.config, &mut self.stats, slot, dir)?;
                report.persisted.push((slot.id, path));
            }
            // The drained files are how these requests come back; a
            // periodic checkpoint left in another directory would bring
            // them back a second time.
            let own_dir = self
                .config
                .checkpoint_dir
                .as_deref()
                .is_some_and(|own| same_dir(own, dir));
            for mut slot in std::mem::take(&mut self.resident) {
                self.retire_resident(&mut slot, RetireOutcome::Cancelled);
                if !own_dir {
                    Self::remove_checkpoint(&self.config, slot.id);
                }
            }
        } else {
            let completed_before = self.stats.completed;
            while !self.resident.is_empty() {
                self.serve_round();
                report.rounds += 1;
            }
            report.finished = (self.stats.completed - completed_before) as usize;
        }
        Ok(report)
    }

    /// Writes `slot`'s request checkpoint into `dir` and returns its path.
    /// The write is routed through the fault plan: the scheduled injected
    /// I/O error fires *instead of* touching the filesystem, and every
    /// successful write is atomic (temp + fsync + rename) and counted in
    /// [`ServingStats::snapshot_writes`].
    fn write_checkpoint(
        config: &ServingConfig,
        stats: &mut ServingStats,
        slot: &mut Resident<'e>,
        dir: &Path,
    ) -> std::io::Result<PathBuf> {
        if let Some(err) = config
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.inject_snapshot_io_error())
        {
            return Err(err);
        }
        let path = checkpoint_path(dir, slot.id);
        let bytes = slot
            .session
            .checkpoint_bytes(slot.id, &slot.request, &slot.tokens);
        atomic_write(&path, &bytes)?;
        stats.snapshot_writes += 1;
        Ok(path)
    }

    /// Removes the request's periodic checkpoint file, if checkpointing is
    /// configured — called whenever a request leaves for good so a later
    /// [`ServingEngine::recover`] never resurrects it.
    fn remove_checkpoint(config: &ServingConfig, id: RequestId) {
        if let Some(dir) = &config.checkpoint_dir {
            let _ = std::fs::remove_file(checkpoint_path(dir, id));
        }
    }

    /// Writes this round's crash-recovery checkpoints
    /// ([`ServingConfig::checkpoint_dir`] /
    /// [`ServingConfig::checkpoint_every_rounds`]): every resident not
    /// cancelled — decoding or still prefilling — is checkpointed to
    /// `dir/request-<id>.ckpt`. Failures (including injected ones) are
    /// non-fatal — the previous checkpoint, if any, survives untouched
    /// because writes are atomic.
    fn maybe_checkpoint(&mut self) {
        let every = self.config.checkpoint_every_rounds;
        if every == 0 || !self.round.is_multiple_of(every) {
            return;
        }
        let Some(dir) = self.config.checkpoint_dir.clone() else {
            return;
        };
        if self.resident.is_empty() || std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        // In-flight encode traffic must land before any session is flushed
        // into its checkpoint.
        Self::sync_worker(&mut self.worker, &mut self.resident);
        for slot in &mut self.resident {
            if !slot.shared.cancel.load(Ordering::Relaxed) {
                let _ = Self::write_checkpoint(&self.config, &mut self.stats, slot, &dir);
            }
        }
    }

    /// Re-admits every restorable checkpoint in `dir` — the supervisor's
    /// first act after restarting a crashed shard, and the one way a
    /// drained request comes back. Each restored request resumes with its
    /// exact sampler state and token budget — a request checkpointed
    /// mid-prefill resumes chunked admission where it stopped — so its
    /// continuation is bit-identical to the stream the original engine
    /// would have produced. Malformed checkpoints (truncated, flipped
    /// bytes, wrong geometry, a retired format, values the model cannot
    /// serve) are reported in [`RecoverReport::failed`] and counted in
    /// [`ServingStats::snapshot_crc_failures`]; they never panic and never
    /// admit a corrupt session. A missing or unreadable directory recovers
    /// nothing.
    pub fn recover(&mut self, dir: &Path) -> RecoverReport {
        let mut report = RecoverReport::default();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return report;
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "ckpt"))
            .collect();
        paths.sort();
        for path in paths {
            match self.recover_one(&path) {
                Ok(handle) => report.restored.push(handle),
                Err(reason) => {
                    self.stats.snapshot_crc_failures += 1;
                    report.failed.push((path, reason));
                }
            }
        }
        report.restored.sort_by_key(|h| h.id);
        report
    }

    fn recover_one(&mut self, path: &Path) -> Result<RequestHandle, String> {
        let mut bytes = std::fs::read(path).map_err(|e| format!("cannot read checkpoint: {e}"))?;
        if let Some(plan) = &self.config.fault_plan {
            plan.corrupt_restore_read(&mut bytes);
        }
        let c = self
            .engine
            .decode_checkpoint(&bytes)
            .map_err(|e| e.to_string())?;
        // Two live requests under one id would cross their encode traffic.
        if self.resident.iter().any(|s| s.id == c.id) || self.pending.iter().any(|p| p.id == c.id) {
            return Err(format!("request {} is already in flight", c.id.as_u64()));
        }
        self.next_id = self.next_id.max(c.id.as_u64() + 1);
        let prompt_tokens = c.session.prompt_tokens() + c.session.unfed_prompt_tokens();
        let (handle, pending) = self.open(c.id, c.request, c.tokens.len(), prompt_tokens);
        self.seat(pending, c.session, c.tokens, 0);
        Ok(handle)
    }

    /// Drops queued requests whose handle was cancelled — or whose deadline
    /// expired — before admission.
    fn reap_cancelled_pending(&mut self) {
        let now = Instant::now();
        let mut kept = VecDeque::with_capacity(self.pending.len());
        while let Some(pending) = self.pending.pop_front() {
            if pending.shared.cancel.load(Ordering::Relaxed) {
                self.retire_unadmitted(pending, RetireOutcome::Cancelled);
            } else if pending.deadline().is_some_and(|d| now >= d) {
                self.retire_unadmitted(pending, RetireOutcome::TimedOut);
            } else {
                kept.push_back(pending);
            }
        }
        self.pending = kept;
    }

    /// Retires every resident that finished decoding, was cancelled, or
    /// missed its deadline, freeing the slots. Cancellation and deadlines
    /// are honoured here, at round boundaries — mid-round steps are never
    /// torn.
    fn retire_done(&mut self) {
        let now = Instant::now();
        let mut idx = 0;
        while idx < self.resident.len() {
            let slot = &self.resident[idx];
            let outcome = if slot.done {
                RetireOutcome::Completed
            } else if slot.shared.cancel.load(Ordering::Relaxed) {
                RetireOutcome::Cancelled
            } else if slot.deadline.is_some_and(|d| now >= d) {
                RetireOutcome::TimedOut
            } else {
                idx += 1;
                continue;
            };
            // One sync point per retirement: encode traffic still in flight
            // lands in its owning session (this one included) before the
            // departing session is flushed and dropped.
            Self::sync_worker(&mut self.worker, &mut self.resident);
            let mut slot = self.resident.remove(idx);
            self.retire_resident(&mut slot, outcome);
            Self::remove_checkpoint(&self.config, slot.id);
        }
    }

    /// The one way a resident leaves: flush it and build its report, resolve
    /// the handle, count and journal the outcome. The caller has synced the
    /// shared worker and owns removing `slot` from the resident set (and so
    /// decides when its KV is released) and its checkpoint file (a
    /// persist-mode drain keeps the one it just wrote).
    fn retire_resident(&mut self, slot: &mut Resident<'e>, outcome: RetireOutcome) {
        let report = Self::build_report(slot, outcome);
        *slot.shared.report.lock().expect("request handle poisoned") = Some(report.clone());
        if self.telemetry.enabled() {
            self.telemetry
                .record_e2e(slot.submitted_at.elapsed().as_nanos() as u64);
        }
        self.record_exit(slot.id, outcome, report.tokens.len());
        self.reports.push(report);
    }

    /// The one way a queued request leaves without ever being admitted
    /// (cancelled, timed out, or shed by drain/shutdown): no prompt was
    /// consumed, no KV was held.
    fn retire_unadmitted(&mut self, pending: Pending, outcome: RetireOutcome) {
        let report = SessionReport {
            session: pending.id.0 as usize,
            class: pending.request.class,
            tokens: Vec::new(),
            prompt_tokens: 0,
            kv_bytes: 0,
            fp16_kv_bytes: 0,
            kv_shared_bytes: 0,
            kv_owned_bytes: 0,
            prefix_tokens_reused: 0,
            async_batches: 0,
            prefill_ns: 0,
            prefill_tokens_per_s: 0.0,
            prefill_chunks: 0,
            queue_wait_ns: pending.queue_wait_ns(),
            queue_wait_rounds: self.round.saturating_sub(pending.submit_round),
            first_token_ns: 0,
            decode_ns: 0,
            stopped_early: false,
            cancelled: outcome == RetireOutcome::Cancelled,
            timed_out: outcome == RetireOutcome::TimedOut,
        };
        *pending
            .shared
            .report
            .lock()
            .expect("request handle poisoned") = Some(report.clone());
        self.record_exit(pending.id, outcome, 0);
        self.reports.push(report);
    }

    /// Counts a retirement in the outcome stats and closes the request's
    /// journal story: a `Cancelled` / `TimedOut` marker when that is why it
    /// left, then `Retired`.
    fn record_exit(&mut self, id: RequestId, outcome: RetireOutcome, tokens: usize) {
        match outcome {
            RetireOutcome::Completed => self.stats.completed += 1,
            RetireOutcome::Cancelled => {
                self.stats.cancelled += 1;
                self.telemetry.event(id.0, self.round, EventKind::Cancelled);
            }
            RetireOutcome::TimedOut => {
                self.stats.timed_out += 1;
                self.telemetry.event(id.0, self.round, EventKind::TimedOut);
            }
        }
        self.telemetry.event(
            id.0,
            self.round,
            EventKind::Retired {
                outcome,
                tokens: tokens as u32,
            },
        );
    }

    /// Refills free slots from the pending queue: highest effective class
    /// first (FIFO within a class), each admission gated on the resident cap
    /// and the KV-byte budget.
    fn admit_ready(&mut self) {
        loop {
            if self.draining || self.pending.is_empty() {
                return;
            }
            if self.resident.len() >= self.config.max_resident {
                return;
            }
            let aging = self.config.admission_aging_rounds;
            let round = self.round;
            let best = (0..self.pending.len())
                .max_by_key(|&i| {
                    // Stable max: highest effective weight, earliest
                    // submission wins ties.
                    let w = self.pending[i].effective_weight(round, aging);
                    (w, std::cmp::Reverse(self.pending[i].id))
                })
                .expect("pending is non-empty");
            if let Some(budget) = self.config.kv_byte_budget {
                let estimate =
                    self.pending[best].request.prompt.len() * self.quantized_bytes_per_token();
                // Zero-ref blocks parked in a budgeted store's cached pool
                // are reclaimable on demand (the store sheds them under its
                // own pressure), so they must not consume admission
                // capacity: a cache full of departed sessions' prefixes
                // would otherwise block admission forever.
                let reclaimable = self
                    .engine
                    .store_stats()
                    .map_or(0, |stats| stats.cached_bytes);
                // The budget gates admission while anyone is resident; an
                // empty machine always admits the head request, so a single
                // over-budget prompt cannot deadlock the queue.
                if !self.resident.is_empty()
                    && self.fleet_kv_bytes().saturating_sub(reclaimable) + estimate > budget
                {
                    return;
                }
            }
            let pending = self.pending.remove(best).expect("index in bounds");
            self.admit(pending);
        }
    }

    /// Admits one pending request into a resident slot in the *Prefilling*
    /// state. The prompt moves into the request's session, which holds it
    /// until its last token is fed. Whatever prefix another session already
    /// sealed in the store attaches for free and only the unmatched
    /// remainder is chunked. The first chunk runs here, inside the
    /// admission turn; the rest is teacher-forced one chunk per round by
    /// [`ServingEngine::prefill_round`]. A prompt that fits one chunk seals
    /// its full blocks right here, so a request admitted later in this same
    /// pass can attach them; a longer prompt seals at its last chunk
    /// (its KV stays dense until then), and an identical prompt admitted
    /// meanwhile converges on its blocks when it publishes its own.
    fn admit(&mut self, mut pending: Pending) {
        let queue_wait_ns = pending.queue_wait_ns();
        self.telemetry.record_queue_wait(queue_wait_ns);
        let mut session = InferenceSession::new(self.engine, pending.id.0 as usize, true);
        session.prefill_begin(std::mem::take(&mut pending.request.prompt));
        self.seat(pending, session, Vec::new(), queue_wait_ns);
        self.feed_chunk(self.resident.len() - 1);
    }

    /// The one way a request takes a slot — fresh from the queue
    /// ([`ServingEngine::admit`]) or back from a checkpoint
    /// ([`ServingEngine::recover`]) with `tokens` already streamed. A
    /// request whose session still holds unfed prompt tokens seats in the
    /// *Prefilling* state; any other decodes from the next round.
    fn seat(
        &mut self,
        pending: Pending,
        session: InferenceSession<'e>,
        tokens: Vec<u32>,
        queue_wait_ns: u64,
    ) {
        if self.engine.config().async_quant && self.worker.is_none() {
            self.worker = Some(QuantWorker::spawn(
                self.engine.codebooks().key.clone(),
                self.engine.codebooks().value.clone(),
                self.engine.model().cache_layout(),
            ));
        }
        let deadline = pending.deadline();
        let Pending {
            id,
            request,
            shared,
            tx,
            submitted_at,
            submit_round,
        } = pending;
        self.telemetry
            .event(id.0, self.round, EventKind::Admit { queue_wait_ns });
        self.resident.push(Resident {
            id,
            session,
            request,
            tokens,
            deficit: 0,
            chunked_round: self.round,
            shared,
            tx,
            submitted_at,
            queue_wait_ns,
            queue_wait_rounds: self.round.saturating_sub(submit_round + 1),
            first_token_ns: None,
            last_token_at: None,
            stopped_early: false,
            deadline,
            done: false,
        });
        self.stats.admitted += 1;
        self.stats.max_resident_sessions =
            self.stats.max_resident_sessions.max(self.resident.len());
    }

    /// Feeds the prefilling slot `idx` its next chunk of prompt, and counts
    /// and journals it. An admission ships nothing to the shared worker:
    /// its last chunk encodes the prompt. Returns whether the chunk
    /// exhausted the prompt (the slot decodes from here on).
    fn feed_chunk(&mut self, idx: usize) -> bool {
        let slot = &mut self.resident[idx];
        let take = slot.session.prefill_chunk(self.config.prefill_chunk_tokens);
        slot.chunked_round = self.round;
        let remaining = slot.session.unfed_prompt_tokens();
        self.stats.prefill_chunks += 1;
        self.stats.prefill_tokens_by_class[slot.request.class.index()] += take as u64;
        self.telemetry.event(
            slot.id.0,
            self.round,
            EventKind::PrefillChunk {
                fed: slot.session.prompt_tokens() as u32,
                remaining: remaining as u32,
            },
        );
        remaining == 0
    }

    /// Opens this round's DWRR pass: computes the quantum (the minimum
    /// class weight over the residents) and accrues each slot's class
    /// weight into its deficit. `None` when nothing is resident — the round
    /// has no prefill or decode work.
    fn accrue_deficits(&mut self) -> Option<u32> {
        let quantum = self
            .resident
            .iter()
            .map(|s| s.request.class.weight())
            .min()?;
        for slot in &mut self.resident {
            slot.deficit += slot.request.class.weight();
        }
        Some(quantum)
    }

    /// One deficit-weighted round-robin decode pass over the resident
    /// batch, after [`ServingEngine::accrue_deficits`] and the round's
    /// prefill chunks.
    fn decode_pass(&mut self, quantum: u32) -> Vec<(RequestId, StepResult)> {
        let max_seq_len = self.engine.model().config().max_seq_len;
        let mut produced = Vec::new();
        loop {
            let mut progressed = false;
            for idx in 0..self.resident.len() {
                {
                    let slot = &self.resident[idx];
                    if slot.done || slot.prefilling() || slot.deficit < quantum {
                        continue;
                    }
                    if slot.shared.cancel.load(Ordering::Relaxed) {
                        // Retired at the next round boundary; stop burning
                        // its remaining deficit now.
                        let slot = &mut self.resident[idx];
                        slot.deficit = 0;
                        continue;
                    }
                }
                // Absorb-before-attend, as in the single-session loop:
                // everything the shared worker finished lands before this
                // step's attention.
                Self::sync_worker_nonblocking(&mut self.worker, &mut self.resident);
                let slot = &mut self.resident[idx];
                slot.deficit -= quantum;
                let mut step = slot.session.step_with(&mut slot.request.sampler);
                slot.tokens.push(step.token);
                self.stats.tokens_by_class[slot.request.class.index()] += 1;
                if slot.tokens.len() == 1 {
                    // TTFT is part of the report contract
                    // ([`SessionReport::first_token_ns`]), so it is
                    // measured whether or not telemetry records it — one
                    // clock read per request lifetime, exactly like
                    // `queue_wait_ns`. The identical value feeds the
                    // histogram, so histogram sums reconcile with the
                    // per-request reports to the nanosecond.
                    let ttft_ns = slot.submitted_at.elapsed().as_nanos() as u64;
                    slot.first_token_ns = Some(ttft_ns);
                    self.telemetry.record_ttft(ttft_ns);
                    self.telemetry
                        .event(slot.id.0, self.round, EventKind::FirstToken { ttft_ns });
                }
                if let Some(now) = self.telemetry.clock() {
                    if let Some(prev) = slot.last_token_at {
                        self.telemetry
                            .record_inter_token(now.duration_since(prev).as_nanos() as u64);
                    }
                    slot.last_token_at = Some(now);
                }
                if slot.request.options.stop.matches(step.token) {
                    step.matched_stop = true;
                    slot.stopped_early = true;
                    slot.done = true;
                } else if slot.tokens.len() >= slot.request.options.max_new_tokens
                    || slot.session.cached_tokens() >= max_seq_len
                {
                    // Out of budget, or out of context window: the next
                    // step would feed a position the model has none for.
                    slot.done = true;
                }
                if slot.done {
                    slot.deficit = 0;
                }
                // The handle may be gone; serving continues regardless.
                // `StepResult` is `Copy`, so handing it to the channel
                // costs a memcpy, not a clone.
                let _ = slot.tx.send(step);
                let requests = slot.session.take_encode_requests();
                let id = slot.id;
                if let Some(worker) = &mut self.worker {
                    for encode in requests {
                        worker.submit(encode);
                    }
                }
                produced.push((id, step));
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        produced
    }

    /// Executes one prefill chunk for every resident still in the
    /// *Prefilling* state. A non-final chunk consumes the slot's whole round
    /// allowance (its deficit is cleared — the chunk *was* this round's
    /// share of work for that class); the final chunk completes admission
    /// and keeps the round's accrued deficit, so the request decodes its
    /// first token in the same round. Chunk boundaries are the prefill
    /// preemption points: cancellation is checked here before each chunk,
    /// and deadlines/drains land at the surrounding round boundaries.
    fn prefill_round(&mut self) {
        for idx in 0..self.resident.len() {
            let slot = &mut self.resident[idx];
            if !slot.prefilling() {
                continue;
            }
            // A cancelled slot retires at the round boundary, the rest of
            // its prompt never fed; a slot admitted this round already ran
            // its chunk inside `admit`. Either way it is owed no more work.
            if slot.shared.cancel.load(Ordering::Relaxed) || slot.chunked_round == self.round {
                slot.deficit = 0;
                continue;
            }
            // No prompt chunk waits on an encode: an admission has none in
            // flight.
            if !self.feed_chunk(idx) {
                self.resident[idx].deficit = 0;
            }
        }
    }

    /// Blocks until the shared worker has drained, routing every result to
    /// its owning resident session.
    fn sync_worker(worker: &mut Option<QuantWorker>, resident: &mut [Resident<'e>]) {
        if let Some(worker) = worker {
            for result in worker.drain_all() {
                Self::route(resident, result);
            }
        }
    }

    /// Routes whatever the shared worker has finished so far, without
    /// waiting.
    fn sync_worker_nonblocking(worker: &mut Option<QuantWorker>, resident: &mut [Resident<'e>]) {
        if let Some(worker) = worker {
            for result in worker.try_drain() {
                Self::route(resident, result);
            }
        }
    }

    fn route(resident: &mut [Resident<'e>], result: crate::async_quant::EncodeResult) {
        let slot = resident
            .iter_mut()
            .find(|s| s.session.id() == result.session)
            .expect("encode result for a session no longer resident");
        slot.session.absorb(result);
    }

    /// Flushes a resident slot and snapshots its final report.
    fn build_report(slot: &mut Resident<'e>, outcome: RetireOutcome) -> SessionReport {
        slot.session.flush();
        SessionReport {
            session: slot.id.0 as usize,
            class: slot.request.class,
            tokens: std::mem::take(&mut slot.tokens),
            prompt_tokens: slot.session.prompt_tokens(),
            kv_bytes: slot.session.kv_bytes(),
            fp16_kv_bytes: slot.session.fp16_kv_bytes(),
            kv_shared_bytes: slot.session.kv_shared_bytes(),
            kv_owned_bytes: slot.session.kv_owned_bytes(),
            prefix_tokens_reused: slot.session.prefix_tokens_reused(),
            async_batches: slot.session.async_batches(),
            prefill_ns: slot.session.prefill_ns(),
            prefill_tokens_per_s: slot.session.prefill_tokens_per_s(),
            prefill_chunks: slot.session.prefill_chunks(),
            queue_wait_ns: slot.queue_wait_ns,
            queue_wait_rounds: slot.queue_wait_rounds,
            first_token_ns: slot.first_token_ns.unwrap_or(0),
            decode_ns: slot.session.decode_ns(),
            stopped_early: slot.stopped_early,
            cancelled: outcome == RetireOutcome::Cancelled,
            timed_out: outcome == RetireOutcome::TimedOut,
        }
    }
}

/// Where request `id`'s checkpoint lives under `dir`.
fn checkpoint_path(dir: &Path, id: RequestId) -> PathBuf {
    dir.join(format!("request-{}.ckpt", id.as_u64()))
}

/// Whether `a` and `b` name the same directory, spelled alike or not.
fn same_dir(a: &Path, b: &Path) -> bool {
    a == b || matches!((a.canonicalize(), b.canonicalize()), (Ok(a), Ok(b)) if a == b)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::session::StopCriteria;
    use crate::test_fixtures::engine;

    fn prompts() -> Vec<Vec<u32>> {
        vec![
            vec![3, 9, 27, 81, 11, 33],
            vec![5, 10, 20, 40, 80],
            vec![7, 14, 28, 56, 112, 97, 61],
            vec![2, 4, 8, 16, 32, 64],
        ]
    }

    #[test]
    fn submit_validates_prompts_and_queue_capacity() {
        let engine = engine(false, 0);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 1,
                queue_capacity: 2,
                ..ServingConfig::default()
            },
        );
        assert!(matches!(
            serving.submit(Request::new(vec![], GenerationOptions::max_tokens(4))),
            Err(SubmitError::EmptyPrompt)
        ));
        let max = engine.model().config().max_seq_len;
        let too_long = Request::new(vec![1; max], GenerationOptions::max_tokens(4));
        assert!(matches!(
            serving.submit(too_long),
            Err(SubmitError::PromptTooLong { .. })
        ));
        let ok = |p: &[u32]| Request::new(p.to_vec(), GenerationOptions::max_tokens(4));
        serving.submit(ok(&prompts()[0])).expect("first queued");
        serving.submit(ok(&prompts()[1])).expect("second queued");
        let err = serving.submit(ok(&prompts()[2])).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        assert_eq!(serving.stats().rejected, 1);
        assert!(err.to_string().contains("full"));
    }

    #[test]
    fn submit_rejects_tokens_outside_the_vocabulary() {
        let engine = engine(false, 0);
        let mut serving = ServingEngine::new(&engine, ServingConfig::default());
        let vocab_size = engine.model().config().vocab_size;
        let request = |prompt: Vec<u32>| Request::new(prompt, GenerationOptions::max_tokens(2));
        let err = serving
            .submit(request(vec![3, vocab_size as u32, 999_999]))
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::TokenOutOfVocab {
                token: vocab_size as u32,
                vocab_size
            }
        );
        assert!(err.to_string().contains(&vocab_size.to_string()), "{err}");
        // Nothing about the engine changed, and the last id the model does
        // have is served.
        let handle = serving
            .submit(request(vec![vocab_size as u32 - 1]))
            .expect("queued");
        serving.run_until_idle();
        assert_eq!(handle.report().expect("request finished").tokens.len(), 2);
    }

    #[test]
    fn generation_ends_at_the_context_window() {
        let engine = engine(false, 5);
        let config = engine.model().config();
        let window = config.max_seq_len;
        let prompt: Vec<u32> = (0..window - 6)
            .map(|i| ((i * 7 + 3) % config.vocab_size) as u32)
            .collect();
        let mut serving = ServingEngine::new(&engine, ServingConfig::default());
        let handle = serving
            .submit(Request::new(
                prompt.clone(),
                GenerationOptions::max_tokens(64),
            ))
            .expect("queued");
        serving.run_until_idle();
        let report = handle.report().expect("request finished");
        // Every position of the window was fed exactly once; the token
        // sampled from the last one is returned but never fed.
        assert_eq!(report.tokens.len(), window - prompt.len() + 1);
        assert_eq!(serving.stats().completed, 1);
        let mut session = engine.session();
        session.prefill(&prompt);
        let serial = session.generate(&GenerationOptions::max_tokens(report.tokens.len()));
        assert_eq!(report.tokens, serial.tokens);
        assert_eq!(session.cached_tokens(), window);
    }

    #[test]
    fn serving_engine_matches_serial_sessions() {
        let engine = engine(false, 1);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 2, // forces queueing + mid-flight refills
                ..ServingConfig::default()
            },
        );
        let handles: Vec<RequestHandle> = prompts()
            .iter()
            .map(|p| {
                serving
                    .submit(Request::new(p.clone(), GenerationOptions::max_tokens(10)))
                    .expect("queued")
            })
            .collect();
        serving.run_until_idle();
        for (p, handle) in prompts().iter().zip(&handles) {
            let report = handle.report().expect("request finished");
            let streamed: Vec<u32> = handle.drain_tokens().iter().map(|s| s.token).collect();
            assert_eq!(report.tokens, streamed, "stream/report agreement");
            let mut session = engine.session();
            session.prefill(p);
            let serial = session.generate(&GenerationOptions::max_tokens(10));
            assert_eq!(report.tokens, serial.tokens, "prompt {p:?}");
            assert_eq!(report.kv_bytes, session.kv_bytes());
        }
        assert_eq!(serving.stats().completed, 4);
        assert_eq!(serving.stats().max_resident_sessions, 2);
        let reports = serving.shutdown();
        assert_eq!(reports.len(), 4);
    }

    #[test]
    fn dwrr_gives_classes_proportional_throughput() {
        let engine = engine(false, 2);
        let mut serving = ServingEngine::new(&engine, ServingConfig::default());
        let p = prompts();
        for (prompt, class) in p.iter().zip(QosClass::ALL) {
            serving
                .submit(
                    Request::new(prompt.clone(), GenerationOptions::max_tokens(200))
                        .with_class(class),
                )
                .expect("queued");
        }
        let mut produced_last_round = 0;
        for _ in 0..10 {
            produced_last_round = serving.serve_round().len();
        }
        // quantum = min weight = 1, so one round yields 4 + 2 + 1 tokens.
        assert_eq!(produced_last_round, 7);
        let tokens = serving.stats().tokens_by_class;
        assert_eq!(tokens, [40, 20, 10], "exact 4:2:1 proportional shares");
    }

    #[test]
    fn cancelling_a_resident_request_frees_its_slot_for_the_queue() {
        let engine = engine(false, 3);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 1,
                ..ServingConfig::default()
            },
        );
        let p = prompts();
        let long = serving
            .submit(Request::new(
                p[0].clone(),
                GenerationOptions::max_tokens(64),
            ))
            .expect("queued");
        let next = serving
            .submit(Request::new(p[1].clone(), GenerationOptions::max_tokens(4)))
            .expect("queued");
        for _ in 0..3 {
            serving.serve_round();
        }
        assert!(!long.is_finished());
        assert_eq!(serving.queued_requests(), 1, "slot cap holds next back");
        long.cancel();
        serving.run_until_idle();
        let cancelled = long.report().expect("cancelled report");
        assert!(cancelled.cancelled);
        assert_eq!(cancelled.tokens.len(), 3, "tokens produced before cancel");
        let finished = next.report().expect("refilled request finished");
        assert!(!finished.cancelled);
        assert_eq!(finished.tokens.len(), 4);
        assert!(finished.queue_wait_rounds > 0, "waited for the slot");
        assert_eq!(serving.stats().cancelled, 1);
        assert_eq!(serving.stats().completed, 1);
    }

    #[test]
    fn cancelling_a_queued_request_skips_admission() {
        let engine = engine(false, 4);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 1,
                ..ServingConfig::default()
            },
        );
        let p = prompts();
        let _running = serving
            .submit(Request::new(p[0].clone(), GenerationOptions::max_tokens(6)))
            .expect("queued");
        let doomed = serving
            .submit(Request::new(p[1].clone(), GenerationOptions::max_tokens(6)))
            .expect("queued");
        serving.serve_round();
        doomed.cancel();
        serving.run_until_idle();
        let report = doomed.report().expect("cancelled report");
        assert!(report.cancelled);
        assert!(report.tokens.is_empty());
        assert_eq!(report.prompt_tokens, 0, "never admitted, never prefilled");
        assert_eq!(serving.stats().admitted, 1);
    }

    #[test]
    fn async_serving_routes_shared_worker_traffic_across_refills() {
        let engine = engine(true, 5);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 2,
                ..ServingConfig::default()
            },
        );
        let handles: Vec<RequestHandle> = prompts()
            .iter()
            .map(|p| {
                serving
                    .submit(Request::new(p.clone(), GenerationOptions::max_tokens(16)))
                    .expect("queued")
            })
            .collect();
        serving.run_until_idle();
        let reports: Vec<SessionReport> =
            handles.iter().map(|h| h.report().expect("done")).collect();
        for report in &reports {
            assert_eq!(report.tokens.len(), 16);
            assert!(report.kv_bytes > 0);
            assert!(report.kv_bytes < report.fp16_kv_bytes);
            assert!(report.prefill_ns > 0);
            assert!(report.prefill_tokens_per_s > 0.0);
        }
        assert!(reports.iter().map(|r| r.async_batches).sum::<usize>() > 0);
    }

    #[test]
    fn kv_byte_budget_serialises_admissions_but_serves_everyone() {
        let engine = engine(false, 6);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 4,
                // One byte: never satisfiable, so the no-resident escape
                // hatch turns serving into strictly serial admission.
                kv_byte_budget: Some(1),
                ..ServingConfig::default()
            },
        );
        let handles: Vec<RequestHandle> = prompts()
            .iter()
            .map(|p| {
                serving
                    .submit(Request::new(p.clone(), GenerationOptions::max_tokens(5)))
                    .expect("queued")
            })
            .collect();
        while !serving.is_idle() {
            serving.serve_round();
            assert!(
                serving.resident_sessions() <= 1,
                "budget must serialise admission"
            );
        }
        for handle in &handles {
            assert_eq!(handle.report().expect("done").tokens.len(), 5);
        }
        assert_eq!(serving.stats().completed, 4);
    }

    /// Stop tokens through `decode_pass`: the stopping request ends on the
    /// token's first occurrence with `matched_stop` on exactly that step,
    /// its batch-mate runs to its budget, and the slot it frees is refilled
    /// from the queue at the next round boundary.
    #[test]
    fn sessions_finish_independently_on_stop_tokens() {
        let engine = engine(false, 2);
        let p = prompts();
        // Discover what the first request's second token will be, then stop
        // on it (greedy decode can repeat, so the first occurrence counts).
        let mut probe = engine.session();
        probe.prefill(&p[0]);
        let probed: Vec<u32> = probe
            .stream(GenerationOptions::max_tokens(2))
            .map(|s| s.token)
            .collect();
        let target = probed[1];
        let expected_len = probed.iter().position(|&t| t == target).unwrap() + 1;

        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 2,
                ..ServingConfig::default()
            },
        );
        let stopping = serving
            .submit(Request::new(
                p[0].clone(),
                GenerationOptions::max_tokens(12).with_stop(StopCriteria::eos(target)),
            ))
            .expect("queued");
        let full = serving
            .submit(Request::new(
                p[1].clone(),
                GenerationOptions::max_tokens(12),
            ))
            .expect("queued");
        let queued = serving
            .submit(Request::new(p[2].clone(), GenerationOptions::max_tokens(4)))
            .expect("queued");
        // One class, so one token per resident per round.
        for _ in 0..expected_len {
            serving.serve_round();
        }
        assert!(stopping.is_finished(), "retired the round it stopped");
        assert!(!full.is_finished());
        assert_eq!(serving.queued_requests(), 1, "slot refills at the boundary");
        let produced = serving.serve_round();
        assert_eq!(serving.queued_requests(), 0);
        assert!(
            produced.iter().any(|(id, _)| *id == queued.id()),
            "the freed slot's new tenant decodes in its admission round"
        );
        serving.run_until_idle();

        let steps = stopping.drain_tokens();
        assert_eq!(steps.len(), expected_len);
        let (last, earlier) = steps.split_last().expect("at least one step");
        assert_eq!(last.token, target);
        assert!(last.matched_stop);
        assert!(earlier.iter().all(|s| !s.matched_stop));
        let report = stopping.report().expect("finished");
        assert_eq!(report.tokens.len(), expected_len);
        assert!(report.stopped_early);
        let report = full.report().expect("finished");
        assert_eq!(report.tokens.len(), 12);
        assert!(!report.stopped_early);
        assert!(full.drain_tokens().iter().all(|s| !s.matched_stop));
        assert_eq!(queued.report().expect("finished").tokens.len(), 4);
        assert_eq!(serving.stats().completed, 3);
    }

    #[test]
    fn aggregate_accounting_sums_over_sessions() {
        let engine = engine(false, 3);
        let mut serving = ServingEngine::new(&engine, ServingConfig::default());
        for p in prompts() {
            serving
                .submit(Request::new(p, GenerationOptions::max_tokens(4)))
                .expect("queued");
        }
        serving.serve_round();
        assert_eq!(serving.resident_sessions(), 4);
        assert!(serving.kv_bytes() > 0);
        assert!(serving.kv_bytes() < serving.fp16_kv_bytes());
    }

    #[test]
    #[should_panic(expected = "prefill_chunk_tokens must be at least 1")]
    fn zero_prefill_chunk_is_rejected_at_construction() {
        let engine = engine(false, 0);
        let _ = ServingEngine::new(
            &engine,
            ServingConfig {
                prefill_chunk_tokens: 0,
                ..ServingConfig::default()
            },
        );
    }

    #[test]
    fn shutdown_reports_unfinished_and_queued_requests() {
        let engine = engine(false, 7);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 1,
                ..ServingConfig::default()
            },
        );
        let p = prompts();
        let running = serving
            .submit(Request::new(
                p[0].clone(),
                GenerationOptions::max_tokens(50),
            ))
            .expect("queued");
        let queued = serving
            .submit(Request::new(
                p[1].clone(),
                GenerationOptions::max_tokens(50),
            ))
            .expect("queued");
        for _ in 0..4 {
            serving.serve_round();
        }
        let reports = serving.shutdown();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].session, running.id().as_u64() as usize);
        assert_eq!(reports[0].tokens.len(), 4, "partial progress reported");
        assert!(!reports[0].cancelled);
        assert!(reports[1].cancelled, "queued request reported cancelled");
        assert!(queued.report().expect("has report").cancelled);
    }

    /// Drives one slot with a running request, a queued `background`
    /// request, and an `interactive` request submitted just before the slot
    /// frees. Returns `true` if the background request was admitted first.
    fn background_wins_freed_slot(aging_rounds: u64) -> bool {
        let engine = engine(false, 8);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 1,
                admission_aging_rounds: aging_rounds,
                ..ServingConfig::default()
            },
        );
        let p = prompts();
        let _running = serving
            .submit(Request::new(p[0].clone(), GenerationOptions::max_tokens(4)))
            .expect("queued");
        let background = serving
            .submit(
                Request::new(p[1].clone(), GenerationOptions::max_tokens(4))
                    .with_class(QosClass::Background),
            )
            .expect("queued");
        for _ in 0..3 {
            serving.serve_round();
        }
        let interactive = serving
            .submit(
                Request::new(p[2].clone(), GenerationOptions::max_tokens(4))
                    .with_class(QosClass::Interactive),
            )
            .expect("queued");
        // Drive until one of the two queued requests is admitted (produces
        // its first token) and note which.
        let winner = loop {
            let produced = serving.serve_round();
            if produced.iter().any(|(id, _)| *id == background.id()) {
                break true;
            }
            if produced.iter().any(|(id, _)| *id == interactive.id()) {
                break false;
            }
        };
        serving.run_until_idle();
        assert!(background.report().expect("background done").tokens.len() == 4);
        assert!(interactive.report().expect("interactive done").tokens.len() == 4);
        winner
    }

    #[test]
    fn drain_finish_mode_completes_residents_and_sheds_queue() {
        let engine = engine(false, 10);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 1,
                ..ServingConfig::default()
            },
        );
        let p = prompts();
        let resident = serving
            .submit(Request::new(p[0].clone(), GenerationOptions::max_tokens(8)))
            .expect("queued");
        let queued = serving
            .submit(Request::new(p[1].clone(), GenerationOptions::max_tokens(8)))
            .expect("queued");
        for _ in 0..2 {
            serving.serve_round();
        }
        let report = serving.drain(None).expect("drain");
        assert_eq!(report.shed_queued, 1);
        assert_eq!(report.finished, 1);
        assert!(report.persisted.is_empty());
        assert!(report.rounds > 0);
        assert!(serving.is_draining());
        assert!(serving.is_idle());
        // The resident got its whole stream; the queued one was shed.
        assert_eq!(resident.report().expect("done").tokens.len(), 8);
        assert!(queued.report().expect("shed").cancelled);
        // Admission is closed for good.
        assert!(matches!(
            serving.submit(Request::new(p[2].clone(), GenerationOptions::max_tokens(2))),
            Err(SubmitError::Draining)
        ));
        // Idempotent: nothing left to do.
        let again = serving.drain(None).expect("drain twice");
        assert_eq!(again.shed_queued + again.finished, 0);
    }

    /// Every way out of the engine closes the request's journal story:
    /// draining with both queued and resident requests leaves exactly one
    /// `Retired` event per submitted id (the shed ones behind a `Cancelled`
    /// marker), and the journal's retirements reconcile with the outcome
    /// counters.
    #[test]
    fn drain_journals_one_retirement_per_submitted_request() {
        let engine = engine(false, 18);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 2,
                ..ServingConfig::default()
            },
        );
        let handles: Vec<RequestHandle> = prompts()
            .iter()
            .map(|p| {
                serving
                    .submit(Request::new(p.clone(), GenerationOptions::max_tokens(6)))
                    .expect("queued")
            })
            .collect();
        for _ in 0..2 {
            serving.serve_round();
        }
        let report = serving.drain(None).expect("drain");
        assert_eq!((report.finished, report.shed_queued), (2, 2));

        let events = serving.drain_trace_events();
        let retired_as = |id: u64| -> Vec<RetireOutcome> {
            events
                .iter()
                .filter(|e| e.request == id)
                .filter_map(|e| match e.kind {
                    EventKind::Retired { outcome, .. } => Some(outcome),
                    _ => None,
                })
                .collect()
        };
        for handle in &handles[..2] {
            assert_eq!(retired_as(handle.id().as_u64()), [RetireOutcome::Completed]);
        }
        for handle in &handles[2..] {
            let id = handle.id().as_u64();
            assert_eq!(retired_as(id), [RetireOutcome::Cancelled], "shed {id}");
            assert!(events
                .iter()
                .any(|e| e.request == id && matches!(e.kind, EventKind::Cancelled)));
        }
        let retired = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Retired { .. }))
            .count() as u64;
        let stats = serving.stats();
        assert_eq!(retired, stats.completed + stats.cancelled + stats.timed_out);
        assert_eq!(retired, stats.submitted);
    }

    #[test]
    fn drain_persist_mode_snapshots_residents_that_restore_bit_identically() {
        let engine = engine(false, 11);
        let dir = checkpoint_dir("drain");
        let p = prompts();
        let submit_both = |serving: &mut ServingEngine| -> Vec<RequestHandle> {
            vec![
                serving
                    .submit(Request::new(
                        p[0].clone(),
                        GenerationOptions::max_tokens(12),
                    ))
                    .expect("queued"),
                serving
                    .submit(
                        Request::new(p[1].clone(), GenerationOptions::max_tokens(12))
                            .with_sampler(Sampler::top_k(0.8, 8, 5)),
                    )
                    .expect("queued"),
            ]
        };
        let mut undrained = ServingEngine::new(&engine, ServingConfig::default());
        let expected: Vec<Vec<u32>> = {
            let handles = submit_both(&mut undrained);
            undrained.run_until_idle();
            handles
                .iter()
                .map(|h| h.report().expect("done").tokens)
                .collect()
        };

        let mut serving = ServingEngine::new(&engine, ServingConfig::default());
        let handles = submit_both(&mut serving);
        for _ in 0..4 {
            serving.serve_round();
        }
        let report = serving.drain(Some(&dir)).expect("drain persists");
        assert_eq!(report.persisted.len(), 2);
        assert_eq!(report.finished, 0);
        assert!(serving.is_idle(), "persisted residents retired immediately");
        for (handle, (id, path)) in handles.iter().zip(&report.persisted) {
            let partial = handle.report().expect("retired");
            assert!(partial.cancelled, "stream ended early");
            assert_eq!(partial.tokens.len(), 4);
            assert_eq!(*id, handle.id());
            assert_eq!(*path, dir.join(format!("request-{}.ckpt", id.as_u64())));
        }
        // The checkpoints resume exactly where the drained engine stopped
        // and continue token-identically with the undrained run — the
        // seeded sampler's position included.
        let mut restarted = ServingEngine::new(&engine, ServingConfig::default());
        let recovered = restarted.recover(&dir);
        assert!(recovered.failed.is_empty(), "{:?}", recovered.failed);
        assert_eq!(recovered.restored.len(), 2);
        restarted.run_until_idle();
        for ((handle, old), expected) in recovered.restored.iter().zip(&handles).zip(&expected) {
            assert_eq!(handle.id(), old.id());
            assert_eq!(handle.recovered_tokens(), 4);
            let tail: Vec<u32> = handle.drain_tokens().iter().map(|s| s.token).collect();
            assert_eq!(
                [old.report().expect("retired").tokens, tail].concat(),
                *expected,
                "drain/recover splices into the undrained stream"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Draining into the engine's own checkpoint directory leaves every
    /// file the drain wrote — retirement must not treat them as the stale
    /// periodic checkpoints of finished requests — and a restart that
    /// recovers from that directory picks every request up.
    #[test]
    fn drain_into_the_checkpoint_dir_keeps_its_files() {
        let engine = engine(false, 25);
        let dir = checkpoint_dir("own_dir");
        let config = ServingConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_rounds: 1,
            ..ServingConfig::default()
        };
        let mut serving = ServingEngine::new(&engine, config.clone());
        for prompt in &prompts()[..2] {
            serving
                .submit(Request::new(
                    prompt.clone(),
                    GenerationOptions::max_tokens(16),
                ))
                .expect("queued");
        }
        for _ in 0..3 {
            serving.serve_round();
        }
        let report = serving.drain(Some(&dir)).expect("drain persists");
        assert_eq!(report.persisted.len(), 2);
        for (_, path) in &report.persisted {
            assert!(path.exists(), "{} survives retirement", path.display());
        }
        let mut restarted = ServingEngine::new(&engine, config);
        let recovered = restarted.recover(&dir);
        assert_eq!(recovered.restored.len(), 2, "{:?}", recovered.failed);
        restarted.run_until_idle();
        assert_eq!(restarted.stats().completed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_times_out_queued_and_resident_requests_distinctly() {
        let engine = engine(false, 12);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 1,
                ..ServingConfig::default()
            },
        );
        let p = prompts();
        // A deadline long enough to survive admission and the first decode
        // round, then expire while resident.
        let resident = serving
            .submit(
                Request::new(p[0].clone(), GenerationOptions::max_tokens(64)).with_deadline_ms(400),
            )
            .expect("queued");
        serving.serve_round(); // admits and decodes one token
        std::thread::sleep(Duration::from_millis(500));
        serving.serve_round(); // the next boundary retires it
        let report = resident.report().expect("timed out");
        assert!(report.timed_out, "resident deadline");
        assert!(!report.cancelled, "distinct from cancellation");
        assert_eq!(report.tokens.len(), 1, "kept what the round produced");
        // A queued request that expires before ever being admitted.
        let _hog = serving
            .submit(Request::new(
                p[1].clone(),
                GenerationOptions::max_tokens(64),
            ))
            .expect("queued");
        let starved = serving
            .submit(
                Request::new(p[2].clone(), GenerationOptions::max_tokens(4)).with_deadline_ms(0),
            )
            .expect("queued");
        serving.serve_round();
        let report = starved.report().expect("reaped in the queue");
        assert!(report.timed_out);
        assert!(!report.cancelled);
        assert!(report.tokens.is_empty());
        assert_eq!(report.prompt_tokens, 0, "never admitted");
        assert_eq!(serving.stats().timed_out, 2);
        assert_eq!(serving.stats().cancelled, 0);
    }

    #[test]
    fn serving_reports_and_stats_serialize_as_json() {
        let engine = engine(false, 13);
        let mut serving = ServingEngine::new(&engine, ServingConfig::default());
        let handle = serving
            .submit(Request::new(
                prompts()[0].clone(),
                GenerationOptions::max_tokens(3),
            ))
            .expect("queued");
        serving.run_until_idle();
        let report = handle.report().expect("done");
        let doc = serde_json::to_string(&report).expect("report serializes");
        let value = serde_json::from_str(&doc).expect("round-trips through the parser");
        assert_eq!(
            value
                .get("tokens")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            value.get("class").and_then(|v| v.as_str()),
            Some("Standard")
        );
        assert_eq!(
            value.get("timed_out"),
            Some(&serde_json::Value::Bool(false))
        );
        let doc = serde_json::to_string(&serving.stats()).expect("stats serialize");
        let value = serde_json::from_str(&doc).expect("valid JSON");
        assert_eq!(value.get("completed").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(
            value
                .get("tokens_by_class")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn aging_promotes_starved_background_admissions() {
        // Without aging, the interactive class overtakes the earlier
        // background submission at the freed slot...
        assert!(!background_wins_freed_slot(u64::MAX));
        // ...but once the background request has aged past the threshold it
        // holds its place at the head of the queue.
        assert!(background_wins_freed_slot(3));
    }

    /// A 48-token prompt, far longer than the chunk size, admitted next to a
    /// short interactive request: the interactive stream must keep its full
    /// per-round share while the long prompt trickles in one chunk per
    /// round, and both streams must match a serial run bit for bit.
    #[test]
    fn chunked_prefill_overlaps_decode_and_matches_serial() {
        let engine = engine(false, 14);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 2,
                prefill_chunk_tokens: 8,
                ..ServingConfig::default()
            },
        );
        let long_prompt: Vec<u32> = (0..48u32).map(|i| (i * 7 + 3) % 128).collect();
        let short_prompt = prompts()[0].clone();
        let long = serving
            .submit(
                Request::new(long_prompt.clone(), GenerationOptions::max_tokens(4))
                    .with_class(QosClass::Background),
            )
            .expect("queued");
        let short = serving
            .submit(
                Request::new(short_prompt.clone(), GenerationOptions::max_tokens(20))
                    .with_class(QosClass::Interactive),
            )
            .expect("queued");

        // Round 1 admits both: the long prompt feeds its admission chunk
        // (8 of 48) and parks in the Prefilling state; the short prompt fits
        // in one chunk, so its admission round decodes immediately —
        // interactive weight 4 over background quantum 1 yields 4 tokens.
        serving.serve_round();
        assert_eq!(serving.prefilling_sessions(), 1);
        assert_eq!(serving.prefill_tokens_remaining(), 40);
        assert_eq!(short.drain_tokens().len(), 4);
        assert!(long.drain_tokens().is_empty(), "still prefilling");

        // Rounds 2–5: one 8-token chunk per round, and the interactive
        // stream never stalls for more than that chunk — it still gets its
        // full 4-token share every round.
        for fed in [16usize, 24, 32, 40] {
            serving.serve_round();
            assert_eq!(serving.prefill_tokens_remaining(), 48 - fed);
            assert_eq!(short.drain_tokens().len(), 4);
        }
        assert!(short.is_finished(), "20 interactive tokens streamed");

        // Round 6 feeds the final chunk and decodes the first token in the
        // same round.
        serving.serve_round();
        assert_eq!(serving.prefilling_sessions(), 0);
        assert_eq!(long.drain_tokens().len(), 1);

        serving.run_until_idle();
        // A chunked admission is one prefill of its prompt, so both serial
        // twins are the plain one-shot run.
        let mut serial = engine.session();
        serial.prefill(&long_prompt);
        let expected = serial.generate(&GenerationOptions::max_tokens(4));
        assert_eq!(long.report().expect("finished").tokens, expected.tokens);
        let mut serial = engine.session();
        serial.prefill(&short_prompt);
        let expected = serial.generate(&GenerationOptions::max_tokens(20));
        assert_eq!(short.report().expect("finished").tokens, expected.tokens);
        // 6 chunks for the long prompt, 1 admission chunk for the short one.
        assert_eq!(serving.stats().prefill_chunks, 7);
        assert_eq!(long.report().expect("done").prefill_chunks, 6);
        assert_eq!(
            serving.stats().prefill_tokens_by_class,
            [short_prompt.len() as u64, 0, 48]
        );
    }

    /// Cancellation lands at a chunk boundary: the rest of the prompt is
    /// never fed, the slot frees, and the queued request behind it runs to
    /// completion untouched.
    #[test]
    fn cancel_mid_prefill_frees_the_slot_at_a_chunk_boundary() {
        let engine = engine(false, 15);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 1,
                prefill_chunk_tokens: 4,
                ..ServingConfig::default()
            },
        );
        let long_prompt: Vec<u32> = (0..40u32).map(|i| (i * 11 + 2) % 128).collect();
        let doomed = serving
            .submit(Request::new(long_prompt, GenerationOptions::max_tokens(8)))
            .expect("queued");
        let next_prompt = prompts()[1].clone();
        let next = serving
            .submit(Request::new(
                next_prompt.clone(),
                GenerationOptions::max_tokens(5),
            ))
            .expect("queued");
        // Admission chunk + two scheduled chunks: 12 of 40 tokens fed.
        for _ in 0..3 {
            serving.serve_round();
        }
        assert_eq!(serving.prefill_tokens_remaining(), 28);
        doomed.cancel();
        serving.run_until_idle();
        let report = doomed.report().expect("cancelled mid-prefill");
        assert!(report.cancelled);
        assert!(report.tokens.is_empty(), "never reached decoding");
        assert_eq!(report.prompt_tokens, 12, "stopped at the chunk boundary");
        assert_eq!(report.prefill_chunks, 3);
        assert_eq!(serving.prefilling_sessions(), 0);
        // The freed slot serves the queued request bit-identically: its
        // 5-token prompt chunks as 4 + 1, which is one prefill.
        let mut serial = engine.session();
        serial.prefill(&next_prompt);
        let expected = serial.generate(&GenerationOptions::max_tokens(5));
        assert_eq!(next.report().expect("done").tokens, expected.tokens);
        assert_eq!(serving.stats().cancelled, 1);
        assert_eq!(serving.stats().completed, 1);
    }

    /// The instruments reconcile *exactly* with the session reports: every
    /// retired request contributes one TTFT, one queue-wait, and one
    /// end-to-end sample; histogram sums equal the per-report nanosecond
    /// fields they mirror; every round times all four phases; and the
    /// journal tells each request's story in lifecycle order.
    #[test]
    fn telemetry_reconciles_exactly_with_session_reports() {
        let engine = engine(false, 16);
        let mut serving = ServingEngine::new(&engine, ServingConfig::default());
        let handles: Vec<RequestHandle> = prompts()
            .iter()
            .zip([
                QosClass::Interactive,
                QosClass::Standard,
                QosClass::Background,
                QosClass::Interactive,
            ])
            .map(|(p, class)| {
                serving
                    .submit(
                        Request::new(p.clone(), GenerationOptions::max_tokens(6)).with_class(class),
                    )
                    .expect("queued")
            })
            .collect();
        serving.run_until_idle();
        let snap = serving.telemetry();
        assert!(snap.enabled);

        let reports: Vec<SessionReport> = handles
            .iter()
            .map(|h| h.report().expect("finished"))
            .collect();
        assert_eq!(snap.ttft.count, 4, "one TTFT sample per retired request");
        assert_eq!(snap.queue_wait.count, 4);
        assert_eq!(snap.e2e.count, 4);
        let ttft_sum: u64 = reports.iter().map(|r| r.first_token_ns).sum();
        assert_eq!(snap.ttft.sum_ns, ttft_sum, "histogram mirrors the reports");
        let wait_sum: u64 = reports.iter().map(|r| r.queue_wait_ns).sum();
        assert_eq!(snap.queue_wait.sum_ns, wait_sum);
        let gaps: u64 = reports.iter().map(|r| r.tokens.len() as u64 - 1).sum();
        assert_eq!(snap.inter_token.count, gaps, "n tokens leave n-1 gaps");
        for r in &reports {
            assert!(r.first_token_ns > 0, "TTFT measured");
            assert!(r.decode_ns > 0, "decode time accumulated");
        }
        for phase in RoundPhase::ALL {
            assert_eq!(
                snap.phases[phase.index()].count,
                serving.rounds(),
                "{} timed once per round",
                phase.name()
            );
        }

        let events = serving.drain_trace_events();
        assert_eq!(snap.journal_total, events.len() as u64, "nothing evicted");
        for (handle, report) in handles.iter().zip(&reports) {
            let id = handle.id().as_u64();
            let story: Vec<&Event> = events.iter().filter(|e| e.request == id).collect();
            assert!(
                matches!(
                    story.first().map(|e| &e.kind),
                    Some(EventKind::Submit { .. })
                ),
                "story opens with Submit"
            );
            match story.last().map(|e| e.kind) {
                Some(EventKind::Retired { outcome, tokens }) => {
                    assert_eq!(outcome, RetireOutcome::Completed);
                    assert_eq!(tokens as usize, report.tokens.len());
                }
                other => panic!("story ends with Retired, got {other:?}"),
            }
            let ttft = story.iter().find_map(|e| match e.kind {
                EventKind::FirstToken { ttft_ns } => Some(ttft_ns),
                _ => None,
            });
            assert_eq!(ttft, Some(report.first_token_ns));
        }
        assert_eq!(serving.telemetry().journal_len, 0, "drain empties the ring");
        assert!(serving.request_table().is_empty(), "idle table has no rows");
    }

    /// With [`ServingConfig::telemetry`] off the instruments stay empty and
    /// the journal records nothing, but the per-request report timing
    /// (TTFT, decode, queue wait) is part of the report contract and keeps
    /// flowing.
    #[test]
    fn disabled_telemetry_keeps_report_timing_but_no_instruments() {
        let engine = engine(false, 16);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                telemetry: false,
                ..ServingConfig::default()
            },
        );
        let handle = serving
            .submit(Request::new(
                prompts()[0].clone(),
                GenerationOptions::max_tokens(5),
            ))
            .expect("queued");
        serving.run_until_idle();
        let snap = serving.telemetry();
        assert!(!snap.enabled);
        assert_eq!(snap.ttft.count, 0);
        assert_eq!(snap.inter_token.count, 0);
        assert_eq!(snap.queue_wait.count, 0);
        assert_eq!(snap.e2e.count, 0);
        assert!(snap.phases.iter().all(|p| p.count == 0));
        assert_eq!(snap.journal_total, 0);
        assert!(serving.drain_trace_events().is_empty());
        let report = handle.report().expect("finished");
        assert!(report.first_token_ns > 0, "report timing is unconditional");
        assert!(report.decode_ns > 0);
    }

    /// The `/debug/requests` live table follows a request through
    /// queued → prefilling → decoding and empties once the engine is idle.
    #[test]
    fn request_table_tracks_lifecycle_states() {
        let engine = engine(false, 17);
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                max_resident: 1,
                prefill_chunk_tokens: 4,
                ..ServingConfig::default()
            },
        );
        let long_prompt: Vec<u32> = (0..12u32).map(|i| (i * 13 + 3) % 128).collect();
        let long = serving
            .submit(Request::new(
                long_prompt.clone(),
                GenerationOptions::max_tokens(20),
            ))
            .expect("queued");
        let short = serving
            .submit(
                Request::new(prompts()[1].clone(), GenerationOptions::max_tokens(3))
                    .with_class(QosClass::Background),
            )
            .expect("queued");
        let table = serving.request_table();
        assert_eq!(table.len(), 2);
        assert!(table
            .iter()
            .all(|r| r.state == RequestState::Queued && r.tokens_fed == 0));
        assert_eq!(table[0].prompt_tokens, long_prompt.len());

        serving.serve_round();
        let table = serving.request_table();
        let row = table
            .iter()
            .find(|r| r.id == long.id().as_u64())
            .expect("resident row");
        assert_eq!(row.state, RequestState::Prefilling);
        assert!(row.tokens_fed >= 4 && row.tokens_fed < long_prompt.len());
        assert_eq!(row.generated, 0);
        let queued = table
            .iter()
            .find(|r| r.id == short.id().as_u64())
            .expect("queued row");
        assert_eq!(queued.state, RequestState::Queued);
        assert_eq!(queued.class, QosClass::Background);

        serving.serve_round();
        serving.serve_round();
        let table = serving.request_table();
        let row = table
            .iter()
            .find(|r| r.id == long.id().as_u64())
            .expect("resident row");
        assert_eq!(row.state, RequestState::Decoding);
        assert_eq!(row.tokens_fed, long_prompt.len());
        assert!(row.generated >= 1);

        serving.run_until_idle();
        assert!(serving.request_table().is_empty(), "idle table is empty");
        assert!(long.is_finished() && short.is_finished());
    }

    fn checkpoint_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("million_ckpt_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A shard crash between rounds loses the engine but not the
    /// checkpoints: a fresh engine recovers the residents and continues
    /// every stream — greedy and seeded top-k alike — bit-identically to an
    /// undisturbed run, with clean retirement removing the files.
    #[test]
    fn recovered_checkpoints_continue_every_stream_bit_identically() {
        let engine = engine(false, 21);
        let dir = checkpoint_dir("recover");
        let config = ServingConfig {
            max_resident: 4,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_rounds: 1,
            ..ServingConfig::default()
        };
        let p = prompts();
        let submit_all = |serving: &mut ServingEngine| -> Vec<RequestHandle> {
            vec![
                serving
                    .submit(Request::new(
                        p[0].clone(),
                        GenerationOptions::max_tokens(12),
                    ))
                    .expect("queued"),
                serving
                    .submit(
                        Request::new(p[1].clone(), GenerationOptions::max_tokens(12))
                            .with_sampler(Sampler::top_k(0.8, 8, 77)),
                    )
                    .expect("queued"),
            ]
        };
        // The undisturbed baseline (no checkpointing).
        let mut baseline = ServingEngine::new(&engine, ServingConfig::default());
        let expected: Vec<Vec<u32>> = {
            let handles = submit_all(&mut baseline);
            baseline.run_until_idle();
            handles
                .iter()
                .map(|h| h.report().expect("done").tokens.clone())
                .collect()
        };
        // The crashing run: 4 rounds of service, then the engine is dropped
        // without shutdown — exactly what a panic unwinding the shard loop
        // leaves behind.
        let mut serving = ServingEngine::new(&engine, config.clone());
        let handles = submit_all(&mut serving);
        for _ in 0..4 {
            serving.serve_round();
        }
        let streamed: Vec<Vec<u32>> = handles
            .iter()
            .map(|h| h.drain_tokens().iter().map(|s| s.token).collect())
            .collect();
        assert!(serving.stats().snapshot_writes >= 2, "checkpoints written");
        drop(serving);
        drop(handles);

        let mut restarted = ServingEngine::new(&engine, config);
        let recovered = restarted.recover(&dir);
        assert!(recovered.failed.is_empty(), "{:?}", recovered.failed);
        assert_eq!(recovered.restored.len(), 2);
        restarted.run_until_idle();
        for (i, handle) in recovered.restored.iter().enumerate() {
            assert_eq!(handle.recovered_tokens(), streamed[i].len());
            let tail: Vec<u32> = handle.drain_tokens().iter().map(|s| s.token).collect();
            assert_eq!(
                [streamed[i].clone(), tail].concat(),
                expected[i],
                "request {i} continues bit-identically across the crash"
            );
            // The full-history report also matches the baseline.
            assert_eq!(handle.report().expect("done").tokens, expected[i]);
        }
        assert_eq!(restarted.stats().completed, 2);
        assert!(
            std::fs::read_dir(&dir)
                .map(|d| d.count() == 0)
                .unwrap_or(true),
            "clean retirement removes every checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Periodic checkpoints catch a resident mid-prefill too: its unfed
    /// prompt rides in the checkpoint, so after a crash the recovered
    /// request resumes chunked admission and completes bit-identically.
    #[test]
    fn a_crash_mid_prefill_recovers_from_the_periodic_checkpoint() {
        let engine = engine(false, 27);
        let dir = checkpoint_dir("mid_prefill");
        let chunked = ServingConfig {
            prefill_chunk_tokens: 4,
            ..ServingConfig::default()
        };
        let config = ServingConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_rounds: 1,
            ..chunked.clone()
        };
        let prompt: Vec<u32> = (0..20u32).map(|i| (i * 7 + 3) % 64).collect();
        let request = || Request::new(prompt.clone(), GenerationOptions::max_tokens(6));
        let mut baseline = ServingEngine::new(&engine, chunked);
        let expected = baseline.submit(request()).expect("queued");
        baseline.run_until_idle();

        let mut crashed = ServingEngine::new(&engine, config.clone());
        crashed.submit(request()).expect("queued");
        crashed.serve_round();
        crashed.serve_round();
        assert_eq!(crashed.prefill_tokens_remaining(), 12, "two chunks fed");
        drop(crashed);

        let mut restarted = ServingEngine::new(&engine, config);
        let recovered = restarted.recover(&dir);
        assert!(recovered.failed.is_empty(), "{:?}", recovered.failed);
        assert_eq!(restarted.prefill_tokens_remaining(), 12);
        restarted.run_until_idle();
        assert_eq!(
            recovered.restored[0].report().expect("done").tokens,
            expected.report().expect("done").tokens
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corrupt checkpoints — truncation, flipped bytes, garbage — are typed
    /// recovery failures, counted and reported, never panics; intact
    /// neighbours still restore.
    #[test]
    fn recover_rejects_corrupt_checkpoints_without_losing_good_ones() {
        let engine = engine(false, 22);
        let dir = checkpoint_dir("corrupt");
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every_rounds: 1,
                ..ServingConfig::default()
            },
        );
        let _handle = serving
            .submit(Request::new(
                prompts()[0].clone(),
                GenerationOptions::max_tokens(16),
            ))
            .expect("queued");
        for _ in 0..3 {
            serving.serve_round();
        }
        drop(serving);
        let good = dir.join("request-0.ckpt");
        let bytes = std::fs::read(&good).expect("checkpoint exists");
        // A truncated copy, a flipped byte in the metadata section, and
        // outright garbage, next to the intact original.
        std::fs::write(dir.join("request-7.ckpt"), &bytes[..bytes.len() / 2]).unwrap();
        let mut flipped = bytes.clone();
        flipped[21] ^= 0x40;
        std::fs::write(dir.join("request-8.ckpt"), &flipped).unwrap();
        std::fs::write(dir.join("request-9.ckpt"), b"not a checkpoint").unwrap();

        let mut restarted = ServingEngine::new(&engine, ServingConfig::default());
        let recovered = restarted.recover(&dir);
        assert_eq!(recovered.restored.len(), 1, "the intact file restores");
        assert_eq!(recovered.failed.len(), 3);
        assert_eq!(restarted.stats().snapshot_crc_failures, 3);
        assert!(
            recovered
                .failed
                .iter()
                .any(|(_, e)| e.contains("checksum mismatch")),
            "flipped byte is a checksum error: {:?}",
            recovered.failed
        );
        restarted.run_until_idle();
        assert_eq!(restarted.stats().completed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The fault plan's serving hooks: a scheduled queue-full burst rejects
    /// submissions on an empty queue, and the scheduled snapshot I/O error
    /// surfaces through a persist-mode drain — which retires nobody — while
    /// the retried drain lands.
    #[test]
    fn fault_plan_injects_queue_full_and_snapshot_io_errors() {
        let engine = engine(false, 23);
        let plan = Arc::new(
            FaultPlan::parse("queue_full@submit=1,count=2 snapshot_io@write=1", 7).unwrap(),
        );
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                fault_plan: Some(plan),
                ..ServingConfig::default()
            },
        );
        let p = prompts();
        for _ in 0..2 {
            assert!(matches!(
                serving.submit(Request::new(p[0].clone(), GenerationOptions::max_tokens(4))),
                Err(SubmitError::QueueFull { .. })
            ));
        }
        assert_eq!(serving.stats().rejected, 2);
        let handle = serving
            .submit(Request::new(p[0].clone(), GenerationOptions::max_tokens(8)))
            .expect("burst over");
        serving.serve_round();
        let dir = checkpoint_dir("fault");
        let err = serving
            .drain(Some(&dir))
            .expect_err("first write is the scheduled failure");
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(serving.stats().snapshot_writes, 0);
        assert_eq!(
            serving.resident_sessions(),
            1,
            "a failed drain retires nobody"
        );
        assert!(!handle.is_finished());
        let report = serving.drain(Some(&dir)).expect("the retry lands");
        assert_eq!(report.persisted.len(), 1);
        assert_eq!(serving.stats().snapshot_writes, 1);
        assert!(serving.is_idle());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A retired format is a typed, counted recovery failure that names
    /// its version — never a misread of the bytes that follow the magic.
    fn recover_rejects_a_retired_checkpoint_by_name(magic: &str) {
        let engine = engine(false, 26);
        let dir = checkpoint_dir(magic);
        let mut serving = ServingEngine::new(&engine, ServingConfig::default());
        serving
            .submit(Request::new(
                prompts()[0].clone(),
                GenerationOptions::max_tokens(8),
            ))
            .expect("queued");
        serving.serve_round();
        let report = serving.drain(Some(&dir)).expect("drain persists");
        let (_, path) = &report.persisted[0];
        let mut bytes = std::fs::read(path).expect("checkpoint exists");
        bytes[..8].copy_from_slice(magic.as_bytes());
        std::fs::write(path, &bytes).unwrap();

        let mut restarted = ServingEngine::new(&engine, ServingConfig::default());
        let recovered = restarted.recover(&dir);
        assert!(recovered.restored.is_empty());
        assert_eq!(recovered.failed.len(), 1);
        assert!(
            recovered.failed[0].1.contains(magic),
            "{:?}",
            recovered.failed
        );
        assert_eq!(restarted.stats().snapshot_crc_failures, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_rejects_a_v1_checkpoint_by_name() {
        recover_rejects_a_retired_checkpoint_by_name("MLNCKPT1");
    }

    #[test]
    fn recover_rejects_a_v2_checkpoint_by_name() {
        recover_rejects_a_retired_checkpoint_by_name("MLNCKPT2");
    }

    /// A scheduled short read corrupts checkpoint recovery exactly once —
    /// the typed failure is counted, and the engine keeps serving.
    #[test]
    fn fault_plan_short_read_corrupts_exactly_one_recovery() {
        let engine = engine(false, 24);
        let dir = checkpoint_dir("short_read");
        let mut serving = ServingEngine::new(
            &engine,
            ServingConfig {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every_rounds: 1,
                ..ServingConfig::default()
            },
        );
        for prompt in &prompts()[..2] {
            serving
                .submit(Request::new(
                    prompt.clone(),
                    GenerationOptions::max_tokens(16),
                ))
                .expect("queued");
        }
        for _ in 0..3 {
            serving.serve_round();
        }
        drop(serving);
        let plan = Arc::new(FaultPlan::parse("short_read@read=1", 5).unwrap());
        let mut restarted = ServingEngine::new(
            &engine,
            ServingConfig {
                fault_plan: Some(plan),
                ..ServingConfig::default()
            },
        );
        let recovered = restarted.recover(&dir);
        assert_eq!(recovered.restored.len(), 1, "the unscheduled read is fine");
        assert_eq!(recovered.failed.len(), 1, "the short read is typed");
        assert_eq!(restarted.stats().snapshot_crc_failures, 1);
        restarted.run_until_idle();
        assert_eq!(restarted.stats().completed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
