//! Engine shards: one supervised thread per shard, each serving a
//! [`ServingEngine`] over its own [`MillionEngine::sibling`] of the one
//! engine [`crate::Server::bind`] built, and driven by a command channel.
//! The model and codebooks are shared by every shard and never rebuilt; the
//! block store belongs to one incarnation.
//!
//! [`ServingEngine`] is deliberately single-threaded — it borrows its
//! engine and schedules rounds synchronously — so the networked front-end
//! gives each shard its own thread and marshals everything else through
//! [`ShardCommand`]s. Connection threads only ever hold a [`ShardHandle`]:
//! submissions round-trip over the channel and return the engine's own
//! [`RequestHandle`], which is `Send` and streams tokens directly from the
//! shard thread to whichever connection is serving the client. Load gauges
//! are published through atomics so the router can read them without a
//! channel round-trip.
//!
//! ## Supervision
//!
//! The shard thread is a *supervisor*: each engine incarnation runs under
//! [`std::panic::catch_unwind`], and a panic (organic or injected through a
//! [`FaultPlan`]) tears down only that incarnation. The supervisor then
//!
//! 1. marks the shard [`ShardState::Restarting`] and seals the command
//!    channel, so in-flight handles observe a closed stream and new
//!    submissions fail over to other shards;
//! 2. backs off exponentially (capped), takes a fresh sibling of the
//!    shared engine (an empty store, no training), and re-admits every
//!    crash-safe checkpoint found under its checkpoint directory;
//! 3. goes [`ShardState::Live`] again with a fresh channel — or
//!    [`ShardState::Failed`] permanently once the restart budget is spent.
//!
//! Recovered sessions keep decoding; their fresh [`RequestHandle`]s park in
//! the handle's recovery bin until claimed with
//! [`ShardHandle::claim_recovered`].
//!
//! The `pause`/`step` controls exist for the end-to-end tests: a paused
//! shard keeps accepting (queueing) submissions but decodes only when
//! stepped, which makes queue-overflow, spill, and shared-prefix residency
//! deterministic instead of racing the decode loop.

// The supervisor is what must survive a panic, so it may not raise its own.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::panic_in_result_fn
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Serialize;

use million::{
    DrainReport, FaultPlan, MillionEngine, Request, RequestHandle, RequestId, RequestInfo,
    ServingEngine, ServingStats, StoreStats, SubmitError, TelemetrySnapshot,
};
use million_telemetry::Event;

use crate::config::ServingSettings;

/// How long an idle shard thread sleeps on its command channel between
/// wake-ups.
const IDLE_WAIT: Duration = Duration::from_millis(2);

/// Ceiling on the exponential restart backoff.
const MAX_RESTART_BACKOFF: Duration = Duration::from_secs(5);

/// Granularity of the backoff sleep, so shutdown stays responsive while a
/// crashed shard waits to restart.
const BACKOFF_SLICE: Duration = Duration::from_millis(10);

/// Control-plane messages a shard thread executes between scheduling
/// rounds.
pub enum ShardCommand {
    /// Submit a request; the reply carries the engine's verdict.
    Submit {
        /// The request to enqueue.
        request: Request,
        /// Where to send the resulting handle (or rejection).
        reply: Sender<Result<RequestHandle, SubmitError>>,
    },
    /// Report a full metrics snapshot.
    Snapshot {
        /// Where to send the snapshot.
        reply: Sender<ShardSnapshot>,
    },
    /// Report the live request table (the `GET /debug/requests` view).
    Requests {
        /// Where to send the rows.
        reply: Sender<Vec<RequestInfo>>,
    },
    /// Drain the buffered request-lifecycle events (the `GET /debug/trace`
    /// source).
    Trace {
        /// Where to send the events.
        reply: Sender<Vec<Event>>,
    },
    /// Drain the shard: close admission, then finish or persist residents.
    Drain {
        /// Persist residents under this directory instead of finishing
        /// them.
        persist_dir: Option<PathBuf>,
        /// Where to send the drain outcome.
        reply: Sender<Result<DrainReport, String>>,
    },
    /// Suspend (`true`) or resume (`false`) the decode loop. Submissions
    /// still queue while paused.
    Pause(bool),
    /// Run exactly `rounds` scheduling rounds (even while paused), then
    /// acknowledge.
    Step {
        /// Rounds to run.
        rounds: u64,
        /// Acknowledged once the rounds completed.
        reply: Sender<()>,
    },
    /// Exit the shard thread after publishing final gauges.
    Shutdown,
}

/// Supervision state of one shard, as exposed through `/metrics` and the
/// `million_shard_state` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The shard thread is serving.
    Live,
    /// The shard crashed; its supervisor is backing off before it starts a
    /// fresh incarnation.
    Restarting,
    /// The shard spent its restart budget and stays down permanently.
    Failed,
}

// Hand-rolled so the wire format is the stable lowercase `name()`
// ("live" / "restarting" / "failed") rather than the variant identifier.
impl Serialize for ShardState {
    fn serialize_json(&self, out: &mut String) {
        serde::write_json_string(out, self.name());
    }
}

impl ShardState {
    fn from_u8(value: u8) -> ShardState {
        match value {
            1 => ShardState::Restarting,
            2 => ShardState::Failed,
            _ => ShardState::Live,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            ShardState::Live => 0,
            ShardState::Restarting => 1,
            ShardState::Failed => 2,
        }
    }

    /// Stable lowercase name (matches the JSON serialization).
    pub fn name(&self) -> &'static str {
        match self {
            ShardState::Live => "live",
            ShardState::Restarting => "restarting",
            ShardState::Failed => "failed",
        }
    }

    /// Numeric encoding for the Prometheus gauge: 0 = live,
    /// 1 = restarting, 2 = failed.
    pub fn gauge_value(&self) -> u64 {
        self.as_u8() as u64
    }
}

/// Supervision policy plus the crash-safety wiring threaded into each
/// incarnation's [`ServingEngine`].
#[derive(Debug, Clone)]
pub struct SupervisorSettings {
    /// Restarts allowed before the shard is marked [`ShardState::Failed`].
    pub max_restarts: u64,
    /// Base backoff between restarts; doubles per restart, capped at 5 s.
    pub backoff_ms: u64,
    /// This shard's request checkpoints, recovered at every start (a drain
    /// into it included); the cadence is `serving.checkpoint_every_rounds`.
    /// `None` disables checkpointing and recovery.
    pub checkpoint_dir: Option<PathBuf>,
    /// Deterministic fault schedule (injected panics, snapshot I/O errors,
    /// short reads, queue-full bursts) for chaos tests.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for SupervisorSettings {
    fn default() -> Self {
        SupervisorSettings {
            max_restarts: 3,
            backoff_ms: 100,
            checkpoint_dir: None,
            fault_plan: None,
        }
    }
}

/// One shard's supervision status: the `health` array of the JSON
/// `/metrics` document. Stays truthful even when the shard thread is gone
/// — it reads atomics, never the command channel.
#[derive(Debug, Clone, Serialize)]
pub struct ShardHealth {
    /// Shard index in the router.
    pub shard: usize,
    /// Current supervision state.
    pub state: ShardState,
    /// Times the supervisor restarted this shard.
    pub restarts: u64,
}

/// State shared between the supervisor thread and every [`ShardHandle`]
/// clone: the per-incarnation command sender plus supervision atomics.
struct ShardShared {
    /// Sender into the *current* incarnation's command channel. Swapped by
    /// the supervisor on every restart; sealed (receiver dropped) while
    /// the shard is down so sends fail fast with [`ShardSubmitError::Down`].
    tx: Mutex<Sender<ShardCommand>>,
    state: AtomicU8,
    restarts: AtomicU64,
    /// Set by [`ShardHandle::shutdown`]: the supervisor must not restart.
    stopping: AtomicBool,
    /// Handles for checkpointed sessions the latest incarnation re-admitted,
    /// waiting to be claimed by their original connection (or a test).
    recovered: Mutex<Vec<RequestHandle>>,
}

impl ShardShared {
    /// Replaces the command sender with one whose receiver is already
    /// dropped, so every send fails fast instead of queueing into a dead
    /// incarnation.
    fn seal(&self) {
        let (dead, _) = mpsc::channel();
        // Poison-tolerant: sealing must succeed even when the thread that
        // last held the sender lock died — that is exactly when it runs.
        *self.tx.lock().unwrap_or_else(|p| p.into_inner()) = dead;
    }
}

/// Lock-free load gauges a shard publishes after every loop iteration.
#[derive(Default)]
pub struct ShardGauges {
    /// Sessions currently resident (decoding).
    pub resident: AtomicUsize,
    /// Requests waiting in the pending queue.
    pub queued: AtomicUsize,
    /// Set once the shard enters drain; admission is closed.
    pub draining: AtomicBool,
}

impl ShardGauges {
    /// Queue depth + residency — the router's spill ordering key.
    pub fn load(&self) -> usize {
        self.resident.load(Ordering::Relaxed) + self.queued.load(Ordering::Relaxed)
    }
}

/// One shard's full state for `/metrics`.
#[derive(Debug, Clone, Serialize)]
pub struct ShardSnapshot {
    /// Shard index in the router.
    pub shard: usize,
    /// Scheduling rounds run.
    pub rounds: u64,
    /// Requests waiting in the pending queue.
    pub queued: usize,
    /// Sessions currently resident.
    pub resident: usize,
    /// Residents currently admitting their prompt in chunks (the
    /// *Prefilling* state).
    pub prefilling: usize,
    /// Prompt tokens still to be prefilled across prefilling residents.
    pub prefill_tokens_remaining: usize,
    /// Quantized KV bytes across live sessions (shared blocks counted
    /// once per session).
    pub kv_bytes: usize,
    /// KV bytes actually resident in the store (shared blocks counted
    /// once) plus full-precision tails.
    pub fleet_kv_bytes: usize,
    /// Whether admission is closed on this shard.
    pub draining: bool,
    /// Cumulative serving counters.
    pub stats: ServingStats,
    /// PQ block-store counters (absent when the store is disabled).
    pub store: Option<StoreStats>,
    /// Logical bytes referenced by sessions over physical store bytes —
    /// > 1 when prefix sharing is deduplicating resident prompts.
    pub dedup_ratio: f64,
    /// Latency histograms, per-phase round timing, and journal counters
    /// (empty histograms when [`ServingConfig::telemetry`] is off).
    ///
    /// [`ServingConfig::telemetry`]: million::ServingConfig::telemetry
    pub telemetry: TelemetrySnapshot,
}

/// Why a submission never reached the engine.
#[derive(Debug)]
pub enum ShardSubmitError {
    /// The engine rejected it (queue full, bad prompt, draining).
    Rejected(SubmitError),
    /// The shard thread is gone (crashed, restarting, or failed).
    Down,
}

impl std::fmt::Display for ShardSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSubmitError::Rejected(e) => write!(f, "{e}"),
            ShardSubmitError::Down => write!(f, "shard thread is not running"),
        }
    }
}

/// Client-side handle to one shard thread. Shared (behind the router) by
/// every connection thread.
pub struct ShardHandle {
    index: usize,
    shared: Arc<ShardShared>,
    gauges: Arc<ShardGauges>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl ShardHandle {
    /// Shard index in the router.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's live load gauges.
    pub fn gauges(&self) -> &ShardGauges {
        &self.gauges
    }

    /// Current supervision state.
    pub fn state(&self) -> ShardState {
        ShardState::from_u8(self.shared.state.load(Ordering::Relaxed))
    }

    /// Times the supervisor restarted this shard after a crash.
    pub fn restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::Relaxed)
    }

    /// Supervision status for `/metrics` (readable even when the shard
    /// thread is down).
    pub fn health(&self) -> ShardHealth {
        ShardHealth {
            shard: self.index,
            state: self.state(),
            restarts: self.restarts(),
        }
    }

    /// Claims the re-admitted handle for checkpointed request `id`, if the
    /// latest restart recovered it. The handle streams the session's
    /// post-checkpoint tokens; [`RequestHandle::recovered_tokens`] says how
    /// many tokens the checkpoint already contained.
    pub fn claim_recovered(&self, id: RequestId) -> Option<RequestHandle> {
        let mut recovered = self
            .shared
            .recovered
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let index = recovered.iter().position(|h| h.id() == id)?;
        Some(recovered.swap_remove(index))
    }

    fn send(&self, cmd: ShardCommand) -> Result<(), ShardSubmitError> {
        self.shared
            .tx
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .send(cmd)
            .map_err(|_| ShardSubmitError::Down)
    }

    /// Submits a request to this shard and waits for the engine's verdict.
    pub fn submit(&self, request: Request) -> Result<RequestHandle, ShardSubmitError> {
        let (reply, rx) = mpsc::channel();
        self.send(ShardCommand::Submit { request, reply })?;
        match rx.recv() {
            Ok(Ok(handle)) => Ok(handle),
            Ok(Err(e)) => Err(ShardSubmitError::Rejected(e)),
            Err(_) => Err(ShardSubmitError::Down),
        }
    }

    /// Fetches a full metrics snapshot (channel round-trip).
    pub fn snapshot(&self) -> Option<ShardSnapshot> {
        let (reply, rx) = mpsc::channel();
        self.send(ShardCommand::Snapshot { reply }).ok()?;
        rx.recv().ok()
    }

    /// Fetches the live request table (channel round-trip).
    pub fn requests(&self) -> Option<Vec<RequestInfo>> {
        let (reply, rx) = mpsc::channel();
        self.send(ShardCommand::Requests { reply }).ok()?;
        rx.recv().ok()
    }

    /// Drains the shard's buffered lifecycle events, oldest first
    /// (channel round-trip).
    pub fn trace(&self) -> Option<Vec<Event>> {
        let (reply, rx) = mpsc::channel();
        self.send(ShardCommand::Trace { reply }).ok()?;
        rx.recv().ok()
    }

    /// Drains the shard (see [`ServingEngine::drain`]); blocks until the
    /// drain completes.
    pub fn drain(&self, persist_dir: Option<PathBuf>) -> Result<DrainReport, String> {
        let (reply, rx) = mpsc::channel();
        self.send(ShardCommand::Drain { persist_dir, reply })
            .map_err(|e| e.to_string())?;
        rx.recv()
            .map_err(|_| "shard exited mid-drain".to_string())?
    }

    /// Pauses or resumes the decode loop (testing control).
    pub fn pause(&self, paused: bool) {
        let _ = self.send(ShardCommand::Pause(paused));
    }

    /// Runs exactly `rounds` scheduling rounds and waits for them
    /// (testing control).
    pub fn step(&self, rounds: u64) {
        let (reply, rx) = mpsc::channel();
        if self.send(ShardCommand::Step { rounds, reply }).is_ok() {
            let _ = rx.recv();
        }
    }

    /// Stops the shard thread (supervisor included) and joins it. Safe to
    /// call more than once.
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        let _ = self.send(ShardCommand::Shutdown);
        if let Some(handle) = self.join.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns shard `index` under supervision: every incarnation serves from a
/// sibling of `engine` (same model and codebooks, fresh block store),
/// recovers any checkpointed sessions, then enters the command/decode loop;
/// panics restart it per `supervisor`. Returns once the first incarnation
/// is live with its checkpoints re-admitted (or the shard has failed), so
/// the only error is the OS refusing the thread.
pub fn spawn_shard(
    index: usize,
    engine: Arc<MillionEngine>,
    serving_settings: ServingSettings,
    supervisor: SupervisorSettings,
) -> std::io::Result<ShardHandle> {
    let gauges = Arc::new(ShardGauges::default());
    let (sealed, _) = mpsc::channel();
    let shared = Arc::new(ShardShared {
        tx: Mutex::new(sealed),
        state: AtomicU8::new(ShardState::Live.as_u8()),
        restarts: AtomicU64::new(0),
        stopping: AtomicBool::new(false),
        recovered: Mutex::new(Vec::new()),
    });
    let (ready_tx, ready_rx) = mpsc::channel();

    let thread_gauges = Arc::clone(&gauges);
    let thread_shared = Arc::clone(&shared);
    let join = std::thread::Builder::new()
        .name(format!("shard-{index}"))
        .spawn(move || {
            supervise(
                index,
                &engine,
                &serving_settings,
                &supervisor,
                &thread_shared,
                &thread_gauges,
                ready_tx,
            );
        })?;
    // A closed channel means the supervisor gave up before any incarnation
    // went live; the handle then reports `Failed`.
    let _ = ready_rx.recv();
    Ok(ShardHandle {
        index,
        shared,
        gauges,
        join: Mutex::new(Some(join)),
    })
}

/// The supervisor loop: runs engine incarnations under `catch_unwind`,
/// restarting with capped exponential backoff until the budget is spent.
fn supervise(
    index: usize,
    engine: &MillionEngine,
    serving_settings: &ServingSettings,
    supervisor: &SupervisorSettings,
    shared: &Arc<ShardShared>,
    gauges: &ShardGauges,
    ready: Sender<()>,
) {
    let mut ready = Some(ready);
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_incarnation(
                index,
                engine,
                serving_settings,
                supervisor,
                shared,
                gauges,
                &mut ready,
            );
        }));
        let Err(payload) = outcome else { return };
        let reason = panic_message(payload.as_ref());
        // The incarnation's receiver died with it; seal the sender so
        // submissions fail over instead of queueing into the void.
        shared.seal();
        let restarts = shared.restarts.fetch_add(1, Ordering::SeqCst) + 1;
        if shared.stopping.load(Ordering::SeqCst) {
            shared
                .state
                .store(ShardState::Failed.as_u8(), Ordering::SeqCst);
            return;
        }
        if restarts > supervisor.max_restarts {
            shared
                .state
                .store(ShardState::Failed.as_u8(), Ordering::SeqCst);
            eprintln!(
                "shard {index}: crashed ({reason}); restart budget of {} spent, marking failed",
                supervisor.max_restarts
            );
            return;
        }
        shared
            .state
            .store(ShardState::Restarting.as_u8(), Ordering::SeqCst);
        eprintln!(
            "shard {index}: crashed ({reason}); restart {restarts}/{}",
            supervisor.max_restarts
        );

        // Capped exponential backoff, sliced so shutdown stays responsive.
        let exponent = restarts.saturating_sub(1).min(6) as u32;
        let mut wait = Duration::from_millis(supervisor.backoff_ms.saturating_mul(1 << exponent))
            .min(MAX_RESTART_BACKOFF);
        while !wait.is_zero() {
            if shared.stopping.load(Ordering::SeqCst) {
                shared
                    .state
                    .store(ShardState::Failed.as_u8(), Ordering::SeqCst);
                return;
            }
            let slice = wait.min(BACKOFF_SLICE);
            std::thread::sleep(slice);
            wait -= slice;
        }
    }
}

/// Runs one incarnation on a fresh sibling of `engine`: re-admits
/// checkpointed sessions, opens a fresh command channel, signals `ready`
/// (first incarnation only), and runs the serve loop to completion.
fn run_incarnation(
    index: usize,
    engine: &MillionEngine,
    serving_settings: &ServingSettings,
    supervisor: &SupervisorSettings,
    shared: &Arc<ShardShared>,
    gauges: &ShardGauges,
    ready: &mut Option<Sender<()>>,
) {
    let engine = engine.sibling();
    let mut config = serving_settings.to_serving_config();
    config.checkpoint_dir = supervisor.checkpoint_dir.clone();
    config.fault_plan = supervisor.fault_plan.clone();
    let mut serving = ServingEngine::new(&engine, config);

    if let Some(dir) = &supervisor.checkpoint_dir {
        let report = serving.recover(dir);
        if !report.restored.is_empty() || !report.failed.is_empty() {
            eprintln!(
                "shard {index}: recovered {} checkpointed session(s), rejected {}",
                report.restored.len(),
                report.failed.len()
            );
        }
        shared
            .recovered
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend(report.restored);
    }

    // Fresh channel for this incarnation, installed before the shard is
    // announced live so no submission can race into a sealed sender.
    let (tx, rx) = mpsc::channel();
    *shared.tx.lock().unwrap_or_else(|p| p.into_inner()) = tx;
    shared
        .state
        .store(ShardState::Live.as_u8(), Ordering::SeqCst);
    if let Some(tx) = ready.take() {
        let _ = tx.send(());
    }

    shard_loop(
        index,
        serving,
        rx,
        gauges,
        supervisor.fault_plan.as_deref(),
        &shared.stopping,
    );
}

/// Best-effort extraction of the panic payload for the restart log line.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

fn shard_loop(
    index: usize,
    mut serving: ServingEngine<'_>,
    rx: Receiver<ShardCommand>,
    gauges: &ShardGauges,
    fault: Option<&FaultPlan>,
    stopping: &AtomicBool,
) {
    let mut paused = false;
    loop {
        // A shutdown issued while the supervisor was mid-restart never
        // reached a command channel; honor the flag directly.
        if stopping.load(Ordering::SeqCst) {
            publish(&serving, gauges);
            return;
        }
        // Drain every queued command first so submissions and control
        // never wait behind decode work.
        loop {
            match rx.try_recv() {
                Ok(cmd) => {
                    if handle_command(index, &mut serving, cmd, &mut paused, gauges) {
                        publish(&serving, gauges);
                        return;
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    publish(&serving, gauges);
                    return;
                }
            }
        }

        if !paused && !serving.is_idle() {
            if let Some(plan) = fault {
                let next_round = serving.rounds() + 1;
                #[allow(
                    clippy::panic,
                    reason = "seeded fault injection: this panic is the chaos test's payload"
                )]
                if plan.should_panic(index, next_round) {
                    panic!("injected fault: shard {index} panics before round {next_round}");
                }
            }
            serving.serve_round();
        } else {
            // Nothing to decode (or paused): block briefly on the channel
            // instead of spinning.
            match rx.recv_timeout(IDLE_WAIT) {
                Ok(cmd) => {
                    if handle_command(index, &mut serving, cmd, &mut paused, gauges) {
                        publish(&serving, gauges);
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    publish(&serving, gauges);
                    return;
                }
            }
        }
        publish(&serving, gauges);
    }
}

/// Executes one command; returns `true` when the shard should exit.
fn handle_command(
    index: usize,
    serving: &mut ServingEngine<'_>,
    cmd: ShardCommand,
    paused: &mut bool,
    gauges: &ShardGauges,
) -> bool {
    match cmd {
        ShardCommand::Submit { request, reply } => {
            let _ = reply.send(serving.submit(request));
        }
        ShardCommand::Snapshot { reply } => {
            let _ = reply.send(snapshot(index, serving, gauges));
        }
        ShardCommand::Requests { reply } => {
            let _ = reply.send(serving.request_table());
        }
        ShardCommand::Trace { reply } => {
            let _ = reply.send(serving.drain_trace_events());
        }
        ShardCommand::Drain { persist_dir, reply } => {
            let result = serving
                .drain(persist_dir.as_deref())
                .map_err(|e| e.to_string());
            gauges.draining.store(true, Ordering::Relaxed);
            let _ = reply.send(result);
        }
        ShardCommand::Pause(p) => *paused = p,
        ShardCommand::Step { rounds, reply } => {
            for _ in 0..rounds {
                serving.serve_round();
            }
            publish(serving, gauges);
            let _ = reply.send(());
        }
        ShardCommand::Shutdown => return true,
    }
    false
}

fn publish(serving: &ServingEngine<'_>, gauges: &ShardGauges) {
    gauges
        .resident
        .store(serving.resident_sessions(), Ordering::Relaxed);
    gauges
        .queued
        .store(serving.queued_requests(), Ordering::Relaxed);
    gauges
        .draining
        .store(serving.is_draining(), Ordering::Relaxed);
}

fn snapshot(index: usize, serving: &ServingEngine<'_>, gauges: &ShardGauges) -> ShardSnapshot {
    let store = serving.engine().store_stats();
    let dedup_ratio = store.as_ref().map(StoreStats::dedup_ratio).unwrap_or(1.0);
    ShardSnapshot {
        shard: index,
        rounds: serving.rounds(),
        queued: serving.queued_requests(),
        resident: serving.resident_sessions(),
        prefilling: serving.prefilling_sessions(),
        prefill_tokens_remaining: serving.prefill_tokens_remaining(),
        kv_bytes: serving.kv_bytes(),
        fleet_kv_bytes: serving.fleet_kv_bytes(),
        draining: gauges.draining.load(Ordering::Relaxed) || serving.is_draining(),
        stats: serving.stats(),
        store,
        dedup_ratio,
        telemetry: serving.telemetry(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineSettings;
    use crate::engine::build_engine;
    use million::{GenerationOptions, TokenWait};
    use std::time::Instant;

    fn tiny() -> (Arc<MillionEngine>, ServingSettings) {
        let settings = EngineSettings {
            model: "tiny-test".into(),
            calibration_tokens: 96,
            async_quant: false,
            ..EngineSettings::default()
        };
        (
            Arc::new(build_engine(&settings).expect("tiny engine builds")),
            ServingSettings::default(),
        )
    }

    fn drain_handle(handle: &RequestHandle) -> Vec<u32> {
        let mut tokens = Vec::new();
        loop {
            match handle.recv_token(Duration::from_millis(200)) {
                TokenWait::Token(step) => tokens.push(step.token),
                TokenWait::Idle => {}
                TokenWait::Closed => break,
            }
        }
        tokens
    }

    #[test]
    fn shard_serves_a_request_end_to_end() {
        let (engine, ss) = tiny();
        let shard = spawn_shard(0, engine, ss, SupervisorSettings::default()).unwrap();
        let request = Request::new(vec![3, 9, 27, 81], GenerationOptions::max_tokens(6));
        let handle = shard.submit(request).unwrap();
        let tokens = drain_handle(&handle);
        assert_eq!(tokens.len(), 6);
        let report = handle.report().expect("report published");
        assert_eq!(report.tokens, tokens);
        let snap = shard.snapshot().unwrap();
        assert_eq!(snap.stats.completed, 1);
        assert_eq!(shard.state(), ShardState::Live);
        assert_eq!(shard.restarts(), 0);
        shard.shutdown();
    }

    #[test]
    fn paused_shard_queues_submissions_until_stepped() {
        let (engine, ss) = tiny();
        let shard = spawn_shard(0, engine, ss, SupervisorSettings::default()).unwrap();
        shard.pause(true);
        // Give the pause command time to land before submitting.
        let handle = shard
            .submit(Request::new(
                vec![5, 10, 20],
                GenerationOptions::max_tokens(3),
            ))
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert!(handle.try_token().is_none(), "no decode while paused");
        let snap = shard.snapshot().unwrap();
        assert_eq!(snap.queued + snap.resident, 1);
        shard.step(4); // admit + 3 decode rounds
        let mut tokens = Vec::new();
        loop {
            match handle.recv_token(Duration::from_millis(200)) {
                TokenWait::Token(step) => tokens.push(step.token),
                TokenWait::Idle => break,
                TokenWait::Closed => break,
            }
        }
        assert_eq!(tokens.len(), 3);
        shard.shutdown();
    }

    /// The supervision tentpole, in miniature: an injected panic kills the
    /// incarnation mid-stream, the supervisor restarts it on the same model
    /// allocation (nothing is rebuilt or retrained), and the checkpointed
    /// session continues bit-identically to an uninterrupted run on a fresh
    /// shard.
    #[test]
    fn injected_panic_restarts_the_shard_and_resumes_from_checkpoint() {
        let (engine, ss) = tiny();
        let dir = std::env::temp_dir().join(format!(
            "serverd-supervise-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Reference: the same request on an unsupervised shard.
        let baseline_shard = spawn_shard(
            0,
            Arc::clone(&engine),
            ss.clone(),
            SupervisorSettings::default(),
        )
        .unwrap();
        let request = || Request::new(vec![3, 9, 27, 81, 11], GenerationOptions::max_tokens(8));
        let baseline = drain_handle(&baseline_shard.submit(request()).unwrap());
        assert_eq!(baseline.len(), 8);
        baseline_shard.shutdown();

        let plan = Arc::new(FaultPlan::parse("panic@shard=0,round=4", 7).unwrap());
        let supervisor = SupervisorSettings {
            backoff_ms: 10,
            checkpoint_dir: Some(dir.clone()),
            fault_plan: Some(plan),
            ..SupervisorSettings::default()
        };
        let ss = ServingSettings {
            checkpoint_every_rounds: 1,
            ..ss
        };
        let shard = spawn_shard(0, Arc::clone(&engine), ss, supervisor).unwrap();
        // The shard thread holds the engine, its live incarnation a sibling
        // sharing the model.
        assert_eq!(Arc::strong_count(&engine), 2);
        assert_eq!(Arc::strong_count(engine.model()), 2);
        let handle = shard.submit(request()).unwrap();
        let id = handle.id();

        // Round 1 admits, rounds 2-3 decode, the panic fires before round
        // 4: the stream dies after two tokens with no report.
        let streamed = drain_handle(&handle);
        assert_eq!(streamed, baseline[..streamed.len()], "prefix matches");
        assert!(handle.report().is_none(), "crash, not completion");

        // The supervisor restarts the shard and re-admits the checkpoint.
        let deadline = Instant::now() + Duration::from_secs(10);
        while shard.state() != ShardState::Live || shard.restarts() == 0 {
            assert!(
                Instant::now() < deadline,
                "shard restarts: {:?}",
                shard.state()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(shard.restarts(), 1);
        // The crashed incarnation's sibling is gone and the restarted one
        // serves from the same model allocation: a rebuilt model would
        // leave the shared one referenced by the test's engine alone.
        assert_eq!(Arc::strong_count(engine.model()), 2);
        let recovered = shard
            .claim_recovered(id)
            .expect("checkpointed session re-admitted");
        assert!(
            recovered.recovered_tokens() <= streamed.len(),
            "checkpoint can only trail the stream"
        );

        // The recovered stream replays nothing the checkpoint already
        // held; skipping the overlap with what we streamed reconstructs
        // the uninterrupted run bit for bit.
        let continued = drain_handle(&recovered);
        let overlap = streamed.len() - recovered.recovered_tokens();
        let mut full = streamed.clone();
        full.extend(&continued[overlap..]);
        assert_eq!(full, baseline, "recovery is bit-identical");
        let report = recovered.report().expect("recovered session completes");
        assert_eq!(report.tokens, baseline);

        shard.shutdown();
        assert_eq!(Arc::strong_count(engine.model()), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The drain-then-restart recipe on shards: a paused shard holding a
    /// greedy request mid-prefill and a seeded top-k request mid-decode
    /// drains into a directory; a fresh shard whose checkpoint directory is
    /// that directory recovers both as it starts, and splicing each stream
    /// reproduces an undrained run bit for bit.
    #[test]
    fn drain_then_restart_resumes_every_request_bit_identically() {
        let (engine, ss) = tiny();
        let ss = ServingSettings {
            prefill_chunk_tokens: 8,
            ..ss
        };
        let dir = std::env::temp_dir().join(format!(
            "serverd-drain-restart-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let long_prompt: Vec<u32> = (0..40u32).map(|i| (i * 7 + 3) % 128).collect();
        let requests = || {
            [
                Request::new(long_prompt.clone(), GenerationOptions::max_tokens(6)),
                Request::new(vec![5, 10, 20, 40], GenerationOptions::max_tokens(10))
                    .with_sampler(million_model::Sampler::top_k(0.8, 8, 77)),
            ]
        };

        let undrained = spawn_shard(
            0,
            Arc::clone(&engine),
            ss.clone(),
            SupervisorSettings::default(),
        )
        .expect("shard builds");
        let baseline: Vec<Vec<u32>> = requests()
            .into_iter()
            .map(|r| drain_handle(&undrained.submit(r).expect("queued")))
            .collect();
        undrained.shutdown();

        let shard = spawn_shard(
            0,
            Arc::clone(&engine),
            ss.clone(),
            SupervisorSettings::default(),
        )
        .expect("shard builds");
        shard.pause(true);
        let handles: Vec<RequestHandle> = requests()
            .into_iter()
            .map(|r| shard.submit(r).expect("queued"))
            .collect();
        // Three rounds: 24 of the long prompt's 40 tokens fed, three tokens
        // of the short request decoded.
        shard.step(3);
        let report = shard.drain(Some(dir.clone())).expect("drain persists");
        assert_eq!(report.persisted.len(), 2);
        let streamed: Vec<Vec<u32>> = handles.iter().map(drain_handle).collect();
        assert!(streamed[0].is_empty(), "drained mid-prefill");
        assert_eq!(streamed[1].len(), 3, "drained mid-decode");
        shard.shutdown();

        let supervisor = SupervisorSettings {
            checkpoint_dir: Some(dir.clone()),
            ..SupervisorSettings::default()
        };
        let restarted = spawn_shard(0, engine, ss, supervisor).expect("shard builds");
        for ((handle, streamed), baseline) in handles.iter().zip(&streamed).zip(&baseline) {
            let recovered = restarted
                .claim_recovered(handle.id())
                .expect("drained request recovered");
            assert_eq!(recovered.recovered_tokens(), streamed.len());
            let full = [streamed.clone(), drain_handle(&recovered)].concat();
            assert_eq!(
                &full,
                baseline,
                "request {:?} resumes bit-identically",
                handle.id()
            );
        }
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash beyond the restart budget leaves the shard permanently
    /// failed: submissions report `Down` and the health surface says so.
    #[test]
    fn restart_budget_exhaustion_marks_the_shard_failed() {
        let (engine, ss) = tiny();
        let plan = Arc::new(FaultPlan::parse("panic@shard=0,round=2", 0).unwrap());
        let supervisor = SupervisorSettings {
            max_restarts: 0,
            backoff_ms: 1,
            fault_plan: Some(plan),
            ..SupervisorSettings::default()
        };
        let shard = spawn_shard(0, engine, ss, supervisor).unwrap();
        let handle = shard
            .submit(Request::new(
                vec![5, 10, 20],
                GenerationOptions::max_tokens(4),
            ))
            .unwrap();
        let _ = drain_handle(&handle); // dies at the injected panic

        let deadline = Instant::now() + Duration::from_secs(10);
        while shard.state() != ShardState::Failed {
            assert!(Instant::now() < deadline, "shard fails permanently");
            std::thread::sleep(Duration::from_millis(5));
        }
        let err = shard
            .submit(Request::new(vec![1, 2], GenerationOptions::max_tokens(1)))
            .unwrap_err();
        assert!(matches!(err, ShardSubmitError::Down), "{err:?}");
        let health = shard.health();
        assert_eq!(health.state, ShardState::Failed);
        assert_eq!(health.restarts, 1);
        shard.shutdown();
    }
}
