//! The serving front-end: a threaded `std::net` accept loop routing HTTP
//! requests onto the shard router.
//!
//! Endpoints:
//!
//! | Route                | Behavior                                            |
//! |----------------------|-----------------------------------------------------|
//! | `POST /v1/generate`  | Submit a generation request; stream tokens as SSE   |
//! |                      | (or one JSON document with `"stream": false`).      |
//! | `GET /metrics`       | Prometheus text exposition by default; the JSON     |
//! |                      | document under `Accept: application/json`.          |
//! | `GET /debug/requests` | Live per-shard request table (state, class,        |
//! |                      | tokens fed/generated, age).                         |
//! | `GET /debug/trace`   | Drain the lifecycle journals as Chrome trace JSON.  |
//! | `GET /config`        | The effective layered [`AppConfig`].                |
//! | `GET /healthz`       | Liveness probe.                                     |
//! | `POST /admin/drain`  | Drain every shard (finish or persist residents).    |
//! | `POST /admin/shutdown` | Drain, then stop the accept loop.                 |
//!
//! One thread per connection: parse, dispatch, write, close (`Connection:
//! close` on every response keeps the protocol state machine trivial).
//! A streaming connection is the *client's* representative inside the
//! server — when its socket dies mid-stream, the handler cancels the
//! request so the shard retires it at the next round boundary and the
//! slot refills from the queue.

// Malformed input must become a 4xx response, never a worker abort.
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

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use million::fault::splitmix64;
use million::{
    FaultPlan, GenerationOptions, QosClass, Request, RequestHandle, RequestInfo, SessionReport,
    StepResult, StopCriteria, SubmitError, TelemetrySnapshot, TokenWait,
};
use million_model::Sampler;
use million_telemetry::render_chrome_trace;

use crate::config::{AppConfig, ConfigError};
use crate::engine::BuildError;
use crate::http::{self, HttpRequest, ParseError};
use crate::prom;
use crate::router::{RouteError, Router};
use crate::shard::{spawn_shard, ShardHealth, ShardSnapshot, SupervisorSettings};

/// How long a streaming handler waits on the token channel per poll.
const TOKEN_POLL: Duration = Duration::from_millis(20);
/// Idle interval between SSE keep-alive pings (also the disconnect
/// detection period while no tokens flow).
const PING_EVERY: Duration = Duration::from_millis(100);
/// Bound on the deterministic jitter added to `retry_after_ms` in 429
/// bodies, so shed clients don't thunder back in lockstep.
const RETRY_JITTER_MS: u64 = 250;

/// Monotonic shed counter: the jitter salt for 429 bodies. Deterministic
/// for a deterministic request order (as in the seeded chaos tests).
static SHED_SEQ: AtomicU64 = AtomicU64::new(0);

/// Why the server could not start.
#[derive(Debug)]
pub enum ServerdError {
    /// Configuration could not be assembled.
    Config(ConfigError),
    /// A shard engine failed to build.
    Build(BuildError),
    /// The listener could not bind.
    Io(std::io::Error),
}

impl std::fmt::Display for ServerdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerdError::Config(e) => write!(f, "{e}"),
            ServerdError::Build(e) => write!(f, "{e}"),
            ServerdError::Io(e) => write!(f, "listener: {e}"),
        }
    }
}

impl std::error::Error for ServerdError {}

impl From<ConfigError> for ServerdError {
    fn from(e: ConfigError) -> Self {
        ServerdError::Config(e)
    }
}

impl From<BuildError> for ServerdError {
    fn from(e: BuildError) -> Self {
        ServerdError::Build(e)
    }
}

impl From<std::io::Error> for ServerdError {
    fn from(e: std::io::Error) -> Self {
        ServerdError::Io(e)
    }
}

/// A bound, ready-to-run server: shards spawned, listener bound.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    router: Arc<Router>,
    config: Arc<AppConfig>,
    stop: Arc<AtomicBool>,
}

/// A cheap clone handed to whoever needs to stop or inspect a running
/// server (signal handlers, tests).
#[derive(Clone)]
pub struct ServerControl {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    router: Arc<Router>,
}

impl ServerControl {
    /// The bound address (with the real port when `listen` used port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard router (pause/step/drain access for tests and admin).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Stops the accept loop: sets the flag and pokes the listener with a
    /// throwaway connection so `accept` observes it.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Spawns `config.server.shards` supervised engine shards (building
    /// each model + codebooks on its own thread) and binds the listener.
    pub fn bind(config: AppConfig) -> Result<Server, ServerdError> {
        let checkpoint_base = (!config.server.checkpoint_dir.is_empty())
            .then(|| PathBuf::from(&config.server.checkpoint_dir));
        let mut shards = Vec::with_capacity(config.server.shards);
        for index in 0..config.server.shards {
            // Each shard gets its own plan instance: injection counters
            // (snapshot writes, submits) stay per-shard deterministic.
            let fault_plan = if config.fault.plan.is_empty() {
                None
            } else {
                let plan =
                    FaultPlan::parse(&config.fault.plan, config.fault.seed).map_err(|msg| {
                        ServerdError::Config(ConfigError::BadValue {
                            key: "fault.plan".into(),
                            msg,
                        })
                    })?;
                Some(Arc::new(plan))
            };
            let supervisor = SupervisorSettings {
                max_restarts: config.server.max_shard_restarts,
                backoff_ms: config.server.restart_backoff_ms,
                checkpoint_dir: checkpoint_base
                    .as_ref()
                    .map(|base| base.join(format!("shard-{index}"))),
                fault_plan,
            };
            shards.push(spawn_shard(
                index,
                config.engine.clone(),
                config.serving.clone(),
                supervisor,
            )?);
        }
        let router = Arc::new(Router::new(
            shards,
            config.server.affinity_tokens,
            config.server.spill,
        ));
        let listener = TcpListener::bind(&config.server.listen)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            router,
            config: Arc::new(config),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control handle usable from other threads while `run` blocks.
    pub fn control(&self) -> ServerControl {
        ServerControl {
            addr: self.addr,
            stop: Arc::clone(&self.stop),
            router: Arc::clone(&self.router),
        }
    }

    /// Runs the accept loop until [`ServerControl::shutdown`], then joins
    /// every shard thread.
    pub fn run(self) -> std::io::Result<()> {
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let router = Arc::clone(&self.router);
            let config = Arc::clone(&self.config);
            let stop = Arc::clone(&self.stop);
            std::thread::spawn(move || {
                handle_connection(stream, &router, &config, &stop);
            });
        }
        self.router.shutdown();
        Ok(())
    }
}

fn handle_connection(
    mut stream: TcpStream,
    router: &Router,
    config: &AppConfig,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let request = match http::read_request(&mut stream, config.server.max_body_bytes) {
        Ok(request) => request,
        Err(ParseError::BodyTooLarge { declared, limit }) => {
            let body = error_json(
                "payload_too_large",
                &format!("body of {declared} bytes exceeds {limit}"),
            );
            let _ = http::respond_json(&mut stream, 413, "Payload Too Large", &body, &[]);
            return;
        }
        Err(e) => {
            let _ = http::respond_json(
                &mut stream,
                400,
                "Bad Request",
                &error_json("bad_request", &e.to_string()),
                &[],
            );
            return;
        }
    };

    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/generate") => generate(&mut stream, &request, router, config),
        ("GET", "/metrics") => metrics(&mut stream, &request, router),
        ("GET", "/debug/requests") => debug_requests(&mut stream, router),
        ("GET", "/debug/trace") => debug_trace(&mut stream, router),
        ("GET", "/config") => {
            let body = serde_json::to_string_pretty(config)
                .unwrap_or_else(|e| error_json("internal", &e.to_string()));
            let _ = http::respond_json(&mut stream, 200, "OK", &body, &[]);
        }
        ("GET", "/healthz") => {
            let _ = http::respond_json(&mut stream, 200, "OK", "{\"ok\": true}", &[]);
        }
        ("POST", "/admin/drain") => drain(&mut stream, &request, router),
        ("POST", "/admin/shutdown") => {
            for outcome in router.drain_all(None) {
                let _ = outcome;
            }
            let _ = http::respond_json(&mut stream, 200, "OK", "{\"draining\": true}", &[]);
            stop.store(true, Ordering::SeqCst);
            // Poke the accept loop so it observes the flag.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
        }
        _ => {
            let _ = http::respond_json(
                &mut stream,
                404,
                "Not Found",
                &error_json(
                    "not_found",
                    &format!("no route for {} {}", request.method, request.path),
                ),
                &[],
            );
        }
    }
}

/// The typed error object every non-2xx JSON body (and the SSE `error`
/// frame) carries. Schema documented in docs/ROBUSTNESS.md.
#[derive(Serialize)]
struct ErrorInfo {
    /// Stable machine-readable code: `bad_request`, `not_found`,
    /// `payload_too_large`, `queue_full`, `draining`, `shard_failed`,
    /// `internal`.
    code: String,
    /// Human-readable detail.
    message: String,
    /// For `queue_full`: suggested client backoff, with deterministic
    /// jitter already applied.
    retry_after_ms: Option<u64>,
}

#[derive(Serialize)]
struct ErrorBody {
    error: ErrorInfo,
}

fn error_json(code: &str, message: &str) -> String {
    serde_json::to_string(&ErrorBody {
        error: ErrorInfo {
            code: code.to_string(),
            message: message.to_string(),
            retry_after_ms: None,
        },
    })
    .unwrap_or_else(|_| "{}".to_string())
}

/// The 429 body: `queue_full` plus a jittered `retry_after_ms` so shed
/// clients spread their retries. The jitter draw is `splitmix64` over the
/// fault seed and a monotonic shed counter — deterministic for a
/// deterministic request order.
fn shed_json(retry_after_s: u64, jitter_seed: u64) -> String {
    let salt = SHED_SEQ.fetch_add(1, Ordering::Relaxed);
    let jitter = splitmix64(jitter_seed ^ salt) % RETRY_JITTER_MS;
    serde_json::to_string(&ErrorBody {
        error: ErrorInfo {
            code: "queue_full".to_string(),
            message: "all shards are at capacity; retry later".to_string(),
            retry_after_ms: Some(retry_after_s * 1000 + jitter),
        },
    })
    .unwrap_or_else(|_| "{}".to_string())
}

/// The decoded body of `POST /v1/generate`.
struct GenerateBody {
    request: Request,
    stream: bool,
}

fn parse_generate(body: &[u8]) -> Result<GenerateBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;

    let prompt: Vec<u32> = value
        .get("prompt")
        .and_then(|p| p.as_array())
        .ok_or("missing `prompt` (array of token ids)")?
        .iter()
        .map(|t| {
            t.as_f64()
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u32)
                .ok_or("prompt tokens must be non-negative integers".to_string())
        })
        .collect::<Result<_, _>>()?;

    let max_new_tokens = value
        .get("max_new_tokens")
        .and_then(|v| v.as_f64())
        .map(|v| v as usize)
        .unwrap_or(16);
    let mut options = GenerationOptions::max_tokens(max_new_tokens);
    let mut stop = StopCriteria::none();
    if let Some(eos) = value.get("eos").and_then(|v| v.as_f64()) {
        stop = StopCriteria::eos(eos as u32);
    }
    if let Some(ids) = value.get("stop").and_then(|v| v.as_array()) {
        let ids: Vec<u32> = ids
            .iter()
            .filter_map(|v| v.as_f64())
            .map(|v| v as u32)
            .collect();
        stop = stop.with_stop_ids(ids);
    }
    options = options.with_stop(stop);

    let class = match value.get("class").and_then(|v| v.as_str()) {
        None | Some("standard") => QosClass::Standard,
        Some("interactive") => QosClass::Interactive,
        Some("background") => QosClass::Background,
        Some(other) => return Err(format!("unknown class `{other}`")),
    };

    let sampler = match (
        value.get("temperature").and_then(|v| v.as_f64()),
        value.get("top_k").and_then(|v| v.as_f64()),
    ) {
        (None, None) => Sampler::greedy(),
        (temperature, top_k) => {
            let seed = value.get("seed").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
            Sampler::top_k(
                temperature.unwrap_or(1.0) as f32,
                top_k.unwrap_or(40.0) as usize,
                seed,
            )
        }
    };

    let mut request = Request::new(prompt, options)
        .with_sampler(sampler)
        .with_class(class);
    if let Some(deadline) = value.get("deadline_ms").and_then(|v| v.as_f64()) {
        request = request.with_deadline_ms(deadline as u64);
    }

    let stream = value
        .get("stream")
        .and_then(|v| match v {
            serde_json::Value::Bool(b) => Some(*b),
            _ => None,
        })
        .unwrap_or(true);

    Ok(GenerateBody { request, stream })
}

fn generate(
    stream: &mut TcpStream,
    http_request: &HttpRequest,
    router: &Router,
    config: &AppConfig,
) {
    let body = match parse_generate(&http_request.body) {
        Ok(body) => body,
        Err(msg) => {
            let _ = http::respond_json(
                stream,
                400,
                "Bad Request",
                &error_json("bad_request", &msg),
                &[],
            );
            return;
        }
    };

    let placed = router.submit_with_retry(
        body.request,
        config.server.submit_retries,
        config.server.submit_retry_backoff_ms,
        config.fault.seed,
    );
    let (shard, handle) = match placed {
        Ok(placed) => placed,
        Err(RouteError::Overloaded) => {
            let retry = config.server.retry_after_s.to_string();
            let _ = http::respond_json(
                stream,
                429,
                "Too Many Requests",
                &shed_json(config.server.retry_after_s, config.fault.seed),
                &[("Retry-After", retry.as_str())],
            );
            return;
        }
        Err(RouteError::Rejected(e)) => {
            let (status, reason, code) = match e {
                SubmitError::Draining => (503, "Service Unavailable", "draining"),
                _ => (400, "Bad Request", "bad_request"),
            };
            let _ = http::respond_json(
                stream,
                status,
                reason,
                &error_json(code, &e.to_string()),
                &[],
            );
            return;
        }
    };

    if body.stream {
        stream_sse(stream, shard, &handle);
    } else {
        collect_json(stream, shard, &handle);
    }
}

/// One streamed token frame: the engine's [`StepResult`] plus routing
/// context.
#[derive(Serialize)]
struct TokenFrame {
    request: u64,
    shard: usize,
    step: StepResult,
}

/// The terminal frame of a stream / the body of a non-streamed response.
#[derive(Serialize)]
struct DoneFrame {
    request: u64,
    shard: usize,
    tokens: Vec<u32>,
    report: Option<SessionReport>,
}

/// The terminal frame of a stream whose shard crashed: the token channel
/// closed without a final report. Sent as SSE event name `error`.
#[derive(Serialize)]
struct StreamError {
    request: u64,
    shard: usize,
    error: ErrorInfo,
}

fn stream_sse(stream: &mut TcpStream, shard: usize, handle: &RequestHandle) {
    if http::start_sse(stream).is_err() {
        handle.cancel();
        return;
    }
    let mut tokens: Vec<u32> = Vec::new();
    let mut last_write = Instant::now();
    loop {
        match handle.recv_token(TOKEN_POLL) {
            TokenWait::Token(step) => {
                tokens.push(step.token);
                let frame = TokenFrame {
                    request: handle.id().as_u64(),
                    shard,
                    step,
                };
                let data = serde_json::to_string(&frame).unwrap_or_default();
                if http::sse_event(stream, "token", &data).is_err() {
                    // The client is gone: release the slot at the next
                    // round boundary.
                    handle.cancel();
                    return;
                }
                last_write = Instant::now();
            }
            TokenWait::Idle => {
                if last_write.elapsed() >= PING_EVERY {
                    if http::sse_ping(stream).is_err() {
                        handle.cancel();
                        return;
                    }
                    last_write = Instant::now();
                }
            }
            TokenWait::Closed => {
                let report = handle.report();
                if report.is_none() {
                    // The shard died under this stream: the channel closed
                    // without a final report. End the stream with a typed
                    // `error` frame instead of a bogus `done`.
                    let frame = StreamError {
                        request: handle.id().as_u64(),
                        shard,
                        error: ErrorInfo {
                            code: "shard_failed".to_string(),
                            message: format!("shard {shard} crashed mid-stream"),
                            retry_after_ms: None,
                        },
                    };
                    let data = serde_json::to_string(&frame).unwrap_or_default();
                    let _ = http::sse_event(stream, "error", &data);
                    return;
                }
                let frame = DoneFrame {
                    request: handle.id().as_u64(),
                    shard,
                    tokens,
                    report,
                };
                let data = serde_json::to_string(&frame).unwrap_or_default();
                let _ = http::sse_event(stream, "done", &data);
                return;
            }
        }
    }
}

fn collect_json(stream: &mut TcpStream, shard: usize, handle: &RequestHandle) {
    let mut tokens: Vec<u32> = Vec::new();
    loop {
        match handle.recv_token(TOKEN_POLL) {
            TokenWait::Token(step) => tokens.push(step.token),
            TokenWait::Idle => {}
            TokenWait::Closed => break,
        }
    }
    let report = handle.report();
    if report.is_none() {
        // Channel closed without a final report: the shard crashed.
        let _ = http::respond_json(
            stream,
            502,
            "Bad Gateway",
            &error_json(
                "shard_failed",
                &format!("shard {shard} crashed before completing the request"),
            ),
            &[],
        );
        return;
    }
    let frame = DoneFrame {
        request: handle.id().as_u64(),
        shard,
        tokens,
        report,
    };
    let body = serde_json::to_string(&frame).unwrap_or_default();
    let _ = http::respond_json(stream, 200, "OK", &body, &[]);
}

/// Aggregates over every shard for the `/metrics` document.
#[derive(Serialize)]
struct Totals {
    shards: usize,
    submitted: u64,
    completed: u64,
    cancelled: u64,
    timed_out: u64,
    rejected: u64,
    queued: usize,
    resident: usize,
    prefilling: usize,
    prefill_tokens_remaining: usize,
    prefill_chunks: u64,
    kv_bytes: usize,
    fleet_kv_bytes: usize,
    max_dedup_ratio: f64,
}

#[derive(Serialize)]
struct MetricsDoc {
    totals: Totals,
    telemetry: TelemetrySnapshot,
    /// Supervision status per shard — present even for shards whose
    /// thread is down (unlike `shards`, which skips them).
    health: Vec<ShardHealth>,
    shards: Vec<ShardSnapshot>,
}

/// `GET /metrics` is content-negotiated: Prometheus text exposition by
/// default (what a scraper sends `Accept: text/plain` or nothing for),
/// the structured JSON document when the client asks for
/// `application/json`.
fn metrics(stream: &mut TcpStream, request: &HttpRequest, router: &Router) {
    let shards = router.snapshots();
    let health = router.health();
    let wants_json = request
        .header("accept")
        .is_some_and(|accept| accept.contains("application/json"));
    if !wants_json {
        let body = prom::render(&shards, &health);
        let _ = http::respond(
            stream,
            200,
            "OK",
            prom::PROMETHEUS_CONTENT_TYPE,
            body.as_bytes(),
            &[],
        );
        return;
    }
    let totals = Totals {
        shards: shards.len(),
        submitted: shards.iter().map(|s| s.stats.submitted).sum(),
        completed: shards.iter().map(|s| s.stats.completed).sum(),
        cancelled: shards.iter().map(|s| s.stats.cancelled).sum(),
        timed_out: shards.iter().map(|s| s.stats.timed_out).sum(),
        rejected: shards.iter().map(|s| s.stats.rejected).sum(),
        queued: shards.iter().map(|s| s.queued).sum(),
        resident: shards.iter().map(|s| s.resident).sum(),
        prefilling: shards.iter().map(|s| s.prefilling).sum(),
        prefill_tokens_remaining: shards.iter().map(|s| s.prefill_tokens_remaining).sum(),
        prefill_chunks: shards.iter().map(|s| s.stats.prefill_chunks).sum(),
        kv_bytes: shards.iter().map(|s| s.kv_bytes).sum(),
        fleet_kv_bytes: shards.iter().map(|s| s.fleet_kv_bytes).sum(),
        max_dedup_ratio: shards.iter().map(|s| s.dedup_ratio).fold(0.0, f64::max),
    };
    let doc = MetricsDoc {
        totals,
        telemetry: prom::fleet_telemetry(&shards),
        health,
        shards,
    };
    let body = serde_json::to_string_pretty(&doc)
        .unwrap_or_else(|e| error_json("internal", &e.to_string()));
    let _ = http::respond_json(stream, 200, "OK", &body, &[]);
}

/// One shard's rows in the `/debug/requests` document.
#[derive(Serialize)]
struct ShardRequests {
    shard: usize,
    requests: Vec<RequestInfo>,
}

fn debug_requests(stream: &mut TcpStream, router: &Router) {
    let shards: Vec<ShardRequests> = router
        .request_tables()
        .into_iter()
        .map(|(shard, requests)| ShardRequests { shard, requests })
        .collect();
    let body = serde_json::to_string_pretty(&shards)
        .unwrap_or_else(|e| error_json("internal", &e.to_string()));
    let _ = http::respond_json(stream, 200, "OK", &body, &[]);
}

/// Drains every shard's lifecycle journal and renders it as a Chrome
/// trace-event document (each shard a `pid`, each request a `tid`).
/// Draining is destructive: events appear in exactly one response.
fn debug_trace(stream: &mut TcpStream, router: &Router) {
    let body = render_chrome_trace(&router.traces());
    let _ = http::respond_json(stream, 200, "OK", &body, &[]);
}

/// One shard's drain outcome in the `/admin/drain` response.
#[derive(Serialize)]
struct DrainOutcome {
    shard: usize,
    ok: bool,
    shed_queued: usize,
    finished: usize,
    persisted: usize,
    rounds: u64,
    error: Option<String>,
}

fn drain(stream: &mut TcpStream, request: &HttpRequest, router: &Router) {
    let persist_dir: Option<PathBuf> = if request.body.is_empty() {
        None
    } else {
        match std::str::from_utf8(&request.body)
            .ok()
            .and_then(|t| serde_json::from_str(t).ok())
        {
            Some(value) => value
                .get("persist_dir")
                .and_then(|v| v.as_str().map(PathBuf::from)),
            None => {
                let _ = http::respond_json(
                    stream,
                    400,
                    "Bad Request",
                    &error_json("bad_request", "bad JSON"),
                    &[],
                );
                return;
            }
        }
    };

    let outcomes: Vec<DrainOutcome> = router
        .drain_all(persist_dir.as_deref())
        .into_iter()
        .enumerate()
        .map(|(shard, result)| match result {
            Ok(report) => DrainOutcome {
                shard,
                ok: true,
                shed_queued: report.shed_queued,
                finished: report.finished,
                persisted: report.persisted.len(),
                rounds: report.rounds,
                error: None,
            },
            Err(e) => DrainOutcome {
                shard,
                ok: false,
                shed_queued: 0,
                finished: 0,
                persisted: 0,
                rounds: 0,
                error: Some(e),
            },
        })
        .collect();
    let body = serde_json::to_string_pretty(&outcomes).unwrap_or_default();
    let _ = http::respond_json(stream, 200, "OK", &body, &[]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_body_parses_all_fields() {
        let body = parse_generate(
            br#"{"prompt": [1, 2, 3], "max_new_tokens": 4, "class": "interactive",
                 "deadline_ms": 250, "eos": 0, "stop": [5], "stream": false,
                 "temperature": 0.5, "top_k": 8, "seed": 9}"#,
        )
        .unwrap();
        assert_eq!(body.request.prompt, vec![1, 2, 3]);
        assert_eq!(body.request.options.max_new_tokens, 4);
        assert_eq!(body.request.class, QosClass::Interactive);
        assert_eq!(body.request.deadline_ms, Some(250));
        assert!(body.request.options.stop.matches(0));
        assert!(body.request.options.stop.matches(5));
        assert!(!body.stream);
    }

    #[test]
    fn generate_body_defaults_and_rejections() {
        let body = parse_generate(br#"{"prompt": [7]}"#).unwrap();
        assert_eq!(body.request.options.max_new_tokens, 16);
        assert_eq!(body.request.class, QosClass::Standard);
        assert!(body.stream, "streaming is the default");
        assert!(parse_generate(b"{}").is_err(), "prompt is required");
        assert!(parse_generate(b"not json").is_err());
        assert!(
            parse_generate(br#"{"prompt": [-1]}"#).is_err(),
            "negative tokens rejected"
        );
        assert!(parse_generate(br#"{"prompt": [1], "class": "vip"}"#).is_err());
    }
}
