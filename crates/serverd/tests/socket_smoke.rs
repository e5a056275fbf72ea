//! End-to-end socket tests: a real `serverd` on loopback, driven by raw
//! `std::net` HTTP clients.
//!
//! Covers the acceptance path of the networked front-end: concurrent
//! SSE generations bit-identical to direct engine runs, prefix-affinity
//! placement with visible store deduplication, queue-full spill then
//! 429 load shedding, mid-stream client disconnect freeing the slot,
//! deadline timeouts over HTTP, prompts the model cannot serve (ids
//! outside the vocabulary, budgets past the context window), and
//! drain/shutdown.
//!
//! Determinism leans on the shard pause/step controls: a paused shard
//! queues submissions but decodes only when stepped, so queue depths and
//! residency are exact, never racing the decode loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use million::GenerationOptions;
use million_serverd::{build_engine, AppConfig, EngineSettings, Server, ServerControl};

fn tiny_engine_settings() -> EngineSettings {
    EngineSettings {
        model: "tiny-test".into(),
        calibration_tokens: 96,
        async_quant: false,
        ..EngineSettings::default()
    }
}

/// Binds a server on an ephemeral port and runs it on a background
/// thread; shutdown is via the returned control.
fn start_server(mut config: AppConfig) -> (ServerControl, std::thread::JoinHandle<()>) {
    config.server.listen = "127.0.0.1:0".into();
    let server = Server::bind(config).expect("server binds");
    let control = server.control();
    let join = std::thread::spawn(move || server.run().expect("accept loop"));
    (control, join)
}

/// Greedy tokens from a fresh, identically-configured engine run
/// directly — the reference the HTTP path must match bit for bit.
fn expected_tokens(settings: &EngineSettings, prompt: &[u32], max_tokens: usize) -> Vec<u32> {
    let engine = build_engine(settings).expect("reference engine");
    let mut session = engine.session();
    session.prefill(prompt);
    session
        .generate(&GenerationOptions::max_tokens(max_tokens))
        .tokens
}

/// A parsed HTTP response (read to EOF — every serverd response closes).
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let needle = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| n.to_ascii_lowercase() == needle)
            .map(|(_, v)| v.as_str())
    }
}

fn roundtrip(addr: SocketAddr, raw: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Response {
        status,
        headers,
        body: body.to_string(),
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> Response {
    // `/metrics` content-negotiates: ask for the JSON document (the
    // bare default is Prometheus text exposition).
    roundtrip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\r\n"),
    )
}

fn prompt_json(prompt: &[u32]) -> String {
    let items: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Outcome of one SSE generation stream.
#[derive(Debug)]
struct SseOutcome {
    tokens: Vec<u32>,
    shard: usize,
    done: serde_json::Value,
}

/// Runs `POST /v1/generate` with streaming on and parses the SSE
/// transcript (token frames + terminal done frame).
fn sse_generate(addr: SocketAddr, body: &str) -> SseOutcome {
    let response = post(addr, "/v1/generate", body);
    assert_eq!(response.status, 200, "SSE stream starts: {}", response.body);
    parse_sse(&response.body)
}

fn parse_sse(transcript: &str) -> SseOutcome {
    let mut tokens = Vec::new();
    let mut shard = usize::MAX;
    let mut done = None;
    let mut event = "";
    for line in transcript.lines() {
        if let Some(name) = line.strip_prefix("event: ") {
            event = match name {
                "token" => "token",
                "done" => "done",
                _ => "",
            };
        } else if let Some(data) = line.strip_prefix("data: ") {
            let value = serde_json::from_str(data).expect("frame data is JSON");
            match event {
                "token" => {
                    let token = value
                        .get("step")
                        .and_then(|s| s.get("token"))
                        .and_then(|t| t.as_f64())
                        .expect("token frame has step.token");
                    tokens.push(token as u32);
                    shard = value.get("shard").and_then(|s| s.as_f64()).expect("shard") as usize;
                }
                "done" => {
                    shard = value.get("shard").and_then(|s| s.as_f64()).expect("shard") as usize;
                    done = Some(value);
                }
                _ => {}
            }
        }
    }
    SseOutcome {
        tokens,
        shard,
        done: done.expect("stream ends with a done frame"),
    }
}

/// Polls `/metrics` until `check` passes or the deadline expires;
/// returns the last document either way.
fn wait_for_metrics(
    addr: SocketAddr,
    timeout: Duration,
    check: impl Fn(&serde_json::Value) -> bool,
) -> (bool, serde_json::Value) {
    let start = Instant::now();
    loop {
        let response = get(addr, "/metrics");
        assert_eq!(response.status, 200);
        let doc = serde_json::from_str(&response.body).expect("metrics JSON");
        if check(&doc) {
            return (true, doc);
        }
        if start.elapsed() > timeout {
            return (false, doc);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn total(doc: &serde_json::Value, key: &str) -> f64 {
    doc.get("totals")
        .and_then(|t| t.get(key))
        .and_then(|v| v.as_f64())
        .unwrap_or(-1.0)
}

#[test]
fn concurrent_sse_clients_match_direct_engine_runs() {
    let config = AppConfig {
        engine: tiny_engine_settings(),
        ..AppConfig::default()
    };
    let engine_settings = config.engine.clone();
    let (control, join) = start_server(config);
    let addr = control.addr();

    let prompts: Vec<Vec<u32>> = vec![
        vec![3, 9, 27, 81, 11, 33],
        vec![5, 10, 20, 40, 80],
        vec![7, 14, 28, 56, 112, 97, 61],
        vec![2, 4, 8, 16, 32, 64],
        vec![3, 9, 27, 81, 99, 41],
        vec![1, 2, 3, 4, 5, 6, 7],
    ];
    let max_tokens = 8;

    let clients: Vec<_> = prompts
        .iter()
        .map(|prompt| {
            let body = format!(
                "{{\"prompt\": {}, \"max_new_tokens\": {max_tokens}}}",
                prompt_json(prompt)
            );
            std::thread::spawn(move || sse_generate(addr, &body))
        })
        .collect();
    let outcomes: Vec<SseOutcome> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    for (prompt, outcome) in prompts.iter().zip(&outcomes) {
        let expected = expected_tokens(&engine_settings, prompt, max_tokens);
        assert_eq!(
            outcome.tokens, expected,
            "HTTP/SSE stream for {prompt:?} must be bit-identical to a direct run"
        );
        let reported: Vec<u32> = outcome
            .done
            .get("tokens")
            .and_then(|t| t.as_array())
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap() as u32)
            .collect();
        assert_eq!(reported, expected, "done frame repeats the full stream");
        assert!(outcome.shard < 2);
    }

    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "completed") == prompts.len() as f64
    });
    assert!(ok, "all {} requests complete: {doc:?}", prompts.len());
    assert_eq!(total(&doc, "submitted"), prompts.len() as f64);

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    let config_doc = get(addr, "/config");
    assert_eq!(config_doc.status, 200);
    let parsed = serde_json::from_str(&config_doc.body).expect("config JSON");
    assert_eq!(
        parsed
            .get("engine")
            .and_then(|e| e.get("model"))
            .and_then(|m| m.as_str()),
        Some("tiny-test")
    );

    control.shutdown();
    join.join().unwrap();
}

#[test]
fn shared_prefix_clients_share_a_shard_and_deduplicate() {
    let mut config = AppConfig {
        engine: tiny_engine_settings(),
        ..AppConfig::default()
    };
    // Align the affinity window with a small block size so a shared
    // 16-token system prompt spans two whole store blocks.
    config.engine.block_tokens = 8;
    config.server.affinity_tokens = 8;
    let (control, join) = start_server(config);
    let addr = control.addr();

    control.router().shard(0).pause(true);
    control.router().shard(1).pause(true);

    let system: Vec<u32> = (0..16).map(|i| (i * 5 + 3) % 128).collect();
    let mut prompt_a = system.clone();
    prompt_a.extend([99, 98]);
    let mut prompt_b = system.clone();
    prompt_b.extend([7, 8, 9]);

    let spawn = |prompt: Vec<u32>| {
        let body = format!(
            "{{\"prompt\": {}, \"max_new_tokens\": 6}}",
            prompt_json(&prompt)
        );
        std::thread::spawn(move || sse_generate(addr, &body))
    };
    let client_a = spawn(prompt_a);
    // Both submissions queue on the (paused) home shard.
    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "submitted") == 1.0
    });
    assert!(ok, "first request queued: {doc:?}");
    let client_b = spawn(prompt_b);
    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "submitted") == 2.0
    });
    assert!(ok, "second request queued: {doc:?}");

    // Exactly one round: admit both (A prefills, B attaches A's sealed
    // prefix blocks) and decode one token each.
    let shards = doc.get("shards").and_then(|s| s.as_array()).unwrap();
    let home = shards
        .iter()
        .find(|s| s.get("queued").and_then(|q| q.as_f64()) == Some(2.0))
        .and_then(|s| s.get("shard"))
        .and_then(|s| s.as_f64())
        .expect("both requests queue on one home shard") as usize;
    control.router().shard(home).step(1);

    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "resident") == 2.0
    });
    assert!(ok, "both sessions resident after the step: {doc:?}");
    let binding = doc.get("shards").and_then(|s| s.as_array()).unwrap();
    let snapshot = binding
        .iter()
        .find(|s| s.get("shard").and_then(|v| v.as_f64()) == Some(home as f64))
        .expect("home shard snapshot");
    let dedup = snapshot
        .get("dedup_ratio")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(
        dedup > 1.0,
        "shared system prompt deduplicates in the home shard's store (ratio {dedup})"
    );
    assert!(total(&doc, "max_dedup_ratio") > 1.0);

    // Finish both streams and confirm they really shared one shard.
    control.router().shard(0).pause(false);
    control.router().shard(1).pause(false);
    let outcome_a = client_a.join().unwrap();
    let outcome_b = client_b.join().unwrap();
    assert_eq!(outcome_a.shard, home);
    assert_eq!(outcome_b.shard, home, "prefix affinity co-locates the pair");
    assert_eq!(outcome_a.tokens.len(), 6);
    assert_eq!(outcome_b.tokens.len(), 6);
    let reused = outcome_b
        .done
        .get("report")
        .and_then(|r| r.get("prefix_tokens_reused"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    assert!(
        reused >= 16.0,
        "the second session reuses the shared prefix blocks (got {reused})"
    );

    control.shutdown();
    join.join().unwrap();
}

#[test]
fn queue_overflow_spills_then_sheds_with_429() {
    let mut config = AppConfig {
        engine: tiny_engine_settings(),
        ..AppConfig::default()
    };
    config.serving.max_resident = 1;
    config.serving.queue_capacity = 1;
    let (control, join) = start_server(config);
    let addr = control.addr();

    control.router().shard(0).pause(true);
    control.router().shard(1).pause(true);

    let prompt = vec![9u32, 8, 7, 6];
    let body = format!(
        "{{\"prompt\": {}, \"max_new_tokens\": 3}}",
        prompt_json(&prompt)
    );

    let b1 = body.clone();
    let client_1 = std::thread::spawn(move || sse_generate(addr, &b1));
    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "queued") == 1.0
    });
    assert!(ok, "first fills the home queue: {doc:?}");

    let b2 = body.clone();
    let client_2 = std::thread::spawn(move || sse_generate(addr, &b2));
    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "queued") == 2.0
    });
    assert!(ok, "second spills to the other shard's queue: {doc:?}");
    let queued_per_shard: Vec<f64> = doc
        .get("shards")
        .and_then(|s| s.as_array())
        .unwrap()
        .iter()
        .map(|s| s.get("queued").and_then(|q| q.as_f64()).unwrap())
        .collect();
    assert_eq!(queued_per_shard, vec![1.0, 1.0], "one request per shard");

    // Third identical request: home full, spill target full -> shed.
    let shed = post(addr, "/v1/generate", &body);
    assert_eq!(shed.status, 429, "load shed: {}", shed.body);
    assert_eq!(shed.header("Retry-After"), Some("1"));

    control.router().shard(0).pause(false);
    control.router().shard(1).pause(false);
    let outcome_1 = client_1.join().unwrap();
    let outcome_2 = client_2.join().unwrap();
    assert_ne!(
        outcome_1.shard, outcome_2.shard,
        "overflow ran on the spill shard"
    );
    assert_eq!(outcome_1.tokens.len(), 3);
    assert_eq!(
        outcome_1.tokens, outcome_2.tokens,
        "identical greedy prompts decode identically on either shard"
    );

    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "completed") == 2.0
    });
    assert!(ok, "spilled pair completes: {doc:?}");
    assert!(
        total(&doc, "rejected") >= 2.0,
        "both full shards counted the shed"
    );

    control.shutdown();
    join.join().unwrap();
}

#[test]
fn mid_stream_disconnect_cancels_and_frees_the_slot() {
    let mut config = AppConfig {
        engine: tiny_engine_settings(),
        ..AppConfig::default()
    };
    config.server.shards = 1;
    config.serving.max_resident = 1;
    let (control, join) = start_server(config);
    let addr = control.addr();
    let shard = control.router().shard(0);

    shard.pause(true);
    let prompt = vec![3u32, 9, 27, 81];
    let body = format!(
        "{{\"prompt\": {}, \"max_new_tokens\": 500}}",
        prompt_json(&prompt)
    );

    // Hand-rolled client so the socket can be dropped mid-stream.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();

    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "submitted") == 1.0
    });
    assert!(ok, "request submitted: {doc:?}");
    shard.step(2); // admit + decode: the stream now carries a token

    // Read until the first token frame arrives, then vanish.
    let mut transcript = String::new();
    let start = Instant::now();
    let mut chunk = [0u8; 1024];
    while !transcript.contains("event: token") {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "token frame arrives"
        );
        match stream.read(&mut chunk) {
            Ok(0) => panic!("server closed early: {transcript}"),
            Ok(n) => transcript.push_str(&String::from_utf8_lossy(&chunk[..n])),
            Err(_) => {} // read timeout; keep polling
        }
    }
    drop(stream);

    // The handler detects the dead socket on its next keep-alive write
    // and cancels; the next round boundary retires the session.
    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        shard.step(1);
        total(doc, "cancelled") == 1.0 && total(doc, "resident") == 0.0
    });
    assert!(ok, "disconnect frees the slot at a round boundary: {doc:?}");
    assert_eq!(total(&doc, "completed"), 0.0, "never ran to completion");

    shard.pause(false);
    control.shutdown();
    join.join().unwrap();
}

/// A client that vanishes while its long prompt is still being chunked in
/// never gets a token; the cancellation lands at a prefill chunk boundary,
/// the rest of the prompt is never fed, and the slot frees.
#[test]
fn disconnect_mid_prefill_cancels_at_a_chunk_boundary() {
    let mut config = AppConfig {
        engine: tiny_engine_settings(),
        ..AppConfig::default()
    };
    config.server.shards = 1;
    config.serving.max_resident = 1;
    config.serving.prefill_chunk_tokens = 4;
    let (control, join) = start_server(config);
    let addr = control.addr();
    let shard = control.router().shard(0);

    shard.pause(true);
    // 50 chunks of prompt: the dead socket is detected (a few keep-alive
    // writes) long before the prompt could finish feeding.
    let prompt: Vec<u32> = (0..200u32).map(|i| (i * 7 + 3) % 128).collect();
    let body = format!(
        "{{\"prompt\": {}, \"max_new_tokens\": 5}}",
        prompt_json(&prompt)
    );

    // Hand-rolled client so the socket can be dropped mid-prefill.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();

    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "submitted") == 1.0
    });
    assert!(ok, "request submitted: {doc:?}");

    // Admission chunk + two scheduled chunks: 12 of 200 tokens fed, the
    // request is resident but still prefilling, and no token has streamed.
    shard.step(3);
    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "prefill_chunks") == 3.0
    });
    assert!(ok, "three chunks executed: {doc:?}");
    assert_eq!(total(&doc, "prefilling"), 1.0);
    assert_eq!(total(&doc, "prefill_tokens_remaining"), 188.0);
    assert_eq!(total(&doc, "resident"), 1.0);

    // The client vanishes mid-prefill; the handler notices the dead socket
    // on a keep-alive write and cancels. A few more chunks may run before
    // the flag lands, but the boundary it lands on frees the slot with the
    // bulk of the prompt never fed and not one token decoded.
    drop(stream);
    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(10), |doc| {
        shard.step(1);
        total(doc, "cancelled") == 1.0 && total(doc, "resident") == 0.0
    });
    assert!(ok, "disconnect frees the prefilling slot: {doc:?}");
    assert_eq!(total(&doc, "completed"), 0.0, "never reached decoding");
    assert_eq!(total(&doc, "prefilling"), 0.0);
    assert_eq!(total(&doc, "prefill_tokens_remaining"), 0.0);
    assert!(
        total(&doc, "prefill_chunks") < 50.0,
        "the remaining prompt was never fed: {doc:?}"
    );

    shard.pause(false);
    control.shutdown();
    join.join().unwrap();
}

#[test]
fn deadline_over_http_reports_timed_out() {
    let mut config = AppConfig {
        engine: tiny_engine_settings(),
        ..AppConfig::default()
    };
    config.server.shards = 1;
    let (control, join) = start_server(config);
    let addr = control.addr();
    let shard = control.router().shard(0);

    shard.pause(true);
    let body = format!(
        "{{\"prompt\": {}, \"max_new_tokens\": 4, \"deadline_ms\": 1}}",
        prompt_json(&[5, 10, 20])
    );
    let client = std::thread::spawn(move || sse_generate(addr, &body));
    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "submitted") == 1.0
    });
    assert!(ok, "request queued: {doc:?}");
    std::thread::sleep(Duration::from_millis(50)); // let the deadline lapse
    shard.step(1); // the round boundary reaps the expired request

    let outcome = client.join().unwrap();
    assert!(outcome.tokens.is_empty(), "expired before admission");
    let timed_out = outcome
        .done
        .get("report")
        .and_then(|r| r.get("timed_out"))
        .and_then(|v| match v {
            serde_json::Value::Bool(b) => Some(*b),
            _ => None,
        });
    assert_eq!(timed_out, Some(true), "done frame: {:?}", outcome.done);

    let (ok, doc) = wait_for_metrics(addr, Duration::from_secs(5), |doc| {
        total(doc, "timed_out") == 1.0
    });
    assert!(ok, "timeout counted distinctly: {doc:?}");
    assert_eq!(total(&doc, "cancelled"), 0.0);

    shard.pause(false);
    control.shutdown();
    join.join().unwrap();
}

#[test]
fn unservable_prompts_are_answered_not_crashed_on() {
    let mut config = AppConfig {
        engine: tiny_engine_settings(),
        ..AppConfig::default()
    };
    config.server.shards = 1;
    let settings = config.engine.clone();
    let (control, join) = start_server(config);
    let addr = control.addr();
    let restarts = || {
        let prom = roundtrip(
            addr,
            "GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\n\r\n",
        );
        assert_eq!(prom.status, 200);
        prom.body
            .lines()
            .find_map(|l| l.strip_prefix("million_shard_restarts_total{shard=\"fleet\"} "))
            .map(|v| v.trim().to_string())
    };

    // A token id the model has no embedding row for: a typed 400 at
    // submission, never a panic inside the shard's serve round.
    let response = post(
        addr,
        "/v1/generate",
        "{\"prompt\": [3, 999999], \"max_new_tokens\": 4, \"stream\": false}",
    );
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("bad_request"), "{}", response.body);
    assert!(response.body.contains("999999"), "{}", response.body);

    // A budget that overruns the context window (tiny-test: 256 tokens)
    // finishes at the window with an ordinary report, matching the direct
    // engine run token for token.
    let prompt: Vec<u32> = (0..250u32).map(|i| (i * 7 + 3) % 100).collect();
    let body = format!(
        "{{\"prompt\": {}, \"max_new_tokens\": 64, \"stream\": false}}",
        prompt_json(&prompt)
    );
    let response = post(addr, "/v1/generate", &body);
    assert_eq!(response.status, 200, "{}", response.body);
    let doc = serde_json::from_str(&response.body).unwrap();
    let tokens: Vec<u32> = doc
        .get("tokens")
        .and_then(|t| t.as_array())
        .expect("tokens")
        .iter()
        .map(|t| t.as_f64().unwrap() as u32)
        .collect();
    assert_eq!(tokens, expected_tokens(&settings, &prompt, 7));

    assert_eq!(
        restarts().as_deref(),
        Some("0"),
        "the shard never restarted"
    );
    control.shutdown();
    join.join().unwrap();
}

#[test]
fn drain_closes_admission_then_shutdown_stops_the_server() {
    let config = AppConfig {
        engine: tiny_engine_settings(),
        ..AppConfig::default()
    };
    let (control, join) = start_server(config);
    let addr = control.addr();

    // One complete request first, so the drain has history to keep.
    let body = format!(
        "{{\"prompt\": {}, \"max_new_tokens\": 3, \"stream\": false}}",
        prompt_json(&[2, 4, 8, 16])
    );
    let response = post(addr, "/v1/generate", &body);
    assert_eq!(response.status, 200, "{}", response.body);
    let doc = serde_json::from_str(&response.body).unwrap();
    assert_eq!(
        doc.get("tokens").and_then(|t| t.as_array()).map(<[_]>::len),
        Some(3)
    );

    let drained = post(addr, "/admin/drain", "");
    assert_eq!(drained.status, 200, "{}", drained.body);
    let outcomes = serde_json::from_str(&drained.body).unwrap();
    let outcomes = outcomes.as_array().expect("drain outcome list");
    assert_eq!(outcomes.len(), 2);
    for outcome in outcomes {
        assert_eq!(
            outcome.get("ok").and_then(|v| match v {
                serde_json::Value::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(true),
            "{outcome:?}"
        );
    }

    let refused = post(addr, "/v1/generate", &body);
    assert_eq!(refused.status, 503, "admission closed: {}", refused.body);

    let stopped = post(addr, "/admin/shutdown", "");
    assert_eq!(stopped.status, 200);
    join.join().unwrap();
}
