//! # serverd — the networked serving front-end for MILLION
//!
//! [`million::ServingEngine`] gives one thread continuous-batching over
//! one engine; this crate puts a network in front of a *fleet* of them:
//!
//! - **[`http`]** — a hand-rolled HTTP/1.1 + SSE layer over `std::net`
//!   (the build vendors no async runtime, and a threaded server is all a
//!   simulator-backed engine needs).
//! - **[`config`]** — layered [`config::AppConfig`]: defaults → TOML file
//!   → `SERVERD_*` environment → CLI flags, with one typed dispatcher so
//!   every layer validates identically.
//! - **[`engine`]** — the one engine per process: [`server::Server::bind`]
//!   builds the model and trains the codebooks once, and every shard serves
//!   from it.
//! - **[`shard`]** — each shard is a thread owning a serving loop over its
//!   own block store (a sibling of the shared engine), driven by a command
//!   channel and publishing lock-free load gauges.
//! - **[`router`]** — prefix-affinity placement: prompts are hashed with
//!   the store's own token-chain hash over their leading tokens, so
//!   sessions sharing a system prompt land in the same shard's PQ store
//!   and deduplicate; `QueueFull` spills to the least-loaded shard, and a
//!   saturated fleet sheds with `429 Retry-After`.
//! - **[`server`]** — the accept loop and endpoints: `POST /v1/generate`
//!   (SSE token streaming, client-disconnect cancellation), `GET
//!   /metrics`, `GET /debug/requests`, `GET /debug/trace`, `GET /config`,
//!   `POST /admin/drain`, `POST /admin/shutdown`.
//! - **[`prom`]** — Prometheus text exposition of every counter, gauge,
//!   and latency histogram, per shard and fleet-total; the default
//!   `GET /metrics` body (JSON stays available under
//!   `Accept: application/json`).
//!
//! See `docs/SERVING.md` ("Network front-end & sharding") for the
//! protocol and `examples/networked_serving.rs` for an end-to-end driver.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod http;
pub mod prom;
pub mod router;
pub mod server;
pub mod shard;

pub use config::{
    AppConfig, ConfigError, EngineSettings, FaultSettings, ServerSettings, ServingSettings,
};
pub use engine::{build_engine, BuildError};
pub use router::{RouteError, Router};
pub use server::{Server, ServerControl, ServerdError};
pub use shard::{
    spawn_shard, ShardGauges, ShardHandle, ShardHealth, ShardSnapshot, ShardState,
    ShardSubmitError, SupervisorSettings,
};
