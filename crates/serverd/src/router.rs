//! Prefix-affinity placement over N engine shards.
//!
//! Prefix sharing only deduplicates *within* one store, so the router's
//! job is to make sure sessions that could share blocks meet in the same
//! shard. Placement hashes the leading `affinity_tokens` prompt tokens
//! with [`million_store::token_chain_hash`] — the *same* two-lane chain
//! the store keys its prefix index by — so "same system prompt" maps to
//! "same home shard" by construction, and the affinity window aligns with
//! block granularity rather than an ad-hoc rehash of the bytes.
//!
//! Backpressure escalates in three stages: the home shard's verdict is
//! authoritative for request-shaped errors (empty prompt, too long,
//! draining); a `QueueFull` home spills to the least-loaded other shard
//! (giving up affinity to stay available); and when every shard is full
//! the request is shed with [`RouteError::Overloaded`], which the HTTP
//! layer turns into `429` + `Retry-After`.

use std::path::Path;
use std::time::Duration;

use million::fault::splitmix64;
use million::{DrainReport, Request, RequestHandle, RequestInfo, SubmitError};
use million_store::token_chain_hash;
use million_telemetry::Event;

use crate::shard::{ShardHandle, ShardHealth, ShardSnapshot, ShardState, ShardSubmitError};

/// Why the router could not place a request.
#[derive(Debug)]
pub enum RouteError {
    /// The request itself is unservable (the home shard's verdict).
    Rejected(SubmitError),
    /// Every shard is at capacity (or down): shed with `Retry-After`.
    Overloaded,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Rejected(e) => write!(f, "{e}"),
            RouteError::Overloaded => write!(f, "all shards are at capacity"),
        }
    }
}

/// The sharding router: owns the shard handles and places requests.
pub struct Router {
    shards: Vec<ShardHandle>,
    affinity_tokens: usize,
    spill: bool,
}

impl Router {
    /// Builds a router over `shards`. `affinity_tokens` is the placement
    /// window; `spill` enables overflow to other shards on `QueueFull`.
    pub fn new(shards: Vec<ShardHandle>, affinity_tokens: usize, spill: bool) -> Self {
        assert!(!shards.is_empty(), "router needs at least one shard");
        Self {
            shards,
            affinity_tokens,
            spill,
        }
    }

    /// Number of shards behind the router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to a shard handle (drain endpoint, tests).
    pub fn shard(&self, index: usize) -> &ShardHandle {
        &self.shards[index]
    }

    /// Home shard for `prompt`: the token-chain hash of its leading
    /// `affinity_tokens` tokens, folded over the shard count. Prompts
    /// sharing at least the affinity window always collide.
    pub fn place(&self, prompt: &[u32]) -> usize {
        let window = self.affinity_tokens.min(prompt.len());
        let hash = token_chain_hash(None, &prompt[..window]);
        ((hash[0] ^ hash[1]) % self.shards.len() as u64) as usize
    }

    /// Places and submits `request`. Returns the shard index it actually
    /// landed on (home, or a spill target) and the streaming handle.
    pub fn submit(&self, request: Request) -> Result<(usize, RequestHandle), RouteError> {
        let home = self.place(&request.prompt);
        let overflow = match self.shards[home].submit(request.clone()) {
            Ok(handle) => return Ok((home, handle)),
            // Only capacity rejections spill; request-shaped rejections
            // would fail identically everywhere.
            Err(ShardSubmitError::Rejected(SubmitError::QueueFull { .. }))
            | Err(ShardSubmitError::Down) => true,
            Err(ShardSubmitError::Rejected(e)) => return Err(RouteError::Rejected(e)),
        };
        if !overflow || !self.spill || self.shards.len() == 1 {
            return Err(RouteError::Overloaded);
        }

        // Spill order: every other shard, least loaded first.
        let mut order: Vec<usize> = (0..self.shards.len()).filter(|&i| i != home).collect();
        order.sort_by_key(|&i| self.shards[i].gauges().load());
        for idx in order {
            match self.shards[idx].submit(request.clone()) {
                Ok(handle) => return Ok((idx, handle)),
                Err(ShardSubmitError::Rejected(SubmitError::QueueFull { .. }))
                | Err(ShardSubmitError::Down) => continue,
                Err(ShardSubmitError::Rejected(e)) => return Err(RouteError::Rejected(e)),
            }
        }
        Err(RouteError::Overloaded)
    }

    /// [`Router::submit`] with a bounded retry loop: an overloaded verdict
    /// is retried up to `retries` times with exponential backoff plus a
    /// deterministic jitter drawn from `splitmix64(seed, attempt)`. This
    /// rides out the transient where a crashed shard's queue is gone and
    /// the survivors are momentarily full — request-shaped rejections
    /// still fail immediately.
    pub fn submit_with_retry(
        &self,
        request: Request,
        retries: u64,
        backoff_ms: u64,
        seed: u64,
    ) -> Result<(usize, RequestHandle), RouteError> {
        let mut attempt = 0u64;
        loop {
            match self.submit(request.clone()) {
                Err(RouteError::Overloaded) if attempt < retries => {
                    attempt += 1;
                    let exponent = (attempt - 1).min(6) as u32;
                    let base = backoff_ms.saturating_mul(1 << exponent);
                    let jitter = match backoff_ms {
                        0 => 0,
                        bound => splitmix64(seed ^ attempt) % bound,
                    };
                    std::thread::sleep(Duration::from_millis(base + jitter));
                }
                other => return other,
            }
        }
    }

    /// Supervision status of every shard — readable even for shards whose
    /// thread is down, so `/metrics` keeps reporting crashed shards.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.shards.iter().map(ShardHandle::health).collect()
    }

    /// Whether any shard is currently between crash and recovery (the
    /// window where its queued work has vanished).
    pub fn any_restarting(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.state() == ShardState::Restarting)
    }

    /// Snapshots every shard for `/metrics` (skips shards that died).
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .filter_map(ShardHandle::snapshot)
            .collect()
    }

    /// Live request tables per shard for `/debug/requests` (skips shards
    /// that died).
    pub fn request_tables(&self) -> Vec<(usize, Vec<RequestInfo>)> {
        self.shards
            .iter()
            .filter_map(|shard| Some((shard.index(), shard.requests()?)))
            .collect()
    }

    /// Drains every shard's lifecycle journal for `/debug/trace`, keyed by
    /// shard index (the trace `pid`).
    pub fn traces(&self) -> Vec<(u64, Vec<Event>)> {
        self.shards
            .iter()
            .filter_map(|shard| Some((shard.index() as u64, shard.trace()?)))
            .collect()
    }

    /// Drains every shard in order; see [`million::ServingEngine::drain`].
    pub fn drain_all(&self, persist_dir: Option<&Path>) -> Vec<Result<DrainReport, String>> {
        self.shards
            .iter()
            .map(|shard| {
                let dir = persist_dir.map(|d| d.join(format!("shard-{}", shard.index())));
                shard.drain(dir)
            })
            .collect()
    }

    /// Stops and joins every shard thread.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use million::GenerationOptions;
    use std::sync::Arc;

    use crate::config::{EngineSettings, ServingSettings};
    use crate::engine::build_engine;
    use crate::shard::{spawn_shard, SupervisorSettings};

    fn tiny_router(shards: usize, queue_capacity: usize, max_resident: usize) -> Router {
        let engine = Arc::new(
            build_engine(&EngineSettings {
                model: "tiny-test".into(),
                calibration_tokens: 96,
                async_quant: false,
                ..EngineSettings::default()
            })
            .unwrap(),
        );
        let serving = ServingSettings {
            max_resident,
            queue_capacity,
            ..ServingSettings::default()
        };
        let handles = (0..shards)
            .map(|i| {
                spawn_shard(
                    i,
                    Arc::clone(&engine),
                    serving.clone(),
                    SupervisorSettings::default(),
                )
                .unwrap()
            })
            .collect();
        Router::new(handles, 4, true)
    }

    #[test]
    fn placement_is_deterministic_and_prefix_affine() {
        let router = tiny_router(3, 8, 4);
        let a = vec![1, 2, 3, 4, 50, 60];
        let b = vec![1, 2, 3, 4, 70, 80, 90]; // same 4-token window as `a`
        assert_eq!(router.place(&a), router.place(&b));
        assert_eq!(router.place(&a), router.place(&a));
        // Different windows spread across shards (not all on one shard).
        let placements: std::collections::HashSet<usize> = (0..32u32)
            .map(|s| router.place(&[s * 7 + 1, s * 11 + 2, s, s + 3]))
            .collect();
        assert!(placements.len() > 1, "placements {placements:?}");
        router.shutdown();
    }

    #[test]
    fn queue_full_spills_to_another_shard_then_sheds() {
        let router = tiny_router(2, 1, 1);
        // Pause both shards so nothing drains while we overfill.
        router.shard(0).pause(true);
        router.shard(1).pause(true);
        let prompt = vec![9, 8, 7, 6];
        let home = router.place(&prompt);
        let mk = || Request::new(prompt.clone(), GenerationOptions::max_tokens(2));

        // Capacity per shard while paused: queue_capacity = 1.
        let (s1, _h1) = router.submit(mk()).unwrap();
        assert_eq!(s1, home, "first lands at home");
        let (s2, _h2) = router.submit(mk()).unwrap();
        assert_ne!(s2, home, "overflow spills off-home");
        let err = router.submit(mk()).unwrap_err();
        assert!(matches!(err, RouteError::Overloaded), "third is shed");

        // Bad requests are rejected outright, never spilled.
        let err = router
            .submit(Request::new(vec![], GenerationOptions::max_tokens(2)))
            .unwrap_err();
        assert!(matches!(
            err,
            RouteError::Rejected(SubmitError::EmptyPrompt)
        ));
        router.shutdown();
    }
}
